"""Independent oracles for the benchmark's output checks.

Nothing here imports kmcert: every expected value is recomputed from
definitions, by a different route where one exists.

  * GCM class from the inertia of the symmetrized form (Kac,
    *Infinite-dimensional Lie algebras*, ch. 4): for an indecomposable
    symmetrizable A with E A symmetric and E positive diagonal, A is
    Spherical iff E A is positive definite, Affine iff it is positive
    semidefinite and singular, Indefinite otherwise.
  * n(A) from the closed forms (2d-2)^2, 3(2d-2)^4, 188(2d-2)^16.
  * m(R) by trial division for each ring of the grammar.
  * s_i(m) against 1/(|Sigma|-1) by integer square-root intervals, with an
    exact squaring test only when the interval cannot decide.
  * Weyl reflections, and an exact real-root test by height descent.
  * Closure orders: 3x3 unitriangular matrices, |SL3(q)|, q^{#roots}.
  * Shear rows from math.comb, and a small re-implementation of the size-4
    shear action and region rule on freshly drawn transport vectors.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

# ------------------------------------------------------------ matrices ---


def symmetrizer(gcm):
    """Positive integers e_i with e_i a_ij = e_j a_ji, or None."""
    d = len(gcm)
    e = [None] * d
    for start in range(d):
        if e[start] is not None:
            continue
        e[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(d):
                if j == i or gcm[i][j] == 0:
                    continue
                want = e[i] * gcm[i][j] / gcm[j][i]
                if e[j] is None:
                    e[j] = want
                    stack.append(j)
                elif e[j] != want:
                    return None
    lcm = 1
    for x in e:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    return [int(x * lcm) for x in e]


def inertia(sym):
    """(positive, negative, zero) counts of a symmetric rational matrix.

    Congruence diagonalization: pivot on a nonzero diagonal entry, or make
    one by adding a row/column pair when the diagonal is zero.
    """
    m = [[Fraction(x) for x in row] for row in sym]
    n = len(m)
    pos = neg = 0
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    continue
                for c in range(n):
                    m[k][c] += m[j][c]
                for r in range(n):
                    m[r][k] += m[r][j]
        p = m[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = m[i][k] / p
            if f:
                for c in range(k, n):
                    m[i][c] -= f * m[k][c]
        for i in range(k + 1, n):
            m[k][i] = Fraction(0)
            m[i][k] = Fraction(0)
    return pos, neg, n - pos - neg


def components(gcm):
    d = len(gcm)
    seen, out = set(), []
    for s in range(d):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            i = stack.pop()
            for j in range(d):
                if j != i and gcm[i][j] and j not in comp:
                    comp.add(j)
                    stack.append(j)
        seen |= comp
        out.append(sorted(comp))
    return out


def _kind_indecomposable(gcm):
    e = symmetrizer(gcm)
    if e is None:
        raise ValueError("inertia classifier needs a symmetrizable matrix")
    d = len(gcm)
    pos, neg, zero = inertia([[e[i] * gcm[i][j] for j in range(d)] for i in range(d)])
    if pos == d:
        return "Spherical"
    if neg == 0:
        return "Affine"
    return "Indefinite"


def classify_kind(gcm):
    comps = components(gcm)
    if len(comps) == 1:
        return _kind_indecomposable(gcm)
    sub = [[[gcm[i][j] for j in c] for i in c] for c in comps]
    if all(_kind_indecomposable(s) == "Spherical" for s in sub):
        return "Spherical"
    return "Indefinite"


def n_of_A(d, M):
    b = 2 * d - 2
    return {0: b**2, 1: b**2, 2: 3 * b**4, 3: 188 * b**16}[M]


def classification(gcm):
    """Expected classification fields, computed without principal minors."""
    d = len(gcm)
    products = [gcm[i][j] * gcm[j][i] for i in range(d) for j in range(i + 1, d)]
    M = max((abs(gcm[i][j]) for i in range(d) for j in range(d) if i != j), default=0)
    indecomposable = len(components(gcm)) == 1
    two_spherical = all(p <= 3 for p in products)
    nA = n_of_A(d, M) if (two_spherical and indecomposable and d >= 2 and M <= 3) else None
    return {
        "kind": classify_kind(gcm),
        "indecomposable": indecomposable,
        "two_spherical": two_spherical,
        "simply_laced": all(p <= 1 for p in products),
        "M": M,
        "nA": nA,
    }


# --------------------------------------------------------------- rings ---


def is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def parse_ring(spec):
    """('Z/', q) | ('Zloc!', n) | ('Zi!', n) | ('poly', inner)."""
    if spec.startswith("poly(") and spec.endswith(")"):
        return ("poly", parse_ring(spec[5:-1]))
    for head in ("Z/", "Zloc!", "Zi!"):
        if spec.startswith(head):
            return (head, int(spec[len(head):]))
    raise ValueError(f"not a ring spec: {spec!r}")


def min_ideal_index(ring):
    """m(R) by trial division."""
    kind, arg = ring
    if kind == "poly":
        return min_ideal_index(arg)
    if kind == "Z/":
        return next(k for k in range(2, arg + 1) if arg % k == 0)
    if kind == "Zloc!":
        return next(p for p in range(arg + 1, 2 * arg + 3) if is_prime(p))
    # Z[i, 1/n!]: residue fields at the primes above p > n have size 2
    # (p = 2), p (p = 1 mod 4, split) or p^2 (p = 3 mod 4, inert)
    best = None
    p = arg + 1
    while best is None or p < best:
        if is_prime(p):
            size = 2 if p == 2 else (p if p % 4 == 1 else p * p)
            best = size if best is None else min(best, size)
        p += 1
    return best


def is_unit(ring, u):
    kind, arg = ring
    if kind == "poly":
        return is_unit(arg, u)
    if kind == "Z/":
        return math.gcd(u, arg) == 1
    return all(p <= arg for p in range(2, u + 1) if u % p == 0 and is_prime(p))


# ------------------------------------------------------- bound sequence ---

_S_INDEX = {0: 0, 1: 1, 2: 2, 3: 4}  # a_ij * a_ji -> i of s_i
RANK2_TYPE = {0: "A1xA1", 1: "A2", 2: "B2", 3: "G2"}


def s_float(m, i):
    s = 0.0
    for _ in range(i):
        s = math.sqrt(s + 1.0 / m)
    return s


def _s_interval(m, i, bits):
    """Rationals lo <= s_i(m) <= hi, by integer square roots at 2^-bits."""
    scale = 1 << (2 * bits)
    lo = hi = Fraction(0)
    for _ in range(i):
        xl, xh = lo + Fraction(1, m), hi + Fraction(1, m)
        lo = Fraction(math.isqrt(math.floor(xl * scale)), 1 << bits)
        hi = Fraction(math.isqrt(math.ceil(xh * scale)) + 1, 1 << bits)
    return lo, hi


def _s_equals(m, i, t):
    # s_i = t  iff  t >= 0 and s_{i-1} = t^2 - 1/m, down to s_0 = 0
    for _ in range(i):
        if t < 0:
            return False
        t = t * t - Fraction(1, m)
    return t == 0


def compare_s(m, i, threshold):
    """Sign of s_i(m) - threshold, exactly."""
    t = Fraction(threshold)
    for bits in (64, 256):
        lo, hi = _s_interval(m, i, bits)
        if t < lo:
            return 1
        if t > hi:
            return -1
    if _s_equals(m, i, t):
        return 0
    lo, hi = _s_interval(m, i, 4096)
    return 1 if t < lo else -1


# ---------------------------------------------------------------- roots ---


def reflect_root(gcm, i, x):
    """s_i on root coordinates: x - <a_i^, x> a_i, with i 0-based."""
    c = sum(a * xj for a, xj in zip(gcm[i], x))
    return tuple(v - c if j == i else v for j, v in enumerate(x))


def reflect_coroot(gcm, i, y):
    c = sum(gcm[j][i] * yj for j, yj in enumerate(y))
    return tuple(v - c if j == i else v for j, v in enumerate(y))


def apply_word(gcm, word, x, y=None):
    """First letter acts first; letters are 1-based."""
    for k in word:
        x = reflect_root(gcm, k - 1, x)
        if y is not None:
            y = reflect_coroot(gcm, k - 1, y)
    return x if y is None else (x, y)


def pairing(gcm, y, x):
    return sum(yi * gcm[i][j] * xj for i, yi in enumerate(y) if yi for j, xj in enumerate(x) if xj)


def is_real_root(gcm, v):
    """Exact test for symmetrizable A: descend by heights to a simple root.

    For a positive real root that is not simple some <a_i^, v> > 0 (the
    invariant form is positive on it), and s_i v is a positive real root of
    smaller height; W maps non-roots to non-roots, so a vector that leaves
    the positive cone or gets stuck is not a real root.
    """
    if all(c <= 0 for c in v):
        v = tuple(-c for c in v)
    if not any(v) or any(c < 0 for c in v):
        return False
    while sum(v) > 1:
        i = next((i for i in range(len(v)) if sum(a * x for a, x in zip(gcm[i], v)) > 0), None)
        if i is None:
            return False
        v = reflect_root(gcm, i, v)
        if any(c < 0 for c in v):
            return False
    return True


def count_roots(gcm, cap, limit):
    """Real roots of height <= cap, or limit + 1 once the count passes limit."""
    d = len(gcm)
    seen = set()
    frontier = []
    for i in range(d):
        a = tuple(1 if k == i else 0 for k in range(d))
        for r in (a, tuple(-c for c in a)):
            seen.add(r)
            frontier.append(r)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(d):
                s = reflect_root(gcm, i, r)
                if s not in seen and sum(map(abs, s)) <= cap:
                    seen.add(s)
                    nxt.append(s)
                    if len(seen) > limit:
                        return limit + 1
        frontier = nxt
    return len(seen)


def simple(d, i):
    return tuple(1 if k == i - 1 else 0 for k in range(d))


def sigma(gcm):
    """(pi1, pi2, members) with members as (root, coroot) pairs."""
    d = len(gcm)
    pi1 = []
    for v in range(1, d + 1):
        if all(gcm[v - 1][u - 1] == 0 for u in pi1):
            pi1.append(v)
    pi2 = [v for v in range(1, d + 1) if v not in pi1]
    members = [(simple(d, i), simple(d, i)) for i in range(1, d + 1)]
    for j in pi2:
        neg = tuple(-c for c in simple(d, j))
        members.append(apply_word(gcm, pi1, neg, neg))
    return pi1, pi2, members


def required_cap(members):
    """Height cap at which every member pair's closed interval is complete."""
    hs = [sum(map(abs, r)) for r, _ in members]
    return max(
        [2 * (a + b) + max(a, b, 5) for a, b in combinations(hs, 2)] or [1]
    )


# ------------------------------------------------------- certify oracle ---


def _check_pair(gcm, members, p, m, threshold):
    """Problems with one pair_bound entry of a certify payload."""
    errs = []
    a = next(x for x in members if list(x[0]) == p["pair"][0])
    b = next(x for x in members if list(x[0]) == p["pair"][1])
    if p["kind"] == "RankTwoEmbed":
        i, j = p["indices"]
        wa = apply_word(gcm, p["word"], a[0])
        wb = apply_word(gcm, p["word"], b[0])
        allowed = {i - 1, j - 1}
        if not all(k in allowed for v in (wa, wb) for k, c in enumerate(v) if c):
            errs.append(f"word {p['word']} does not move {p['pair']} into <a_{i}, a_{j}>")
        prod = gcm[i - 1][j - 1] * gcm[j - 1][i - 1]
        idx = _S_INDEX[prod]
        want_type = RANK2_TYPE[prod]
        want_bound = s_float(m, idx)
        cmp = compare_s(m, idx, threshold)
    elif p["kind"] == "Commute":
        (ra, ca), (rb, cb) = a, b
        opposite = all(c >= 0 for c in ra) != all(c >= 0 for c in rb)
        disjoint = all(x == 0 or y == 0 for x, y in zip(ra, rb))
        if p["reason"] == "disjoint-support":
            ok = opposite and disjoint
        else:
            pa, pb = pairing(gcm, ca, rb), pairing(gcm, cb, ra)
            prenil = pa >= 0 or pa * pb <= 3
            ok = prenil and not any(
                is_real_root(gcm, tuple(s * x + t * y for x, y in zip(ra, rb)))
                for s in range(1, 5)
                for t in range(1, 5)
            )
        if not ok:
            errs.append(f"commutation claim {p['reason']} fails for {p['pair']}")
        want_type, want_bound, cmp = None, 0.0, -1
    else:
        return [f"unknown certificate kind {p['kind']!r}"], 1
    if p["rank2type"] != want_type:
        errs.append(f"rank2type {p['rank2type']} != {want_type}")
    if not math.isclose(p["bound"], want_bound, rel_tol=1e-12, abs_tol=1e-15):
        errs.append(f"bound {p['bound']} != {want_bound}")
    if (p["below_threshold"], p["at_threshold"]) != (cmp < 0, cmp == 0):
        errs.append(f"threshold flags wrong for {p['pair']}")
    return errs, cmp


def check_certificate(gcm, ring_spec, payload, code):
    """Every problem found in a certify payload and its exit code."""
    errs = []
    d = len(gcm)
    cls = classification(gcm)
    want_gcm = dict(cls, d=d)
    if payload["gcm"] != want_gcm:
        errs.append(f"gcm section {payload['gcm']} != {want_gcm}")
    ring = parse_ring(ring_spec)
    m = min_ideal_index(ring)
    if payload["ring"] != ring_spec or payload["m"] != m:
        errs.append(f"ring/m {payload['ring']}/{payload['m']} != {ring_spec}/{m}")

    hyps = [
        ("size", d >= 2),
        ("indecomposable", cls["indecomposable"]),
        ("two_spherical", cls["two_spherical"]),
        ("M_le_3", cls["M"] <= 3),
    ]
    structural = all(ok for _, ok in hyps)
    if structural:
        hyps.append(("small_integers_invertible", all(is_unit(ring, u) for u in range(2, cls["M"] + 1))))
        hyps.append(("min_ideal_index", m >= cls["nA"]))

    orth_verdict = None
    if structural:
        pi1, pi2, members = sigma(gcm)
        want_sigma = {
            "pi1": pi1,
            "pi2": pi2,
            "w0": pi1,
            "sigma": [list(r) for r, _ in members],
            "index_set": None,
        }
        if payload["sigma"] != want_sigma:
            errs.append(f"sigma {payload['sigma']} != {want_sigma}")
        hyps.append(("sigma_certified", True))
        k = len(members)
        threshold = Fraction(1, k - 1)
        units_needed = set()
        report = payload["bound_report"]
        pairs = [] if report is None else report["pairs"]
        for p in pairs:
            if p["kind"] == "RankTwoEmbed":
                i, j = p["indices"]
                units_needed |= {2: {2}, 3: {2, 3}}.get(gcm[i - 1][j - 1] * gcm[j - 1][i - 1], set())
        if report is None:
            # the bound chain refuses B2/G2 pairs over rings lacking 2 or 3
            if all(is_unit(ring, u) for u in range(2, cls["M"] + 1)):
                errs.append("bound_report missing although 2..M are units")
            hyps.append(("orthogonality", False))
        else:
            got = sorted(tuple(map(tuple, p["pair"])) for p in pairs)
            want = sorted((tuple(a[0]), tuple(b[0])) for a, b in combinations(members, 2))
            if got != want:
                errs.append("bound_report does not list every Sigma pair once")
            cmps = []
            for p in pairs:
                pe, cmp = _check_pair(gcm, members, p, m, threshold)
                errs += pe
                cmps.append(cmp)
            orth_verdict = "Fails" if any(c > 0 for c in cmps) else (
                "Boundary" if any(c == 0 for c in cmps) else "AllBelow"
            )
            if not all(is_unit(ring, u) for u in units_needed):
                errs.append("bound_report present although a needed unit is missing")
            want_report = {
                "sigma_size": k,
                "threshold": 1 / (k - 1),
                "threshold_exact": f"1/{k - 1}",
                "max_bound": max((p["bound"] for p in pairs), default=0.0),
                "verdict": orth_verdict,
            }
            got_report = {key: report[key] for key in want_report}
            if got_report != want_report:
                errs.append(f"bound_report header {got_report} != {want_report}")
            hyps.append(("orthogonality", orth_verdict == "AllBelow"))
    elif payload["sigma"] is not None or payload["bound_report"] is not None:
        errs.append("sigma/bounds present for a structurally unfit matrix")

    got_h = [(h["name"], h["pass"]) for h in payload["hypotheses"]]
    if got_h != hyps:
        errs.append(f"hypotheses {got_h} != {hyps}")
    if all(ok for _, ok in hyps):
        verdict = "certified"
    elif orth_verdict == "Boundary" and all(ok for n, ok in hyps if n != "orthogonality"):
        verdict = "boundary"
    else:
        verdict = "failed"
    if payload["verdict"] != verdict:
        errs.append(f"verdict {payload['verdict']} != {verdict}")
    want_code = 0 if verdict == "certified" else 1
    if code != want_code:
        errs.append(f"exit code {code} != {want_code}")
    return errs


# --------------------------------------------------------- rank-2 oracle ---

_N_ROOTS = {"A2": 3, "B2": 4, "G2": 6}


def _mat3(a, b, q):
    return tuple(
        sum(a[3 * i + k] * b[3 * k + j] for k in range(3)) % q for i in range(3) for j in range(3)
    )


def unitriangular_order(q):
    """Order of the group generated by the 3x3 unitriangular E12, E23, E13."""
    gens = [(1, 1, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 1, 1, 0, 0, 1), (1, 0, 1, 0, 1, 0, 0, 0, 1)]
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        frontier = [p for p in {_mat3(e, g, q) for e in frontier for g in gens} if p not in seen]
        seen.update(frontier)
    return len(seen)


def sl3_order(q):
    """|SL3(F_q)| for a prime q."""
    return q**3 * (q**2 - 1) * (q**3 - 1)


def chevalley_tried(typ, q):
    """check name -> tried count promised by `verify chevalley`."""
    n = _N_ROOTS[typ]
    out = {"order_equals_q_pow_roots": 1, "associativity_random": 1000}
    if q**n <= 3**6:
        out["inverses_exhaustive"] = q**n
    else:
        out["inverses_random"] = 1000
    sq = (q - 1) ** 2
    if typ == "B2":
        out["b2_a_plus_2b_central"] = 4 * sq
        out.update(additivity=8 * q * q, form_preserved=8 * q, commutators_match_engine=6 * q * q)
    if typ == "G2":
        out["g2_2a_plus_3b_central"] = 6 * sq
        out["g2_quotient_a_plus_3b_central"] = 5 * sq
        if math.gcd(q, 6) == 1:
            out.update(
                rel_a_b_matches_b2_form=q * q,
                rel_ab_b_matches_b2_form=q * q,
                coordinate_map_is_letterwise_homomorphism=q**4 * 4 * (q - 1),
                dictionary_verified_exhaustively=q**5,
            )
    if typ == "A2" and q <= 3:
        out.update(injective=q**3, multiplicative=q**6)
    return out


def _checks_clean(payload, tried):
    errs = []
    got = {c["name"]: (c["tried"], c["failed"]) for c in payload["checks"]}
    want = {k: (v, 0) for k, v in tried.items()}
    if got != want:
        errs.append(f"checks {got} != {want}")
    if payload["ok"] is not True:
        errs.append("report not ok")
    return errs


def check_chevalley(typ, q, payload, code):
    errs = _checks_clean(payload, chevalley_tried(typ, q))
    want = q ** _N_ROOTS[typ]
    if typ == "A2":
        want = unitriangular_order(q)
    if (payload["order"], payload["expected"]) != (want, q ** _N_ROOTS[typ]):
        errs.append(f"order {payload['order']}/{payload['expected']} != {want}")
    if payload["report"] != f"chevalley_{typ}_q{q}" or code != 0:
        errs.append(f"report {payload['report']} exit {code}")
    return errs


def check_generation(q, payload, code):
    errs = _checks_clean(payload, {"order_equals_full_group": 1})
    want = sl3_order(q)
    if (payload["order"], payload["expected"]) != (want, want) or code != 0:
        errs.append(f"order {payload['order']}/{payload['expected']} != {want}, exit {code}")
    return errs


def check_affine(d, q, window, payload, code):
    n = 2 * d  # signed simple roots; each has exactly one opposite
    tried = {
        "r1_additivity": n * q * q,
        "r2_commutators_match_law": (n * (n - 1) - n) * q * q,
        "gcm_prenilpotency_agrees_with_law": n * (n - 1),
    }
    errs = _checks_clean(payload, tried)
    if payload["skipped_opposite_pairs"] != n or code != 0:
        errs.append(f"skipped {payload['skipped_opposite_pairs']} != {n}, exit {code}")
    if payload["report"] != f"affine_pi_d{d}_q{q}_w{window}":
        errs.append(f"report name {payload['report']}")
    return errs


# ------------------------------------------------------- symrep oracle ---


def shear_rows(n, s, upper, q):
    """Size-n shear rows from binomial coefficients, mod q."""
    if upper:
        return tuple(
            tuple(math.comb(n - k, i - k) * s ** (i - k) % q if i >= k else 0 for i in range(1, n + 1))
            for k in range(1, n + 1)
        )
    return tuple(
        tuple(math.comb(k - 1, k - i) * s ** (k - i) % q if i <= k else 0 for i in range(1, n + 1))
        for k in range(1, n + 1)
    )


def _rows_mul(a, b, q):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n)) for i in range(n))


def check_symrep(n, q, payload, code, rng):
    tried = {
        "shear_additive_upper": q * q,
        "shear_additive_lower": q * q,
        "oracle_matches_shear": 2 * q,
        "oracle_multiplicative_random": 100,
    }
    errs = _checks_clean(payload, tried)
    if payload["report"] != f"symrep_n{n}_q{q}" or code != 0:
        errs.append(f"report {payload['report']} exit {code}")
    # the property the report certifies, on a seeded subsample
    for _ in range(20):
        s1, s2, upper = rng.randrange(q), rng.randrange(q), rng.random() < 0.5
        lhs = _rows_mul(shear_rows(n, s1, upper, q), shear_rows(n, s2, upper, q), q)
        if lhs != shear_rows(n, (s1 + s2) % q, upper, q):
            errs.append(f"shear rows not additive at n={n} q={q} s=({s1},{s2})")
    return errs


# ----------------------------------------------------- transport oracle ---

# Laurent series over Z/q as {degree: coeff}; the valuation is the top degree.


def _lp_add(parts, q):
    out = {}
    for scale, shift, comp in parts:
        for deg, c in comp.items():
            out[deg + shift] = (out.get(deg + shift, 0) + scale * c) % q
    return {k: v for k, v in out.items() if v}


def shear_act(vec, upper, s_sign, s_deg, q):
    """Row vector times the size-4 shear with s = s_sign * t^s_deg."""
    rows = shear_rows(4, 1, upper, q)  # binomials; the power of s is i - k
    out = []
    for i in range(4):
        parts = []
        for k in range(4):
            c = rows[k][i]
            if c:
                e = abs(i - k)
                parts.append((c * s_sign**e, s_deg * e, vec[k]))
        out.append(_lp_add(parts, q))
    return tuple(out)


def region(vec, q):
    """(attained, strict, E, B, S) for a nonzero vector."""
    vals = [max(c) if c else None for c in vec]
    top = max(v for v in vals if v is not None)
    att = tuple(v == top for v in vals)
    strict = tuple(a and sum(att) == 1 for a in att)
    e = att[0] and att[3]
    b = att[1] and att[2] and not att[0] and not att[3]
    s = bool(b and vec[0] and max(vec[0]) + 3 == top + 2 and (vec[0][max(vec[0])] + vec[1][top]) % q == 0)
    return att, strict, e, b, s


_SOURCES = {
    "A1": lambda r: r[0][0],
    "A4": lambda r: r[0][3],
    "A23strict": lambda r: r[1][1] or r[1][2],
    "BminusS": lambda r: r[3] and not r[4],
    "S": lambda r: r[4],
}
_TARGETS = {
    "A1_not_strict": lambda r: r[0][0] and not r[1][0],
    "A4_not_strict": lambda r: r[0][3] and not r[1][3],
    "A1_strict": lambda r: r[1][0],
    "A4_strict": lambda r: r[1][3],
    "E": lambda r: r[2],
    "A3strict_or_A4": lambda r: r[1][2] or r[0][3],
}
# (source, [(upper, s_sign, s_deg, target)]); s in {1, t}
TRANSPORT_FACTS = {
    "uplus1_A2o_A3o_to_A4_minus_A4o": ("A23strict", [(True, 1, 0, "A4_not_strict")]),
    "uminus1_A2o_A3o_to_A1_minus_A1o": ("A23strict", [(False, 1, 0, "A1_not_strict")]),
    "uplust_uminus1_A1_to_A4o_to_E": ("A1", [(True, 1, 1, "A4_strict"), (False, 1, 0, "E")]),
    "uminust_uplus1_A4_to_A1o_to_E": ("A4", [(False, 1, 1, "A1_strict"), (True, 1, 0, "E")]),
    "uplust_uminust_A1_to_A1o": ("A1", [(True, 1, 1, "A4_strict"), (False, 1, 1, "A1_strict")]),
    "uminust_uplust_A4_to_A4o": ("A4", [(False, 1, 1, "A1_strict"), (True, 1, 1, "A4_strict")]),
    "uplust_B_minus_S_to_A4o": ("BminusS", [(True, 1, 1, "A4_strict")]),
    "uplust_S_to_A3o_or_A4": ("S", [(True, 1, 1, "A3strict_or_A4")]),
}


def _draw(rng, q, source):
    """A vector in the source region, by construction plus a region test."""
    while True:
        top = rng.randint(-3, 3)
        vec = [{} for _ in range(4)]
        for c in vec:
            for _ in range(rng.randrange(3)):
                c[rng.randint(-4, top)] = rng.randrange(1, q)
        lead = {"A1": [0], "A4": [3], "A23strict": [rng.choice((1, 2))], "BminusS": [1, 2], "S": [1, 2]}[source]
        for i in range(4):
            if i in lead:
                vec[i][top] = rng.randrange(1, q)
            else:
                cut = top if source in ("A1", "A4") else top - 1
                vec[i] = {k: v for k, v in vec[i].items() if k <= cut}
        if source == "S":
            vec[0] = {k: v for k, v in vec[0].items() if k < top - 1}
            vec[0][top - 1] = (-vec[1][top]) % q
        vec = tuple(vec)
        if _SOURCES[source](region(vec, q)):
            return vec


def transport_subsample(q, rng, per_fact):
    """Problems found replaying every transport fact on fresh vectors."""
    errs = []
    for name, (source, stages) in TRANSPORT_FACTS.items():
        for _ in range(per_fact):
            vec = _draw(rng, q, source)
            for upper, sign, deg, target in stages:
                vec = shear_act(vec, upper, sign, deg, q)
                if not _TARGETS[target](region(vec, q)):
                    errs.append(f"{name}: target {target} missed at q={q}")
                    break
    return errs


LEDGER_TRIED = {
    "dag_acyclic": 20,
    "coefficient_arithmetic": 20,
    "subset_facts_hold_on_tags": 48,
    "five_sets_cover_everything": 16,
    "sum_is_22": 1,
    "c_equals_1_over_22_saturates_mass": 1,
}


def check_transport(q, samples, seed, payload, code, rng, per_fact):
    tried = {name: samples for name in TRANSPORT_FACTS}
    tried["s_conditions_never_simultaneous"] = 2 * samples
    tried.update(LEDGER_TRIED)
    errs = _checks_clean(payload, tried)
    if payload["report"] != f"transport_q{q}_n{samples}_seed{seed}" or code != 0:
        errs.append(f"report {payload['report']} exit {code}")
    if payload["coefficients"]["total"] != 22:
        errs.append("ledger total is not 22")
    return errs + transport_subsample(q, rng, per_fact)

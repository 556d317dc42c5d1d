"""Symmetric-power shear matrices and Laurent-series region transport.

The size-n shear matrices are

    upper_{ki} = C(n-k, i-k) s^(i-k)      (0 below the diagonal)
    lower_{ki} = C(k-1, k-i) s^(k-i)      (0 above the diagonal)

i.e. rows are binomial expansions of (1+s)^m.  They arise as the action of
the elementary matrices E12(s)/E21(s) on the (n-1)-st symmetric power of
the standard rank-2 module; sym_power_oracle recomputes them from that
definition (monomial basis x^(n-k) y^(k-1), substitution x -> ax+by,
y -> cx+dy) and is the convention lock for the row/column order.

The transport part works in the 4-fold product of truncated Laurent series
over Z/q, gcd(q, 6) = 1.  A series is a dict {degree: coeff} in t; the
valuation is the top degree.  Vectors are classified into the regions

    A_i   max valuation attained at component i
    A_i*  attained only at i (written A_i^o elsewhere)
    E     attained at both 1 and 4
    B     attained at 2 and 3 but neither 1 nor 4
    S     B and lead(t^3 x1) + lead(t^2 x2) = 0 as monomials

and the verifier samples region members, applies words in the four shear
matrices with s in {1, -1, t, -t}, and asserts the target region of each
step.  The mean-bookkeeping (the 22C ledger) is replayed symbolically.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .errors import (
    BadModulus,
    BadN,
    SoundnessCheckFailed,
    TypeMismatch,
    UnsupportedS,
    ZeroVector,
)
from .chevalley import mat_mul
from .laurent import lp_add, lp_canon, lp_leading, lp_scale, lp_valuation
from .report import CheckReport

UPPER = "upper"
LOWER = "lower"


# ---------------------------------------------------------------- shears ---


def shear_rows(n, s, orientation=UPPER, q=None):
    """Rows of the size-n shear with parameter s (any ring element)."""
    if n < 2:
        raise BadN(f"n = {n} < 2")
    if orientation not in (UPPER, LOWER):
        raise TypeMismatch(f"orientation {orientation!r}")
    rows = []
    for k in range(1, n + 1):
        row = []
        for i in range(1, n + 1):
            if orientation == UPPER:
                c, e = (math.comb(n - k, i - k), i - k) if i >= k else (0, 0)
            else:
                c, e = (math.comb(k - 1, k - i), k - i) if i <= k else (0, 0)
            if c == 0:
                entry = 0
            elif e == 0:
                entry = c
            else:
                entry = c * s**e
            if q is not None:
                entry = entry % q
            row.append(entry)
        rows.append(tuple(row))
    return tuple(rows)


def sym_power_oracle(n, g, q=None):
    """Matrix of g = ((a,b),(c,d)) on monomials x^(n-k) y^(k-1), k = 1..n.

    Row k lists the coefficients of the image of the k-th monomial under
    x -> ax+by, y -> cx+dy.  Reproduces shear_rows on unipotent input.
    """
    if n < 2:
        raise BadN(f"n = {n} < 2")
    (a, b), (c, d) = g
    rows = []
    for k in range(1, n + 1):
        p1 = [
            math.comb(n - k, j) * a ** (n - k - j) * b**j for j in range(n - k + 1)
        ]  # index = y-degree from the x-factor
        p2 = [math.comb(k - 1, j) * c ** (k - 1 - j) * d**j for j in range(k)]
        conv = [0] * n
        for j1, c1 in enumerate(p1):
            for j2, c2 in enumerate(p2):
                conv[j1 + j2] = conv[j1 + j2] + c1 * c2
        row = [conv[i - 1] for i in range(1, n + 1)]
        if q is not None:
            row = [v % q for v in row]
        rows.append(tuple(row))
    return tuple(rows)


def _flat(rows):
    """Row tuples -> one flat row-major tuple, the layout mat_mul takes."""
    return tuple([x for row in rows for x in row])


# Largest modulus symrep_report accepts: the additivity check multiplies q^2
# pairs of n x n shear matrices; n = 6 at q = 128 takes about 0.6 s on a
# 2-vCPU x86-64 virtual machine.
SYMREP_MAX_Q = 128


def symrep_report(n, q):
    """Exhaustive homomorphism + convention-lock checks for one (n, q)."""
    if not 2 <= q <= SYMREP_MAX_Q:
        raise BadModulus(f"q = {q} outside 2..{SYMREP_MAX_Q}")
    rep = CheckReport(f"symrep_n{n}_q{q}")
    for orientation in (UPPER, LOWER):
        flat = [_flat(shear_rows(n, s, orientation, q)) for s in range(q)]
        tried = failed = 0
        for s1 in range(q):
            for s2 in range(q):
                tried += 1
                if mat_mul(flat[s1], flat[s2], n, q) != flat[(s1 + s2) % q]:
                    failed += 1
        rep.add(f"shear_additive_{orientation}", tried, failed)
    tried = failed = 0
    for s in range(q):
        tried += 2
        up = sym_power_oracle(n, ((1, s), (0, 1)), q)
        lo = sym_power_oracle(n, ((1, 0), (s, 1)), q)
        if up != shear_rows(n, s, UPPER, q):
            failed += 1
        if lo != shear_rows(n, s, LOWER, q):
            failed += 1
    rep.add("oracle_matches_shear", tried, failed)

    def oracle(g):
        # g is a flat 2x2 matrix; the result is the flat n x n matrix
        return _flat(sym_power_oracle(n, (g[:2], g[2:]), q))

    tried = failed = 0
    rng = random.Random(f"oracle-mult:{n}:{q}")
    for _ in range(100):
        g = tuple(rng.randrange(q) for _ in range(4))
        h = tuple(rng.randrange(q) for _ in range(4))
        tried += 1
        if mat_mul(oracle(g), oracle(h), n, q) != oracle(mat_mul(g, h, 2, q)):
            failed += 1
    rep.add("oracle_multiplicative_random", tried, failed)
    return rep


# ------------------------------------------------------- series vectors ---


class LaurentSeriesVec:
    """Four truncated Laurent series components over Z/q."""

    __slots__ = ("q", "comps")

    def __init__(self, q, comps):
        if q < 2:
            raise BadModulus(f"q = {q} < 2")
        comps = tuple(lp_canon(dict(c), q) for c in comps)
        if len(comps) != 4:
            raise TypeMismatch("need exactly 4 components")
        self.q = q
        self.comps = comps

    def is_zero(self):
        return all(not c for c in self.comps)

    def valuations(self):
        return tuple(lp_valuation(c) for c in self.comps)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeriesVec)
            and self.q == other.q
            and self.comps == other.comps
        )

    def __repr__(self):
        return f"LaurentSeriesVec(q={self.q}, {self.comps!r})"


def _act_upper(comps, eps, tdeg, q):
    # (a,b,c,d) . U_+^s = (a, 3sa+b, 3s^2 a + 2sb + c, s^3 a + s^2 b + sc + d)
    a, b, c, d = comps
    x2 = lp_add(q, lp_scale(a, 3 * eps, q, tdeg), b)
    x3 = lp_add(q, lp_scale(a, 3, q, 2 * tdeg), lp_scale(b, 2 * eps, q, tdeg), c)
    x4 = lp_add(
        q,
        lp_scale(a, eps, q, 3 * tdeg),
        lp_scale(b, 1, q, 2 * tdeg),
        lp_scale(c, eps, q, tdeg),
        d,
    )
    return (a, x2, x3, x4)


def _act_lower(comps, eps, tdeg, q):
    # (a,b,c,d) . U_-^s = (a + sb + s^2 c + s^3 d, b + 2sc + 3s^2 d, c + 3sd, d)
    a, b, c, d = comps
    x1 = lp_add(
        q,
        a,
        lp_scale(b, eps, q, tdeg),
        lp_scale(c, 1, q, 2 * tdeg),
        lp_scale(d, eps, q, 3 * tdeg),
    )
    x2 = lp_add(q, b, lp_scale(c, 2 * eps, q, tdeg), lp_scale(d, 3, q, 2 * tdeg))
    x3 = lp_add(q, c, lp_scale(d, 3 * eps, q, tdeg))
    return (x1, x2, x3, d)


def _ot_params(s, q):
    """(eps, tdeg) for s = eps * t^tdeg in {1, -1, t, -t}."""
    if s == 1:
        return 1, 0
    if s == -1 or (isinstance(s, int) and s % q == q - 1):
        return -1, 0
    if s == "t":
        return 1, 1
    if s == "-t":
        return -1, 1
    raise UnsupportedS(f"s = {s!r} is not in {{1, -1, t, -t}}")


def act_row(v, orientation, s):
    """Right action of the size-4 shear with s in O_t on a series vector."""
    if orientation not in (UPPER, LOWER):
        raise TypeMismatch(f"orientation {orientation!r}")
    eps, tdeg = _ot_params(s, v.q)
    act = _act_upper if orientation == UPPER else _act_lower
    return LaurentSeriesVec(v.q, act(v.comps, eps, tdeg, v.q))


# ---------------------------------------------------------------- regions ---


class RegionTag:
    __slots__ = ("a", "strict", "e", "b", "s")

    def __init__(self, a, strict, e, b, s):
        self.a = a
        self.strict = strict
        self.e = e
        self.b = b
        self.s = s

    def as_dict(self):
        return {
            "A": list(self.a),
            "A_strict": list(self.strict),
            "E": self.e,
            "B": self.b,
            "S": self.s,
        }

    def __repr__(self):
        names = [f"A{i+1}{'*' if self.strict[i] else ''}" for i in range(4) if self.a[i]]
        if self.e:
            names.append("E")
        if self.b:
            names.append("S" if self.s else "B")
        return "Region(" + ",".join(names) + ")"


def _classify(comps, q):
    vals = [max(c) if c else None for c in comps]
    vmax = None
    for val in vals:
        if val is not None and (vmax is None or val > vmax):
            vmax = val
    if vmax is None:
        raise ZeroVector("cannot classify the zero vector")
    a = tuple(val == vmax for val in vals)
    count = sum(a)
    strict = tuple(flag and count == 1 for flag in a)
    e = a[0] and a[3]
    b = a[1] and a[2] and not a[0] and not a[3]
    s = False
    if b:
        x1, x2 = comps[0], comps[1]
        l2d, l2c = vmax + 2, x2[vmax]
        if x1:
            l1d = max(x1) + 3
            s = l1d == l2d and (x1[max(x1)] + l2c) % q == 0
    return RegionTag(a, strict, e, b, s)


def classify_region(v):
    return _classify(v.comps, v.q)


def _s_conditions_clash(comps, q):
    """True when both S-type column conditions hold at once (must not)."""
    x1, x2 = comps[0], comps[1]
    l1 = lp_leading(x1)
    l2 = lp_leading(x2)
    # lead(t^3 x1) + lead(t^2 x2) = 0
    if l1 is None and l2 is None:
        cond1 = True
        cond2 = True
    else:
        if l1 is None:
            cond1 = False
            cond2 = False
        elif l2 is None:
            cond1 = False
            cond2 = False
        else:
            d1, c1 = l1
            d2, c2 = l2
            cond1 = d1 + 3 == d2 + 2 and (c1 + c2) % q == 0
            cond2 = d1 + 2 == d2 + 1 and (3 * c1 + 2 * c2) % q == 0
    return cond1 and cond2


# ---------------------------------------------------------------- sampling ---


def _rand_comp(rng, q, lo, hi):
    comp = {}
    for _ in range(rng.randrange(4)):
        comp[rng.randint(lo, hi)] = rng.randrange(1, q)
    return comp


def _below(comp, cut):
    return {d: c for d, c in comp.items() if d < cut}


def _at_most(comp, cut):
    return {d: c for d, c in comp.items() if d <= cut}


def _force_top(rng, comp, top, q, coeff=None):
    out = _below(comp, top)
    out[top] = coeff if coeff is not None else rng.randrange(1, q)
    return out


_WINDOW_LO, _WINDOW_HI = -4, 3


def _sample_raw(rng, q, region):
    lo, hi = _WINDOW_LO, _WINDOW_HI
    comps = [_rand_comp(rng, q, lo, hi) for _ in range(4)]
    top = rng.randint(lo + 1, hi)
    if region == "A1" or region == "A4":
        i = 0 if region == "A1" else 3
        comps[i] = _force_top(rng, comps[i], top, q)
        for j in range(4):
            if j != i:
                comps[j] = _at_most(comps[j], top)
    elif region == "A23strict":
        i = rng.choice((1, 2))
        comps[i] = _force_top(rng, comps[i], top, q)
        for j in range(4):
            if j != i:
                comps[j] = _below(comps[j], top)
    elif region in ("BminusS", "S"):
        comps[1] = _force_top(rng, comps[1], top, q)
        comps[2] = _force_top(rng, comps[2], top, q)
        comps[0] = _below(comps[0], top)
        comps[3] = _below(comps[3], top)
        if region == "S":
            comps[0] = _force_top(
                rng, comps[0], top - 1, q, coeff=(q - comps[1][top]) % q
            )
    else:
        raise TypeMismatch(f"unknown source region {region!r}")
    return tuple(comps)


_SOURCE_PREDICATES = {
    "A1": lambda t: t.a[0],
    "A4": lambda t: t.a[3],
    "A23strict": lambda t: t.strict[1] or t.strict[2],
    "BminusS": lambda t: t.b and not t.s,
    "S": lambda t: t.s,
}


def sample_region(rng, q, region, max_tries=64):
    """Draw a vector verified to lie in the named source region."""
    for _ in range(max_tries):
        comps = _sample_raw(rng, q, region)
        if all(not c for c in comps):
            continue
        if _SOURCE_PREDICATES[region](_classify(comps, q)):
            return comps
    raise SoundnessCheckFailed(f"sampler for {region} missed the region {max_tries} times")


# ------------------------------------------------------------- transport ---

_TARGETS = {
    "A1_not_strict": lambda t: t.a[0] and not t.strict[0],
    "A4_not_strict": lambda t: t.a[3] and not t.strict[3],
    "A1_strict": lambda t: t.strict[0],
    "A4_strict": lambda t: t.strict[3],
    "E": lambda t: t.e,
    "A3strict_or_A4": lambda t: t.strict[2] or t.a[3],
}

# (name, source region, [(orientation, eps, tdeg, target), ...])
TRANSPORT_FACTS = (
    ("uplus1_A2o_A3o_to_A4_minus_A4o", "A23strict", ((UPPER, 1, 0, "A4_not_strict"),)),
    ("uminus1_A2o_A3o_to_A1_minus_A1o", "A23strict", ((LOWER, 1, 0, "A1_not_strict"),)),
    (
        "uplust_uminus1_A1_to_A4o_to_E",
        "A1",
        ((UPPER, 1, 1, "A4_strict"), (LOWER, 1, 0, "E")),
    ),
    (
        "uminust_uplus1_A4_to_A1o_to_E",
        "A4",
        ((LOWER, 1, 1, "A1_strict"), (UPPER, 1, 0, "E")),
    ),
    (
        "uplust_uminust_A1_to_A1o",
        "A1",
        ((UPPER, 1, 1, "A4_strict"), (LOWER, 1, 1, "A1_strict")),
    ),
    (
        "uminust_uplust_A4_to_A4o",
        "A4",
        ((LOWER, 1, 1, "A1_strict"), (UPPER, 1, 1, "A4_strict")),
    ),
    ("uplust_B_minus_S_to_A4o", "BminusS", ((UPPER, 1, 1, "A4_strict"),)),
    ("uplust_S_to_A3o_or_A4", "S", ((UPPER, 1, 1, "A3strict_or_A4"),)),
)


def check_transport(q, samples=10**4, seed=0):
    """Sample each fact's source region and assert every step's target.

    Also asserts, on every sampled B-vector, that the two S-type column
    conditions never hold simultaneously (the no-t-torsion step).
    """
    if q < 2 or math.gcd(q, 6) != 1:
        raise BadModulus(f"modulus must be coprime to 6 and >= 2, got q = {q}")
    if samples < 1:
        raise TypeMismatch("samples must be >= 1")
    rep = CheckReport(f"transport_q{q}_n{samples}_seed{seed}")
    clash_tried = clash_failed = 0
    for name, source, stages in TRANSPORT_FACTS:
        rng = random.Random(f"{seed}:{q}:{name}")
        failed = 0
        witness = None
        for _ in range(samples):
            comps = sample_region(rng, q, source)
            if source in ("BminusS", "S"):
                clash_tried += 1
                if _s_conditions_clash(comps, q):
                    clash_failed += 1
            cur = comps
            for orientation, eps, tdeg, target in stages:
                act = _act_upper if orientation == UPPER else _act_lower
                cur = act(cur, eps, tdeg, q)
                if not _TARGETS[target](_classify(cur, q)):
                    failed += 1
                    if witness is None:
                        witness = {"source": repr(comps), "stage": target}
                    break
        rep.add(name, samples, failed, witness)
    rep.add("s_conditions_never_simultaneous", clash_tried, clash_failed)
    return rep


# ---------------------------------------------------------------- ledger ---

# node: name -> (kind, coefficient of C, dependencies)
# kinds: path-k (k group moves land inside a subset of the source, no deps),
# subset (same bound as the dep), sum (adds dep bounds), move_plus (one
# path dep then a bound dep)
LEDGER_NODES = {
    "A1_into_E": ("path", 2, ()),
    "A4_into_E": ("path", 2, ()),
    "A1_into_A1o": ("path", 2, ()),
    "A4_into_A4o": ("path", 2, ()),
    "A2oA3o_into_A1_minus_A1o": ("path", 1, ()),
    "B_minus_S_into_A4o": ("path", 1, ()),
    "S_into_A3o_or_A4": ("path", 1, ()),
    "mu_A1_minus_E": ("from_path", 2, ("A1_into_E",)),
    "mu_A4_minus_E": ("from_path", 2, ("A4_into_E",)),
    "mu_A1_minus_A1o": ("from_path", 2, ("A1_into_A1o",)),
    "mu_A4_minus_A4o": ("from_path", 2, ("A4_into_A4o",)),
    "mu_E": ("subset", 2, ("mu_A1_minus_A1o",)),
    "mu_A1": ("sum", 4, ("mu_A1_minus_E", "mu_E")),
    "mu_A4": ("sum", 4, ("mu_A4_minus_E", "mu_E")),
    "mu_A2oA3o": ("move_plus", 3, ("A2oA3o_into_A1_minus_A1o", "mu_A1_minus_A1o")),
    "mu_A4o": ("subset", 2, ("mu_A4_minus_E",)),
    "mu_B_minus_S": ("move_plus", 3, ("B_minus_S_into_A4o", "mu_A4o")),
    "mu_A3o_or_A4": ("sum", 7, ("mu_A2oA3o", "mu_A4")),
    "mu_S": ("move_plus", 8, ("S_into_A3o_or_A4", "mu_A3o_or_A4")),
    "total": ("sum", 22, ("mu_A1", "mu_A4", "mu_A2oA3o", "mu_B_minus_S", "mu_S")),
}

def _abstract_tags():
    """All consistent (attained-set, S-flag) region patterns."""
    out = []
    for bits in itertools.product((False, True), repeat=4):
        if not any(bits):
            continue
        count = sum(bits)
        strict = tuple(f and count == 1 for f in bits)
        e = bits[0] and bits[3]
        b = bits[1] and bits[2] and not bits[0] and not bits[3]
        out.append(RegionTag(bits, strict, e, b, False))
        if b:
            out.append(RegionTag(bits, strict, e, b, True))
    return out


def ledger_check():
    """Replay the 22C bookkeeping and its supporting set inclusions."""
    rep = CheckReport("ledger_22c")
    order = []
    seen = set()

    def visit(name, stack):
        if name in seen:
            return
        if name in stack:
            raise SoundnessCheckFailed(f"ledger has a cycle through {name}")
        for dep in LEDGER_NODES[name][2]:
            visit(dep, stack | {name})
        seen.add(name)
        order.append(name)

    for name in LEDGER_NODES:
        visit(name, frozenset())
    rep.add("dag_acyclic", len(LEDGER_NODES), 0)

    failed = 0
    for name, (kind, coeff, deps) in LEDGER_NODES.items():
        dep_coeffs = [LEDGER_NODES[d][1] for d in deps]
        if kind == "path":
            ok = not deps and coeff >= 1
        elif kind == "from_path":
            ok = len(deps) == 1 and coeff == dep_coeffs[0]
        elif kind == "subset":
            ok = len(deps) == 1 and coeff == dep_coeffs[0]
        elif kind == "move_plus":
            ok = (
                len(deps) == 2
                and LEDGER_NODES[deps[0]][0] == "path"
                and coeff == dep_coeffs[0] + dep_coeffs[1]
            )
        elif kind == "sum":
            ok = coeff == sum(dep_coeffs)
        else:
            ok = False
        if not ok:
            failed += 1
    rep.add("coefficient_arithmetic", len(LEDGER_NODES), failed)

    tags = _abstract_tags()
    tried = failed = 0
    for tag in tags:
        tried += 1
        if tag.e and not (tag.a[0] and not tag.strict[0]):
            failed += 1
    for tag in tags:
        tried += 1
        if tag.strict[3] and tag.e:
            failed += 1
    for tag in tags:
        tried += 1
        in_union = tag.strict[2] or tag.a[3]
        covered = (tag.strict[1] or tag.strict[2]) or tag.a[3]
        if in_union and not covered:
            failed += 1
    rep.add("subset_facts_hold_on_tags", tried, failed)

    tried = failed = 0
    for tag in tags:
        tried += 1
        in_a1 = tag.a[0]
        in_a4 = tag.a[3]
        in_a23o = tag.strict[1] or tag.strict[2]
        in_b_minus_s = tag.b and not tag.s
        in_s = tag.s
        if not (in_a1 or in_a4 or in_a23o or in_b_minus_s or in_s):
            failed += 1
    rep.add("five_sets_cover_everything", tried, failed)

    total = LEDGER_NODES["total"][1]
    c = Fraction(1, 22)
    rep.add("sum_is_22", 1, 0 if total == 22 else 1)
    rep.add("c_equals_1_over_22_saturates_mass", 1, 0 if total * c == 1 else 1)
    rep.data["coefficients"] = {
        name: coeff
        for name, (kind, coeff, deps) in LEDGER_NODES.items()
        if name.startswith("mu_") or name == "total"
    }
    return rep

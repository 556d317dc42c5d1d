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
over Z/q, gcd(q, 6) = 1; the valuation of a series is its top degree.
Vectors are classified into the regions

    A_i   max valuation attained at component i
    A_i*  attained only at i (written A_i^o elsewhere)
    E     attained at both 1 and 4
    B     attained at 2 and 3 but neither 1 nor 4
    S     B and lead(t^3 x1) + lead(t^2 x2) = 0 as monomials

and the verifier samples region members, applies words in the four shear
matrices with s in {1, -1, t, -t}, and asserts the target region of each
step.  The mean-bookkeeping (the 22C ledger) is replayed symbolically.

A vector is packed (Kronecker substitution): each component is one
nonnegative int whose slot d - _WINDOW_LO, w bits wide, holds the
coefficient of t^d.  A shear is written once, as the (row, column,
binomial, exponent) terms of _shear_terms: shear_rows reads them, and so do
the size-4 action tables _ACTIONS, one per orientation and s, which
_compiled_shear compiles into linear laws on packed vectors: a term
(j, m, k) adds (m mod q) 2^(kw) x_j, moving slots up k places.  Slots are
never reduced: a slot's coefficient is its value mod q, and a component's
top is its highest slot not 0 mod q.  No slot carries into the next.
Sampled slots are below q, and a stage multiplies the largest slot by at
most C, the largest column sum 1 + sum(m mod q) of an _ACTIONS table; so
after the at most S stages of a TRANSPORT_FACTS entry a slot is at most
(q - 1) C^S, whose bit length _slot_width takes as w.

A region is an integer code: bits 0-3 flag the components attaining the top
degree, bit 4 is S.  The source and target predicates are evaluated on
every code at import into frozensets of codes, _SOURCE_CODES and
_TARGET_CODES; the sampler, the transport check and the ledger's inclusions
all read those sets.
The sampler's draws are uniform, each reading rng.getrandbits with the
fewest bits its range needs.
"""

from __future__ import annotations

import functools
import math
import random
from collections import namedtuple
from fractions import Fraction

from .errors import BadModulus, BadN, SoundnessCheckFailed, TypeMismatch
from .chevalley import mat_mul
from .polylaw import UNARY, compile_law
from .report import CheckReport

UPPER = "upper"
LOWER = "lower"


# ---------------------------------------------------------------- shears ---


def _shear_terms(n, orientation):
    """(row, column, binomial, exponent of s) of each nonzero shear entry."""
    if n < 2:
        raise BadN(f"n = {n} < 2")
    if orientation not in (UPPER, LOWER):
        raise TypeMismatch(f"orientation {orientation!r}")
    for k in range(1, n + 1):
        for i in range(k, n + 1) if orientation == UPPER else range(1, k + 1):
            e = abs(i - k)
            yield k, i, math.comb(n - k if orientation == UPPER else k - 1, e), e


def shear_rows(n, s, orientation=UPPER, q=None):
    """Rows of the size-n shear with parameter s (any ring element)."""
    rows = [[0] * n for _ in range(n)]
    for k, i, c, e in _shear_terms(n, orientation):
        entry = c * s**e if e else c
        rows[k - 1][i - 1] = entry if q is None else entry % q
    return tuple(map(tuple, rows))


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


# Largest inputs symrep_report accepts: the additivity check multiplies q^2
# pairs of n x n shear matrices; at q = 128, n = 6 takes about 0.4 s and
# n = 8 about 0.8 s on a 2-vCPU x86-64 virtual machine.
SYMREP_MAX_Q = 128
SYMREP_MAX_N = 8


def symrep_report(n, q):
    """Exhaustive homomorphism + convention-lock checks for one (n, q)."""
    if not 2 <= q <= SYMREP_MAX_Q:
        raise BadModulus(f"q = {q} outside 2..{SYMREP_MAX_Q}")
    if not 2 <= n <= SYMREP_MAX_N:
        raise BadN(f"n = {n} outside 2..{SYMREP_MAX_N}")
    rep = CheckReport(f"symrep_n{n}_q{q}")
    for orientation in (UPPER, LOWER):
        flat = [_flat(shear_rows(n, s, orientation, q)) for s in range(q)]
        rep.tally(f"shear_additive_{orientation}", (
            mat_mul(flat[s1], flat[s2], n, q) == flat[(s1 + s2) % q]
            for s1 in range(q)
            for s2 in range(q)
        ))
    rep.tally("oracle_matches_shear", (
        sym_power_oracle(n, g, q) == shear_rows(n, s, orientation, q)
        for s in range(q)
        for orientation, g in ((UPPER, ((1, s), (0, 1))), (LOWER, ((1, 0), (s, 1))))
    ))

    def oracle(g):
        # g is a flat 2x2 matrix; the result is the flat n x n matrix
        return _flat(sym_power_oracle(n, (g[:2], g[2:]), q))

    rng = random.Random(f"oracle-mult:{n}:{q}")
    # 100 pairs (g, h), g drawn first
    draws = (tuple(rng.randrange(q) for _ in range(4)) for _ in range(200))
    rep.tally("oracle_multiplicative_random", (
        mat_mul(oracle(g), oracle(h), n, q) == oracle(mat_mul(g, h, 2, q))
        for g, h in zip(draws, draws)
    ))
    return rep


# --------------------------------------------------------- shear actions ---


def _action_table(orientation, eps, tdeg):
    """(source, multiplier, degree shift) terms of each output component of
    the size-4 shear with s = eps t^tdeg, its unit diagonal left out."""
    table = ([], [], [], [])
    for k, i, c, e in _shear_terms(4, orientation):
        if e:
            table[i - 1].append((k - 1, c * eps**e, tdeg * e))
    return tuple(map(tuple, table))


# (orientation, eps, tdeg) -> action table, for s in {1, -1, t, -t}
_ACTIONS = {
    (o, eps, tdeg): _action_table(o, eps, tdeg)
    for o in (UPPER, LOWER)
    for eps in (1, -1)
    for tdeg in (0, 1)
}


@functools.lru_cache(maxsize=None)
def _compiled_shear(table, q, w):
    """The shear an action table lists, on packed vectors, as one compiled law.

    Output component i is x_i plus (m mod q) 2^(k w) x_j per term (j, m, k)
    of table[i], the shift by k slots folded into the multiplier: for the
    upper shear with s = t, x2 + 3*2^(2w) x0 + 2*2^w x1.  A term that is not
    made of integers, names no component, or would move slots down is
    refused before `polylaw.compile_law` sees it.
    """
    rows = []
    for i, terms in enumerate(table):
        row = [((i,), 1)]
        for term in terms:
            if not (
                type(term) is tuple and len(term) == 3 and all(type(v) is int for v in term)
                and 0 <= term[0] < 4 and term[2] >= 0
            ):
                raise SoundnessCheckFailed(f"shear term {term!r} is not (source, integer, shift >= 0)")
            j, m, k = term
            if m % q:
                row.append(((j,), m % q << k * w))
        rows.append(tuple(row))
    return compile_law(tuple(rows), UNARY, reduce=False)


# ---------------------------------------------------------------- regions ---


# The flags of a region code: A_i, A_i^o, E, B and S (module docstring)
RegionTag = namedtuple("RegionTag", "a strict e b s")


def _region_tag(code):
    """The RegionTag of a region code (see _classify)."""
    a = tuple(bool(code >> i & 1) for i in range(4))
    strict = tuple(flag and sum(a) == 1 for flag in a)
    return RegionTag(a, strict, a[0] and a[3], (code & 15) == 6, bool(code & 16))


# The code of every nonzero vector: an attained set, or S within B = {2, 3}
_CODES = tuple(range(1, 16)) + (6 | 16,)


def _lead(x, q, w):
    """(slot, coefficient) of a packed component's top term mod q, None for 0."""
    mask = (1 << w) - 1
    top = (x.bit_length() - 1) // w
    while top >= 0:
        c = (x >> top * w & mask) % q
        if c:
            return top, c
        top -= 1
    return None


def _classify(comps, q, w):
    """Region code of a packed vector (module docstring), 0 for the zero vector."""
    mask = (1 << w) - 1
    vmax = -1
    code = 0
    bit = 1
    for x in comps:
        top = (x.bit_length() - 1) // w
        while top >= 0 and not (x >> top * w & mask) % q:
            top -= 1  # the slot is 0 mod q: its coefficient cancelled
        if top > vmax:
            vmax = top
            code = bit
        elif top == vmax >= 0:
            code |= bit
        bit <<= 1
    if code == 6:  # S: top(x1) + 1 == vmax and x1[top] + x2[vmax] = 0 mod q
        l1 = _lead(comps[0], q, w)
        if l1 and l1[0] + 1 == vmax and (l1[1] + (comps[1] >> vmax * w & mask)) % q == 0:
            code |= 16
    return code


def _codes(predicates):
    """Each RegionTag predicate as the frozenset of region codes it admits."""
    return {
        name: frozenset(code for code in _CODES if pred(_region_tag(code)))
        for name, pred in predicates.items()
    }


def _s_conditions_clash(comps, q, w):
    """True when both S-type column conditions hold at once (must not)."""
    l1, l2 = _lead(comps[0], q, w), _lead(comps[1], q, w)
    if l1 is None or l2 is None:
        return l1 is None and l2 is None  # both hold on x1 = x2 = 0
    (d1, c1), (d2, c2) = l1, l2
    # lead(t^3 x1) + lead(t^2 x2) = 0
    cond1 = d1 + 3 == d2 + 2 and (c1 + c2) % q == 0
    cond2 = d1 + 2 == d2 + 1 and (3 * c1 + 2 * c2) % q == 0
    return cond1 and cond2


# ---------------------------------------------------------------- sampling ---


# Degrees are drawn in LO..HI = -4..3 (8 values) and the top in -3..3 (7);
# degree d sits in slot d - LO of a packed component
_WINDOW_LO = -4


def _unpack(comps, q, w):
    """A packed vector as a 4-tuple of {degree: coefficient mod q}, degrees ascending."""
    mask = (1 << w) - 1
    return tuple(
        {d + _WINDOW_LO: c for d in range(x.bit_length() // w + 1) if (c := (x >> d * w & mask) % q)}
        for x in comps
    )


def _sample_raw(rng, q, region, w):
    """Draw a packed candidate for a source region; sample_region verifies it.

    Draws are uniform, fewest bits: the top, the A23strict lead and the
    leading coefficients, then per component 0-3 terms in LO..HI, each
    below the cut taking a coefficient in 1..q-1 (a repeated degree keeps
    the last).  Only the top (7 values) and coefficients are drawn again
    when out of range.  Degrees are read and written as slots.
    """
    bits = rng.getrandbits
    n = q - 1  # a coefficient is 1 + a draw below n
    k = (n - 1).bit_length()
    mask = (1 << w) - 1
    top = bits(3)
    while top == 7:
        top = bits(3)
    top += 1  # the slot of degree LO + 1 + the draw
    if region == "A1" or region == "A4":
        leads, cut = (0,) if region == "A1" else (3,), top + 1
    elif region == "A23strict":
        leads, cut = (1 + bits(1),), top
    elif region == "BminusS" or region == "S":
        leads, cut = (1, 2), top
    else:
        raise TypeMismatch(f"unknown source region {region!r}")
    below = [cut] * 4  # slots each component draws its terms under
    comps = [0] * 4  # the forced top terms, then the drawn ones
    for i in leads:
        c = bits(k)
        while c >= n:
            c = bits(k)
        below[i] = top
        comps[i] = 1 + c << top * w
    if region == "S":
        below[0] = top - 1
        comps[0] = q - (comps[1] >> top * w) << (top - 1) * w
    for i in range(4):
        comp = comps[i]
        cut = below[i]
        for _ in range(bits(2)):
            d = bits(3)
            if d < cut:
                c = bits(k)
                while c >= n:
                    c = bits(k)
                d *= w
                comp += (1 + c - (comp >> d & mask)) << d  # (over)write the slot
        comps[i] = comp
    return tuple(comps)


_SOURCE_PREDICATES = {
    "A1": lambda t: t.a[0],
    "A4": lambda t: t.a[3],
    "A23strict": lambda t: t.strict[1] or t.strict[2],
    "BminusS": lambda t: t.b and not t.s,
    "S": lambda t: t.s,
}
_SOURCE_CODES = _codes(_SOURCE_PREDICATES)


def sample_region(rng, q, region, w, max_tries=64):
    """Draw a packed vector, slot width w, verified to lie in the named source region."""
    codes = _SOURCE_CODES.get(region)
    for _ in range(max_tries):
        comps = _sample_raw(rng, q, region, w)
        if _classify(comps, q, w) in codes:
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
_TARGET_CODES = _codes(_TARGETS)

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


# Most samples per fact check_transport draws, the count criterion 11 uses:
# 10^5 at q = 5 takes about 6-7 s on a 2-vCPU x86-64 virtual machine.
TRANSPORT_MAX_SAMPLES = 10**5


def _slot_width(q):
    """Bits per slot that no slot of a transport fact's vectors fills (module docstring)."""
    column = max(1 + sum(m % q for _, m, _ in terms) for table in _ACTIONS.values() for terms in table)
    stages = max(len(steps) for _, _, steps in TRANSPORT_FACTS)
    return ((q - 1) * column**stages).bit_length()


def _transport_outcome(comps, steps, q, w):
    """True if comps lands in every step's target, else the witness of the first miss."""
    cur = comps
    for shear, codes, target in steps:
        cur = shear(cur, q)
        if _classify(cur, q, w) not in codes:
            return {"source": repr(_unpack(comps, q, w)), "stage": target}
    return True


def check_transport(q, samples=10**4, seed=0):
    """Sample each fact's source region and assert every step's target.

    Also asserts, on every sampled B-vector, that the two S-type column
    conditions never hold simultaneously (the no-t-torsion step).
    """
    if q < 2 or math.gcd(q, 6) != 1:
        raise BadModulus(f"modulus must be coprime to 6 and >= 2, got q = {q}")
    if not 1 <= samples <= TRANSPORT_MAX_SAMPLES:
        raise TypeMismatch(f"samples = {samples} outside 1..{TRANSPORT_MAX_SAMPLES}")
    w = _slot_width(q)
    rep = CheckReport(f"transport_q{q}_n{samples}_seed{seed}")
    clash_sources = ("BminusS", "S")
    clashes = []  # one entry per sampled B-vector on which both conditions hold

    def outcomes(rng, source, steps):
        for _ in range(samples):
            comps = sample_region(rng, q, source, w)
            if source in clash_sources and _s_conditions_clash(comps, q, w):
                clashes.append(False)
            yield _transport_outcome(comps, steps, q, w)

    for name, source, stages in TRANSPORT_FACTS:
        steps = [
            (_compiled_shear(_ACTIONS[(orientation, eps, tdeg)], q, w), _TARGET_CODES[target], target)
            for orientation, eps, tdeg, target in stages
        ]
        rep.tally(name, outcomes(random.Random(f"{seed}:{q}:{name}"), source, steps))
    clash_tried = samples * sum(source in clash_sources for _, source, _ in TRANSPORT_FACTS)
    rep.add("s_conditions_never_simultaneous", clash_tried, len(clashes))
    return rep


# ---------------------------------------------------------------- ledger ---

# node: name -> (kind, coefficient of C, dependencies[, transport fact])
# kinds: path (the TRANSPORT_FACTS entry the node names moves its source, in
# as many group moves as the coefficient, into a region; no deps), from_path
# (the mean bound its one path dep gives), subset (same bound as the dep),
# sum (adds dep bounds), move_plus (one path dep then a bound dep)
LEDGER_NODES = {
    "A1_into_E": ("path", 2, (), "uplust_uminus1_A1_to_A4o_to_E"),
    "A4_into_E": ("path", 2, (), "uminust_uplus1_A4_to_A1o_to_E"),
    "A1_into_A1o": ("path", 2, (), "uplust_uminust_A1_to_A1o"),
    "A4_into_A4o": ("path", 2, (), "uminust_uplust_A4_to_A4o"),
    "A2oA3o_into_A1_minus_A1o": ("path", 1, (), "uminus1_A2o_A3o_to_A1_minus_A1o"),
    "B_minus_S_into_A4o": ("path", 1, (), "uplust_B_minus_S_to_A4o"),
    "S_into_A3o_or_A4": ("path", 1, (), "uplust_S_to_A3o_or_A4"),
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


def ledger_check():
    """Replay the 22C bookkeeping and its set inclusions on the transport code sets.

    A failing case is witnessed by its node name or region code.
    """
    rep = CheckReport("ledger_22c")
    seen = set()

    def visit(name, stack):
        if name in seen:
            return
        if name in stack:
            raise SoundnessCheckFailed(f"ledger has a cycle through {name}")
        for dep in LEDGER_NODES[name][2]:
            visit(dep, stack | {name})
        seen.add(name)

    for name in LEDGER_NODES:
        visit(name, frozenset())
    rep.add("dag_acyclic", len(LEDGER_NODES), 0)

    stages = {name: len(steps) for name, _, steps in TRANSPORT_FACTS}

    def rule_holds(kind, coeff, deps, fact=None):
        dep_coeffs = [LEDGER_NODES[d][1] for d in deps]
        if kind == "path":
            return not deps and coeff == stages.get(fact)
        if kind in ("from_path", "subset"):
            return len(deps) == 1 and coeff == dep_coeffs[0]
        if kind == "move_plus":
            return (
                len(deps) == 2
                and LEDGER_NODES[deps[0]][0] == "path"
                and coeff == sum(dep_coeffs)
            )
        if kind == "sum":
            return coeff == sum(dep_coeffs)
        return False

    rep.tally("coefficient_arithmetic", (
        rule_holds(*node) or name for name, node in LEDGER_NODES.items()
    ))

    targets, sources = _TARGET_CODES, _SOURCE_CODES
    inclusions = (  # (subset, superset) of region codes
        (targets["E"], targets["A1_not_strict"]),  # E inside A1 minus A1o
        (targets["A4_strict"] & targets["E"], frozenset()),  # A4o and E disjoint
        # the move mu_S -> mu_A3o_or_A4 = mu_A2oA3o + mu_A4
        (targets["A3strict_or_A4"], sources["A23strict"] | sources["A4"]),
    )
    rep.tally("subset_facts_hold_on_tags", (
        code not in sub or code in sup or code for sub, sup in inclusions for code in _CODES
    ))
    rep.tally("five_sets_cover_everything", (
        any(code in codes for codes in sources.values()) or code for code in _CODES
    ))

    total = LEDGER_NODES["total"][1]
    rep.tally("sum_is_22", [total == 22])
    rep.tally("c_equals_1_over_22_saturates_mass", [total * Fraction(1, 22) == 1])
    rep.data["coefficients"] = {
        name: node[1]
        for name, node in LEDGER_NODES.items()
        if name.startswith("mu_") or name == "total"
    }
    return rep

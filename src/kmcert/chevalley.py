"""Exact unipotent group arithmetic for the rank-2 types A2, B2, G2.

An element of U+ is its normal form, a plain tuple with one coefficient in
0..q-1 per positive root in a fixed order (A2: a, b, a+b; B2: a, b, a+b,
a+2b; G2: a, b, a+b, a+2b, a+3b, 2a+3b, writing a for the long simple root
and b for the short one); a quotient engine sets its killed coordinates to
0.  A tuple does not name its engine, so each check compares and multiplies
only the tuples of one engine.

Collection rewrites a word of generator letters into normal form by
repeatedly swapping out-of-order adjacent letters using the commutator
table, which injects letters on strictly higher roots only, so the process
terminates (class <= 3 here).

U+ is nilpotent, so the normal form of a product is a fixed polynomial in
the coefficients of its factors (Leedham-Green and Soicher, "Symbolic
collection using Deep Thought", 1998).  Collection applies ring operations
only (merging adds values, a commutator letter is const * v_hi^i * v_lo^j)
and the structure constants are integers, so that polynomial is a law over
Z.  `derive_law` collects it once on indeterminates per type, killed set and
law (product or inverse).  An engine (type, modulus, killed set) reduces it
mod q and compiles it into a straight-line function (`polylaw.compile_law`)
that takes each operand as its own tuple: `mul` calls law(a, b, q) and
`inverse` law(a, q).  `chevalley_report` compiles the reduced product law
once more per (type, q), as the chain (g, h, k) -> ((gh)k, g(hk)), so that
its sampled associativity check costs about its arithmetic.  Every matrix
over Z/q here (the SL3 and Sp4 models, the C(s) of the G2 conjugation check)
is a flat row-major tuple, multiplied by `polylaw.mat_mul`.  A loop-group
matrix over Z/q[t, t^-1] (the affine images) is its offset from the
identity, one sparse dict {(row, column, degree): coefficient}, multiplied
by `_loop_mul`.

The table entries are the printed structure constants; every pair absent
from the table is verified at engine construction to have no root in the
positive span of the two roots, which forces the pair to commute.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from . import symrep
from .errors import BadModulus, CapExceeded, OppositePair, SoundnessCheckFailed, TypeMismatch, Unsupported
from .report import CheckReport
from .polylaw import BINARY, UNARY, Poly, compile_law, law_rows, mat_mul
from .roots import NOT_PRENILPOTENT, RootEntry, prenilpotency, simple_root

A2 = "A2"
B2 = "B2"
G2 = "G2"

# positive roots as (coeff of a, coeff of b), normal-form order
_ROOTS = {
    A2: ((1, 0), (0, 1), (1, 1)),
    B2: ((1, 0), (0, 1), (1, 1), (1, 2)),
    G2: ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)),
}

# (pos_a, pos_b) -> [(pos_c, r_exp, s_exp, const)]: [x_a(r), x_b(s)] equals
# the product of x_c(const * r^r_exp * s^s_exp) in listed order
_TABLES = {
    A2: {(0, 1): [(2, 1, 1, 1)]},
    B2: {
        (0, 1): [(2, 1, 1, 1), (3, 1, 2, 1)],
        (2, 1): [(3, 1, 1, 2)],
    },
    G2: {
        (0, 1): [(2, 1, 1, 1), (3, 1, 2, 1), (4, 1, 3, 1), (5, 2, 3, 1)],
        (2, 1): [(3, 1, 1, 2), (4, 1, 2, 3), (5, 2, 1, 3)],
        (3, 1): [(4, 1, 1, 3)],
        (3, 2): [(5, 1, 1, 3)],
        (4, 0): [(5, 1, 1, -1)],
    },
}

_COLLECT_STEP_CAP = 200000

# (typ, killed, inverse) -> (law rows over Z, {(q, chain): those rows compiled mod q})
_LAWS = {}
# the product law chained as (g, h, k) -> ((gh)k, g(hk)), see `polylaw.compile_law`
_ASSOCIATIVITY = (3, ((0, 1), (3, 2), (1, 2), (0, 5)), (4, 6))
# (typ, repr of its table) of each table checked; the repr tells 1 from 1.0
_CHECKED_TABLES = set()


def _positive_span_roots(roots, p, q_):
    """Roots of the form i*roots[p] + j*roots[q_] with i, j >= 1."""
    root_index = {r: k for k, r in enumerate(roots)}
    max_h = max(x + y for x, y in roots)
    out = []
    (pa, pb), (qa, qb) = roots[p], roots[q_]
    for i in range(1, max_h + 1):
        for j in range(1, max_h + 1):
            cand = (i * pa + j * qa, i * pb + j * qb)
            if sum(cand) > max_h:
                continue
            if cand in root_index:
                out.append(root_index[cand])
    return sorted(set(out))


class UnipotentEngine:
    killed = frozenset()  # positions of the killed root subgroups

    def __init__(self, typ, q):
        if typ not in _ROOTS:
            raise TypeMismatch(f"unknown engine type {typ!r}")
        if q < 2:
            raise BadModulus(f"q = {q} < 2")
        self.typ = typ
        self.q = q
        self.roots = _ROOTS[typ]
        self.table = _TABLES[typ]
        # a table is checked once per content, so a swapped or edited table is checked again
        key = (typ, repr(self.table))
        if key not in _CHECKED_TABLES:
            self._check_table_complete()
            _CHECKED_TABLES.add(key)
        # compiled product and inverse laws, derived by collection on first use
        self._mul_law = self._inv_law = None

    def _check_table_complete(self):
        # every term is (target, r_exp, s_exp, const) with int exponents >= 1
        # and a nonzero int constant, so collection is a polynomial map ...
        for pair, entry in self.table.items():
            for t in entry:
                if not (type(t) is tuple and len(t) == 4 and all(type(v) is int for v in t)
                        and min(t[1:3]) >= 1 and t[3]):
                    raise SoundnessCheckFailed(
                        f"{self.typ} commutator table at {pair}: term {t!r} needs int "
                        f"exponents >= 1 and a nonzero int constant"
                    )
        # ... and every pair either appears in the table with targets exactly
        # the positive-span roots, or has empty positive span (commutes)
        n = len(self.roots)
        for p in range(n):
            for q_ in range(p + 1, n):
                span = _positive_span_roots(self.roots, p, q_)
                entry = self.table.get((p, q_)) or self.table.get((q_, p))
                targets = sorted(t[0] for t in entry) if entry else []
                if targets != span or any(t <= q_ for t in targets):
                    raise SoundnessCheckFailed(
                        f"{self.typ} commutator table at ({p}, {q_}): targets {targets}, "
                        f"positive span {span}"
                    )

    # ------------------------------------------------------------ letters

    def _commutator_letters(self, p_hi, v_hi, p_lo, v_lo):
        """Letters of [x_{p_hi}(v_hi), x_{p_lo}(v_lo)] for p_hi > p_lo."""
        if (p_hi, p_lo) in self.table:
            return [
                (c, const * v_hi**ie * v_lo**je)
                for c, ie, je, const in self.table[(p_hi, p_lo)]
            ]
        if (p_lo, p_hi) in self.table:
            # [y, x] = [x, y]^{-1}: reverse the printed letters and negate
            fwd = [
                (c, const * v_lo**ie * v_hi**je)
                for c, ie, je, const in self.table[(p_lo, p_hi)]
            ]
            return [(c, -v) for c, v in reversed(fwd)]
        return []

    def collect(self, letters):
        """Normal form of a word of (position, value) letters over Z, unreduced."""
        buf = [(p, v) for p, v in letters if v]
        steps = 0
        while True:
            idx = -1
            for k in range(len(buf) - 1):
                if buf[k][0] >= buf[k + 1][0]:
                    idx = k
                    break
            if idx < 0:
                break
            steps += 1
            if steps > _COLLECT_STEP_CAP:
                raise SoundnessCheckFailed("collection did not terminate")
            (p1, v1), (p2, v2) = buf[idx], buf[idx + 1]
            if p1 == p2:
                s = v1 + v2
                buf[idx : idx + 2] = [(p1, s)] if s else []
            else:
                com = [(c, v) for c, v in self._commutator_letters(p1, v1, p2, v2) if v]
                buf[idx : idx + 2] = [(p2, v2), (p1, v1)] + com
        out = [0] * len(self.roots)
        for p, v in buf:
            out[p] = v
        return tuple(out)

    # ----------------------------------------------------------- elements

    def element(self, coeffs):
        coeffs = tuple(c % self.q for c in coeffs)
        if len(coeffs) != len(self.roots):
            raise TypeMismatch(
                f"{self.typ} element needs {len(self.roots)} coefficients"
            )
        if self.killed:
            coeffs = tuple(0 if p in self.killed else c for p, c in enumerate(coeffs))
        return coeffs

    def identity(self):
        return (0,) * len(self.roots)

    def letter(self, pos, val):
        coeffs = [0] * len(self.roots)
        coeffs[pos] = val % self.q
        return self.element(coeffs)

    def all_elements(self):
        n = len(self.roots)
        live = [p for p in range(n) if p not in self.killed]
        for vals in itertools.product(range(self.q), repeat=len(live)):
            coeffs = [0] * n
            for p, v in zip(live, vals):
                coeffs[p] = v
            yield tuple(coeffs)

    def order(self):
        return self.q ** (len(self.roots) - len(self.killed))

    def _law(self, inverse):
        """(rows over Z, {(q, chain): compiled law}) of the product or inverse law, derived once."""
        key = (self.typ, self.killed, inverse)
        if key not in _LAWS:
            n = len(self.roots)
            if inverse:
                word = [(i, -Poly.var(i)) for i in reversed(range(n))]
            else:
                # x_0(v_0)...x_{n-1}(v_{n-1}) x_0(v_n)...x_{n-1}(v_{2n-1})
                word = [(i % n, Poly.var(i)) for i in range(2 * n)]
            _LAWS[key] = law_rows(self.collect(word)), {}
        return _LAWS[key]

    def derive_law(self, inverse=False):
        """Rows over Z (`polylaw.law_rows`) of the product law, or of the inverse law."""
        return self._law(inverse)[0]

    def _compile(self, inverse, chain):
        # the Z law mod q, without the terms that vanish there, compiled once per q and chain
        rows, compiled = self._law(inverse)
        q = self.q
        if (q, chain) not in compiled:
            reduced = tuple(tuple((m, c % q) for m, c in row if c % q) for row in rows)
            compiled[q, chain] = compile_law(reduced, chain)
        return compiled[q, chain]

    def mul(self, a, b):
        if self._mul_law is None:
            self._mul_law = self._compile(False, BINARY)
        return self._mul_law(a, b, self.q)

    def inverse(self, a):
        if self._inv_law is None:
            self._inv_law = self._compile(True, UNARY)
        return self._inv_law(a, self.q)

    def commutator(self, a, b):
        return self.mul(self.mul(self.inverse(a), self.inverse(b)), self.mul(a, b))


class QuotientEngine(UnipotentEngine):
    """U+ modulo the subgroup generated by the killed root subgroups.

    Sound only when that subgroup is normal, i.e. commutation of a killed
    letter with anything produces killed letters only; checked on init.
    During collection a killed letter therefore never influences surviving
    coordinates, so zeroing killed coordinates after a full collection
    computes the quotient product.
    """

    def __init__(self, typ, q, killed):
        self.killed = frozenset(killed)
        super().__init__(typ, q)
        n = len(self.roots)
        for k in self.killed:
            for other in range(n):
                if other == k:
                    continue
                hi, lo = max(k, other), min(k, other)
                for c, _v in self._commutator_letters(hi, 1, lo, 1):
                    if c not in self.killed:
                        raise SoundnessCheckFailed(
                            f"killed subgroup of {typ} is not normal: [{k}, {other}] reaches {c}"
                        )

    def collect(self, letters):
        full = super().collect(letters)
        return tuple(0 if p in self.killed else v for p, v in enumerate(full))


# ------------------------------------------------------------- matrices ---


def _mat_id(n):
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def transpose(m, n):
    """The transpose of a flat n x n matrix."""
    return tuple(m[k * n + i] for i in range(n) for k in range(n))


def _mat_prod(n, q, mats):
    """Product over Z/q of a list of flat n x n matrices, left to right."""
    return functools.reduce(lambda a, b: mat_mul(a, b, n, q), mats or [_mat_id(n)])


def _elementary(n, q, cells):
    """Identity plus the given {(i, j): value} cells, 1-based, as a flat tuple."""
    entries = list(_mat_id(n))
    for (i, j), v in cells.items():
        entries[(i - 1) * n + (j - 1)] = v % q
    return tuple(entries)


# B2/Sp4: symplectic form x1*y4 + x2*y3 - x3*y2 - x4*y1 (antidiagonal J);
# the signs below were fixed once by matching the B2 commutator table
# exhaustively over Z/5 and are frozen; the regression test replays that.
_SP4_CELLS = {
    (1, 0): {(2, 3): 1},                 # a (long)
    (0, 1): {(1, 2): 1, (3, 4): -1},     # b (short)
    (1, 1): {(1, 3): -1, (2, 4): -1},    # a+b
    (1, 2): {(1, 4): 1},                 # a+2b
}

_A2_CELLS = {
    (1, 0): {(1, 2): 1},
    (0, 1): {(2, 3): 1},
    (1, 1): {(1, 3): 1},
}

# matrix model of each type: (n, cells of each positive root subgroup); x_{-a}(r)
# is the transpose of x_a(r), derived in `matrix_realize`
_MODELS = {A2: (3, _A2_CELLS), B2: (4, _SP4_CELLS)}


def sp4_form_matrix(q):
    return tuple(e % q for e in (0, 0, 0, 1, 0, 0, 1, 0, 0, -1, 0, 0, -1, 0, 0, 0))


def preserves_sp4_form(g, q):
    """g^T J g == J over Z/q for the antidiagonal form; g is a flat 4 x 4 matrix."""
    j = sp4_form_matrix(q)
    return _mat_prod(4, q, (transpose(g, 4), j, g)) == j


def matrix_realize(group, root, r, q):
    """Root-subgroup element as a flat n x n matrix, n = _MODELS[group][0].

    group: A2 (SL3) or B2 (Sp4 with the frozen sign table).  G2 has no
    shipped matrix model.
    """
    if group not in _MODELS:
        raise Unsupported(f"unknown matrix group {group!r}")
    n, cells = _MODELS[group]
    root, neg = tuple(root), tuple(-c for c in root)
    if root in cells:
        return _elementary(n, q, {k: v * r for k, v in cells[root].items()})
    if neg in cells:
        return _elementary(n, q, {(j, i): v * r for (i, j), v in cells[neg].items()})
    raise Unsupported(f"no {group} root {root}")


def _realize_normal_form(eng, coeffs):
    """Product of the matrices x_root(v) over eng's roots, in normal-form order."""
    return _mat_prod(_MODELS[eng.typ][0], eng.q, [
        matrix_realize(eng.typ, root, v, eng.q) for root, v in zip(eng.roots, coeffs) if v
    ])


# -------------------------------------------------------------- closure ---


class ClosureResult:
    __slots__ = ("order",)

    def __init__(self, order):
        self.order = order


# Largest group order a closure report accepts.  BFS keeps every element, so
# its time and memory grow with the order: on a 2-vCPU x86-64 virtual machine
# `verify chevalley` at its limits takes about 1.7 s for a2 at q = 100, 3 s
# for b2 at q = 31 and 10.5 s for g2 at q = 10 (10^6 elements each).  Each
# report derives the order it will reach from its inputs and refuses an input
# over this limit before any product.
CLOSURE_CAP = 10**6


def bfs_closure(generators, mul, cap=CLOSURE_CAP):
    """Closure of the generators under mul(a, b), breadth-first, deterministic.

    Finite ambient group makes the closed product set a subgroup.  Raises
    CapExceeded (with the partial count) once more than cap elements appear.
    """
    gens = list(generators)
    if cap < 1:
        raise TypeMismatch("cap must be >= 1")
    seen = set(gens)
    frontier = list(seen)
    if len(seen) > cap:
        raise CapExceeded(cap, len(seen))
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                p = mul(e, g)
                if p not in seen:
                    seen.add(p)
                    new.append(p)
        if len(seen) > cap:
            raise CapExceeded(cap, len(seen))
        frontier = new
    return ClosureResult(len(seen))


# --------------------------------------------------------- check reports ---


def unipotent_closure_report(typ, q):
    """x_root(1) letters should generate all q^{#roots} normal forms."""
    eng = UnipotentEngine(typ, q)
    if eng.order() > CLOSURE_CAP:
        raise BadModulus(
            f"U+({typ}) at q = {q} has order {eng.order()}, over the closure limit {CLOSURE_CAP}"
        )
    gens = [eng.letter(p, 1) for p in range(len(eng.roots))]
    res = bfs_closure(gens, eng.mul)
    rep = CheckReport(f"unipotent_closure_{typ}_{q}")
    rep.tally("order_equals_q_pow_roots", [res.order == eng.order()])
    rep.data.update({"order": res.order, "expected": eng.order()})
    return rep


_SIGMA_GENERATORS = {
    # Sigma root subgroups for the rank-2 catalogue entries, in the matrix
    # realizations: three subgroups suffice (fewer than 2d = 4)
    "sl3": ("A2", ((1, 0), (0, 1), (-1, -1))),
    "sp4": ("B2", ((0, 1), (1, 0), (-1, -2))),
}


def full_group_order(group, q):
    """|SL3(q)| = q^3 (q^2-1)(q^3-1) and |Sp4(q)| = q^4 (q^2-1)(q^4-1), q prime."""
    if group == "sl3":
        return q**3 * (q**2 - 1) * (q**3 - 1)
    if group == "sp4":
        return q**4 * (q**2 - 1) * (q**4 - 1)
    raise Unsupported(f"unknown group {group!r}")


# Largest prime q `sigma_generation_report` accepts for each group, set by
# measured cost.  Schreier-Sims keeps one permutation per orbit point, so
# time and memory grow with q^n: on a 2-vCPU x86-64 virtual machine `verify
# generation`, import included, takes about 0.08 s (17 MB) for sl3 at q = 7
# and 0.14 s (19 MB) for sp4 at q = 5, against 0.6 s (44 MB) for sl3 at
# q = 11 and 1.5 s (69 MB) for sp4 at q = 7.  A larger q is refused before
# any permutation is built.
GENERATION_MAX_Q = {"sl3": 7, "sp4": 5}


def sigma_generation_report(group, q):
    """Order of the group generated by the Sigma root subgroups of group.

    The order comes from deterministic Schreier-Sims (`permgroup`) on the
    permutations the generators induce on the nonzero row vectors of F_q^n,
    an action that is faithful, so no element is listed.
    """
    # imported here so that bounds and permgroup load only for `verify generation`
    from .bounds import is_prime
    from .permgroup import schreier_sims_order, vector_permutation

    if group not in _SIGMA_GENERATORS:
        raise Unsupported(f"unknown group {group!r}")
    if not is_prime(q):
        raise BadModulus(f"q = {q} is not prime; the group order formula needs a field")
    if group == "sp4" and q == 2:
        raise BadModulus("q = 2 does not invert 2, which B2 generation needs")
    if q > GENERATION_MAX_Q[group]:
        limit = GENERATION_MAX_Q[group]
        raise BadModulus(f"{group} at q = {q} is over the generation limit q <= {limit}")
    expected = full_group_order(group, q)
    mtype, roots = _SIGMA_GENERATORS[group]
    n = _MODELS[mtype][0]
    # x_root(c) = x_root(1)^c, so the x_root(1) letters generate the same group
    units = [matrix_realize(mtype, root, 1, q) for root in roots]
    order = schreier_sims_order([vector_permutation(g, n, q) for g in units])
    rep = CheckReport(f"sigma_generation_{group}_{q}")
    rep.tally("order_equals_full_group", [order == expected])
    rep.data.update({"order": order, "expected": expected})
    if group == "sp4":
        # form preservation propagates to the whole group
        gens = [matrix_realize(mtype, root, c, q) for root in roots for c in range(1, q)]
        rep.tally("generators_preserve_form", (preserves_sp4_form(g, q) for g in gens))
    return rep


def centrality_report(typ, q):
    """Central root subgroups of B2 or G2, checked against all generator letters.

    Commuting with every letter x_root(c) extends to the whole group, so
    the letter check is complete.  Covers: a+2b central in U+(B2);
    2a+3b central in U+(G2); a+3b central in U+(G2)/X_{2a+3b}.
    """
    rep = CheckReport(f"centrality_q{q}")
    cases = []
    if typ == B2:
        cases.append((UnipotentEngine(B2, q), 3, "b2_a_plus_2b_central"))
    if typ == G2:
        cases.append((UnipotentEngine(G2, q), 5, "g2_2a_plus_3b_central"))
        cases.append((QuotientEngine(G2, q, {5}), 4, "g2_quotient_a_plus_3b_central"))
    for eng, central_pos, name in cases:
        live = [p for p in range(len(eng.roots)) if p not in eng.killed]
        rep.tally(name, (
            eng.commutator(eng.letter(central_pos, r), eng.letter(p, c)) == eng.identity()
            or {"r": r, "pos": p, "c": c}
            for r in range(1, q)
            for p in live
            for c in range(1, q)
        ))
    return rep


def claim_a9_check(q):
    """U+(G2)/<X_{a+3b}, X_{2a+3b}> satisfies the B2 commutator formulas.

    Verifies the two displayed relations exhaustively, then cross-checks
    that identifying surviving coordinates with a fresh B2 engine is a
    homomorphism.  The homomorphism test is letter-wise: phi(g * letter) =
    phi(g) * phi(letter) over every element g and every generator letter,
    which extends to arbitrary products by induction on the letter
    decomposition of the right factor.
    """
    if math.gcd(q, 6) != 1:
        raise TypeMismatch(f"q = {q} must be coprime to 6")
    quo = QuotientEngine(G2, q, {4, 5})
    b2 = UnipotentEngine(B2, q)
    rep = CheckReport(f"claim_a9_q{q}")

    pairs = [(r, s) for r in range(q) for s in range(q)]
    rep.tally("rel_a_b_matches_b2_form", (
        quo.commutator(quo.letter(0, r), quo.letter(1, s))
        == quo.mul(quo.letter(2, r * s), quo.letter(3, r * s * s))
        for r, s in pairs
    ))
    rep.tally("rel_ab_b_matches_b2_form", (
        quo.commutator(quo.letter(2, r), quo.letter(1, s)) == quo.letter(3, 2 * r * s)
        for r, s in pairs
    ))

    # each generator letter in the quotient and in B2; phi(g) = g[:4], the
    # surviving coordinates, already reduced mod q
    letters = [(quo.letter(p, c), b2.letter(p, c)) for p in range(4) for c in range(1, q)]
    rep.tally("coordinate_map_is_letterwise_homomorphism", (
        quo.mul(g, x)[:4] == b2.mul(g[:4], y)
        for g in quo.all_elements()
        for x, y in letters
    ))
    rep.data["quotient_order"] = quo.order()
    return rep


def g2_v4_conjugation_check(q):
    """Conjugation by x_b(s) on N/X_{2a+3b} matches a size-4 shear action.

    N is generated by the positive roots other than b; in the quotient its
    coordinates are (a_a, a_{a+b}, a_{a+2b}, a_{a+3b}).  Row k of C(s) is
    the image of the k-th unit vector; the conjugation is checked to be
    v -> v C(s) on every vector and every s.  A dictionary (conjugation side,
    coordinate order, per-coordinate signs, upper/lower shear, sign of s,
    row-vs-column action) matches when it turns the size-4 shear into C(s)
    at every s.
    """
    if math.gcd(q, 6) != 1:
        raise TypeMismatch(f"q = {q} must be coprime to 6")
    quo = QuotientEngine(G2, q, {5})
    rep = CheckReport(f"g2_v4_q{q}")

    # x_b(-s), x_b(s) and the shears at each s, built once for all vectors
    letters = [(quo.letter(1, -s), quo.letter(1, s)) for s in range(q)]
    shears = {(o, t): symrep.shear_matrix(4, t, o, q) for o in ("upper", "lower") for t in range(q)}

    def conj(vec, s):
        # x_b(s)^-1 g x_b(s) on the coordinates a, a+b, a+2b, a+3b of N; the
        # other side, x_b(s) g x_b(s)^-1, is this at -s
        xi, x = letters[s]
        out = quo.mul(quo.mul(xi, (vec[0], 0, *vec[1:], 0)), x)
        if out[1] != 0:
            raise SoundnessCheckFailed("conjugation left N")
        return out[:1] + out[2:5]

    units = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    mats = [tuple(x for e in units for x in conj(e, s)) for s in range(q)]
    linear = all(
        conj(v, s) == tuple(sum(map(int.__mul__, v, mats[s][j::4])) % q for j in range(4))
        for s in range(q)
        for v in itertools.product(range(q), repeat=4)
    )
    by_side = (mats, [mats[-s % q] for s in range(q)])

    def dictionary_matrix(cand, s):
        # the shear, transposed for a column action and reversed (rows and
        # columns) for the reversed order, with the signs on both sides
        _, order_rev, signs, orient, s_sign, col_left = cand
        m = shears[(orient, s_sign * s % q)]
        m = transpose(m, 4) if col_left else m
        if order_rev:
            m, signs = m[::-1], signs[::-1]
        return tuple(a * x * b % q for x, (a, b) in zip(m, itertools.product(signs, repeat=2)))

    # side, order, signs, orientation, s_sign, action; the last varies fastest
    candidates = itertools.product(
        (0, 1), (False, True), itertools.product((1, q - 1), repeat=4),
        ("upper", "lower"), (1, q - 1), (False, True),
    )
    verified = [
        c for c in candidates if all(dictionary_matrix(c, s) == by_side[c[0]][s] for s in range(q))
    ]
    # every dictionary acts linearly, so none matches a conjugation that does not
    if not (linear and verified):
        raise SoundnessCheckFailed("no sign/order dictionary matches the conjugation")
    side, order_rev, signs, orient, s_sign, col_left = verified[0]
    rep.add("dictionary_verified_exhaustively", q**5, 0)
    rep.data["dictionary"] = {
        "conjugation_side": "x^-1 g x" if side == 0 else "x g x^-1",
        "coordinate_order": "reversed" if order_rev else "engine",
        "signs": list(signs),
        "orientation": orient,
        "s_sign": -1 if s_sign == q - 1 else 1,
        "action": "column_left" if col_left else "row_right",
        "matches": len(verified),
    }
    return rep


def _additivity(images, mul, q):
    """One outcome per subgroup and r, s: x(r) x(s) == x(r + s), where each
    subgroup is the list of its q images, x(r) = img[r]."""
    return (
        mul(img[r], img[s]) == img[(r + s) % q]
        for img in images
        for r in range(q)
        for s in range(q)
    )


def _commutators(img_a, img_b, mul, q):
    """(r, s, x_a(-r) x_b(-s) x_a(r) x_b(s)) for every r, s in 0..q-1, from
    the q^2 products x_a(r) x_b(s) formed once."""
    prod = [[mul(a, b) for b in img_b] for a in img_a]
    for r in range(q):
        for s in range(q):
            yield r, s, mul(prod[-r % q][-s % q], prod[r][s])


def sp4_regression_report(q):
    """Replay the checks that froze the Sp4 sign table, over Z/q.

    Additivity and form preservation for all eight root subgroups, and the
    commutator of every positive-root pair against the engine's collected
    value, all exhaustive in the parameters.
    """
    eng = UnipotentEngine(B2, q)
    rep = CheckReport(f"sp4_regression_q{q}")
    # the q images of each root subgroup, positive roots first; x_root(-r) is images[root][-r % q]
    roots = [(e * a, e * b) for e in (1, -1) for a, b in _SP4_CELLS]
    images = {root: [matrix_realize(B2, root, r, q) for r in range(q)] for root in roots}

    def mul(a, b):
        return mat_mul(a, b, 4, q)

    rep.tally("additivity", _additivity(images.values(), mul, q))
    rep.tally("form_preserved", (
        preserves_sp4_form(g, q) for img in images.values() for g in img
    ))
    x = [images[root] for root in eng.roots]  # by normal-form position

    def commutator_outcomes():
        for p1, p2 in itertools.combinations(range(4), 2):
            for r, s, com in _commutators(x[p1], x[p2], mul, q):
                yield com == _realize_normal_form(
                    eng, eng.commutator(eng.letter(p1, r), eng.letter(p2, s))
                )

    rep.tally("commutators_match_engine", commutator_outcomes())
    return rep


def heis_iso_report(q):
    """Normal form -> unitriangular 3x3 product is a bijective morphism.

    The images are the positive part of the A2 (SL3) model.  Multiplicativity
    is exhaustive over all q^3 x q^3 element pairs, so keep q tiny.
    """
    eng = UnipotentEngine(A2, q)
    rep = CheckReport(f"heis_iso_q{q}")
    image = {g: _realize_normal_form(eng, g) for g in eng.all_elements()}
    rep.add("injective", len(image), len(image) - len(set(image.values())))
    rep.tally("multiplicative", (
        image[eng.mul(g, h)] == mat_mul(rg, rh, 3, q)
        for g, rg in image.items()
        for h, rh in image.items()
    ))
    return rep


def random_elements(eng, rng, count):
    """count elements of a U+ engine, uniform over all q^n coefficient tuples.

    One draw per element: an index below q^n in the fewest bits, drawn again
    while >= q^n.  Its high and low base-q digits are looked up in two tables
    of q^ceil(n/2) and q^floor(n/2) digit tuples, already reduced; U+ has no
    killed set, so `element` is not needed.
    """
    if eng.killed:
        raise TypeMismatch("random_elements draws in U+, not in a quotient")
    bits, q, n = rng.getrandbits, eng.q, len(eng.roots)
    high = list(itertools.product(range(q), repeat=n - n // 2))
    low = list(itertools.product(range(q), repeat=n // 2))
    size, width = q**n, len(low)
    k = (size - 1).bit_length()
    for _ in range(count):
        r = bits(k)
        while r >= size:
            r = bits(k)
        hi, lo = divmod(r, width)
        yield high[hi] + low[lo]


def chevalley_report(typ, q, seed=0):
    """Bundle of engine checks behind one report, sized for CLI use."""
    eng = UnipotentEngine(typ, q)
    rep = CheckReport(f"chevalley_{typ}_q{q}")
    rep.merge(unipotent_closure_report(typ, q))

    def draws(label, count):
        return random_elements(eng, random.Random(f"{seed}:{label}:{typ}:{q}"), count)

    triples = draws("assoc", 3000)  # 1000 triples (g, h, k), g drawn first
    assoc = eng._compile(False, _ASSOCIATIVITY)
    rep.tally("associativity_random", (
        gh_k == g_hk
        or {"g": list(g), "h": list(h), "k": list(k), "(gh)k": list(gh_k), "g(hk)": list(g_hk)}
        for g, h, k in zip(triples, triples, triples)
        for gh_k, g_hk in (assoc(g, h, k, q),)
    ))
    if eng.order() <= 3**6:
        name, elements = "inverses_exhaustive", eng.all_elements()
    else:
        name, elements = "inverses_random", draws("inv", 1000)
    rep.tally(name, (
        eng.mul(g, eng.inverse(g)) == eng.identity() or {"g": list(g)} for g in elements
    ))

    if typ != A2:
        rep.merge(centrality_report(typ, q))
    if typ == A2 and q <= 3:
        rep.merge(heis_iso_report(q))
    if typ == B2:
        rep.merge(sp4_regression_report(q))
    if typ == G2:
        if math.gcd(q, 6) == 1:
            rep.merge(claim_a9_check(q))
            rep.merge(g2_v4_conjugation_check(q))
        else:
            rep.data["g2_quotient_checks"] = "skipped, q not coprime to 6"
    return rep


# ---------------------------------------------------------- affine check ---


def _cyclic_affine_gcm(d):
    """The cyclic GCM of untwisted affine type on d >= 3 vertices."""
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            if i == j:
                row.append(2)
            elif (i - j) % d in (1, d - 1):
                row.append(-1)
            else:
                row.append(0)
        rows.append(row)
    return tuple(tuple(r) for r in rows)


def _affine_cell(d, k, sign):
    """((i, j), degree) with pi(x_{sign * alpha_k}(r)) = E_ij(r t^degree).

    For k < d this is E_{k,k+1}(r) (negative: E_{k+1,k}(r)); for k = d it
    is E_{d,1}(r t) (negative: E_{1,d}(r t^{-1})).
    """
    if k < d:
        return ((k, k + 1) if sign > 0 else (k + 1, k)), 0
    return ((d, 1) if sign > 0 else (1, d)), sign


def _loop_mul(a, b, q):
    """The offset of (I + a)(I + b), namely a + b + ab, for loop-group
    offsets {(row, column, degree): coefficient} over Z/q: a cell (i, j, d1)
    of a and a cell (j, l, d2) of b add c1 * c2 at (i, l, d1 + d2).  The
    result, like each factor, holds only nonzero coefficients in 1..q-1, so
    two matrices are equal exactly when their dicts are."""
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    for (i, j, d1), c1 in a.items():
        for (k, l, d2), c2 in b.items():
            if j == k:
                key = (i, l, d1 + d2)
                out[key] = out.get(key, 0) + c1 * c2
    return {key: c % q for key, c in out.items() if c % q}


# Largest inputs affine_pi_check accepts: its checks multiply q^2 pairs of
# loop-group matrices per pair of the 2d subgroups; at q = 16, d = 3 takes
# about 0.025 s and d = 5 0.07 s on a 2-vCPU x86-64 virtual machine (0.11 s
# and 0.15 s as a whole `verify affine` process).  No product is truncated,
# so the window does not change the work: it only names the report.
AFFINE_MAX_Q = 16
AFFINE_MAX_D = 5
AFFINE_MAX_WINDOW = 64


def affine_pi_check(d, q, window=6):
    """Relation checks for the loop-group images of the affine simple roots.

    (R1) additivity is exhaustive per subgroup.  For every ordered pair of
    distinct signed simple roots, prenilpotency read off the cyclic GCM is
    compared with the elementary-matrix commutator law ([E_ij(p), E_kl(r)]
    is E_il(pr) if j = k, E_kj(-pr) if l = i, identity otherwise), and the
    matrix commutators are verified exhaustively in r, s against that law.
    Opposite pairs (j = k and l = i simultaneously) are the non-prenilpotent
    ones and are skipped, matching the GCM classification.

    Products are exact in Z/q[t, t^-1]; the window (4..64) only labels the
    report, `affine_pi_d{d}_q{q}_w{window}`.
    """
    if not 3 <= d <= AFFINE_MAX_D:
        raise TypeMismatch(f"d = {d} outside 3..{AFFINE_MAX_D}")
    if not 4 <= window <= AFFINE_MAX_WINDOW:
        raise TypeMismatch(f"window = {window} outside 4..{AFFINE_MAX_WINDOW}")
    if not 2 <= q <= AFFINE_MAX_Q:
        raise BadModulus(f"q = {q} outside 2..{AFFINE_MAX_Q}")
    gcm = _cyclic_affine_gcm(d)
    rep = CheckReport(f"affine_pi_d{d}_q{q}_w{window}")

    def mul(a, b):
        return _loop_mul(a, b, q)

    subgroups = [(k, sign) for k in range(1, d + 1) for sign in (1, -1)]
    # the q images pi(x_{sign * alpha_k}(r)) = E_ij(r t^deg) of each signed
    # subgroup as offsets from the identity, so r = 0 is {}
    images = {}
    for k, sign in subgroups:
        (i, j), deg = _affine_cell(d, k, sign)
        images[(k, sign)] = [{(i, j, deg): r} if r else {} for r in range(q)]

    rep.tally("r1_additivity", _additivity(images.values(), mul, q))

    def signed_entry(k, sign):
        # simple roots are self-dual in coordinates, so root == coroot here
        v = tuple(x * sign for x in simple_root(d, k))
        return RootEntry(v, v, k, () if sign > 0 else (k,))

    agree = []  # does the GCM's prenilpotency match the law, per ordered pair
    laws = []  # (images, images, degrees, target) of each pair that is not opposite
    for (k1, s1), (k2, s2) in itertools.permutations(subgroups, 2):
        a = signed_entry(k1, s1)
        b = signed_entry(k2, s2)
        ((i, j), deg1), ((k, l), deg2) = _affine_cell(d, k1, s1), _affine_cell(d, k2, s2)
        if j == k and l == i:
            # opposite root pair; confirm the GCM agrees it is degenerate
            try:
                agree.append(prenilpotency(gcm, a, b)[0] == NOT_PRENILPOTENT)
            except OppositePair:
                agree.append(True)
            continue
        agree.append(prenilpotency(gcm, a, b)[0] != NOT_PRENILPOTENT)
        # the single commutator target (cell, sign), or None for a commuting pair
        target = ((i, l), 1) if j == k else ((k, j), -1) if l == i else None
        laws.append((images[(k1, s1)], images[(k2, s2)], deg1, deg2, target))

    def r2_outcomes():
        for img_a, img_b, deg1, deg2, target in laws:
            for r, s, com in _commutators(img_a, img_b, mul, q):
                if target is None:
                    yield com == {}  # the identity's offset
                    continue
                # the law's value sign * (r t^deg1)(s t^deg2) at the target cell
                (ti, tj), sign = target
                v = sign * r * s % q
                yield com == ({(ti, tj, deg1 + deg2): v} if v else {})

    rep.tally("r2_commutators_match_law", r2_outcomes())
    rep.tally("gcm_prenilpotency_agrees_with_law", agree)
    rep.data["skipped_opposite_pairs"] = len(agree) - len(laws)
    return rep

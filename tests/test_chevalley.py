import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmcert import chevalley as ch
from kmcert import permgroup
from kmcert.bounds import is_prime
from kmcert.errors import BadModulus, CapExceeded, SoundnessCheckFailed, TypeMismatch, Unsupported
from kmcert.polylaw import BINARY, UNARY


# ---------------------------------------------------------------- engines ---


def test_normal_form_and_swap():
    eng = ch.UnipotentEngine(ch.A2, 7)
    xa, xb = eng.letter(0, 1), eng.letter(1, 1)
    assert eng.mul(xa, xb) == (1, 1, 0)
    # swapping injects the a+b correction with the opposite sign
    assert eng.mul(xb, xa) == (1, 1, 6)
    assert eng.commutator(xa, xb) == (0, 0, 1)


def test_b2_commutator_relations():
    eng = ch.UnipotentEngine(ch.B2, 5)
    com = eng.commutator(eng.letter(0, 2), eng.letter(1, 3))
    # [x_a(r), x_b(s)] = x_{a+b}(rs) x_{a+2b}(r s^2)
    assert com == (0, 0, 6 % 5, 18 % 5)
    com = eng.commutator(eng.letter(2, 1), eng.letter(1, 1))
    # [x_{a+b}(r), x_b(s)] = x_{a+2b}(2rs)
    assert com == (0, 0, 0, 2)


def test_g2_commutator_relations():
    eng = ch.UnipotentEngine(ch.G2, 5)
    com = eng.commutator(eng.letter(0, 1), eng.letter(1, 1))
    assert com == (0, 0, 1, 1, 1, 1)
    # a+3b and b span no further roots, so they commute
    assert eng.commutator(eng.letter(4, 2), eng.letter(1, 3)) == eng.identity()


def test_reversed_pair_inverts_sampled():
    rng = random.Random(3)
    for typ in (ch.A2, ch.B2, ch.G2):
        eng = ch.UnipotentEngine(typ, 7)
        n = len(eng.roots)
        for _ in range(25):
            g = eng.element([rng.randrange(7) for _ in range(n)])
            h = eng.element([rng.randrange(7) for _ in range(n)])
            assert eng.commutator(g, h) == eng.inverse(eng.commutator(h, g))


def test_group_axioms_sampled():
    rng = random.Random(4)
    for typ in (ch.A2, ch.B2, ch.G2):
        eng = ch.UnipotentEngine(typ, 5)
        n = len(eng.roots)
        for _ in range(40):
            g, h, k = (
                eng.element([rng.randrange(5) for _ in range(n)]) for _ in range(3)
            )
            assert eng.mul(eng.mul(g, h), k) == eng.mul(g, eng.mul(h, k))
            assert eng.mul(g, eng.inverse(g)) == eng.identity()
            assert eng.mul(eng.identity(), g) == g


def test_engine_rejections():
    with pytest.raises(TypeMismatch):
        ch.UnipotentEngine("F4", 5)
    with pytest.raises(BadModulus):
        ch.UnipotentEngine(ch.A2, 1)
    eng = ch.UnipotentEngine(ch.A2, 5)
    with pytest.raises(TypeMismatch):
        eng.element((1, 2))


def test_quotient_engine():
    quo = ch.QuotientEngine(ch.G2, 5, {4, 5})
    assert quo.order() == 625
    assert sum(1 for _ in quo.all_elements()) == 625
    g = quo.mul(quo.letter(0, 1), quo.letter(1, 1))
    assert g[4] == 0 and g[5] == 0


def test_killed_coordinates_are_canonical():
    quo = ch.QuotientEngine(ch.G2, 5, {4, 5})
    assert quo.letter(4, 1) == quo.identity()
    assert quo.letter(5, 3) == quo.identity()
    x = quo.element((1, 2, 3, 4, 2, 1))
    assert x == (1, 2, 3, 4, 0, 0)
    assert quo.mul(x, quo.identity()) == x == quo.mul(quo.identity(), x)
    assert quo.mul(x, quo.inverse(x)) == quo.identity()
    # U+ keeps every coordinate
    assert ch.UnipotentEngine(ch.G2, 5).element((1, 2, 3, 4, 2, 1)) == (1, 2, 3, 4, 2, 1)


def test_quotient_requires_normal_subgroup():
    # X_{a+b} alone is not normal in U+(G2): commutators escape
    with pytest.raises(SoundnessCheckFailed):
        ch.QuotientEngine(ch.G2, 5, {2})


# ---------------------------------------------- product laws vs collection ---


def _letters(g):
    return list(enumerate(g))


@pytest.mark.parametrize(
    "typ, q, killed, sample",
    [
        (ch.A2, 2, None, None),
        (ch.A2, 3, None, None),
        (ch.B2, 2, None, None),
        (ch.B2, 3, None, None),
        (ch.G2, 2, None, None),
        (ch.G2, 5, {5}, 60),
        (ch.G2, 5, {4, 5}, 60),
    ],
)
def test_laws_match_collection_of_integer_letters(typ, q, killed, sample):
    # the laws are derived by collection on indeterminates over Z; evaluating
    # them mod q must agree with collecting the same words letter by letter
    # over Z and reducing mod q
    eng = ch.QuotientEngine(typ, q, killed) if killed else ch.UnipotentEngine(typ, q)
    elems = list(eng.all_elements())
    if sample:
        elems = random.Random(f"laws:{typ}:{sorted(killed)}").sample(elems, sample)

    def collect_mod_q(letters):
        return tuple(v % q for v in eng.collect(letters))

    for g in elems:
        rev = [(p, -v) for p, v in reversed(_letters(g))]
        assert eng.inverse(g) == collect_mod_q(rev)
        for h in elems:
            assert eng.mul(g, h) == collect_mod_q(_letters(g) + _letters(h))


class ModQ:
    """A letter value in Z/q: falsy when it vanishes mod q, so the collector
    drops such letters as a collector working mod q does."""

    __slots__ = ("v", "q")

    def __init__(self, v, q):
        self.v, self.q = v % q, q

    def __bool__(self):
        return self.v != 0

    def __int__(self):
        return self.v

    def __neg__(self):
        return ModQ(-self.v, self.q)

    def __add__(self, other):
        return ModQ(self.v + other.v, self.q)

    def __mul__(self, other):
        return ModQ(self.v * (other.v if isinstance(other, ModQ) else other), self.q)

    __rmul__ = __mul__

    def __pow__(self, k):
        return ModQ(self.v**k, self.q)


LAW_ENGINES = [(ch.A2, None), (ch.B2, None), (ch.G2, None), (ch.G2, {5}), (ch.G2, {4, 5})]


@pytest.mark.parametrize("q", range(2, 41))
def test_z_laws_reduced_mod_q_match_mod_q_collection(q):
    # one law over Z serves every modulus, composites included: the engine's
    # product and inverse must equal collection with values in Z/q
    rng = random.Random(f"zlaw:{q}")
    for typ, killed in LAW_ENGINES:
        eng = ch.QuotientEngine(typ, q, killed) if killed else ch.UnipotentEngine(typ, q)
        n = len(eng.roots)

        def collect_mod_q(letters):
            return tuple(int(v) for v in eng.collect([(p, ModQ(v, q)) for p, v in letters]))

        elems = [eng.element([rng.randrange(q) for _ in range(n)]) for _ in range(8)]
        for g in elems:
            rev = [(p, -v) for p, v in reversed(_letters(g))]
            assert eng.inverse(g) == collect_mod_q(rev)
            for h in elems[:4]:
                assert eng.mul(g, h) == collect_mod_q(_letters(g) + _letters(h))


def test_each_law_is_collected_once_for_every_modulus(monkeypatch):
    monkeypatch.setattr(ch, "_LAWS", {})
    calls = []
    collect = ch.UnipotentEngine.collect

    def counting_collect(self, letters):
        calls.append((self.typ, self.killed))
        return collect(self, letters)

    monkeypatch.setattr(ch.UnipotentEngine, "collect", counting_collect)
    for q in (2, 3, 5, 7, 25):
        for typ, killed in LAW_ENGINES:
            eng = ch.QuotientEngine(typ, q, killed) if killed else ch.UnipotentEngine(typ, q)
            g = eng.letter(0, 1)
            eng.mul(eng.inverse(g), g)
            eng.mul(g, g)
    keys = {(typ, frozenset(killed or ()), inverse) for typ, killed in LAW_ENGINES
            for inverse in (False, True)}
    assert set(ch._LAWS) == keys
    assert len(calls) == len(keys) == 10


def test_each_law_is_compiled_once_per_modulus(monkeypatch):
    monkeypatch.setattr(ch, "_LAWS", {})
    compiled = []
    compile_law = ch.compile_law
    monkeypatch.setattr(
        ch, "compile_law",
        lambda rows, chain: compiled.append(chain) or compile_law(rows, chain),
    )
    for _ in range(3):
        for q in (5, 7):
            eng = ch.QuotientEngine(ch.G2, q, {5})
            g = eng.letter(0, 1)
            eng.mul(eng.inverse(g), g)
    assert compiled == [UNARY, BINARY] * 2  # inverse and product, at q = 5 and 7
    # one associativity chain per (type, q), however often the report runs
    for _ in range(3):
        for typ, q in ((ch.A2, 3), (ch.G2, 2), (ch.G2, 3)):
            ch.chevalley_report(typ, q)
    assert [c for c in compiled if c not in (UNARY, BINARY)] == [ch._ASSOCIATIVITY] * 3


def test_each_table_is_checked_once_per_content(monkeypatch):
    monkeypatch.setattr(ch, "_CHECKED_TABLES", set())
    calls = []
    check = ch.UnipotentEngine._check_table_complete
    monkeypatch.setattr(
        ch.UnipotentEngine, "_check_table_complete", lambda self: calls.append(self.typ) or check(self)
    )
    for q in (2, 3, 5):
        ch.UnipotentEngine(ch.G2, q)
        ch.QuotientEngine(ch.G2, q, {5})
    assert calls == [ch.G2]
    # an entry edited in place is checked again: a+2b and a+b span 2a+3b, not a+3b
    monkeypatch.setitem(ch._TABLES[ch.G2], (3, 2), [(4, 1, 1, 3)])
    with pytest.raises(SoundnessCheckFailed, match="G2 commutator table at"):
        ch.UnipotentEngine(ch.G2, 5)
    # so is an exponent or a constant: collection would raise a bare
    # TypeError at exponent 0 and lose a letter at constant 0
    for term in ((5, 0, 1, 3), (5, 1, 1.0, 3), (5, 1, 1, 0), (5, 1, 1)):
        monkeypatch.setitem(ch._TABLES[ch.G2], (3, 2), [term])
        with pytest.raises(SoundnessCheckFailed, match=r"G2 commutator table at \(3, 2\): term"):
            ch.UnipotentEngine(ch.G2, 5)
    # the printed entry back in place is the content checked first
    monkeypatch.setitem(ch._TABLES[ch.G2], (3, 2), [(5, 1, 1, 3)])
    ch.UnipotentEngine(ch.G2, 5)
    assert calls == [ch.G2] * 6


@st.composite
def _matrix_model_cases(draw):
    typ = draw(st.sampled_from((ch.A2, ch.B2)))
    q = draw(st.sampled_from([p for p in range(2, 32) if is_prime(p)]))
    coeffs = st.tuples(*[st.integers(0, q - 1)] * len(ch._ROOTS[typ]))
    return typ, q, draw(coeffs), draw(coeffs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_matrix_model_cases())
def test_engine_products_match_matrix_models(case):
    # the SL3 (A2) and Sp4 (B2) models multiply matrices, with no collection
    typ, q, a, b = case
    eng = ch.UnipotentEngine(typ, q)
    n = ch._MODELS[typ][0]
    g, h = eng.element(a), eng.element(b)
    rg, rh = ch._realize_normal_form(eng, a), ch._realize_normal_form(eng, b)
    assert ch._realize_normal_form(eng, eng.mul(g, h)) == ch.mat_mul(rg, rh, n, q)
    r_inv = ch._realize_normal_form(eng, eng.inverse(g))
    assert ch.mat_mul(r_inv, rg, n, q) == ch._mat_id(n)


# --------------------------------------------------------------- matrices ---


def test_matrix_basics():
    # in the A2 (SL3) model the roots (1,0), (0,1), (1,1) are E12, E23, E13,
    # flat row-major: entry (i, j) sits at 3 * (i - 1) + (j - 1)
    e12 = ch.matrix_realize("A2", (1, 0), 1, 7)
    e23 = ch.matrix_realize("A2", (0, 1), 1, 7)
    assert e12 == (1, 1, 0, 0, 1, 0, 0, 0, 1) and e23 == (1, 0, 0, 0, 1, 1, 0, 0, 1)
    com = ch._mat_prod(3, 7, (
        ch.matrix_realize("A2", (1, 0), -1, 7),
        ch.matrix_realize("A2", (0, 1), -1, 7),
        e12,
        e23,
    ))
    assert com == ch.matrix_realize("A2", (1, 1), 1, 7) == (1, 0, 1, 0, 1, 0, 0, 0, 1)
    assert ch.matrix_realize("A2", (1, 0), 0, 7) == ch._mat_id(3) == ch._mat_prod(3, 7, ())
    assert ch.matrix_realize("A2", (-1, 0), 3, 7) == (1, 0, 0, 3, 1, 0, 0, 0, 1)


def _naive_mat_mul(a, b, n, q):
    return tuple(
        sum(a[i * n + k] * b[k * n + j] for k in range(n)) % q
        for i in range(n)
        for j in range(n)
    )


def test_mat_mul_matches_triple_loop():
    rng = random.Random(0)
    for n in range(2, 7):
        for q in (2, 3, 5, 7, 35, 101):
            for _ in range(20):
                a = tuple(rng.randrange(q) for _ in range(n * n))
                b = tuple(rng.randrange(q) for _ in range(n * n))
                assert ch.mat_mul(a, b, n, q) == _naive_mat_mul(a, b, n, q)


def test_matrix_rejections():
    with pytest.raises(Unsupported):
        ch.matrix_realize("G2", (1, 0), 1, 5)
    with pytest.raises(Unsupported):
        ch.matrix_realize("SLd", (1, 2), 1, 5)
    with pytest.raises(Unsupported):
        ch.matrix_realize("A2", (2, 0), 1, 5)
    with pytest.raises(Unsupported):
        ch.matrix_realize("X", (1, 0), 1, 5)
    with pytest.raises(Unsupported):
        ch.matrix_realize("Heis", (1, 0), 1, 5)  # the A2 model covers it


def test_sp4_form_matrix():
    j = ch.sp4_form_matrix(5)
    assert j == (0, 0, 0, 1, 0, 0, 1, 0, 0, 4, 0, 0, 4, 0, 0, 0)
    for root in ((1, 0), (0, 1), (1, 1), (1, 2), (-1, -2)):
        assert ch.preserves_sp4_form(ch.matrix_realize("B2", root, 3, 5), 5)
    # E_12 alone (without the -E_34 partner) must fail the check
    assert not ch.preserves_sp4_form(ch._elementary(4, 5, {(1, 2): 1}), 5)


# ---------------------------------------------------------------- closure ---


def test_bfs_closure_counts():
    for typ, q, want in ((ch.A2, 3, 27), (ch.A2, 4, 64), (ch.B2, 3, 81)):
        rep = ch.unipotent_closure_report(typ, q)
        assert rep.ok and rep.data["order"] == want


def test_bfs_closure_identity_and_cap():
    eng = ch.UnipotentEngine(ch.A2, 3)
    res = ch.bfs_closure([eng.identity()], eng.mul)
    assert res.order == 1
    with pytest.raises(CapExceeded) as exc:
        ch.bfs_closure([eng.letter(p, 1) for p in range(3)], eng.mul, cap=10)
    assert exc.value.cap == 10 and exc.value.partial > 10


@pytest.mark.parametrize(
    "report, args",
    [
        (ch.unipotent_closure_report, (ch.A2, 101)),  # 100^3 <= 10^6 < 101^3
        (ch.chevalley_report, (ch.A2, 101)),
        (ch.chevalley_report, (ch.B2, 32)),  # 31^4 <= 10^6 < 32^4
        (ch.chevalley_report, (ch.G2, 11)),  # 10^6 <= 10^6 < 11^6
        # the prime after each GENERATION_MAX_Q bound
        (ch.sigma_generation_report, ("sl3", 11)),
        (ch.sigma_generation_report, ("sp4", 7)),
    ],
)
def test_closure_reports_refuse_over_cap_before_any_product(monkeypatch, report, args):
    def no_work(*a, **k):
        raise AssertionError("a closure or a permutation was built for an input over the limit")

    monkeypatch.setattr(ch, "bfs_closure", no_work)
    monkeypatch.setattr(permgroup, "vector_permutation", no_work)
    monkeypatch.setattr(permgroup, "schreier_sims_order", no_work)
    with pytest.raises(BadModulus, match="(closure|generation) limit"):
        report(*args)


class _Admitted(Exception):
    pass


def test_closure_cap_admits_the_limits(monkeypatch):
    # the largest q each report accepts reaches at most CLOSURE_CAP elements
    for typ, q in ((ch.A2, 100), (ch.B2, 31), (ch.G2, 10)):
        eng = ch.UnipotentEngine(typ, q)
        assert eng.order() <= ch.CLOSURE_CAP < ch.UnipotentEngine(typ, q + 1).order()
    # generation accepts every prime up to its bound (sp4 from 3) and goes on
    # to build permutations there; the next prime is refused above
    assert ch.GENERATION_MAX_Q == {"sl3": 7, "sp4": 5}

    def admitted(*a, **k):
        raise _Admitted

    monkeypatch.setattr(permgroup, "vector_permutation", admitted)
    for group, limit in ch.GENERATION_MAX_Q.items():
        for q in range(2 if group == "sl3" else 3, limit + 1):
            if is_prime(q):
                with pytest.raises(_Admitted):
                    ch.sigma_generation_report(group, q)


def test_sigma_generation_small():
    rep = ch.sigma_generation_report("sl3", 2)
    assert rep.ok and rep.data["order"] == 168
    rep = ch.sigma_generation_report("sl3", 3)
    assert rep.ok and rep.data["order"] == 5616
    assert ch.full_group_order("sl3", 5) == 372000
    assert ch.full_group_order("sp4", 3) == 51840
    with pytest.raises(Unsupported):
        ch.sigma_generation_report("so5", 3)


def test_sigma_generation_refuses_non_prime_modulus():
    # Z/4 is not a field: the closure reaches |SL3(Z/4)| = 43008, not 60480
    for q in (1, 4, 6):
        with pytest.raises(BadModulus):
            ch.sigma_generation_report("sl3", q)


def test_sigma_generation_refuses_sp4_at_q2():
    # B2 needs 2 invertible: over Z/2 the Sigma letters close to 72, not 720
    with pytest.raises(BadModulus):
        ch.sigma_generation_report("sp4", 2)


def test_sigma_closure_of_unit_letters_is_closure_of_all_letters():
    for q, want in ((2, 168), (3, 5616)):
        roots = ch._SIGMA_GENERATORS["sl3"][1]
        unit = [ch.matrix_realize("A2", root, 1, q) for root in roots]
        every = [ch.matrix_realize("A2", root, c, q) for root in roots for c in range(1, q)]

        def mul(a, b, q=q):
            return ch.mat_mul(a, b, 3, q)

        assert ch.bfs_closure(unit, mul).order == ch.bfs_closure(every, mul).order == want


# ------------------------------------------------------------ Schreier-Sims ---


def _ss_and_bfs_orders(mtype, roots, q):
    """Schreier-Sims order of the x_root(1) matrices and their BFS order."""
    n = ch._MODELS[mtype][0]
    mats = [ch.matrix_realize(mtype, root, 1, q) for root in roots]
    perms = [permgroup.vector_permutation(g, n, q) for g in mats]
    bfs = ch.bfs_closure(mats, lambda a, b: ch.mat_mul(a, b, n, q)).order
    return permgroup.schreier_sims_order(perms), bfs


@pytest.mark.parametrize("group, q", [("sl3", 2), ("sl3", 3), ("sl3", 5), ("sp4", 3)])
def test_schreier_sims_order_equals_bfs_order(group, q):
    mtype, roots = ch._SIGMA_GENERATORS[group]
    ss, bfs = _ss_and_bfs_orders(mtype, roots, q)
    assert ss == bfs == ch.full_group_order(group, q)
    assert ch.sigma_generation_report(group, q).data["order"] == ss


# the positive-root letters generate U+ (q^3 for sl3, q^4 for sp4); two of
# the three Sigma letters generate proper subgroups no formula here names
_PROPER = [
    ("A2", q, roots) for q in (2, 3, 5)
    for roots in (((1, 0), (0, 1)), ((1, 0), (-1, -1)), ((0, 1), (-1, -1)), ((1, 0), (0, 1), (1, 1)))
] + [
    ("B2", 3, roots)
    for roots in (((0, 1), (1, 0)), ((0, 1), (-1, -2)), ((1, 0), (-1, -2)),
                  ((1, 0), (0, 1), (1, 1), (1, 2)))
]


@pytest.mark.parametrize("mtype, q, roots", _PROPER)
def test_schreier_sims_order_equals_bfs_on_proper_subgroups(mtype, q, roots):
    ss, bfs = _ss_and_bfs_orders(mtype, roots, q)
    assert ss == bfs < ch.full_group_order("sl3" if mtype == "A2" else "sp4", q)
    if roots == ch._ROOTS[mtype]:  # every positive root: U+
        assert ss == q ** len(roots)


def test_schreier_sims_on_permutation_groups():
    def perm(cycle, m):
        p = list(range(m))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            p[a] = b
        return tuple(p)

    # S_6 from a transposition and a 6-cycle; A_5 from a 3-cycle and a
    # 5-cycle; the trivial group, with and without the identity listed
    assert permgroup.schreier_sims_order([perm((0, 1), 6), perm(tuple(range(6)), 6)]) == 720
    assert permgroup.schreier_sims_order([perm((0, 1, 2), 5), perm((0, 1, 2, 3, 4), 5)]) == 60
    assert permgroup.schreier_sims_order([]) == 1
    assert permgroup.schreier_sims_order([tuple(range(4))]) == 1
    # random permutations of 7 points, against a BFS of their products
    rng = random.Random(7)
    for _ in range(20):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            # shuffle a random set of points and fix the rest, so that
            # intransitive and proper subgroups come up too
            moved = rng.sample(range(7), rng.randrange(2, 8))
            p = list(range(7))
            for x, y in zip(moved, rng.sample(moved, len(moved))):
                p[x] = y
            gens.append(tuple(p))
        bfs = ch.bfs_closure(gens, lambda a, b: tuple(b[x] for x in a)).order
        assert permgroup.schreier_sims_order(gens) == bfs


def test_vector_permutation_rows_and_refusal():
    # e_1 g is row 1: vector (1, 0, 0) is point 9 - 1 = 8 over F_3
    g = ch.matrix_realize("A2", (1, 0), 2, 3)  # row 1 is (1, 2, 0)
    perm = permgroup.vector_permutation(g, 3, 3)
    assert len(perm) == 26 and sorted(perm) == list(range(26))
    assert perm[8] == 1 * 9 + 2 * 3 + 0 - 1
    with pytest.raises(SoundnessCheckFailed):
        permgroup.vector_permutation((1, 1, 0, 1, 1, 0, 0, 0, 1), 3, 3)  # rank 2


def test_generation_fails_with_a_sigma_letter_dropped(monkeypatch, capsys):
    from kmcert import cli

    mtype, roots = ch._SIGMA_GENERATORS["sl3"]
    monkeypatch.setitem(ch._SIGMA_GENERATORS, "sl3", (mtype, roots[:2]))
    rep = ch.sigma_generation_report("sl3", 3)
    assert not rep.ok and rep.data["order"] < rep.data["expected"] == 5616
    assert _failed(rep) == {"order_equals_full_group": 1}
    assert cli.main(["verify", "generation", "--group", "sl3", "--q", "3"]) == 1
    assert '"ok": false' in capsys.readouterr().out


# ------------------------------------------------------------ root checks ---


def test_centrality():
    rep = ch.centrality_report(ch.B2, 5)
    assert rep.ok and [c["name"] for c in rep.checks] == ["b2_a_plus_2b_central"]
    rep = ch.centrality_report(ch.G2, 5)
    assert rep.ok
    assert [c["name"] for c in rep.checks] == [
        "g2_2a_plus_3b_central",
        "g2_quotient_a_plus_3b_central",
    ]
    rep = ch.centrality_report(ch.B2, 3)
    assert rep.ok and len(rep.checks) == 1


def test_claim_a9():
    rep = ch.claim_a9_check(5)
    assert rep.ok
    assert rep.data["quotient_order"] == 625
    names = [c["name"] for c in rep.checks]
    assert names == [
        "rel_a_b_matches_b2_form",
        "rel_ab_b_matches_b2_form",
        "coordinate_map_is_letterwise_homomorphism",
    ]
    assert all(c["failed"] == 0 for c in rep.checks)
    with pytest.raises(TypeMismatch):
        ch.claim_a9_check(6)


def test_claim_a9_catches_a_wrong_b2_constant(monkeypatch):
    # [x_{a+b}(r), x_b(s)] = x_{a+2b}(rs) in B2, against 2rs in the G2 quotient
    monkeypatch.setattr(ch, "_LAWS", {})
    monkeypatch.setitem(ch._TABLES[ch.B2], (2, 1), [(3, 1, 1, 1)])
    rep = ch.claim_a9_check(5)
    assert _failed(rep) == {
        "rel_a_b_matches_b2_form": 0,
        "rel_ab_b_matches_b2_form": 0,
        "coordinate_map_is_letterwise_homomorphism": 2000,
    }


def test_g2_v4_dictionary_frozen():
    rep = ch.g2_v4_conjugation_check(5)
    assert rep.ok
    assert rep.data["dictionary"] == {
        "conjugation_side": "x^-1 g x",
        "coordinate_order": "engine",
        "signs": [1, 1, 1, 1],
        "orientation": "lower",
        "s_sign": 1,
        "action": "column_left",
        "matches": 16,
    }
    with pytest.raises(TypeMismatch):
        ch.g2_v4_conjugation_check(9)


def test_g2_v4_catches_a_wrong_g2_constant(monkeypatch):
    # [x_{a+b}(r), x_b(s)] has x_{a+2b}(2rs); with 1 in place of 2 the
    # conjugation by x_b(s) on N is no shear under any dictionary
    monkeypatch.setattr(ch, "_LAWS", {})
    monkeypatch.setitem(ch._TABLES[ch.G2], (2, 1), [(3, 1, 1, 1), (4, 1, 2, 3), (5, 2, 1, 3)])
    with pytest.raises(SoundnessCheckFailed, match="no sign/order dictionary matches"):
        ch.g2_v4_conjugation_check(5)


def test_sp4_regression():
    rep = ch.sp4_regression_report(3)
    assert rep.ok
    assert {c["name"] for c in rep.checks} == {
        "additivity",
        "form_preserved",
        "commutators_match_engine",
    }


def test_heis_iso():
    for q in (2, 3):
        rep = ch.heis_iso_report(q)
        assert rep.ok
        assert all(c["failed"] == 0 for c in rep.checks)


def _failed(rep):
    return {c["name"]: c["failed"] for c in rep.checks}


def test_matrix_checks_catch_a_wrong_sp4_sign(monkeypatch):
    # x_b with +E_34 in place of -E_34 leaves the symplectic group, and so
    # does x_{-b}, its transpose: two parameters r != 0 each
    monkeypatch.setitem(ch._SP4_CELLS, (0, 1), {(1, 2): 1, (3, 4): 1})
    assert ch.matrix_realize(ch.B2, (0, -1), 1, 3) == ch._elementary(4, 3, {(2, 1): 1, (4, 3): 1})
    rep = ch.sp4_regression_report(3)
    assert not rep.ok
    assert _failed(rep) == {"additivity": 0, "form_preserved": 4, "commutators_match_engine": 8}
    # the closure still has order |Sp4(3)|; only the form check sees the bug
    rep = ch.sigma_generation_report("sp4", 3)
    assert not rep.ok and rep.data["order"] == 51840
    assert _failed(rep) == {"order_equals_full_group": 0, "generators_preserve_form": 2}


def test_heis_iso_catches_a_wrong_a2_sign(monkeypatch):
    monkeypatch.setitem(ch._A2_CELLS, (1, 1), {(1, 3): -1})
    # the negative root subgroup, the transpose, changes with it
    assert ch.matrix_realize(ch.A2, (-1, -1), 1, 3) == ch._elementary(3, 3, {(3, 1): -1})
    rep = ch.heis_iso_report(3)
    assert not rep.ok
    assert _failed(rep) == {"injective": 0, "multiplicative": 324}


# ------------------------------------------------------------ affine check ---


def test_cyclic_affine_gcm():
    gcm = ch._cyclic_affine_gcm(3)
    assert gcm == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    gcm = ch._cyclic_affine_gcm(4)
    assert gcm[0] == (2, -1, 0, -1) and gcm[2] == (0, -1, 2, -1)


def test_affine_pi_check_frozen_counts():
    rep = ch.affine_pi_check(3, 5, 6)
    assert rep.ok
    by_name = {c["name"]: c for c in rep.checks}
    assert by_name["r1_additivity"]["tried"] == 150
    assert by_name["r2_commutators_match_law"]["tried"] == 600
    assert by_name["gcm_prenilpotency_agrees_with_law"]["tried"] == 30
    assert all(c["failed"] == 0 for c in rep.checks)
    assert rep.data["skipped_opposite_pairs"] == 6


def test_affine_pi_check_d4():
    assert ch.affine_pi_check(4, 3, 6).ok


def test_affine_pi_check_rejections():
    with pytest.raises(TypeMismatch):
        ch.affine_pi_check(2, 5, 6)
    with pytest.raises(TypeMismatch):
        ch.affine_pi_check(3, 5, 3)


# -------------------------------------------------------------- composite ---


def test_chevalley_report_a2():
    rep = ch.chevalley_report(ch.A2, 3)
    assert rep.ok
    names = {c["name"] for c in rep.checks}
    assert "order_equals_q_pow_roots" in names
    assert "associativity_random" in names
    assert "inverses_exhaustive" in names
    assert "injective" in names  # Heisenberg realization merged in


def test_chevalley_report_g2_skips_quotients_at_bad_q():
    rep = ch.chevalley_report(ch.G2, 2)
    assert rep.ok
    assert rep.data["g2_quotient_checks"] == "skipped, q not coprime to 6"
    assert "dictionary" not in rep.data


def test_tampered_product_law_fails_with_witnesses(monkeypatch):
    # one extra term v_0^2 v_4 in the a+b row of the A2 product law: then
    # (gh)k - g(hk) = 2 g_0 h_0 k_1 there, and g g^-1 = -g_0^2 g_1 there
    monkeypatch.setattr(ch, "_LAWS", {})
    rows = ch.UnipotentEngine(ch.A2, 3).derive_law()
    ch._LAWS[ch.A2, frozenset(), False] = (rows[:2] + (rows[2] + (((0, 0, 4), 1),),), {})
    eng = ch.UnipotentEngine(ch.A2, 3)
    triples = ch.random_elements(eng, random.Random("0:assoc:A2:3"), 3000)
    bad = [
        {"g": list(g), "h": list(h), "k": list(k),
         "(gh)k": list(eng.mul(eng.mul(g, h), k)), "g(hk)": list(eng.mul(g, eng.mul(h, k)))}
        for g, h, k in zip(triples, triples, triples)
    ]
    bad = [w for w in bad if w["(gh)k"] != w["g(hk)"]]
    noninverse = [g for g in eng.all_elements() if eng.mul(g, eng.inverse(g)) != eng.identity()]
    checks = {c["name"]: c for c in ch.chevalley_report(ch.A2, 3).checks}
    assert checks["associativity_random"] == {
        "name": "associativity_random", "tried": 1000, "failed": len(bad), "witness": bad[0],
    }
    assert checks["inverses_exhaustive"] == {
        "name": "inverses_exhaustive", "tried": 27, "failed": len(noninverse),
        "witness": {"g": list(noninverse[0])},
    }
    assert 0 < len(bad) < 1000 and 0 < len(noninverse) < 27


def test_report_seed_determinism():
    a = ch.chevalley_report(ch.A2, 3, seed=1).as_dict()
    b = ch.chevalley_report(ch.A2, 3, seed=1).as_dict()
    assert a == b


@pytest.mark.parametrize("typ", [ch.A2, ch.B2, ch.G2])
def test_random_elements_are_seeded_residues(typ):
    # q in 2..40 takes in every power of two, where the draw rejects nothing
    for q in range(2, 41):
        eng = ch.UnipotentEngine(typ, q)
        got = list(ch.random_elements(eng, random.Random(f"0:{q}"), 200))
        seen = {c for coeffs in got for c in coeffs}
        assert seen <= set(range(q))
        if q <= 8:
            assert seen == set(range(q))
        again = ch.random_elements(eng, random.Random(f"0:{q}"), 200)
        assert list(again) == got


def test_random_elements_are_uniform_over_u_plus():
    # 8000 draws in U+(A2) over Z/2 (8 elements): each appears 1000 +- 150
    # times (the binomial standard deviation is about 30)
    eng = ch.UnipotentEngine(ch.A2, 2)
    draws = list(ch.random_elements(eng, random.Random("uniform"), 8000))
    counts = {g: draws.count(g) for g in eng.all_elements()}
    assert len(counts) == 8 and sum(counts.values()) == 8000
    assert all(850 <= c <= 1150 for c in counts.values()), counts
    assert list(ch.random_elements(eng, random.Random("uniform"), 8000)) == draws


class _CountingRandom(random.Random):
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_random_elements_draw_once_per_element():
    # q^n = 2^6 for G2 over Z/2: 6 bits index every element, none is redrawn
    rng = _CountingRandom(3)
    got = list(ch.random_elements(ch.UnipotentEngine(ch.G2, 2), rng, 500))
    assert rng.calls == 500 and len(set(got)) == 64
    # otherwise a draw is redrawn only while the index is >= q^n
    rng = _CountingRandom(3)
    list(ch.random_elements(ch.UnipotentEngine(ch.B2, 5), rng, 500))  # 625 below 2^10
    assert 500 <= rng.calls < 1000


def test_random_elements_refuse_a_quotient():
    quo = ch.QuotientEngine(ch.G2, 5, {5})
    with pytest.raises(TypeMismatch):
        next(ch.random_elements(quo, random.Random(0), 1))

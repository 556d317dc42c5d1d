import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmcert import chevalley as ch
from kmcert.bounds import is_prime
from kmcert.errors import BadModulus, CapExceeded, SoundnessCheckFailed, TypeMismatch, Unsupported


# ---------------------------------------------------------------- engines ---


def test_normal_form_and_swap():
    eng = ch.UnipotentEngine(ch.A2, 7)
    xa, xb = eng.letter(0, 1), eng.letter(1, 1)
    assert eng.mul(xa, xb).coeffs == (1, 1, 0)
    # swapping injects the a+b correction with the opposite sign
    assert eng.mul(xb, xa).coeffs == (1, 1, 6)
    assert eng.commutator(xa, xb).coeffs == (0, 0, 1)


def test_b2_commutator_relations():
    eng = ch.UnipotentEngine(ch.B2, 5)
    com = eng.commutator(eng.letter(0, 2), eng.letter(1, 3))
    # [x_a(r), x_b(s)] = x_{a+b}(rs) x_{a+2b}(r s^2)
    assert com.coeffs == (0, 0, 6 % 5, 18 % 5)
    com = eng.commutator(eng.letter(2, 1), eng.letter(1, 1))
    # [x_{a+b}(r), x_b(s)] = x_{a+2b}(2rs)
    assert com.coeffs == (0, 0, 0, 2)


def test_g2_commutator_relations():
    eng = ch.UnipotentEngine(ch.G2, 5)
    com = eng.commutator(eng.letter(0, 1), eng.letter(1, 1))
    assert com.coeffs == (0, 0, 1, 1, 1, 1)
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
    with pytest.raises(TypeMismatch):
        ch.UnipotentEngine(ch.A2, 1)
    eng = ch.UnipotentEngine(ch.A2, 5)
    with pytest.raises(TypeMismatch):
        eng.element((1, 2))
    with pytest.raises(TypeMismatch):
        eng.letter(0, 1) * ch.UnipotentEngine(ch.A2, 7).letter(0, 1)
    with pytest.raises(TypeMismatch):
        eng.letter(0, 1) * ch.UnipotentEngine(ch.B2, 5).letter(0, 1)


def test_quotient_engine():
    quo = ch.QuotientEngine(ch.G2, 5, {4, 5})
    assert quo.order() == 625
    assert sum(1 for _ in quo.all_elements()) == 625
    g = quo.mul(quo.letter(0, 1), quo.letter(1, 1))
    assert g.coeffs[4] == 0 and g.coeffs[5] == 0
    # quotient elements never mix with the unquotiented engine
    with pytest.raises(TypeMismatch):
        g * ch.UnipotentEngine(ch.G2, 5).letter(0, 1)


def test_engines_mix_only_with_one_type_modulus_and_killed_set():
    # quotients by different killed sets are different groups, and neither
    # is U+ itself: their elements never multiply or compare equal
    full = ch.UnipotentEngine(ch.G2, 5)
    by_5 = ch.QuotientEngine(ch.G2, 5, {5})
    by_45 = ch.QuotientEngine(ch.G2, 5, {4, 5})
    with pytest.raises(TypeMismatch):
        by_5.letter(4, 1) * by_45.letter(4, 1)
    with pytest.raises(TypeMismatch):
        by_45.letter(0, 1) * by_5.letter(0, 1)
    ids = [full.identity(), by_5.identity(), by_45.identity()]
    assert all(a != b for a, b in itertools.combinations(ids, 2))
    assert len(set(ids)) == 3
    # engines built separately with one key still mix and compare equal
    again = ch.QuotientEngine(ch.G2, 5, {4, 5})
    assert by_45.letter(0, 1) * again.letter(1, 1) == again.letter(0, 1) * by_45.letter(1, 1)
    assert hash(by_45.identity()) == hash(again.identity())


def test_reprs_name_the_killed_set():
    # a quotient element and the U+ element with the same coordinates differ,
    # so a failure that prints both must tell them apart
    coeffs = (0, 0, 0, 0, 2, 0)
    full = ch.UnipotentEngine(ch.G2, 5).element(coeffs)
    by_5 = ch.QuotientEngine(ch.G2, 5, {5}).element(coeffs)
    by_45 = ch.QuotientEngine(ch.G2, 5, {4, 5}).element((1, 2, 3, 4, 0, 0))
    assert repr(full) == "U(G2/5)(0, 0, 0, 0, 2, 0)"
    assert repr(by_5) == "U(G2/5 mod {5})(0, 0, 0, 0, 2, 0)"
    assert repr(by_45) == "U(G2/5 mod {4, 5})(1, 2, 3, 4, 0, 0)"
    assert repr(full) != repr(by_5)


def test_killed_coordinates_are_canonical():
    quo = ch.QuotientEngine(ch.G2, 5, {4, 5})
    assert quo.letter(4, 1) == quo.identity()
    assert quo.letter(5, 3) == quo.identity()
    x = quo.element((1, 2, 3, 4, 2, 1))
    assert x.coeffs == (1, 2, 3, 4, 0, 0)
    assert quo.mul(x, quo.identity()) == x == quo.mul(quo.identity(), x)
    assert quo.mul(x, quo.inverse(x)) == quo.identity()
    # U+ keeps every coordinate
    assert ch.UnipotentEngine(ch.G2, 5).element((1, 2, 3, 4, 2, 1)).coeffs == (1, 2, 3, 4, 2, 1)


def test_quotient_requires_normal_subgroup():
    # X_{a+b} alone is not normal in U+(G2): commutators escape
    with pytest.raises(SoundnessCheckFailed):
        ch.QuotientEngine(ch.G2, 5, {2})


# ---------------------------------------------- product laws vs collection ---


def _letters(g):
    return list(enumerate(g.coeffs))


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
        assert eng.inverse(g).coeffs == collect_mod_q(rev)
        for h in elems:
            assert eng.mul(g, h).coeffs == collect_mod_q(_letters(g) + _letters(h))


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
            assert eng.inverse(g).coeffs == collect_mod_q(rev)
            for h in elems[:4]:
                assert eng.mul(g, h).coeffs == collect_mod_q(_letters(g) + _letters(h))


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
    g, h = eng.element(a), eng.element(b)
    rg, rh = ch._realize_normal_form(eng, a), ch._realize_normal_form(eng, b)
    assert ch._realize_normal_form(eng, eng.mul(g, h).coeffs) == rg * rh
    assert (ch._realize_normal_form(eng, eng.inverse(g).coeffs) * rg).is_identity()


# --------------------------------------------------------------- matrices ---


def test_matrix_basics():
    # in the A2 (SL3) model the roots (1,0), (0,1), (1,1) are E12, E23, E13
    e12 = ch.matrix_realize("A2", (1, 0), 1, 7)
    e23 = ch.matrix_realize("A2", (0, 1), 1, 7)
    com = (
        ch.matrix_realize("A2", (1, 0), -1, 7)
        * ch.matrix_realize("A2", (0, 1), -1, 7)
        * e12
        * e23
    )
    assert com == ch.matrix_realize("A2", (1, 1), 1, 7)
    assert com[1, 3] == 1 and e12[1, 2] == 1 and e12[2, 1] == 0 and e23[2, 3] == 1
    assert not e12.is_identity()
    assert ch.matrix_realize("A2", (1, 0), 0, 7).is_identity()


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
    with pytest.raises(TypeMismatch):
        ch.matrix_realize("B2", (1, 0), 1, 5) * ch.matrix_realize("A2", (1, 0), 1, 5)


def test_sp4_form_matrix():
    j = ch.sp4_form_matrix(5)
    assert j[1, 4] == 1 and j[2, 3] == 1 and j[3, 2] == 4 and j[4, 1] == 4
    for root in ((1, 0), (0, 1), (1, 1), (1, 2), (-1, -2)):
        assert ch.preserves_sp4_form(ch.matrix_realize("B2", root, 3, 5))
    # E_12 alone (without the -E_34 partner) must fail the check
    assert not ch.preserves_sp4_form(ch._elementary("Sp4", 4, 5, {(1, 2): 1}))


# ---------------------------------------------------------------- closure ---


def test_bfs_closure_counts():
    for typ, q, want in ((ch.A2, 3, 27), (ch.A2, 4, 64), (ch.B2, 3, 81)):
        rep = ch.unipotent_closure_report(typ, q)
        assert rep.ok and rep.data["order"] == want


def test_bfs_closure_identity_and_cap():
    eng = ch.UnipotentEngine(ch.A2, 3)
    res = ch.bfs_closure([eng.identity()])
    assert res.order == 1
    with pytest.raises(CapExceeded) as exc:
        ch.bfs_closure([eng.letter(p, 1) for p in range(3)], cap=10)
    assert exc.value.cap == 10 and exc.value.partial > 10


@pytest.mark.parametrize(
    "report, args",
    [
        (ch.unipotent_closure_report, (ch.A2, 101)),  # 100^3 <= 10^6 < 101^3
        (ch.chevalley_report, (ch.A2, 101)),
        (ch.chevalley_report, (ch.B2, 32)),  # 31^4 <= 10^6 < 32^4
        (ch.chevalley_report, (ch.G2, 11)),  # 10^6 <= 10^6 < 11^6
        (ch.sigma_generation_report, ("sl3", 7)),  # |SL3(7)| = 5630688
        (ch.sigma_generation_report, ("sp4", 5)),  # |Sp4(5)| = 9360000
    ],
)
def test_closure_reports_refuse_over_cap_before_any_product(monkeypatch, report, args):
    def no_closure(*a, **k):
        raise AssertionError("bfs_closure ran on an input over the closure limit")

    monkeypatch.setattr(ch, "bfs_closure", no_closure)
    with pytest.raises(BadModulus, match="closure limit"):
        report(*args)


def test_closure_cap_admits_the_limits():
    # the largest q each report accepts reaches at most CLOSURE_CAP elements
    for typ, q in ((ch.A2, 100), (ch.B2, 31), (ch.G2, 10)):
        eng = ch.UnipotentEngine(typ, q)
        assert eng.order() <= ch.CLOSURE_CAP < ch.UnipotentEngine(typ, q + 1).order()
    assert ch.full_group_order("sl3", 5) <= ch.CLOSURE_CAP < ch.full_group_order("sl3", 7)
    assert ch.full_group_order("sp4", 3) <= ch.CLOSURE_CAP < ch.full_group_order("sp4", 5)


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
        assert ch.bfs_closure(unit).order == ch.bfs_closure(every).order == want


# ------------------------------------------------------------ root checks ---


def test_centrality():
    rep = ch.centrality_report(q=5)
    assert rep.ok
    names = {c["name"] for c in rep.checks}
    assert names == {
        "b2_a_plus_2b_central",
        "g2_2a_plus_3b_central",
        "g2_quotient_a_plus_3b_central",
    }
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


def test_report_seed_determinism():
    a = ch.chevalley_report(ch.A2, 3, seed=1).as_dict()
    b = ch.chevalley_report(ch.A2, 3, seed=1).as_dict()
    assert a == b


@pytest.mark.parametrize("typ", [ch.A2, ch.B2, ch.G2])
def test_random_elements_are_seeded_residues(typ):
    # q in 2..40 takes in every power of two, where the draw rejects nothing
    for q in range(2, 41):
        eng = ch.UnipotentEngine(typ, q)
        got = [g.coeffs for g in ch.random_elements(eng, random.Random(f"0:{q}"), 200)]
        seen = {c for coeffs in got for c in coeffs}
        assert seen <= set(range(q))
        if q <= 8:
            assert seen == set(range(q))
        again = ch.random_elements(eng, random.Random(f"0:{q}"), 200)
        assert [g.coeffs for g in again] == got


def test_random_elements_refuse_a_quotient():
    quo = ch.QuotientEngine(ch.G2, 5, {5})
    with pytest.raises(TypeMismatch):
        next(ch.random_elements(quo, random.Random(0), 1))

import itertools
import random

import pytest

from kmcert import chevalley as ch
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
        ch.u_mul(eng.letter(0, 1), ch.UnipotentEngine(ch.A2, 7).letter(0, 1))
    with pytest.raises(TypeMismatch):
        ch.u_mul(eng.letter(0, 1), ch.UnipotentEngine(ch.B2, 5).letter(0, 1))


def test_quotient_engine():
    quo = ch.QuotientEngine(ch.G2, 5, {4, 5})
    assert quo.order() == 625
    assert sum(1 for _ in quo.all_elements()) == 625
    g = quo.mul(quo.letter(0, 1), quo.letter(1, 1))
    assert g.coeffs[4] == 0 and g.coeffs[5] == 0
    # quotient elements never mix with the unquotiented engine
    with pytest.raises(TypeMismatch):
        ch.u_mul(g, ch.UnipotentEngine(ch.G2, 5).letter(0, 1))


def test_quotient_requires_normal_subgroup():
    # X_{a+b} alone is not normal in U+(G2): commutators escape
    with pytest.raises(SoundnessCheckFailed):
        ch.QuotientEngine(ch.G2, 5, {2})


# --------------------------------------------------------------- matrices ---


def test_matrix_basics():
    e12 = ch.matrix_realize("SLd", (1, 2), 1, 7, d=3)
    e23 = ch.matrix_realize("SLd", (2, 3), 1, 7, d=3)
    com = (
        ch.matrix_realize("SLd", (1, 2), -1, 7, d=3)
        * ch.matrix_realize("SLd", (2, 3), -1, 7, d=3)
        * e12
        * e23
    )
    assert com == ch.matrix_realize("SLd", (1, 3), 1, 7, d=3)
    assert e12[1, 2] == 1 and e12[2, 1] == 0
    assert not e12.is_identity()
    assert ch.matrix_realize("SLd", (1, 2), 0, 7, d=3).is_identity()


def test_matrix_rejections():
    with pytest.raises(Unsupported):
        ch.matrix_realize("G2", (1, 0), 1, 5)
    with pytest.raises(Unsupported):
        ch.matrix_realize("SLd", (1, 2), 1, 5)  # missing d
    with pytest.raises(Unsupported):
        ch.matrix_realize("SLd", (2, 2), 1, 5, d=3)
    with pytest.raises(Unsupported):
        ch.matrix_realize("A2", (2, 0), 1, 5)
    with pytest.raises(Unsupported):
        ch.matrix_realize("X", (1, 0), 1, 5)
    with pytest.raises(TypeMismatch):
        ch.matrix_realize("A2", (1, 0), 1, 5) * ch.matrix_realize("Heis", (1, 0), 1, 5)


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
    assert res.order == 1 and res.saturated
    with pytest.raises(CapExceeded) as exc:
        ch.bfs_closure([eng.letter(p, 1) for p in range(3)], cap=10)
    assert exc.value.cap == 10 and exc.value.partial > 10


def test_bfs_closure_keep_elements():
    eng = ch.UnipotentEngine(ch.A2, 2)
    res = ch.bfs_closure([eng.letter(0, 1), eng.letter(1, 1)], keep_elements=True)
    assert res.order == 8 and len(res.elements) == 8


def test_simple_generation():
    for q in (2, 3, 5):
        rep = ch.simple_generation_report(ch.A2, q)
        assert rep.ok and rep.data["saturated_full"]
    # frozen negative controls: with 2 (resp. 6) not invertible the two
    # simple letters generate a proper subgroup
    rep = ch.simple_generation_report(ch.B2, 2)
    assert rep.ok and not rep.data["hypothesis_gcd"]
    assert rep.data["order"] == 8 and rep.data["full_order"] == 16
    rep = ch.simple_generation_report(ch.G2, 2)
    assert rep.ok and rep.data["order"] == 16 and rep.data["full_order"] == 64
    rep = ch.simple_generation_report(ch.B2, 5)
    assert rep.ok and rep.data["saturated_full"]
    rep = ch.simple_generation_report(ch.G2, 5)
    assert rep.ok and rep.data["saturated_full"]


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

import random
from fractions import Fraction

import pytest
import sympy

from kmcert import symrep as sr
from kmcert.errors import (
    BadModulus,
    BadN,
    TypeMismatch,
    UnsupportedS,
    ZeroVector,
)
from kmcert.laurent import (
    lp_add,
    lp_canon,
    lp_leading,
    lp_mul,
    lp_scale,
    lp_valuation,
)


# ----------------------------------------------------------------- shears ---


def test_shear_rows_symbolic():
    s = sympy.Symbol("s")
    assert sr.shear_rows(2, s) == ((1, s), (0, 1))
    assert sr.shear_rows(3, s) == ((1, 2 * s, s**2), (0, 1, s), (0, 0, 1))
    assert sr.shear_rows(4, s) == (
        (1, 3 * s, 3 * s**2, s**3),
        (0, 1, 2 * s, s**2),
        (0, 0, 1, s),
        (0, 0, 0, 1),
    )
    assert sr.shear_rows(4, s, sr.LOWER) == (
        (1, 0, 0, 0),
        (s, 1, 0, 0),
        (s**2, 2 * s, 1, 0),
        (s**3, 3 * s**2, 3 * s, 1),
    )


def test_shear_rows_symbolic_additivity():
    s1, s2 = sympy.symbols("s1 s2")
    for orientation in (sr.UPPER, sr.LOWER):
        prod = sr.rows_mul(
            sr.shear_rows(4, s1, orientation), sr.shear_rows(4, s2, orientation)
        )
        want = sr.shear_rows(4, s1 + s2, orientation)
        for rp, rw in zip(prod, want):
            for a, b in zip(rp, rw):
                assert sympy.expand(a - b) == 0


def test_shear_rows_frozen_numeric():
    assert sr.shear_rows(4, 7) == (
        (1, 21, 147, 343),
        (0, 1, 14, 49),
        (0, 0, 1, 7),
        (0, 0, 0, 1),
    )
    assert sr.shear_rows(4, 7, sr.UPPER, 5) == (
        (1, 1, 2, 3),
        (0, 1, 4, 4),
        (0, 0, 1, 2),
        (0, 0, 0, 1),
    )


def test_shear_rejections():
    with pytest.raises(BadN):
        sr.shear_rows(1, 3)
    with pytest.raises(TypeMismatch):
        sr.shear_rows(4, 3, "diagonal")


def test_sym_power_oracle_symbolic():
    a, b, c, d = sympy.symbols("a b c d")
    got = sr.sym_power_oracle(3, ((a, b), (c, d)))
    want = (
        (a**2, 2 * a * b, b**2),
        (a * c, a * d + b * c, b * d),
        (c**2, 2 * c * d, d**2),
    )
    for rg, rw in zip(got, want):
        for x, y in zip(rg, rw):
            assert sympy.expand(x - y) == 0


def test_oracle_reproduces_shear():
    for n in (2, 3, 4, 5):
        for s in range(7):
            assert sr.sym_power_oracle(n, ((1, s), (0, 1)), 7) == sr.shear_rows(n, s, sr.UPPER, 7)
            assert sr.sym_power_oracle(n, ((1, 0), (s, 1)), 7) == sr.shear_rows(n, s, sr.LOWER, 7)


def test_symrep_report():
    for n in (2, 3, 6):
        rep = sr.symrep_report(n, 7)
        assert rep.ok
        assert [c["name"] for c in rep.checks] == [
            "shear_additive_upper",
            "shear_additive_lower",
            "oracle_matches_shear",
            "oracle_multiplicative_random",
        ]


# ------------------------------------------------------- laurent helpers ---


def test_valuation_axioms_random():
    rng = random.Random(9)
    q = 7

    def rand():
        return lp_canon(
            {rng.randint(-5, 5): rng.randrange(q) for _ in range(rng.randrange(5))}, q
        )

    def v(p):
        return lp_valuation(p)

    for _ in range(200):
        a, b = rand(), rand()
        if a:
            assert v(lp_scale(a, 1, q, 1)) == v(a) + 1
            assert v(lp_scale(a, 1, q, -3)) == v(a) - 3
        s = lp_add(q, a, b)
        tops = [x for x in (v(a), v(b)) if x is not None]
        if s:
            assert tops and v(s) <= max(tops)
        if v(a) is not None and v(b) is not None and v(a) != v(b):
            assert v(s) == max(v(a), v(b))
            assert lp_leading(s) == lp_leading(a if v(a) > v(b) else b)
        if a and b:  # q prime: top coefficients cannot cancel in a product
            assert v(lp_mul(a, b, q)) == v(a) + v(b)


def test_valuation_cancellation():
    q = 7
    a = lp_canon({2: 3, 0: 1}, q)
    b = lp_canon({2: 4}, q)
    s = lp_add(q, a, b)
    assert lp_valuation(s) == 0 and s == {0: 1}
    assert lp_valuation(lp_add(q, b, lp_canon({2: 3}, q))) is None
    assert lp_valuation({}) is None and lp_leading({}) is None


# ---------------------------------------------------------------- actions ---


def test_series_vec_basics():
    v = sr.LaurentSeriesVec(5, ({0: 1, 2: 5}, {}, {-1: 7}, {0: 0}))
    assert v.comps == ({0: 1}, {}, {-1: 2}, {})
    assert v.valuations() == (0, None, -1, None)
    assert not v.is_zero()
    assert sr.LaurentSeriesVec(5, ({}, {}, {}, {})).is_zero()
    with pytest.raises(TypeMismatch):
        sr.LaurentSeriesVec(5, ({}, {}, {}))
    with pytest.raises(BadModulus):
        sr.LaurentSeriesVec(1, ({}, {}, {}, {}))


def test_act_row_constant_shear():
    v = sr.LaurentSeriesVec(5, ({0: 1}, {0: 1}, {0: 1}, {0: 1}))
    out = sr.act_row(v, sr.UPPER, 1)
    assert out.comps == ({0: 1}, {0: 4}, {0: 1}, {0: 4})
    # s = q - 1 is accepted as -1
    out_neg = sr.act_row(v, sr.UPPER, 4)
    out_lit = sr.act_row(v, sr.UPPER, -1)
    assert out_neg == out_lit


def test_act_row_t_shear():
    v = sr.LaurentSeriesVec(5, ({0: 1}, {0: 1}, {0: 1}, {0: 1}))
    out = sr.act_row(v, sr.LOWER, "t")
    assert out.comps == (
        {0: 1, 1: 1, 2: 1, 3: 1},
        {0: 1, 1: 2, 2: 3},
        {0: 1, 1: 3},
        {0: 1},
    )


def test_act_row_is_group_action():
    # acting twice by s = 1 equals acting by the engine sum relation:
    # U^1 U^1 = U^2 has s = 2 outside O_t, so check via U^1 U^-1 = id
    v = sr.LaurentSeriesVec(7, ({2: 3}, {0: 1, -1: 4}, {}, {1: 6}))
    for orientation in (sr.UPPER, sr.LOWER):
        w = sr.act_row(sr.act_row(v, orientation, 1), orientation, -1)
        assert w == v
        w = sr.act_row(sr.act_row(v, orientation, "t"), orientation, "-t")
        assert w == v


def test_act_row_rejections():
    v = sr.LaurentSeriesVec(5, ({0: 1}, {}, {}, {}))
    with pytest.raises(UnsupportedS):
        sr.act_row(v, sr.UPPER, 2)
    with pytest.raises(TypeMismatch):
        sr.act_row(v, "not an orientation", 1)


# ---------------------------------------------------------------- regions ---


def _vec(q, *comps):
    return sr.LaurentSeriesVec(q, comps)


def test_classify_region_examples():
    t = sr.classify_region(_vec(5, {-1: 1}, {}, {}, {}))
    assert t.a == (True, False, False, False) and t.strict[0]
    assert repr(t) == "Region(A1*)"

    t = sr.classify_region(_vec(5, {0: 1}, {}, {}, {0: 2}))
    assert t.e and t.a == (True, False, False, True)
    assert not any(t.strict)

    t = sr.classify_region(_vec(5, {}, {-1: 1}, {-1: 2}, {}))
    assert t.b and not t.s
    assert repr(t) == "Region(A2,A3,B)"

    t = sr.classify_region(_vec(5, {-2: 4}, {-1: 1}, {-1: 3}, {}))
    assert t.b and t.s
    assert repr(t) == "Region(A2,A3,S)"

    d = t.as_dict()
    assert d["B"] and d["S"] and d["A"] == [False, True, True, False]


def test_classify_rejects_zero():
    with pytest.raises(ZeroVector):
        sr.classify_region(_vec(5, {}, {}, {}, {}))


def test_s_membership_needs_exact_cancellation():
    # same shape but coefficients not cancelling: B, not S
    t = sr.classify_region(_vec(5, {-2: 3}, {-1: 1}, {-1: 3}, {}))
    assert t.b and not t.s
    # x1 top one lower than required: B, not S
    t = sr.classify_region(_vec(5, {-3: 4}, {-1: 1}, {-1: 3}, {}))
    assert t.b and not t.s


def test_s_conditions_cannot_clash():
    # algebra: both column conditions force lead(x1) = 0 mod q
    for q in (5, 7, 35):
        for c1 in range(1, q):
            for c2 in range(1, q):
                comps = ({0: c1}, {1: c2}, {1: 1}, {})
                assert not sr._s_conditions_clash(comps, q)


def test_samplers_land_in_their_regions():
    rng = random.Random(0)
    for region, pred in sr._SOURCE_PREDICATES.items():
        for _ in range(60):
            comps = sr.sample_region(rng, 5, region)
            assert pred(sr._classify(comps, 5)), region
    with pytest.raises(TypeMismatch):
        sr._sample_raw(rng, 5, "A2")


# -------------------------------------------------------------- transport ---


def test_check_transport_small():
    rep = sr.check_transport(5, samples=300, seed=0)
    assert rep.ok
    names = [c["name"] for c in rep.checks]
    assert len(names) == len(sr.TRANSPORT_FACTS) + 1
    assert names[-1] == "s_conditions_never_simultaneous"
    for c in rep.checks[:-1]:
        assert c["tried"] == 300 and c["failed"] == 0


def test_check_transport_composite_modulus():
    assert sr.check_transport(35, samples=200, seed=1).ok


def test_check_transport_deterministic():
    a = sr.check_transport(5, samples=50, seed=3).as_dict()
    b = sr.check_transport(5, samples=50, seed=3).as_dict()
    assert a == b


def test_check_transport_rejections():
    for q in (2, 3, 6, 70):
        with pytest.raises(BadModulus):
            sr.check_transport(q, samples=10)
    with pytest.raises(TypeMismatch):
        sr.check_transport(5, samples=0)


# ------------------------------------------------------------------ ledger ---


def test_ledger_check():
    rep = sr.ledger_check()
    assert rep.ok
    names = [c["name"] for c in rep.checks]
    assert names == [
        "dag_acyclic",
        "coefficient_arithmetic",
        "subset_facts_hold_on_tags",
        "five_sets_cover_everything",
        "sum_is_22",
        "c_equals_1_over_22_saturates_mass",
    ]
    coeffs = rep.data["coefficients"]
    assert coeffs["mu_A1"] == 4
    assert coeffs["mu_A4"] == 4
    assert coeffs["mu_A2oA3o"] == 3
    assert coeffs["mu_B_minus_S"] == 3
    assert coeffs["mu_S"] == 8
    assert coeffs["total"] == 22
    assert Fraction(1, 22) * 22 == 1

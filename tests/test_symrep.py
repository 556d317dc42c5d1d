import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kmcert import symrep as sr
from kmcert.errors import BadModulus, BadN, TypeMismatch
from kmcert.laurent import lp_add, lp_canon, lp_leading, lp_mul, lp_scale


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
        prod = (
            sympy.Matrix(sr.shear_rows(4, s1, orientation))
            * sympy.Matrix(sr.shear_rows(4, s2, orientation))
        ).tolist()
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


def lp_valuation(a):
    """Max degree present, None for 0 (None playing -infinity)."""
    return max(a) if a else None


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


_ONES = ({0: 1}, {0: 1}, {0: 1}, {0: 1})


def test_act_row_constant_shear():
    assert sr._act(_ONES, sr._ACTIONS[(sr.UPPER, 1, 0)], 5) == ({0: 1}, {0: 4}, {0: 1}, {0: 4})
    # s = -1: (1, -3 + 1, 3 - 2 + 1, -1 + 1 - 1 + 1), the last coefficient dropped
    assert sr._act(_ONES, sr._ACTIONS[(sr.UPPER, -1, 0)], 5) == ({0: 1}, {0: 3}, {0: 2}, {})


def test_act_row_t_shear():
    assert sr._act(_ONES, sr._ACTIONS[(sr.LOWER, 1, 1)], 5) == (
        {0: 1, 1: 1, 2: 1, 3: 1},
        {0: 1, 1: 2, 2: 3},
        {0: 1, 1: 3},
        {0: 1},
    )


# The size-4 shear actions written out by hand, with s = eps * t^tdeg: the
# oracle the table-driven sr._act is checked against.


def _oracle_upper(comps, eps, tdeg, q):
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


def _oracle_lower(comps, eps, tdeg, q):
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


@st.composite
def _series_vectors(draw):
    q = draw(st.integers(5, 400).filter(lambda q: math.gcd(q, 6) == 1))
    comp = st.dictionaries(st.integers(-6, 6), st.integers(1, q - 1), max_size=4)
    return q, tuple(draw(comp) for _ in range(4))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_series_vectors())
def test_act_table_matches_formulas_and_inverts(qv):
    q, comps = qv
    for orientation, oracle in ((sr.UPPER, _oracle_upper), (sr.LOWER, _oracle_lower)):
        for eps in (1, -1):
            for tdeg in (0, 1):
                got = sr._act(comps, sr._ACTIONS[(orientation, eps, tdeg)], q)
                assert got == oracle(comps, eps, tdeg, q)
                # s then -s is the identity: 1 then -1, t then -t
                assert sr._act(got, sr._ACTIONS[(orientation, -eps, tdeg)], q) == comps


@st.composite
def _cancelling_vectors(draw):
    """Vectors whose shear images cancel at a leading degree.

    S type: x1[top - 1] = q - x2[top], so under t the t^3 x1 and t^2 x2
    terms of the fourth output component cancel.  A2o/A3o type: x3 alone
    attains the top and x2 = -3 x1 at their common top, so under s = 1 the
    upper shear's second component 3 x1 + x2 cancels there.
    """
    q = draw(st.integers(5, 400).filter(lambda q: math.gcd(q, 6) == 1))
    top = draw(st.integers(-4, 6))
    coeff = st.integers(1, q - 1)

    def below(cut):
        return draw(st.dictionaries(st.integers(-6, cut - 1), coeff, max_size=3))

    if draw(st.booleans()):  # S
        x1, x2, x3, x4 = below(top - 1), below(top), below(top), below(top)
        x2[top], x3[top] = draw(coeff), draw(coeff)
        x1[top - 1] = q - x2[top]
    else:  # A3o with a cancelling pair below it
        low = draw(st.integers(-5, top - 1))
        x1, x2, x3, x4 = below(low), below(low), below(top), below(top)
        x1[low] = draw(coeff)
        x2[low] = -3 * x1[low] % q
        x3[top] = draw(coeff)
    return q, (x1, x2, x3, x4)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_series_vectors(), _cancelling_vectors()))
def test_code_after_matches_classify_of_act(qv):
    # the lead-term code of a shear image is the code of the image built in full
    q, comps = qv
    for table in sr._ACTIONS.values():
        assert sr._code_after(comps, table, q) == sr._classify(sr._act(comps, table, q), q)


# ---------------------------------------------------------------- regions ---


def _tag(q, *comps):
    return sr._region_tag(sr._classify(comps, q))


def test_classify_region_examples():
    t = _tag(5, {-1: 1}, {}, {}, {})
    assert t.a == (True, False, False, False) and t.strict[0]
    assert not (t.e or t.b or t.s)

    t = _tag(5, {0: 1}, {}, {}, {0: 2})
    assert t.e and t.a == (True, False, False, True)
    assert not any(t.strict)

    t = _tag(5, {}, {-1: 1}, {-1: 2}, {})
    assert t.b and not t.s and t.a == (False, True, True, False)

    t = _tag(5, {-2: 4}, {-1: 1}, {-1: 3}, {})
    assert t.b and t.s and t.a == (False, True, True, False)
    assert not (t.e or any(t.strict))


def test_classify_rejects_zero():
    # the zero vector has code 0, which no source or target region admits
    assert sr._classify(({}, {}, {}, {}), 5) == 0
    assert 0 not in sr._CODES
    for codes in (*sr._SOURCE_CODES.values(), *sr._TARGET_CODES.values()):
        assert 0 not in codes


def test_s_membership_needs_exact_cancellation():
    # same shape but coefficients not cancelling: B, not S
    t = _tag(5, {-2: 3}, {-1: 1}, {-1: 3}, {})
    assert t.b and not t.s
    # x1 top one lower than required: B, not S
    t = _tag(5, {-3: 4}, {-1: 1}, {-1: 3}, {})
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
    for q, region in itertools.product((5, 7, 25, 35, 97, 385), sr._SOURCE_PREDICATES):
        tops, strict = set(), set()
        for _ in range(100):
            comps = sr.sample_region(rng, q, region)
            tag = _tag(q, *comps)
            assert sr._SOURCE_PREDICATES[region](tag), (q, region)
            assert all(0 < c < q for comp in comps for c in comp.values())
            tops.add(max(max(c) for c in comps if c))
            strict.update(i for i in (1, 2) if tag.strict[i])
        assert tops == set(range(-3, 4)), (q, region)
        if region == "A23strict":
            assert strict == {1, 2}, q
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
    with pytest.raises(TypeMismatch):
        sr.check_transport(5, samples=sr.TRANSPORT_MAX_SAMPLES + 1)


def test_check_transport_reports_a_wrong_target(wrong_transport_target):
    rep = sr.check_transport(7, samples=40, seed=2)
    assert not rep.ok
    checks = {c["name"]: c for c in rep.checks}
    bad = checks["uplust_B_minus_S_to_A4o"]
    assert bad["tried"] == 40 and 0 < bad["failed"] <= 40
    # the witness is the first sampled vector, drawn from the fact's own stream
    first = sr.sample_region(random.Random("2:7:uplust_B_minus_S_to_A4o"), 7, "BminusS")
    assert bad["witness"] == {"source": repr(first), "stage": "A1_strict"}
    assert all(c["failed"] == 0 for name, c in checks.items() if name != bad["name"])


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


def _ledger_checks():
    return {c["name"]: c for c in sr.ledger_check().checks}


def test_ledger_path_nodes_name_their_transport_facts():
    facts = {name: len(steps) for name, _, steps in sr.TRANSPORT_FACTS}
    named = {}
    for name, node in sr.LEDGER_NODES.items():
        if node[0] == "path":
            assert node[2] == () and facts[node[3]] == node[1], name
            named[node[3]] = name
    assert len(named) == 7
    assert set(facts) - set(named) == {"uplus1_A2o_A3o_to_A4_minus_A4o"}


@pytest.mark.parametrize("target", ["E", "A3strict_or_A4"])
def test_ledger_fails_on_a_widened_target_with_its_code(monkeypatch, target):
    # code 1 is A1 strict: outside A1 minus A1o, and outside A2o, A3o and A4
    monkeypatch.setitem(sr._TARGET_CODES, target, sr._TARGET_CODES[target] | {1})
    bad = _ledger_checks()["subset_facts_hold_on_tags"]
    assert (bad["tried"], bad["failed"], bad["witness"]) == (48, 1, 1)


def test_ledger_fails_on_an_uncovered_code(monkeypatch):
    monkeypatch.setitem(sr._SOURCE_CODES, "S", frozenset())
    bad = _ledger_checks()["five_sets_cover_everything"]
    assert (bad["tried"], bad["failed"], bad["witness"]) == (16, 1, 6 | 16)


@pytest.mark.parametrize("node", [
    ("path", 1, (), "uplust_uminus1_A1_to_A4o_to_E"),  # wrong coefficient
    ("path", 2, (), "uplust_B_minus_S_to_A4o"),  # a one-stage fact
    ("path", 2, (), "no_such_fact"),
    ("path", 2, ()),  # names no fact
])
def test_ledger_fails_on_a_wrong_path_node_with_its_name(monkeypatch, node):
    monkeypatch.setitem(sr.LEDGER_NODES, "A1_into_E", node)
    bad = _ledger_checks()["coefficient_arithmetic"]
    assert bad["tried"] == 20 and bad["failed"] >= 1 and bad["witness"] == "A1_into_E"

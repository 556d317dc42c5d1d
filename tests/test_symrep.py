import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kmcert import symrep as sr
from kmcert.errors import BadModulus, BadN, SoundnessCheckFailed, TypeMismatch
from kmcert.report import CheckReport

from conftest import lp_add, lp_canon, lp_mul


# ----------------------------------------------------------------- shears ---


def test_shear_rows_symbolic():
    s = sympy.Symbol("s")
    assert sr.shear_matrix(2, s) == (1, s, 0, 1)
    assert sr.shear_matrix(3, s) == (1, 2 * s, s**2, 0, 1, s, 0, 0, 1)
    assert sr.shear_matrix(4, s) == (
        1, 3 * s, 3 * s**2, s**3,
        0, 1, 2 * s, s**2,
        0, 0, 1, s,
        0, 0, 0, 1,
    )
    assert sr.shear_matrix(4, s, sr.LOWER) == (
        1, 0, 0, 0,
        s, 1, 0, 0,
        s**2, 2 * s, 1, 0,
        s**3, 3 * s**2, 3 * s, 1,
    )


def test_shear_rows_symbolic_additivity():
    s1, s2 = sympy.symbols("s1 s2")
    for orientation in (sr.UPPER, sr.LOWER):
        prod = (
            sympy.Matrix(4, 4, sr.shear_matrix(4, s1, orientation))
            * sympy.Matrix(4, 4, sr.shear_matrix(4, s2, orientation))
        )
        want = sr.shear_matrix(4, s1 + s2, orientation)
        assert len(prod) == len(want) == 16
        for a, b in zip(prod, want):
            assert sympy.expand(a - b) == 0


def test_shear_rows_frozen_numeric():
    assert sr.shear_matrix(4, 7) == (
        1, 21, 147, 343,
        0, 1, 14, 49,
        0, 0, 1, 7,
        0, 0, 0, 1,
    )
    assert sr.shear_matrix(4, 7, sr.UPPER, 5) == (
        1, 1, 2, 3,
        0, 1, 4, 4,
        0, 0, 1, 2,
        0, 0, 0, 1,
    )


def test_shear_rejections():
    with pytest.raises(BadN):
        sr.shear_matrix(1, 3)
    with pytest.raises(TypeMismatch):
        sr.shear_matrix(4, 3, "diagonal")


def test_sym_power_oracle_symbolic():
    a, b, c, d = sympy.symbols("a b c d")
    got = sr.sym_power_oracle(3, (a, b, c, d))
    want = (
        a**2, 2 * a * b, b**2,
        a * c, a * d + b * c, b * d,
        c**2, 2 * c * d, d**2,
    )
    assert len(got) == len(want) == 9
    for x, y in zip(got, want):
        assert sympy.expand(x - y) == 0


def test_oracle_reproduces_shear():
    for n in (2, 3, 4, 5):
        for s in range(7):
            assert sr.sym_power_oracle(n, (1, s, 0, 1), 7) == sr.shear_matrix(n, s, sr.UPPER, 7)
            assert sr.sym_power_oracle(n, (1, 0, s, 1), 7) == sr.shear_matrix(n, s, sr.LOWER, 7)


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


def lp_leading(a):
    """(degree, coefficient) of the top term, None for 0."""
    if not a:
        return None
    d = max(a)
    return (d, a[d])


def lp_scale(a, r, q, k=0):
    """Multiply by r * t^k."""
    out = {}
    for d, c in a.items():
        v = c * r % q
        if v:
            out[d + k] = v
    return out


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


# The dict-form oracle: a vector is a 4-tuple of {degree: coefficient} dicts


def _act(comps, table, q):
    """Row vector comps times the shear whose terms the table lists."""
    out = []
    for acc, terms in zip(comps, table):
        if terms:
            acc = dict(acc)
            for j, m, k in terms:
                for d, c in comps[j].items():
                    acc[d + k] = (acc.get(d + k, 0) + m * c) % q
            acc = {d: c for d, c in acc.items() if c}
        out.append(acc)
    return tuple(out)


def _classify(comps, q):
    """Region code of a dict vector, 0 for the zero vector."""
    tops = [max(c) if c else None for c in comps]
    vmax = max([t for t in tops if t is not None], default=None)
    code = sum(1 << i for i, t in enumerate(tops) if t is not None and t == vmax)
    if code == 6:  # S: top(x1) + 1 == vmax and x1[top] + x2[vmax] = 0 mod q
        x1 = comps[0]
        if x1 and tops[0] + 1 == vmax and (x1[tops[0]] + comps[1][vmax]) % q == 0:
            code |= 16
    return code


# Test vectors are packed from degree _LO, the least degree the strategies
# draw, not from sr._WINDOW_LO: a shear and a region code do not see a
# uniform shift of degrees
_LO = -6


def _pack(comps, w):
    return tuple(sum(c << (d - _LO) * w for d, c in comp.items()) for comp in comps)


def _unpack(packed, q, w):
    shift = _LO - sr._WINDOW_LO
    return tuple({d + shift: c for d, c in comp.items()} for comp in sr._unpack(packed, q, w))


def _packed_act(comps, table, q, *more):
    """The packed shear of the table, then of each further table, on comps, unpacked."""
    w = sr._slot_width(q)
    x = _pack(comps, w)
    for table in (table, *more):
        x = sr._compiled_shear(table, q, w)(x, q)
    return _unpack(x, q, w)


_ONES = ({0: 1}, {0: 1}, {0: 1}, {0: 1})


def test_act_row_constant_shear():
    for act in (_act, _packed_act):
        assert act(_ONES, sr._ACTIONS[(sr.UPPER, 1, 0)], 5) == ({0: 1}, {0: 4}, {0: 1}, {0: 4})
        # s = -1: (1, -3 + 1, 3 - 2 + 1, -1 + 1 - 1 + 1), the last coefficient dropped
        assert act(_ONES, sr._ACTIONS[(sr.UPPER, -1, 0)], 5) == ({0: 1}, {0: 3}, {0: 2}, {})


def test_act_row_t_shear():
    for act in (_act, _packed_act):
        assert act(_ONES, sr._ACTIONS[(sr.LOWER, 1, 1)], 5) == (
            {0: 1, 1: 1, 2: 1, 3: 1},
            {0: 1, 1: 2, 2: 3},
            {0: 1, 1: 3},
            {0: 1},
        )


def test_compiled_shear_is_straight_line_and_refuses_other_terms():
    w = sr._slot_width(5)
    assert sr._compiled_shear(sr._ACTIONS[(sr.UPPER, 1, 1)], 5, w)((1, 0, 0, 0), 5) == (
        1, 3 << w, 3 << 2 * w, 1 << 3 * w
    )
    for term in ((0, 1.0, 1), (0, True, 1), ("0", 1, 1), (4, 1, 1), (-1, 1, 1), (0, 1, -1), (0, 1)):
        with pytest.raises(SoundnessCheckFailed):
            sr._compiled_shear(((), (term,), (), ()), 5, w)


# The size-4 shear actions written out by hand, with s = eps * t^tdeg: the
# oracle the table-driven actions are checked against.


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
                table = sr._ACTIONS[(orientation, eps, tdeg)]
                want = oracle(comps, eps, tdeg, q)
                assert _act(comps, table, q) == want
                assert _packed_act(comps, table, q) == want
                # s then -s is the identity: 1 then -1, t then -t, the
                # packed image unreduced between the two
                inverse = sr._ACTIONS[(orientation, -eps, tdeg)]
                assert _packed_act(comps, table, q, inverse) == comps


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


def _assert_packed_codes_match(q, comps):
    # the code of a packed image, after one stage or two with slots left
    # unreduced, is the dict oracle's code of the image built in full
    w = sr._slot_width(q)
    x = _pack(comps, w)
    assert sr._classify(x, q, w) == _classify(comps, q)
    for first in sr._ACTIONS.values():
        image = _act(comps, first, q)
        packed = sr._compiled_shear(first, q, w)(x, q)
        assert sr._classify(packed, q, w) == _classify(image, q)
        for second in sr._ACTIONS.values():
            assert sr._classify(sr._compiled_shear(second, q, w)(packed, q), q, w) == _classify(
                _act(image, second, q), q
            )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_series_vectors(), _cancelling_vectors()))
def test_packed_classify_matches_dict_oracle(qv):
    _assert_packed_codes_match(*qv)


@pytest.mark.parametrize("q", [2**61 - 1, 10**30 + 1])
def test_packed_classify_matches_dict_oracle_at_large_moduli(q):
    rng = random.Random(q)

    def comp(below):
        return {rng.randint(-6, below - 1): rng.randrange(1, q) for _ in range(rng.randrange(4))}

    for _ in range(40):
        top = rng.randint(-4, 6)
        x1, x2, x3, x4 = comp(top - 1), comp(top), comp(top), comp(top)
        x2[top], x3[top] = rng.randrange(1, q), rng.randrange(1, q)
        x1[top - 1] = q - x2[top]  # S: cancels under t in the fourth component
        _assert_packed_codes_match(q, (x1, x2, x3, x4))
        _assert_packed_codes_match(q, tuple(comp(7) for _ in range(4)))


def test_slot_width_holds_full_slots_through_two_stages():
    # every slot q - 1 over degrees -6..6: the largest values any two
    # stages reach; a carry between slots would corrupt the unpacked image
    for q in (5, 7, 35, 385, 2**61 - 1):
        full = tuple({d: q - 1 for d in range(-6, 7)} for _ in range(4))
        for first in sr._ACTIONS.values():
            for second in sr._ACTIONS.values():
                want = _act(_act(full, first, q), second, q)
                assert _packed_act(full, first, q, second) == want, q


# ---------------------------------------------------------------- regions ---


def _tag(q, *comps):
    w = sr._slot_width(q)
    return sr._region_tag(sr._classify(_pack(comps, w), q, w))


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
    assert sr._classify((0, 0, 0, 0), 5, sr._slot_width(5)) == 0
    # nonzero slots that are all 0 mod q pack the zero vector too
    assert sr._classify((5, 10 << 8, 0, 15 << 16), 5, 8) == 0
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
        w = sr._slot_width(q)
        for c1 in range(1, q):
            for c2 in range(1, q):
                comps = _pack(({0: c1}, {1: c2}, {1: 1}, {}), w)
                assert not sr._s_conditions_clash(comps, q, w)


def test_samplers_land_in_their_regions():
    rng = random.Random(0)
    for q, region in itertools.product((5, 7, 25, 35, 97, 385), sr._SOURCE_PREDICATES):
        w = sr._slot_width(q)
        tops, strict = set(), set()
        for _ in range(100):
            comps = sr._unpack(sr.sample_region(rng, q, region, w), q, w)
            tag = sr._region_tag(_classify(comps, q))
            assert sr._SOURCE_PREDICATES[region](tag), (q, region)
            assert all(0 < c < q for comp in comps for c in comp.values())
            tops.add(max(max(c) for c in comps if c))
            strict.update(i for i in (1, 2) if tag.strict[i])
        assert tops == set(range(-3, 4)), (q, region)
        if region == "A23strict":
            assert strict == {1, 2}, q
    with pytest.raises(TypeMismatch):
        sr._sample_raw(rng, 5, "A2", 8)


def test_sampler_refuses_a_region_it_keeps_missing(monkeypatch):
    # with A1 admitting no code every candidate misses; check_transport
    # passes the sampler's refusal on
    monkeypatch.setitem(sr._SOURCE_CODES, "A1", frozenset())
    with pytest.raises(SoundnessCheckFailed, match="sampler for A1 missed the region 64 times"):
        sr.sample_region(random.Random(0), 5, "A1", sr._slot_width(5))
    with pytest.raises(SoundnessCheckFailed, match="sampler for A1"):
        sr.check_transport(5, samples=1)


# The first vector of each source region's stream Random(f"0:13:{region}"),
# as the dict-form sampler drew it before vectors were packed
_FIRST_DRAWS_Q13 = {
    "A1": ({0: 2, 1: 7}, {}, {}, {1: 9, -1: 7}),
    "A4": ({}, {}, {}, {-3: 8}),
    "A23strict": ({}, {-4: 9, -3: 5}, {-2: 3, -4: 11, -1: 9}, {}),
    "BminusS": ({}, {-2: 10, -1: 8}, {-3: 10, -1: 5}, {-4: 9}),
    "S": ({-2: 5}, {-1: 8}, {-1: 4}, {-3: 3, -2: 12}),
}


def test_sampler_stream_is_pinned():
    w = sr._slot_width(13)
    for region, want in _FIRST_DRAWS_Q13.items():
        got = sr.sample_region(random.Random(f"0:13:{region}"), 13, region, w)
        assert sr._unpack(got, 13, w) == want, region
    # a witness lists each component's terms by ascending degree, not in draw order
    got = sr.sample_region(random.Random("0:13:A1"), 13, "A1", w)
    assert repr(sr._unpack(got, 13, w)) == "({0: 2, 1: 7}, {}, {}, {-1: 7, 1: 9})"


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
    assert bad["witness"] == {"source": "({-3: 4}, {-1: 5}, {-1: 6}, {})", "stage": "A1_strict"}
    assert all(c["failed"] == 0 for name, c in checks.items() if name != bad["name"])


# The per-fact oracle: each fact draws its own stream, Random(f"{seed}:{q}:{name}"),
# and applies all its stages itself.  check_transport draws a region's
# samples from its first fact's stream, so on that fact the two agree sample
# by sample; on the shipped facts, which all pass, the reports are equal.


def _per_fact_transport(q, samples, seed):
    w = sr._slot_width(q)
    rep = CheckReport(f"transport_q{q}_n{samples}_seed{seed}")
    clashes = 0

    def outcome(comps, steps):
        cur = comps
        for shear, codes, target in steps:
            cur = shear(cur, q)
            if sr._classify(cur, q, w) not in codes:
                return {"source": repr(sr._unpack(comps, q, w)), "stage": target}
        return True

    def outcomes(rng, source, steps):
        nonlocal clashes
        for _ in range(samples):
            comps = sr.sample_region(rng, q, source, w)
            if source in ("BminusS", "S") and sr._s_conditions_clash(comps, q, w):
                clashes += 1
            yield outcome(comps, steps)

    for name, source, stages in sr.TRANSPORT_FACTS:
        steps = [
            (sr._compiled_shear(sr._ACTIONS[(o, eps, tdeg)], q, w), sr._TARGET_CODES[target], target)
            for o, eps, tdeg, target in stages
        ]
        rep.tally(name, outcomes(random.Random(f"{seed}:{q}:{name}"), source, steps))
    clash_tried = samples * sum(source in ("BminusS", "S") for _, source, _ in sr.TRANSPORT_FACTS)
    rep.add("s_conditions_never_simultaneous", clash_tried, clashes)
    return rep


def _first_fact_of_each_region():
    """{source region: name of the first fact that reads it}"""
    first = {}
    for name, source, _ in sr.TRANSPORT_FACTS:
        first.setdefault(source, name)
    return first


@pytest.mark.parametrize("q", [5, 7, 25, 35])
def test_check_transport_matches_the_per_fact_oracle(q):
    for seed in (0, 1, 2):
        want = _per_fact_transport(q, 150, seed).as_dict()
        assert sr.check_transport(q, samples=150, seed=seed).as_dict() == want, seed


@pytest.mark.parametrize("target", ["E", "A1_strict", "A4_not_strict", "A4_strict"])
def test_check_transport_matches_the_oracle_under_a_wrong_final_target(patch_transport_facts, target):
    # every fact's last stage sent to the target: a region's first fact then
    # fails on the same samples with the same witness as in the per-fact loop
    patch_transport_facts({
        name: stages[:-1] + (stages[-1][:3] + (target,),) for name, _, stages in sr.TRANSPORT_FACTS
    })
    failures = 0
    for seed in (0, 1):
        want = {c["name"]: c for c in _per_fact_transport(7, 60, seed).checks}
        got = {c["name"]: c for c in sr.check_transport(7, samples=60, seed=seed).checks}
        assert list(got) == list(want)
        for name in _first_fact_of_each_region().values():
            assert got[name] == want[name], (seed, name)
            failures += got[name]["failed"]
    assert failures


def _counted_transport(monkeypatch, check, q, samples):
    """(sample_region calls, classifications outside sample_region) of one check run."""
    counts = {"samples": 0, "stages": 0}
    sampling = []
    sample_region, classify = sr.sample_region, sr._classify

    def counted_sample_region(*args, **kwargs):
        counts["samples"] += 1
        sampling.append(True)
        try:
            return sample_region(*args, **kwargs)
        finally:
            sampling.pop()

    def counted_classify(*args):
        counts["stages"] += not sampling
        return classify(*args)

    with monkeypatch.context() as m:
        m.setattr(sr, "sample_region", counted_sample_region)
        m.setattr(sr, "_classify", counted_classify)
        assert check(q, samples, 0).ok
    return counts["samples"], counts["stages"]


def test_check_transport_draws_each_source_region_once(monkeypatch):
    # 8 facts read 5 regions; their 12 stages hold 10 distinct prefixes, the
    # shared first stage of the two A1 facts and of the two A4 facts
    assert len({source for _, source, _ in sr.TRANSPORT_FACTS}) == 5
    n = 40
    assert _counted_transport(monkeypatch, sr.check_transport, 5, n) == (5 * n, 10 * n)
    assert _counted_transport(monkeypatch, _per_fact_transport, 5, n) == (8 * n, 12 * n)


def _region_stream_head(q, seed, region):
    """repr of the first vector a region's shared stream draws."""
    first = _first_fact_of_each_region()[region]
    w = sr._slot_width(q)
    return repr(sr._unpack(sr.sample_region(random.Random(f"{seed}:{q}:{first}"), q, region, w), q, w))


def _failing_checks(q, samples, seed):
    return {c["name"]: c for c in sr.check_transport(q, samples, seed).checks if c["failed"]}


def test_a_wrong_second_stage_fails_only_its_fact(wrong_a1o_second_stage):
    # the sibling uplust_uminus1_A1_to_A4o_to_E shares stage 1 and passes
    bad = _failing_checks(7, 40, 2)
    source = _region_stream_head(7, 2, "A1")
    assert bad == {"uplust_uminust_A1_to_A1o": {
        "name": "uplust_uminust_A1_to_A1o", "tried": 40, "failed": 40,
        "witness": {"source": source, "stage": "A4_strict"},
    }}


def test_a_wrong_shared_first_stage_fails_both_facts_alike(wrong_shared_a1_first_stage):
    bad = _failing_checks(7, 40, 2)
    witness = {"source": _region_stream_head(7, 2, "A1"), "stage": "A1_strict"}
    assert set(bad) == {"uplust_uminus1_A1_to_A4o_to_E", "uplust_uminust_A1_to_A1o"}
    for check in bad.values():
        assert (check["tried"], check["failed"], check["witness"]) == (40, 40, witness)


def test_a_wrong_first_stage_in_one_fact_is_not_shared(wrong_a1o_first_stage):
    bad = _failing_checks(7, 40, 2)
    witness = {"source": _region_stream_head(7, 2, "A1"), "stage": "A1_strict"}
    assert list(bad) == ["uplust_uminust_A1_to_A1o"]
    check = bad["uplust_uminust_A1_to_A1o"]
    assert (check["tried"], check["failed"], check["witness"]) == (40, 40, witness)


def test_clash_count_is_the_b_vectors_checked(monkeypatch, patch_transport_facts):
    # a second fact on B - S reads the region's samples: no more B-vectors
    again = ("uplust_B_minus_S_again", "BminusS", ((sr.UPPER, 1, 1, "A4_strict"),))
    patch_transport_facts({}, extra=[again])
    calls = []
    clash = sr._s_conditions_clash
    monkeypatch.setattr(sr, "_s_conditions_clash", lambda *args: calls.append(args) or clash(*args))
    rep = sr.check_transport(5, samples=30, seed=0)
    assert rep.ok and len(rep.checks) == len(sr.TRANSPORT_FACTS) + 1 == 10
    assert rep.checks[-1] == {"name": "s_conditions_never_simultaneous", "tried": 60, "failed": 0}
    assert len(calls) == 60


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

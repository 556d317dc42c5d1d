import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmcert import bounds as bd
from kmcert import gcm as gc
from kmcert import roots as rt
from kmcert import sigma as sg
from kmcert.errors import (
    BadM,
    BadModulus,
    InvertibilityUnmet,
    KmcertError,
    ParseError,
    TypeMismatch,
)

from conftest import A2, AFF_C5, B2, G2, NOT_2SPH, A1XA1


# ----------------------------------------------------------- ring grammar ---


def test_parse_round_trips():
    for text in ("Z/35", "Zloc!4", "Zi!6", "poly(Z/7)", "poly(poly(Zloc!3))"):
        assert bd.parse_ring_spec(text).spec == text


def test_parse_strips_whitespace():
    assert bd.parse_ring_spec("  Z/35 ").spec == "Z/35"


@pytest.mark.parametrize(
    "text,col",
    [
        ("Q", 1),
        ("Z/x", 3),
        ("Z/1", 3),
        ("Zloc!x", 6),
        ("Zi!", 4),
        ("poly(Z/7", 9),
        ("poly(Q)", 6),
        (" Z/x", 4),
        ("", 1),
    ],
)
def test_parse_error_columns(text, col):
    with pytest.raises(ParseError) as exc:
        bd.parse_ring_spec(text)
    assert exc.value.col == col


_RING_TOKENS = st.sampled_from(
    ["Z/", "Zloc!", "Zi!", "poly(", ")", "0", "1", "7", "35", "9" * 30, "²", "٣", " ", "\t", "-", "!", "/", "x"]
)
_RING_TEXT = st.one_of(
    st.text(max_size=40),
    st.lists(_RING_TOKENS, max_size=12).map("".join),
    # poly(...) nested to any depth around a grammatical or random core
    st.tuples(
        st.integers(0, 1500), st.one_of(st.sampled_from(["Z/7", "Zloc!4", "Q"]), st.text(max_size=8))
    ).map(lambda nt: "poly(" * nt[0] + nt[1] + ")" * nt[0]),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_RING_TEXT)
@example("poly(" * 2000 + "Z/7" + ")" * 2000)  # deeper than the interpreter's stack
@example("Z/" + "9" * 5000)  # more digits than int() converts
def test_parse_ring_spec_raises_only_kmcert_errors(text):
    try:
        ring = bd.parse_ring_spec(text)
    except KmcertError:
        return
    assert isinstance(ring, bd.Ring)
    assert bd.parse_ring_spec(ring.spec).spec == ring.spec


def test_parse_poly_nesting_limit():
    inner = "Z/7"
    for _ in range(bd.RING_MAX_POLY_DEPTH):
        inner = f"poly({inner})"
    assert bd.parse_ring_spec(inner).m == 7
    with pytest.raises(ParseError) as exc:
        bd.parse_ring_spec(f"poly({inner})")
    assert exc.value.col == 1 + 5 * bd.RING_MAX_POLY_DEPTH


FROZEN_M = {
    "Z/35": 5,
    "Z/4": 2,
    "Z/53": 53,
    "Z/5": 5,
    "Zloc!4": 5,
    "Zloc!6": 7,
    "Zi!1": 2,
    "Zi!2": 5,
    "Zi!4": 5,
    "Zi!6": 13,
    "poly(Z/7)": 7,
    "poly(Zloc!4)": 5,
}


def test_min_ideal_index_frozen():
    for text, m in FROZEN_M.items():
        assert bd.parse_ring_spec(text).m == m, text


def _gaussian_residue_size(p):
    # independent oracle: the residue field has size p exactly when
    # x^2 = -1 is solvable mod p (split or ramified), else p^2 (inert)
    solvable = any(x * x % p == p - 1 for x in range(1, p))
    return p if solvable else p * p


def test_gaussian_min_index_against_quadratic_oracle():
    for n in range(1, 21):
        sizes = []
        p = n
        for _ in range(12):  # more primes than the scan can need
            p = bd.next_prime_above(p)
            sizes.append(_gaussian_residue_size(p))
        want = min(sizes)
        assert bd.parse_ring_spec(f"Zi!{n}").m == want, n


def test_invertibility_predicates():
    ring = bd.parse_ring_spec
    assert ring("Z/35").is_unit(4)
    assert not ring("Z/35").is_unit(10)
    assert ring("Zloc!4").is_unit(24)
    assert not ring("Zloc!4").is_unit(5)
    assert ring("Zi!4").is_unit(24)
    assert not ring("Zi!4").is_unit(5)
    assert ring("poly(Zloc!4)").is_unit(6)
    with pytest.raises(ParseError) as exc:
        ring("Z/1")
    assert exc.value.col == 3
    for text in ("Zloc!0", "Zi!0"):
        with pytest.raises(BadModulus, match=r"^factorial cutoff 0 < 1$"):
            ring(text)


def _load_bench_oracles():
    # bench/oracles.py imports no kmcert code: an independent m(R) and unit test
    path = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rings_match_the_bench_oracles():
    O = _load_bench_oracles()
    specs = [f"Z/{q}" for q in range(2, 401)]
    specs += [f"{head}{n}" for head in ("Zloc!", "Zi!") for n in range(1, 81)]
    for text in specs + [f"poly({t})" for t in specs]:
        ring, want = bd.parse_ring_spec(text), O.parse_ring(text)
        assert ring.m == O.min_ideal_index(want), text
        for u in range(2, 13):
            assert ring.is_unit(u) == O.is_unit(want, u), (text, u)


def test_prime_helpers():
    assert bd.least_prime_factor(35) == 5
    assert bd.least_prime_factor(53) == 53
    assert bd.prime_factors(360) == {2, 3, 5}
    assert bd.next_prime_above(4) == 5
    assert bd.next_prime_above(13) == 17


# --------------------------------------------------------- bound sequence ---


def test_s_sequence_closed_forms():
    for m in (2, 5, 48, 10**6):
        assert bd.s_sequence(m, 0) == 0.0
        assert bd.s_sequence(m, 1) == pytest.approx(m**-0.5, rel=1e-15)
        assert bd.s_sequence(m, 2) == pytest.approx(
            math.sqrt(math.sqrt(1 / m) + 1 / m), rel=1e-15
        )
    with pytest.raises(BadModulus):
        bd.s_sequence(1, 1)
    with pytest.raises(BadM):
        bd.s_sequence(5, 9)


def test_s_sequence_monotone_in_level():
    for m in (2, 5, 53):
        vals = [bd.s_sequence(m, i) for i in range(6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < 1.62 for v in vals)  # bounded by the golden ratio


@pytest.mark.parametrize(
    "m,i,thr,sign",
    [
        (4, 1, Fraction(1, 2), 0),  # s_1(4) = 1/2 exactly
        (5, 1, Fraction(1, 2), -1),
        (3, 1, Fraction(1, 2), 1),
        (5, 2, Fraction(1, 2), 1),
        (53, 2, Fraction(1, 2), -1),
        (23, 2, Fraction(1, 2), 1),  # s_2 crosses 1/2 between m = 23 and 24
        (24, 2, Fraction(1, 2), -1),
        (12320768, 4, Fraction(1, 2), -1),
        (5, 1, Fraction(0), 1),
        (5, 0, Fraction(0), 0),
        (5, 0, Fraction(-1), 1),
    ],
)
def test_compare_s_to_signs(m, i, thr, sign):
    assert bd.compare_s_to(m, i, thr) == sign


def test_compare_matches_floats_when_far():
    for m in (2, 5, 48, 53, 1000):
        for i in range(5):
            val = bd.s_sequence(m, i)
            for thr in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
                if abs(val - float(thr)) > 1e-9:
                    want = -1 if val < float(thr) else 1
                    assert bd.compare_s_to(m, i, thr) == want


def _sqrt_bounds(x, steps=60):
    """Fractions lo <= sqrt(x) <= hi, by bisection on [0, max(1, x)]."""
    lo, hi = Fraction(0), max(Fraction(1), x)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mid * mid <= x:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _s_interval(m, i):
    """An interval of Fractions holding s_i(m), without compare_s_to's squaring."""
    lo = hi = Fraction(0)
    for _ in range(i):
        lo, hi = _sqrt_bounds(lo + Fraction(1, m))[0], _sqrt_bounds(hi + Fraction(1, m))[1]
    return lo, hi


@st.composite
def _s_thresholds(draw):
    m = draw(st.integers(2, 10**6))
    i = draw(st.integers(0, 8))
    # thresholds anywhere, and thresholds within 10^-6 of s_i(m)
    near = Fraction(bd.s_sequence(m, i)) + Fraction(draw(st.integers(-10**3, 10**3)), 10**9)
    anywhere = Fraction(draw(st.integers(-10, 10**3)), draw(st.integers(1, 10**3)))
    return m, i, draw(st.sampled_from((near, anywhere)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_s_thresholds())
@example((5, 0, Fraction(0)))
@example((23, 2, Fraction(1, 2)))
def test_compare_s_to_matches_bisection(case):
    m, i, thr = case
    lo, hi = _s_interval(m, i)
    if lo == hi == thr:
        assert bd.compare_s_to(m, i, thr) == 0
    elif thr < lo:
        assert bd.compare_s_to(m, i, thr) == 1
    elif thr > hi:
        assert bd.compare_s_to(m, i, thr) == -1


def test_envelopes():
    for m in (2, 3, 5, 48, 53, 10**4, 10**6):
        assert bd.s_sequence(m, 2) < (3 / m) ** 0.25 + 1e-12
        assert bd.s_sequence(m, 4) < (188 / m) ** 0.0625 + 1e-12


def test_orth_bound():
    assert bd.orth_bound(bd.A1XA1, 5) == 0.0
    assert bd.orth_bound(bd.A2_TYPE, 5) == bd.s_sequence(5, 1)
    assert bd.orth_bound(bd.B2_TYPE, 53) == bd.s_sequence(53, 2)
    assert bd.orth_bound(bd.G2_TYPE, 12320768) == bd.s_sequence(12320768, 4)
    with pytest.raises(TypeMismatch):
        bd.orth_bound("E8", 5)
    with pytest.raises(BadModulus):
        bd.orth_bound(bd.A2_TYPE, 1)


def test_orth_bound_invertibility_guards():
    with pytest.raises(InvertibilityUnmet):
        bd.orth_bound(bd.B2_TYPE, 2, bd.parse_ring_spec("Z/4"))
    with pytest.raises(InvertibilityUnmet, match=r"^3 is not invertible in Z/9$"):
        bd.orth_bound(bd.G2_TYPE, 3, bd.parse_ring_spec("Z/9"))
    # fine when the offending integer is a unit
    bd.orth_bound(bd.B2_TYPE, 53, bd.parse_ring_spec("Z/53"))
    bd.orth_bound(bd.G2_TYPE, 5, bd.parse_ring_spec("Zloc!4"))


def test_heisenberg_orth_bound():
    # the Heisenberg (A2) configuration bound 1/sqrt(m) is s_1(m)
    assert bd.orth_bound(bd.A2_TYPE, 4) == 0.5
    assert bd.orth_bound(bd.A2_TYPE, 25) == pytest.approx(0.2, rel=1e-15)
    with pytest.raises(BadModulus):
        bd.orth_bound(bd.A2_TYPE, 1)


# ------------------------------------------------------------- aggregation ---


def test_bound_verdict():
    assert bd.bound_verdict([-1, -1, -1]) == bd.ALL_BELOW
    assert bd.bound_verdict([-1, 0, -1]) == bd.BOUNDARY
    assert bd.bound_verdict([1, -1, 0]) == bd.FAILS
    assert bd.bound_verdict([]) == bd.ALL_BELOW


def test_bound_report_boundary_at_m4():
    # |Sigma| = 3 gives threshold 1/2 and s_1(4) = 1/2: exact boundary.
    # No shipped ring has m(R) = 4, so this level is the only place the
    # boundary verdict can be exercised honestly.
    sig = sg.build_sigma(A2)
    certs = sg.certify_pairs(sig)
    rep = bd.bound_report(A2, certs, sig.size, 4)
    assert rep.verdict == bd.BOUNDARY
    d = rep.as_dict()
    assert d["threshold_exact"] == "1/2"
    assert any(p["at_threshold"] for p in d["pairs"])


def test_bound_report_fields():
    sig = sg.build_sigma(A2)
    certs = sg.certify_pairs(sig)
    rep = bd.bound_report(A2, certs, sig.size, 5)
    assert rep.verdict == bd.ALL_BELOW
    d = rep.as_dict()
    assert d["sigma_size"] == 3 and d["threshold"] == 0.5
    assert d["max_bound"] == pytest.approx(bd.s_sequence(5, 1), rel=1e-15)
    assert all(p["below_threshold"] for p in d["pairs"])
    assert all(p["rank2type"] == "A2" for p in d["pairs"])


def test_bound_report_compares_once_per_rank2_type(monkeypatch):
    # the bound and its comparison depend only on the rank-2 type: AFF_C5's
    # 14 embeddings (10 identity, 4 Weyl words) span A1xA1, A2 and B2
    calls = []
    real = bd.compare_s_to

    def counting(m, i, threshold):
        calls.append(i)
        return real(m, i, threshold)

    monkeypatch.setattr(bd, "compare_s_to", counting)
    sig = sg.build_sigma(AFF_C5)
    certs = sg.certify_pairs(sig)
    rep = bd.bound_report(AFF_C5, certs, sig.size, 1000003, bd.parse_ring_spec("Z/1000003"))
    types = {p.rank2type for p in rep.pair_bounds if p.rank2type is not None}
    assert types == {bd.A1XA1, bd.A2_TYPE, bd.B2_TYPE}
    assert sum(c.kind == sg.RANK_TWO_EMBED for c in certs) == 14
    assert sorted(calls) == [0, 1, 2]
    for p in rep.pair_bounds:
        if p.rank2type is not None:
            level = bd._S_INDEX[p.rank2type]
            assert (p.bound, p.cmp) == (bd.s_sequence(1000003, level), real(1000003, level, rep.threshold))


# ------------------------------------------------------------- certificate ---

HYP_NAMES = [
    "size",
    "indecomposable",
    "two_spherical",
    "M_le_3",
    "small_integers_invertible",
    "min_ideal_index",
    "sigma_certified",
    "orthogonality",
]


def _hyp(cert, name):
    for n, p, detail in cert.hypotheses:
        if n == name:
            return p, detail
    raise KeyError(name)


def test_certify_a2_z5():
    cert = bd.certify_property_T(A2, bd.parse_ring_spec("Z/5"))
    assert cert.verdict == "certified" and cert.certified
    assert [n for n, _, _ in cert.hypotheses] == HYP_NAMES
    assert all(p for _, p, _ in cert.hypotheses)
    assert cert.m == 5
    assert cert.report.verdict == bd.ALL_BELOW


def test_certify_b2_z5_fails():
    cert = bd.certify_property_T(B2, bd.parse_ring_spec("Z/5"))
    assert cert.verdict == "failed"
    assert _hyp(cert, "min_ideal_index")[0] is False  # 5 < 48
    assert _hyp(cert, "orthogonality")[0] is False


def test_certify_b2_z53():
    cert = bd.certify_property_T(B2, bd.parse_ring_spec("Z/53"))
    assert cert.verdict == "certified"
    assert cert.m == 53
    assert cert.report.as_dict()["max_bound"] < 0.5


def test_certify_a2_poly_zloc4():
    cert = bd.certify_property_T(A2, bd.parse_ring_spec("poly(Zloc!4)"))
    assert cert.verdict == "certified"
    assert cert.m == 5


def test_certify_g2_small_modulus_invertibility():
    # m(Z/9) = 3 and 3 is not a unit mod 9: both arithmetic hypotheses die
    cert = bd.certify_property_T(G2, bd.parse_ring_spec("Z/9"))
    assert cert.verdict == "failed"
    assert _hyp(cert, "small_integers_invertible")[0] is False
    assert _hyp(cert, "orthogonality")[0] is False


def _a16():
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(16)) for i in range(16)
    )


def _dense_rank8():
    """Every pair joined: a_ij = -2 from a short to a long vertex, else -1."""
    long_ = (False, True, False, False, True, False, True, False)
    return tuple(
        tuple(
            2 if i == j else (-2 if long_[j] and not long_[i] else -1) for j in range(8)
        )
        for i in range(8)
    )


def test_certify_never_enumerates_roots_or_minors(monkeypatch):
    # certify reads the class from leading minors and interval roots from
    # height descent; root enumeration may not run on its path (the
    # all-minors oracle exists only in the tests)
    def refuse(*args, **kwargs):
        raise AssertionError("exponential routine called on the certify path")

    monkeypatch.setattr(rt, "enumerate_real_roots", refuse)
    monkeypatch.setattr(bd, "enumerate_real_roots", refuse)
    cert = bd.certify_property_T(_a16(), bd.parse_ring_spec("Zloc!1000"))
    assert cert.classification.kind == gc.SPHERICAL
    assert cert.verdict == "certified" and cert.report.verdict == bd.ALL_BELOW
    dense = _dense_rank8()
    cert = bd.certify_property_T(dense, bd.parse_ring_spec("Zloc!200000"))
    assert cert.classification.kind == gc.INDEFINITE and cert.classification.M == 2
    assert cert.verdict == "certified"
    cert = bd.certify_property_T(dense, bd.parse_ring_spec("Z/7"))
    assert cert.verdict == "failed"
    assert _hyp(cert, "min_ideal_index")[0] is False  # 7 < n(A) = 3 * 14^4
    assert _hyp(cert, "sigma_certified")[0] is True


def test_certify_structural_failures():
    cert = bd.certify_property_T(NOT_2SPH, bd.parse_ring_spec("Z/5"))
    assert cert.verdict == "failed"
    assert _hyp(cert, "two_spherical")[0] is False
    assert cert.sigma is None and cert.report is None

    cert = bd.certify_property_T(A1XA1, bd.parse_ring_spec("Z/5"))
    assert cert.verdict == "failed"
    assert _hyp(cert, "indecomposable")[0] is False


def test_certificate_as_dict_shape():
    d = bd.certify_property_T(A2, bd.parse_ring_spec("Z/5")).as_dict()
    assert d["gcm"]["d"] == 2
    assert d["ring"] == "Z/5"
    assert d["verdict"] == "certified"
    assert {h["name"] for h in d["hypotheses"]} == set(HYP_NAMES)
    assert d["sigma"]["sigma"] == [[1, 0], [0, 1], [-1, -1]]
    assert d["bound_report"]["verdict"] == "AllBelow"


@pytest.mark.parametrize("gcm", [A2, G2, AFF_C5, NOT_2SPH, A1XA1])
def test_certify_computes_the_symmetrizer_once(monkeypatch, gcm):
    # classify computes it; the RealRoots that certify_pairs reads reuses it
    calls = []
    original = gc.symmetrizer

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(gc, "symmetrizer", counted)
    monkeypatch.setattr(rt, "symmetrizer", counted)
    bd.certify_property_T(gcm, bd.parse_ring_spec("Z/1000003"))
    assert calls == [gcm]


@pytest.mark.parametrize("gcm", [A2, G2, AFF_C5])
def test_certify_computes_the_required_cap_once(monkeypatch, gcm):
    calls = []
    original = sg.required_cap

    def counted(sigma):
        calls.append(sigma)
        return original(sigma)

    monkeypatch.setattr(sg, "required_cap", counted)
    assert bd.certify_property_T(gcm, bd.parse_ring_spec("Z/1000003")).as_dict()["sigma"]
    assert len(calls) == 1

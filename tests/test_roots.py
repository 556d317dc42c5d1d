import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmcert import roots as rt
from kmcert import sigma as sg
from kmcert.gcm import symmetrizer
from kmcert.errors import (
    CapTooSmall,
    DimensionMismatch,
    IndexOutOfRange,
    OppositePair,
)

from conftest import (
    A2,
    A3,
    AFF_A1,
    AFF_A2,
    AFF_C5,
    B2,
    G2,
    IND3,
    NONSYM3,
    A1XA1,
    closed_interval_oracle,
    gcms,
    golden_gcms,
)


# --------------------------------------------------------------- algebra ---


def test_pairing_values():
    assert rt.pairing(A2, (1, 0), (0, 1)) == -1
    assert rt.pairing(G2, (1, 0), (0, 1)) == -3
    assert rt.pairing(G2, (0, 1), (1, 0)) == -1
    for mat in (A2, B2, G2):
        for i in (1, 2):
            e = rt.simple_root(2, i)
            assert rt.pairing(mat, e, e) == 2


def test_pairing_dimension_check():
    with pytest.raises(DimensionMismatch):
        rt.pairing(A2, (1, 0, 0), (0, 1))


def test_reflect_basics():
    a1 = rt.simple_root(2, 1)
    a2 = rt.simple_root(2, 2)
    root, coroot = rt.reflect(A2, 1, a2, a2)
    assert root == (1, 1) and coroot == (1, 1)
    root, _ = rt.reflect(A2, 1, a1, a1)
    assert root == (-1, 0)
    # short simple reflecting the long one in B2: s_1(a_2) = a_2 + 2 a_1
    root, _ = rt.reflect(B2, 1, a2, a2)
    assert root == (2, 1)
    # long reflecting the short: s_2(a_1) = a_1 + a_2
    root, _ = rt.reflect(B2, 2, a1, a1)
    assert root == (1, 1)
    with pytest.raises(IndexOutOfRange):
        rt.reflect(A2, 3, a1, a1)


def test_reflect_involution_everywhere():
    sl = rt.enumerate_real_roots(G2, 8)
    for e in sl.entries.values():
        for i in (1, 2):
            once = rt.reflect(G2, i, e.root, e.coroot)
            assert rt.reflect(G2, i, *once) == (e.root, e.coroot)


def test_apply_word():
    a2_ = rt.simple_root(3, 2)
    na2 = tuple(-c for c in a2_)
    root, _ = rt.apply_word(A3, (1, 3), na2, na2)
    assert root == (-1, -1, -1)
    root, _ = rt.apply_word(A3, (), a2_, a2_)
    assert root == a2_
    root, _ = rt.apply_word(A3, (2, 2), a2_, a2_)
    assert root == a2_


def test_pairing_weyl_invariance_random():
    rng = random.Random(11)
    for mat in (A2, B2, G2, A3):
        d = len(mat)
        sl = rt.enumerate_real_roots(mat, 8)
        entries = sorted(sl.entries.values(), key=lambda e: e.root)
        for _ in range(200):
            a = rng.choice(entries)
            b = rng.choice(entries)
            w = tuple(rng.randint(1, d) for _ in range(rng.randrange(6)))
            wa = rt.apply_word(mat, w, a.root, a.coroot)
            wb = rt.apply_word(mat, w, b.root, b.coroot)
            assert rt.pairing(mat, wa[1], wb[0]) == rt.pairing(mat, a.coroot, b.root)


@st.composite
def _reflection_cases(draw):
    """A random GCM, a vertex i and two (root, coroot) pairs of integer vectors.

    s_i is linear, so both properties below hold on every vector pair, not
    only on real roots.
    """
    gcm = draw(gcms(1, 5))
    d = len(gcm)
    vec = st.tuples(*[st.integers(-6, 6)] * d)
    pairs = st.tuples(vec, vec)
    return gcm, draw(st.integers(1, d)), draw(pairs), draw(pairs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_reflection_cases())
def test_reflect_twice_is_identity(case):
    gcm, i, (root, coroot), _ = case
    assert rt.reflect(gcm, i, *rt.reflect(gcm, i, root, coroot)) == (root, coroot)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_reflection_cases())
def test_reflect_preserves_pairing(case):
    # <s_i y, s_i x> = <y, x> because a_ii = 2
    gcm, i, (root_a, coroot_a), (root_b, coroot_b) = case
    _, coroot_a2 = rt.reflect(gcm, i, root_a, coroot_a)
    root_b2, _ = rt.reflect(gcm, i, root_b, coroot_b)
    assert rt.pairing(gcm, coroot_a2, root_b2) == rt.pairing(gcm, coroot_a, root_b)


# ------------------------------------------------------------ enumeration ---


def test_counts_at_cap_10():
    assert len(rt.enumerate_real_roots(A2, 10)) == 6
    assert len(rt.enumerate_real_roots(B2, 10)) == 8
    assert len(rt.enumerate_real_roots(G2, 10)) == 12


def test_positive_root_lists():
    pos = {r for r in rt.enumerate_real_roots(B2, 10).entries if all(c >= 0 for c in r)}
    assert pos == {(1, 0), (0, 1), (1, 1), (2, 1)}
    pos = {r for r in rt.enumerate_real_roots(G2, 10).entries if all(c >= 0 for c in r)}
    assert pos == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_affine_a1_slice_closed_form():
    for cap in (7, 10):
        got = set(rt.enumerate_real_roots(AFF_A1, cap).entries)
        want = set()
        for m in range(-cap, cap + 1):
            for n in range(-cap, cap + 1):
                if abs(m - n) == 1 and 0 < abs(m) + abs(n) <= cap:
                    if (m >= 0 and n >= 0) or (m <= 0 and n <= 0):
                        want.add((m, n))
        assert got == want


def test_slice_negation_closure_and_witnesses():
    for mat in (A2, B2, G2, A3, AFF_A2):
        sl = rt.enumerate_real_roots(mat, 6)
        for root, e in sl.entries.items():
            assert tuple(-c for c in root) in sl.entries
            base = rt.simple_root(len(mat), e.base)
            got_root, got_coroot = rt.apply_word(mat, e.word, base, base)
            assert got_root == root and got_coroot == e.coroot


def test_cap_too_small():
    with pytest.raises(CapTooSmall):
        rt.enumerate_real_roots(A2, 0)
    for cap in (0, -1):
        with pytest.raises(CapTooSmall):
            rt.RealRoots(A2, cap)


def _vectors_up_to_height(d, cap):
    """Every integer vector of length d and height <= cap."""
    if d == 0:
        yield ()
        return
    for x in range(-cap, cap + 1):
        for rest in _vectors_up_to_height(d - 1, cap - abs(x)):
            yield (x,) + rest


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gcm=gcms(2, 5), cap=st.integers(1, 5))
@example(gcm=AFF_A1, cap=9)
@example(gcm=AFF_A2, cap=6)
@example(gcm=IND3, cap=6)  # not symmetrizable: no norm test, descent alone
@example(gcm=G2, cap=8)
@example(gcm=A1XA1, cap=4)
def test_real_roots_membership_matches_enumeration(gcm, cap):
    slice_ = rt.enumerate_real_roots(gcm, cap)
    members = rt.RealRoots(gcm, cap)
    found = {v for v in _vectors_up_to_height(len(gcm), cap) if v in members}
    assert found == set(slice_.entries)


# ---------------------------------------------------------- prenilpotency ---


def _nspan_count(slice_, a, b):
    """|(Na + Nb) cap Phi| within the slice, i, j >= 0, i + j >= 1."""
    cap = slice_.cap
    count = 0
    for i in range(cap + 1):
        for j in range(cap + 1):
            if i + j == 0:
                continue
            v = tuple(i * x + j * y for x, y in zip(a, b))
            if v in slice_.entries:
                count += 1
    return count


@pytest.mark.parametrize("mat", [A2, B2, G2, AFF_A1], ids=["A2", "B2", "G2", "affA1"])
def test_prenilpotency_matches_growth_probe(mat):
    """Pairing criterion vs the brute-force finiteness probe, exhaustively.

    A pair is prenilpotent iff the N-span root count stabilizes when the
    cap triples.  Tripling is enough to be exact here: an infinite span
    always contains a member with i + j <= 3 (root-string combinatorics
    for |pq| = 4), whose height is at most 3x the base cap, while finite
    spans are complete well below the small cap already.
    """
    small = rt.enumerate_real_roots(mat, 10)
    big = rt.enumerate_real_roots(mat, 30)
    entries = sorted(small.entries.values(), key=lambda e: e.root)
    for ea, eb in itertools.combinations(entries, 2):
        if tuple(-c for c in ea.root) == eb.root:
            with pytest.raises(OppositePair):
                rt.prenilpotency(mat, ea, eb)
            continue
        verdict = rt.is_prenilpotent(mat, ea, eb)
        stabilizes = _nspan_count(small, ea.root, eb.root) == _nspan_count(
            big, ea.root, eb.root
        )
        assert verdict == stabilizes, (ea.root, eb.root)


def test_prenilpotency_examples():
    sl = rt.enumerate_real_roots(A2, 10)
    a = sl.entries[(1, 0)]
    b = sl.entries[(0, 1)]
    nb = sl.entries[(0, -1)]
    status, p, q = rt.prenilpotency(A2, a, b)
    assert (status, p, q) == (rt.PRENILPOTENT, -1, -1)
    status, p, _ = rt.prenilpotency(A2, a, nb)
    assert status == rt.PRENILPOTENT and p == 1
    sl = rt.enumerate_real_roots(AFF_A1, 10)
    status, p, q = rt.prenilpotency(AFF_A1, sl.entries[(1, 0)], sl.entries[(0, 1)])
    assert status == rt.NOT_PRENILPOTENT and p * q == 4


def test_pairing_sign_agreement_exhaustive():
    for mat in (A2, B2, G2, AFF_A1, AFF_A2):
        sl = rt.enumerate_real_roots(mat, 8)
        entries = sorted(sl.entries.values(), key=lambda e: e.root)
        for ea, eb in itertools.combinations(entries, 2):
            if tuple(-c for c in ea.root) == eb.root:
                continue
            _, p, q = rt.prenilpotency(mat, ea, eb)
            assert (p > 0) == (q > 0) and (p < 0) == (q < 0)


# --------------------------------------------------------------- intervals ---


def test_closed_interval_values():
    sl = rt.enumerate_real_roots(B2, 12)
    iv = closed_interval_oracle(sl, sl.entries[(1, 0)], sl.entries[(0, 1)])
    # vertex 1 is the short root here, so the long combination is 2a1 + a2
    assert iv.roots == {(1, 1), (2, 1)} and not iv.truncated
    sl = rt.enumerate_real_roots(A2, 12)
    iv = closed_interval_oracle(sl, sl.entries[(1, 0)], sl.entries[(0, -1)])
    assert not iv.roots and not iv.truncated
    sl = rt.enumerate_real_roots(G2, 12)
    iv = closed_interval_oracle(sl, sl.entries[(1, 0)], sl.entries[(0, 1)])
    assert iv.roots == {(1, 1), (2, 1), (3, 1), (3, 2)}


def test_closed_interval_a1xa1():
    sl = rt.enumerate_real_roots(A1XA1, 12)
    iv = closed_interval_oracle(sl, sl.entries[(1, 0)], sl.entries[(0, 1)])
    assert not iv.roots and not iv.truncated


def test_interval_truncation_flag():
    # cap below the exactness threshold must be flagged, not trusted
    sl = rt.enumerate_real_roots(G2, 4)
    iv = closed_interval_oracle(sl, sl.entries[(1, 0)], sl.entries[(0, 1)])
    assert iv.truncated


# a_ij * a_ji <= 3 on every edge: the rank-2 blocks A2, B2 and G2
_TWO_SPHERICAL_EDGES = ((-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1))


@st.composite
def _two_spherical_gcms(draw, min_d, max_d):
    """Random indecomposable 2-spherical GCMs of rank min_d..max_d.

    A random spanning tree keeps the diagram connected; up to two extra
    edges close cycles, so indefinite and non-symmetrizable types occur.
    """
    d = draw(st.integers(min_d, max_d))
    edges = {(draw(st.integers(0, j - 1)), j) for j in range(1, d)}
    vertex = st.integers(0, d - 1)
    for i, j in draw(st.lists(st.tuples(vertex, vertex), max_size=2)):
        if i != j:
            edges.add((min(i, j), max(i, j)))
    m = [[2 if i == j else 0 for j in range(d)] for i in range(d)]
    for i, j in sorted(edges):
        m[i][j], m[j][i] = draw(st.sampled_from(_TWO_SPHERICAL_EDGES))
    return tuple(tuple(row) for row in m)


def _root_entry(gcm, base, word):
    """The real root apply_word(word, a_base) with its coroot."""
    a = rt.simple_root(len(gcm), base)
    root, coroot = rt.apply_word(gcm, word, a, a)
    return rt.RootEntry(root, coroot, base, tuple(word))


def _negated(e):
    neg = tuple(-c for c in e.root), tuple(-c for c in e.coroot)
    return rt.RootEntry(*neg, e.base, (e.base,) + e.word)


def _support_set(vec):
    return {k for k, c in enumerate(vec) if c}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gcm=_two_spherical_gcms(2, 6), data=st.data())
@example(gcm=G2, data=None)
@example(gcm=IND3, data=None)
def test_interval_roots_lie_on_rank2_patterns(gcm, data):
    # the fact interval_is_empty rests on: every root of a prenilpotent
    # pair's interval is i*a + j*b with (i, j) in _RANK2_PATTERNS, and their
    # heights stay within interval_exact_cap.  Checked by the vector-by-
    # vector oracle at twice the pair's exact cap, on every Sigma pair and
    # random real-root pairs of both sign patterns
    d = len(gcm)
    sigma = sg.build_sigma(gcm)
    # (b, a) has the interval of (a, b) with i and j swapped: the table is symmetric
    pairs = list(itertools.combinations(sigma.members, 2))
    # s_k a_i and s_k a_j for neighbours i, j of k: supports {i, k}, {j, k}
    for k in range(d):
        nbrs = [i for i in range(d) if i != k and gcm[k][i]]
        if len(nbrs) >= 2:
            a = _root_entry(gcm, nbrs[0] + 1, (k + 1,))
            b = _root_entry(gcm, nbrs[1] + 1, (k + 1,))
            pairs += [(a, b), (a, _negated(b))]
            break
    if data is not None:
        word = st.lists(st.integers(1, d), max_size=4)
        for _ in range(6):
            a = _root_entry(gcm, data.draw(st.integers(1, d)), data.draw(word))
            b = _root_entry(gcm, data.draw(st.integers(1, d)), data.draw(word))
            pairs += [(a, b), (a, _negated(b)), (_negated(a), b)]
    signs = {rt.opposite_signs(a.root, b.root) for a, b in pairs}
    assert signs == {False, True}
    if d >= 3:
        sa, sb = zip(*((_support_set(a.root), _support_set(b.root)) for a, b in pairs))
        assert any(not (x <= y or y <= x) for x, y in zip(sa, sb))
    views = {}
    seen = set()
    for a, b in pairs:
        need = rt.interval_exact_cap(True, a.root, b.root)
        if 2 * need not in views:
            views[2 * need] = rt.RealRoots(gcm, 2 * need)
        found = closed_interval_oracle(views[2 * need], a, b)
        if found.truncated:
            continue  # not prenilpotent
        points = {
            tuple(i * x + j * y for x, y in zip(a.root, b.root)) for i, j in rt._RANK2_PATTERNS
        }
        assert found.roots <= points, (a.root, b.root)
        ha, hb = rt.height(a.root), rt.height(b.root)
        assert max(i * ha + j * hb for i, j in rt._RANK2_PATTERNS) <= need
        seen.add(bool(found.roots))
    assert seen == {False, True}


@pytest.mark.parametrize("name", sorted(set(golden_gcms()) - {"A1xA1.gcm"}))
def test_interval_norm_terms_match_descent_norm(name):
    # the real-root norms are {2 e_k}, and a candidate i*a + j*b of a Sigma
    # pair whose norm sum_{k,l} e_k v_k a_kl v_l is not one of them is no
    # slice root, as RealRoots._is_real_root's first test assumes
    gcm = golden_gcms()[name]
    d = len(gcm)
    e = symmetrizer(gcm)
    members = rt.RealRoots(gcm, sg.required_cap(sg.build_sigma(gcm)))
    if e is None:
        assert members.norms is None
        return
    assert members.norms == {2 * x for x in e}
    slice_ = rt.enumerate_real_roots(gcm, members.cap)
    filtered = 0
    for a, b in itertools.permutations(sg.build_sigma(gcm).members, 2):
        for i in range(1, members.cap // rt.height(a.root) + 2):
            for j in range(1, members.cap // rt.height(b.root) + 2):
                v = tuple(i * x + j * y for x, y in zip(a.root, b.root))
                norm = sum(e[k] * v[k] * gcm[k][l] * v[l] for k in range(d) for l in range(d))
                if norm not in members.norms:
                    filtered += 1
                    assert v not in slice_ and v not in members
    assert filtered


class _Unasked:
    """A view with a slice's .gcm, .cap and .two_spherical that fails any
    membership question."""

    def __init__(self, view):
        self.gcm, self.cap, self.two_spherical = view.gcm, view.cap, view.two_spherical

    def __contains__(self, vec):
        raise AssertionError(f"membership of {vec} asked")


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    gcm=st.sampled_from((A2, A3, B2, G2, AFF_A1, AFF_A2, AFF_C5, IND3, NONSYM3, A1XA1)),
    cap=st.integers(1, 4),
)
@example(gcm=A2, cap=4)
@example(gcm=A3, cap=4)
@example(gcm=B2, cap=4)
@example(gcm=G2, cap=4)
@example(gcm=AFF_A1, cap=4)
@example(gcm=AFF_A2, cap=4)
@example(gcm=AFF_C5, cap=4)
@example(gcm=IND3, cap=4)
@example(gcm=NONSYM3, cap=4)
@example(gcm=A1XA1, cap=4)
def test_interval_is_empty_matches_oracle(gcm, cap):
    # every ordered pair of slice roots, decided at the pair's exact cap and
    # one below it; a truncated interval is refused before any membership test
    views = {}
    seen = set()
    slice_ = rt.enumerate_real_roots(gcm, cap)
    two_spherical = slice_.two_spherical
    entries = sorted(slice_.entries.values(), key=lambda e: e.root)
    for a in entries:
        for b in entries:
            need = rt.interval_exact_cap(two_spherical, a.root, b.root)
            for c in (cap,) if need is None else (need - 1, need):
                if c not in views:
                    views[c] = (rt.enumerate_real_roots(gcm, c), rt.RealRoots(gcm, c))
                for view in views[c]:
                    o = closed_interval_oracle(view, a, b)
                    want = not o.truncated and not o.roots
                    assert rt.interval_is_empty(view, a, b) == want, (c, a.root, b.root)
                    if o.truncated:
                        assert not rt.interval_is_empty(_Unasked(view), a, b)
                    seen.add("truncated" if o.truncated else "empty" if want else "listed")
    assert "truncated" in seen
    if two_spherical:
        assert "empty" in seen


def _commutes(gcm, slice_, a, b, reason):
    return sg.certificate_holds(gcm, slice_, sg.PairCertificate(a, b, sg.COMMUTE, reason=reason))


def test_commute_guaranteed():
    # the commute rule lives in sigma.certificate_holds: opposite signs with
    # disjoint supports, or a prenilpotent pair with a complete empty interval
    sl = rt.enumerate_real_roots(A3, 12)
    a1 = sl.entries[(1, 0, 0)]
    na3 = sl.entries[(0, 0, -1)]
    b = sl.entries[(0, 1, 0)]
    assert _commutes(A3, sl, a1, na3, sg.DISJOINT_SUPPORT)
    sl2 = rt.enumerate_real_roots(A1XA1, 12)
    assert _commutes(A1XA1, sl2, sl2.entries[(1, 0)], sl2.entries[(0, 1)], sg.EMPTY_INTERVAL)
    slA2 = rt.enumerate_real_roots(A2, 12)
    for reason in (sg.DISJOINT_SUPPORT, sg.EMPTY_INTERVAL):
        assert not _commutes(A2, slA2, slA2.entries[(1, 0)], slA2.entries[(0, 1)], reason)
        assert not _commutes(A3, sl, a1, b, reason)

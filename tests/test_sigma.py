import itertools
from collections import deque

import pytest

from kmcert import gcm as gc
from kmcert import roots as rt
from kmcert import sigma as sg
from kmcert.errors import (
    BadIndexSet,
    CapTooSmall,
    IsolatedVertex,
    KmcertError,
    NotTwoSpherical,
)

from conftest import (
    A2,
    A3,
    AFF_A2,
    B2,
    D4_STAR,
    G2,
    IND3,
    NOT_2SPH,
    A1XA1,
    SIGMA_CATALOGUE,
    bench_wide_types,
    golden_gcms,
)


# ------------------------------------------------------------ construction ---


def test_maximal_independent():
    assert sg.maximal_independent(A2) == (1,)
    assert sg.maximal_independent(A3) == (1, 3)
    assert sg.maximal_independent(D4_STAR) == (1, 3, 4)
    assert sg.maximal_independent(AFF_A2) == (1,)
    assert sg.maximal_independent(A3, [2, 3]) == (2,)


def test_sigma_a2():
    sig = sg.build_sigma(A2)
    assert sig.pi1 == (1,) and sig.pi2 == (2,)
    assert sig.member_roots() == [(1, 0), (0, 1), (-1, -1)]


def test_sigma_b2_contains_long_negative():
    # vertex 1 short: gamma = s_1(-a_2) = -(a_2 + 2 a_1)
    sig = sg.build_sigma(B2)
    assert (-2, -1) in sig.member_roots()


def test_sigma_sizes_and_no_opposites():
    for name, mat in SIGMA_CATALOGUE.items():
        sig = sg.build_sigma(mat)
        d = len(mat)
        assert sig.size < 2 * d, name
        roots_ = sig.member_roots()
        assert len(set(roots_)) == len(roots_)
        for a, b in itertools.combinations(roots_, 2):
            assert tuple(-c for c in a) != b


def test_gammas_are_real_roots():
    for mat in SIGMA_CATALOGUE.values():
        sig = sg.build_sigma(mat)
        cap = max(rt.height(r) for r in sig.member_roots()) + 1
        sl = rt.enumerate_real_roots(mat, cap)
        for r in sig.member_roots():
            assert r in sl


def test_members_carry_replayable_witnesses():
    for name, mat in SIGMA_CATALOGUE.items():
        sig = sg.build_sigma(mat)
        for m in sig.members:
            a = rt.simple_root(len(mat), m.base)
            assert rt.apply_word(mat, m.word, a, a) == (m.root, m.coroot), name
        assert [g.base for g in sig.gammas] == list(sig.pi2)


def test_build_sigma_rejections():
    with pytest.raises(IsolatedVertex):
        sg.build_sigma(A1XA1)
    with pytest.raises(NotTwoSpherical):
        sg.build_sigma(NOT_2SPH)
    with pytest.raises(NotTwoSpherical):
        sg.build_sigma(NOT_2SPH, gc.classify(NOT_2SPH))


def _all_pairs_rejection(roots_):
    """The message of the all-pairs member check, or None."""
    if len(set(roots_)) != len(roots_):
        return "Sigma has repeated members"
    for i, a in enumerate(roots_):
        for b in roots_[i + 1:]:
            if tuple(-c for c in a) == b:
                return f"Sigma contains an opposite pair {a}, {b}"
    return None


def test_sigma_set_names_the_first_opposite_pair():
    # members are the simple roots, then the gammas; the rejection (repeated,
    # or the first opposite pair (a, b) in member order) is the all-pairs one
    candidates = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 0), (-1, -1, 0), (0, 1, 1), (1, 0, 0)]
    messages = set()
    for k in (1, 2, 3):
        for gamma_roots in itertools.permutations(candidates, k):
            gammas = [rt.RootEntry(r, r, 1, (1,)) for r in gamma_roots]
            members = [rt.simple_root(3, i) for i in (1, 2, 3)] + list(gamma_roots)
            try:
                sg.SigmaSet(A3, (1, 3), (2,), gammas)
                message = None
            except KmcertError as exc:
                message = str(exc)
            assert message == _all_pairs_rejection(members), gamma_roots
            messages.add(message)
    assert "Sigma contains an opposite pair (1, 0, 0), (-1, 0, 0)" in messages
    assert {None, "Sigma has repeated members"} < messages


def test_as_dict_shape():
    d = sg.build_sigma(A3).as_dict()
    assert d["pi1"] == [1, 3] and d["pi2"] == [2]
    assert d["w0"] == [1, 3]
    assert d["sigma"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    assert d["index_set"] is None


# ------------------------------------------------------- pseudo-parabolic ---


def test_pseudo_full_index_set_matches_plain():
    full = sg.build_sigma(A2)
    pseudo = sg.build_sigma_pseudo(A2, [1, 2])
    assert pseudo.member_roots() == full.member_roots()
    assert pseudo.index_set == [1, 2]


def test_pseudo_a3_interval_subset():
    sig = sg.build_sigma_pseudo(A3, [1, 2])
    assert sig.pi1 == (1,) and sig.pi2 == (2,)
    assert sig.gammas[0].root == (-1, -1, 0)


def test_pseudo_rejects_uncovered_vertex():
    with pytest.raises(BadIndexSet):
        sg.build_sigma_pseudo(A3, [2])
    with pytest.raises(BadIndexSet):
        sg.build_sigma_pseudo(D4_STAR, [1, 3])


# ------------------------------------------------------------ certificates ---


def _cert_map(sig, certs):
    return {(tuple(c.a.root), tuple(c.b.root)): c for c in certs}


def test_catalogue_fully_certified():
    for name, mat in SIGMA_CATALOGUE.items():
        sig = sg.build_sigma(mat)
        sl = rt.enumerate_real_roots(mat, sg.required_cap(sig))
        certs = sg.certify_pairs(sig, sl)
        n = sig.size
        assert len(certs) == n * (n - 1) // 2, name
        for c in certs:
            assert sg.certificate_holds(mat, sl, c)
        # the default slice decides membership by descent: same certificates
        assert [c.as_dict() for c in sg.certify_pairs(sig)] == [c.as_dict() for c in certs], name


def test_simple_pairs_embed_via_identity():
    sig = sg.build_sigma(A2)
    certs = sg.certify_pairs(sig)
    c = _cert_map(sig, certs)[((1, 0), (0, 1))]
    assert c.kind == sg.RANK_TWO_EMBED and c.word == () and c.indices == (1, 2)
    assert c.rank2_product(A2) == 1


def test_a2_gamma_pairs_embed_in_place():
    # both pairs (a_i, gamma) already live in Z a_1 + Z a_2
    certs = sg.certify_pairs(sg.build_sigma(A2))
    m = _cert_map(None, certs)
    for pair in (((1, 0), (-1, -1)), ((0, 1), (-1, -1))):
        c = m[pair]
        assert c.kind == sg.RANK_TWO_EMBED and c.word == ()


def test_a3_gamma_needs_a_moving_word():
    # (a_1, gamma) has a nonempty interval (a_1 + gamma = -(a_2+a_3) is a
    # root), so commuting shortcuts cannot apply; BFS finds the reflection
    # s_3 pulling gamma into the 1-2 plane.
    sig = sg.build_sigma(A3)
    certs = sg.certify_pairs(sig)
    c = _cert_map(sig, certs)[((1, 0, 0), (-1, -1, -1))]
    assert c.kind == sg.RANK_TWO_EMBED
    assert c.word == (3,) and c.indices == (1, 2)
    assert c.rank2_product(A3) == 1


def test_d4_star_leaf_gamma_embed():
    sig = sg.build_sigma(D4_STAR)
    certs = sg.certify_pairs(sig)
    c = _cert_map(sig, certs)[((1, 0, 0, 0), (-1, -1, -1, -1))]
    assert c.kind == sg.RANK_TWO_EMBED
    assert c.word == (3, 4) and c.indices == (1, 2)


def test_aff_a2_gamma_gamma_word():
    sig = sg.build_sigma(AFF_A2)
    certs = sg.certify_pairs(sig)
    c = _cert_map(sig, certs)[((-1, -1, 0), (-1, 0, -1))]
    assert c.kind == sg.RANK_TWO_EMBED
    assert c.word == (1,) and c.indices == (2, 3)
    assert c.rank2_product(AFF_A2) == 1


def test_commute_certificates_appear():
    sig = sg.build_sigma(A3)
    certs = sg.certify_pairs(sig)
    kinds = {(tuple(c.a.root), tuple(c.b.root)): (c.kind, c.reason) for c in certs}
    # a_1 and a_3 are orthogonal simples: identity embed, product 0
    c = _cert_map(sig, certs)[((1, 0, 0), (0, 0, 1))]
    assert c.kind == sg.RANK_TWO_EMBED and c.rank2_product(A3) == 0
    # at least one genuine commute certificate shows up in the catalogue
    seen = set()
    for mat in SIGMA_CATALOGUE.values():
        for c in sg.certify_pairs(sg.build_sigma(mat)):
            if c.kind == sg.COMMUTE:
                seen.add(c.reason)
    assert sg.DISJOINT_SUPPORT in seen or sg.EMPTY_INTERVAL in seen


def test_rank2_products_stay_spherical():
    for mat in SIGMA_CATALOGUE.values():
        for c in sg.certify_pairs(sg.build_sigma(mat)):
            p = c.rank2_product(mat)
            if p is not None:
                assert 0 <= p <= 3


def test_required_cap_value():
    sig = sg.build_sigma(A2)
    assert sg.required_cap(sig) == 11


def test_certify_rejects_small_slice():
    sig = sg.build_sigma(A2)
    sl = rt.enumerate_real_roots(A2, 3)
    with pytest.raises(CapTooSmall):
        sg.certify_pairs(sig, sl)


def test_certify_pairs_builds_each_interval_once(monkeypatch):
    # the empty-interval rule is decided once, when the candidate is tried:
    # no pair's interval is decided twice
    calls = []
    real = rt.interval_is_empty

    def counting(slice_, a, b):
        calls.append((a.root, b.root))
        return real(slice_, a, b)

    monkeypatch.setattr(rt, "interval_is_empty", counting)
    for mat in (A3, B2):
        calls.clear()
        certs = sg.certify_pairs(sg.build_sigma(mat))
        assert any(c.reason == sg.EMPTY_INTERVAL for c in certs)
        assert calls and len(calls) == len(set(calls))


def test_certify_pairs_descent_counts(monkeypatch):
    # _is_real_root calls: the empty-interval rule checks truncation first,
    # then asks the rank-2 pattern points i*a + j*b and stops at the first
    # root.  A3 and B2 each try one empty interval, whose eight points are
    # all asked: three stop at the mixed-sign test and five at the norm
    # test, before any descent step.  A row-by-row scan that skipped such
    # candidates unasked made 2 and 1 calls.  Every interval AFF_A2 and
    # IND3 try holds the root a + b, so they keep 4
    count = [0]
    real = rt.RealRoots._is_real_root

    def counting(self, v):
        count[0] += 1
        return real(self, v)

    monkeypatch.setattr(rt.RealRoots, "_is_real_root", counting)
    for mat, descents in ((A3, 10), (B2, 9), (AFF_A2, 4), (IND3, 4)):
        count[0] = 0
        sg.certify_pairs(sg.build_sigma(mat))
        assert count[0] == descents, mat


def test_certify_pair_below_its_exact_cap_embeds():
    # with the interval truncated the empty-interval candidate is rejected,
    # and the Weyl-word search supplies a certificate that holds at full cap
    a = rt.RootEntry((0, 1, 0), (0, 1, 0), 2, ())
    b = next(m for m in sg.build_sigma(A3).members if m.root == (-1, -1, -1))
    assert rt.interval_exact_cap(True, a.root, b.root) == 13
    cert = sg.certify_pair(A3, rt.RealRoots(A3, 4), a, b)
    assert cert.kind == sg.RANK_TWO_EMBED
    assert sg.certificate_holds(A3, rt.enumerate_real_roots(A3, 13), cert)


def test_verify_rejects_tampered_certificate():
    sig = sg.build_sigma(A2)
    sl = rt.enumerate_real_roots(A2, sg.required_cap(sig))
    a, b = sig.members[0], sig.members[1]
    bogus = sg.PairCertificate(a, b, sg.COMMUTE, reason=sg.EMPTY_INTERVAL)
    assert not sg.certificate_holds(A2, sl, bogus)
    bogus = sg.PairCertificate(a, b, sg.COMMUTE, reason=sg.DISJOINT_SUPPORT)
    assert not sg.certificate_holds(A2, sl, bogus)


def _embedding_word_on_coroot_pairs(gcm, a, b, max_len, height_cap):
    """The Weyl-word search on (root, coroot) states through roots.reflect:
    the reference for sg._find_embedding_word, which carries roots alone."""
    d = len(gcm)
    seen = {(a.root, b.root)}
    queue = deque([((a.root, a.coroot), (b.root, b.coroot), ())])
    while queue:
        cur_a, cur_b, word = queue.popleft()
        pair = sg._embeds_in_simple_pair(cur_a[0], cur_b[0])
        if pair is not None:
            return word, pair
        if len(word) >= max_len:
            continue
        for i in range(1, d + 1):
            na = rt.reflect(gcm, i, *cur_a)
            nb = rt.reflect(gcm, i, *cur_b)
            if rt.height(na[0]) > height_cap or rt.height(nb[0]) > height_cap:
                continue
            key = (na[0], nb[0])
            if key in seen:
                continue
            seen.add(key)
            queue.append((na, nb, word + (i,)))
    return None


_SEARCH_GCMS = {**golden_gcms(), **bench_wide_types()}
del _SEARCH_GCMS["A1xA1.gcm"]  # isolated vertices: no Sigma


@pytest.mark.parametrize("name", sorted(_SEARCH_GCMS))
def test_find_embedding_word_matches_coroot_search(name):
    # every Sigma pair, searched with the bounds certify_pair passes
    gcm = _SEARCH_GCMS[name]
    sig = sg.build_sigma(gcm)
    cap = sg.required_cap(sig)
    for a, b in itertools.combinations(sig.members, 2):
        args = (gcm, a, b, 2 * len(gcm), max(cap, 4 * (rt.height(a.root) + rt.height(b.root))))
        assert sg._find_embedding_word(*args) == _embedding_word_on_coroot_pairs(*args), (a.root, b.root)

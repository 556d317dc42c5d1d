"""Generating sets of root subgroups and their pair certificates.

Given a 2-spherical GCM whose Dynkin diagram has no isolated vertices,
split the vertices into a maximal independent set Pi1 (greedy by ascending
index) and the rest Pi2 = {b_1, ..., b_l}.  With w0 the product of the
simple reflections over Pi1 (they commute, so the order is irrelevant;
this is checked at run time), set

    gamma_i = w0(-b_i),   Sigma = Pi  united with  {gamma_1, ..., gamma_l}.

Sigma has fewer than 2d members and no two of them sum to zero.  The
pseudo-parabolic variant restricts Pi1/Pi2 to a subset I of the vertices,
provided every vertex has a neighbour inside I.

certify_pairs produces, for every unordered pair from Sigma, one of

  * Commute{disjoint-support}: opposite signs and disjoint supports, so no
    positive combination is ever a root;
  * Commute{empty-interval}: prenilpotent with a provably complete empty
    closed interval;
  * RankTwoEmbed{(i, j), w}: a Weyl word w moving both roots into
    Z a_i + Z a_j.

certify_pair tries candidates in a fixed order: the identity embedding of
two simple roots, disjoint support, empty interval, and last a bounded
breadth-first search over Weyl words (up to length 2d), run only when the
first three are rejected.  It returns the first candidate that the rule
certificate_holds accepts, so each certificate kind is decided in that one
place; when none is accepted it raises CertificationFailed.
"""

from __future__ import annotations

from collections import deque

from . import roots as rt
from .errors import (
    BadIndexSet,
    CapTooSmall,
    CertificationFailed,
    IndexOutOfRange,
    IsolatedVertex,
    KmcertError,
)
from .gcm import neighbours, require_two_spherical

COMMUTE = "Commute"
RANK_TWO_EMBED = "RankTwoEmbed"
DISJOINT_SUPPORT = "disjoint-support"
EMPTY_INTERVAL = "empty-interval"


def maximal_independent(gcm, vertices=None):
    """Greedy maximal independent set, scanning the given 1-based vertices
    in ascending order (all vertices when None)."""
    d = len(gcm)
    if vertices is None:
        vertices = range(1, d + 1)
    chosen = []
    allowed = sorted(set(vertices))
    for v in allowed:
        if not 1 <= v <= d:
            raise IndexOutOfRange(f"vertex {v} out of range 1..{d}")
        if all(u not in neighbours(gcm, v) for u in chosen):
            chosen.append(v)
    return tuple(chosen)


class SigmaSet:
    """The generating configuration: Pi1, Pi2, w0 and the Sigma roots.

    w0 is the word Pi1.  members is a list of RootEntry: first the d simple
    roots in index order (witness (i, ())), then the gamma_j in Pi2 order.
    """

    def __init__(self, gcm, pi1, pi2, gammas, index_set=None):
        self.gcm = gcm
        self.pi1 = pi1
        self.pi2 = pi2
        self.gammas = gammas  # list of RootEntry
        self.index_set = index_set
        d = len(gcm)
        simple = [
            rt.RootEntry(rt.simple_root(d, i), rt.simple_root(d, i), i, ()) for i in range(1, d + 1)
        ]
        self.members = simple + list(gammas)
        roots_ = self.member_roots()
        if len(set(roots_)) != len(roots_):
            raise KmcertError("Sigma has repeated members")
        for i, a in enumerate(roots_):
            for b in roots_[i + 1:]:
                if tuple(-c for c in a) == b:
                    raise KmcertError(f"Sigma contains an opposite pair {a}, {b}")

    @property
    def size(self):
        return len(self.members)

    def member_roots(self):
        return [m.root for m in self.members]

    def as_dict(self):
        return {
            "pi1": list(self.pi1),
            "pi2": list(self.pi2),
            "w0": list(self.pi1),
            "sigma": [list(m.root) for m in self.members],
            "index_set": None if self.index_set is None else sorted(self.index_set),
        }


def _gamma(gcm, w0, j):
    """gamma_j = w0(-a_j), witnessed by the word (j,) + w0 since -a_j = s_j a_j."""
    a = rt.simple_root(len(gcm), j)
    word = (j,) + tuple(w0)
    return rt.RootEntry(*rt.apply_word(gcm, word, a, a), j, word)


def _split_sigma(gcm, vertices, index_set=None):
    """Split the vertices into I1 (maximal independent, also the word w0) and
    I2, and build Sigma from the gamma_j, j in I2."""
    i1 = maximal_independent(gcm, vertices)
    i2 = tuple(v for v in sorted(set(vertices)) if v not in i1)
    gammas = [_gamma(gcm, i1, j) for j in i2]
    # I1 reflections commute, so w0 must not depend on their order.
    for g in gammas:
        rev = _gamma(gcm, tuple(reversed(i1)), g.base)
        if (rev.root, rev.coroot) != (g.root, g.coroot):
            raise KmcertError("w0 image depends on reflection order; I1 not independent")
    return SigmaSet(gcm, i1, i2, gammas, index_set)


def build_sigma(gcm):
    """Sigma for the full vertex set.  Requires a 2-spherical GCM whose
    diagram has no isolated vertex."""
    require_two_spherical(gcm)
    d = len(gcm)
    for v in range(1, d + 1):
        if not neighbours(gcm, v):
            raise IsolatedVertex(v)
    sig = _split_sigma(gcm, range(1, d + 1))
    if not sig.size < 2 * d:
        raise KmcertError(f"|Sigma| = {sig.size} not < 2d = {2*d}")
    return sig


def build_sigma_pseudo(gcm, index_set):
    """Pseudo-parabolic Sigma over a vertex subset I.

    Requires: for every vertex i there is j in I with j != i and a_ij != 0.
    The offending vertex is named in BadIndexSet otherwise.
    """
    require_two_spherical(gcm)
    d = len(gcm)
    I = sorted(set(index_set))
    for v in I:
        if not 1 <= v <= d:
            raise IndexOutOfRange(f"vertex {v} out of range 1..{d}")
    iset = set(I)
    for i in range(1, d + 1):
        if not (neighbours(gcm, i) & iset):
            raise BadIndexSet(i)
    return _split_sigma(gcm, I, index_set=I)


class PairCertificate:
    """Verified commutation or rank-2 embedding evidence for a Sigma pair."""

    __slots__ = ("a", "b", "kind", "reason", "indices", "word")

    def __init__(self, a, b, kind, reason=None, indices=None, word=None):
        self.a = a
        self.b = b
        self.kind = kind
        self.reason = reason
        self.indices = indices
        self.word = word

    def rank2_product(self, gcm):
        """a_ij * a_ji of the target simple pair (embeddings only)."""
        if self.kind != RANK_TWO_EMBED:
            return None
        i, j = self.indices
        return gcm[i - 1][j - 1] * gcm[j - 1][i - 1]

    def as_dict(self):
        out = {"pair": [list(self.a.root), list(self.b.root)], "kind": self.kind}
        if self.kind == COMMUTE:
            out["reason"] = self.reason
        else:
            out["indices"] = list(self.indices)
            out["word"] = list(self.word)
        return out

    def __repr__(self):
        return f"PairCertificate({self.as_dict()!r})"


def required_cap(sigma):
    """Smallest slice cap that makes every Sigma pair's interval exact."""
    need = 1
    roots_ = sigma.member_roots()
    for i, a in enumerate(roots_):
        for b in roots_[i + 1:]:
            need = max(need, rt.interval_exact_cap(True, a, b))
    return need


def _support(vec):
    return {i for i, c in enumerate(vec) if c}


def certificate_holds(gcm, slice_, cert):
    """Decide a certificate from scratch: the one rule for every kind.

    An empty-interval certificate holds when the pair is prenilpotent, the
    slice cap makes its closed interval complete, and that interval has no
    root.  roots.interval_is_empty checks truncation first and stops at
    the first interval root, so a rejected candidate is not listed in full.
    """
    a, b = cert.a, cert.b
    if cert.kind == COMMUTE:
        if cert.reason == DISJOINT_SUPPORT:
            return rt.opposite_signs(a.root, b.root) and rt.supports_disjoint(a.root, b.root)
        if cert.reason == EMPTY_INTERVAL:
            return rt.interval_is_empty(slice_, a, b)
        return False
    if cert.kind == RANK_TWO_EMBED:
        i, j = cert.indices
        wa, _ = rt.apply_word(gcm, cert.word, a.root, a.coroot)
        wb, _ = rt.apply_word(gcm, cert.word, b.root, b.coroot)
        allowed = {i - 1, j - 1}
        return _support(wa) <= allowed and _support(wb) <= allowed
    return False


def _find_embedding_word(gcm, a, b, max_len, height_cap):
    """Breadth-first search for a word moving both roots into a simple pair.

    States are the root images of a and b (the search never reads a
    coroot; certificate_holds replays the word on both); words longer than
    max_len or images taller than height_cap are pruned.  Returns
    (word, (i, j)) or None.  The identity and w0-style short words come
    first because BFS explores by length.
    """
    d = len(gcm)
    seen = {(a.root, b.root)}
    queue = deque([(a.root, b.root, ())])
    while queue:
        ra, rb, word = queue.popleft()
        pair = _embeds_in_simple_pair(ra, rb)
        if pair is not None:
            return word, pair
        if len(word) >= max_len:
            continue
        for i in range(1, d + 1):
            na = rt.reflect_root(gcm, i, ra)
            nb = rt.reflect_root(gcm, i, rb)
            if rt.height(na) > height_cap or rt.height(nb) > height_cap:
                continue
            key = (na, nb)
            if key in seen:
                continue
            seen.add(key)
            queue.append((na, nb, word + (i,)))
    return None


def _embeds_in_simple_pair(ra, rb):
    """The simple indices (i, j), i < j, that both roots lie on, or None.

    The roots are images of two Sigma members under one Weyl word, so they
    are distinct, nonzero and not opposite.  The only real roots on one
    simple index k are +-alpha_k, so their supports together never make a
    single index.
    """
    sup = _support(ra) | _support(rb)
    if len(sup) != 2:
        return None
    i, j = sorted(sup)
    return i + 1, j + 1


def _candidates(gcm, slice_, a, b):
    """Certificates for the pair in the order certify_pair tries them; the
    Weyl-word search runs only once the first three are rejected."""
    ra, rb = a.root, b.root
    ha, hb = rt.height(ra), rt.height(rb)
    if ha == 1 and hb == 1 and all(c >= 0 for c in ra) and all(c >= 0 for c in rb):
        i = ra.index(1) + 1
        j = rb.index(1) + 1
        yield PairCertificate(a, b, RANK_TWO_EMBED, indices=tuple(sorted((i, j))), word=())
    yield PairCertificate(a, b, COMMUTE, reason=DISJOINT_SUPPORT)
    yield PairCertificate(a, b, COMMUTE, reason=EMPTY_INTERVAL)
    found = _find_embedding_word(gcm, a, b, 2 * len(gcm), max(slice_.cap, 4 * (ha + hb)))
    if found is not None:
        word, pair = found
        yield PairCertificate(a, b, RANK_TWO_EMBED, indices=pair, word=word)


def certify_pair(gcm, slice_, a, b):
    """The first candidate certificate for one unordered pair of Sigma
    members (RootEntry) that certificate_holds accepts."""
    for cert in _candidates(gcm, slice_, a, b):
        if certificate_holds(gcm, slice_, cert):
            return cert
    raise CertificationFailed((a.root, b.root))


def certify_pairs(sigma, slice_=None, classification=None):
    """Certificates for every unordered pair from Sigma, in member order.

    Without a slice, real-root membership is decided by height descent
    (roots.RealRoots) at the required cap, reading the symmetrizer from
    `classification` (a `gcm.classify` result of sigma.gcm) when given.  A
    slice passed in must reach the required cap.
    """
    gcm = sigma.gcm
    cap = required_cap(sigma)
    if slice_ is None:
        slice_ = rt.RealRoots(gcm, cap, classification)
    elif slice_.cap < cap:
        raise CapTooSmall(f"slice cap {slice_.cap} < required {cap} for this Sigma")
    out = []
    members = sigma.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            out.append(certify_pair(gcm, slice_, members[i], members[j]))
    return out

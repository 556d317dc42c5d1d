"""Real roots of a Kac-Moody root system up to a height cap.

Roots and coroots are integer coefficient tuples over the simple (co)roots.
The pairing is <y, x> = sum_{i,j} y_i x_j a_ij for y in coroot coordinates
and x in root coordinates; simple reflections act by

    s_i(x) = x - <a_i^, x> a_i        on roots,
    s_i(y) = y - <y, a_i> a_i^        on coroots,

which leaves the pairing invariant.  A Weyl word is a tuple of 1-based
simple indices applied left to right (the first index acts first).

Two views of the real roots of height (sum of absolute coefficients) at
most a cap answer the same membership question:

  * enumerate_real_roots performs a breadth-first closure of the simple
    roots and their negatives under all simple reflections, discarding any
    root above the cap, and records each root's coroot and a witness word.
    It backs `kmcert roots` and its coroot self-check.
  * RealRoots decides membership of one vector without enumerating (Kac,
    *Infinite-dimensional Lie algebras*, ch. 5).  A positive real root
    beta other than a simple root has some <a_i^, beta> > 0, and then
    s_i beta is a positive real root of smaller height; a positive vector
    with no such i lies in the imaginary cone or is not a root, and W maps
    non-roots to non-roots.  So descending by height until a simple root
    is reached (a root) or the descent stalls or leaves the positive cone
    (not a root) decides the question exactly.  When A has a symmetrizer
    E, the invariant form (a_i, a_j) = e_i a_ij gives a real root the norm
    (beta, beta) = 2 e_k for some k, a cheap test that runs first.

Every positive real root of height h descends to a simple root through
roots of height below h, so both views hold exactly the real roots within
the cap.  Roots outside the cap are simply unknown: absence from a slice
is not evidence that a vector is not a root.
"""

from __future__ import annotations

from operator import mul

from .errors import CapTooSmall, DimensionMismatch, IndexOutOfRange, OppositePair, SignMismatch
from .gcm import is_two_spherical, symmetrizer

PRENILPOTENT = "Prenilpotent"
NOT_PRENILPOTENT = "NotPrenilpotent"


def _check_dim(gcm, vec):
    if len(vec) != len(gcm):
        raise DimensionMismatch(f"vector length {len(vec)} != rank {len(gcm)}")


def pairing(gcm, coroot, root):
    """<y, x> = sum_{i,j} y_i x_j a_ij (exact integer)."""
    _check_dim(gcm, coroot)
    _check_dim(gcm, root)
    total = 0
    for i, yi in enumerate(coroot):
        if yi:
            row = gcm[i]
            total += yi * sum(xj * row[j] for j, xj in enumerate(root) if xj)
    return total


def height(vec):
    return sum(map(abs, vec))


def simple_root(d, i):
    return tuple(1 if k == i - 1 else 0 for k in range(d))


def reflect(gcm, i, root, coroot):
    """Apply the simple reflection s_i to a (root, coroot) pair."""
    d = len(gcm)
    if not 1 <= i <= d:
        raise IndexOutOfRange(f"reflection index {i} out of range 1..{d}")
    _check_dim(gcm, root)
    _check_dim(gcm, coroot)
    k = i - 1
    new_root, new_cor = list(root), list(coroot)
    # <a_i^, x> = sum_j x_j a_ij ;  <y, a_i> = sum_j y_j a_ji
    new_root[k] -= sum(map(mul, gcm[k], root))
    new_cor[k] -= sum(row[k] * y for row, y in zip(gcm, coroot))
    return tuple(new_root), tuple(new_cor)


def apply_word(gcm, word, root, coroot):
    """Apply a Weyl word (first index acts first) to a (root, coroot) pair."""
    for i in word:
        root, coroot = reflect(gcm, i, root, coroot)
    return root, coroot


class RootEntry:
    """One real root with its coroot and a witness.

    witness = (base, word) with root = apply_word(word, a_base); every
    prefix of the word stays inside the enclosing slice's height cap.
    """

    __slots__ = ("root", "coroot", "base", "word")

    def __init__(self, root, coroot, base, word):
        self.root = root
        self.coroot = coroot
        self.base = base
        self.word = word

    def as_dict(self):
        return {
            "coeffs": list(self.root),
            "coroot_coeffs": list(self.coroot),
            "witness": {"base": self.base, "word": list(self.word)},
        }

    def __repr__(self):
        return f"RootEntry({self.root}, coroot={self.coroot}, base={self.base}, word={self.word})"


class RootSlice:
    """All real roots of height <= cap, keyed by coefficient vector."""

    def __init__(self, gcm, cap, entries):
        self.gcm = gcm
        self.cap = cap
        self.two_spherical = is_two_spherical(gcm)
        self.entries = entries  # dict: root tuple -> RootEntry

    def __contains__(self, root):
        return tuple(root) in self.entries

    def __len__(self):
        return len(self.entries)


class RealRoots:
    """The real roots of height <= cap as a membership test (descent by height).

    Offers what closed_interval, interval_is_empty and sigma.certify_pair
    read from a slice (.gcm, .cap, .two_spherical and `in`) without
    enumerating; each answer is kept for the life of the object.  The
    empty-interval rule asks it only about rows of a complete interval, and
    only until the first root.
    """

    def __init__(self, gcm, cap):
        if cap < 1:
            raise CapTooSmall(f"cap {cap} < 1")
        self.gcm = gcm
        self.cap = cap
        self.two_spherical = is_two_spherical(gcm)
        self._columns = tuple(zip(*gcm))
        self._e = symmetrizer(gcm)
        self._norms = None if self._e is None else frozenset(2 * x for x in self._e)
        self._known = {}

    def __contains__(self, vec):
        v = tuple(vec)
        known = self._known.get(v)
        if known is None:
            known = self._known[v] = self._is_real_root(v)
        return known

    def _is_real_root(self, v):
        """Descend from +-v by simple reflections s_i with <a_i^, v> > 0.

        Each step lowers the height by that pairing, so the loop ends; v is
        a real root iff the walk stays in the positive cone and reaches
        height 1.  The pairings are updated in place of recomputing them.
        """
        _check_dim(self.gcm, v)
        if min(v) < 0:
            if max(v) > 0:
                return False
            v = [-c for c in v]
        else:
            v = list(v)
        h = sum(v)
        if h == 0 or h > self.cap:
            return False
        pairs = [sum(map(mul, row, v)) for row in self.gcm]  # <a_i^, v>
        if self._e is not None and sum(map(mul, map(mul, self._e, v), pairs)) not in self._norms:
            return False
        while h > 1:
            c = max(pairs)
            if c <= 0:
                return False
            i = pairs.index(c)
            v[i] -= c
            if v[i] < 0:
                return False
            h -= c
            pairs = [p - c * a for p, a in zip(pairs, self._columns[i])]
        return True


def enumerate_real_roots(gcm, cap):
    """Breadth-first slice of the real roots up to the height cap.

    Seeds are the simple roots (empty witness word) and their negatives
    (witness word (i,), since s_i a_i = -a_i); every intermediate of a
    witness word lies within the cap.  Whenever two walks reach the same
    root they must carry the same coroot; a mismatch raises SignMismatch
    since it can only come from a reflection bug.
    """
    if cap < 1:
        raise CapTooSmall(f"cap {cap} < 1")
    d = len(gcm)
    entries = {}
    frontier = []
    for i in range(1, d + 1):
        a = simple_root(d, i)
        na = tuple(-c for c in a)
        entries[a] = RootEntry(a, a, i, ())
        frontier.append(entries[a])
        entries[na] = RootEntry(na, na, i, (i,))
        frontier.append(entries[na])
    while frontier:
        nxt = []
        for entry in frontier:
            for i in range(1, d + 1):
                root, coroot = reflect(gcm, i, entry.root, entry.coroot)
                if height(root) > cap:
                    continue
                known = entries.get(root)
                if known is not None:
                    if known.coroot != coroot:
                        raise SignMismatch(
                            f"coroot mismatch at {root}: {known.coroot} vs {coroot}"
                        )
                    continue
                neg = all(c <= 0 for c in root)
                pos = all(c >= 0 for c in root)
                if not (neg or pos):
                    raise SignMismatch(f"root {root} has mixed signs; reflection bug")
                e = RootEntry(root, coroot, entry.base, entry.word + (i,))
                entries[root] = e
                nxt.append(e)
        frontier = nxt
    return RootSlice(gcm, cap, entries)


def prenilpotency(gcm, a, b):
    """Classify the pair {a, b} of real roots by the pairing criterion.

    Returns (status, p, q) with p = <a^, b> and q = <b^, a>.  The two
    pairings always share a sign; disagreement raises SignMismatch.  The
    pair (a, -a) is rejected.  For p >= 0 the pair is prenilpotent with
    interval contained in {a+b}; for p < 0 it is prenilpotent iff pq <= 3.
    """
    if tuple(b.root) == tuple(-c for c in a.root):
        raise OppositePair(f"pair ({a.root}, {b.root}) is opposite")
    p = pairing(gcm, a.coroot, b.root)
    q = pairing(gcm, b.coroot, a.root)
    if (p > 0) != (q > 0) or (p < 0) != (q < 0):
        raise SignMismatch(f"pairing signs disagree: {p} vs {q}")
    if p >= 0:
        return PRENILPOTENT, p, q
    return (PRENILPOTENT if p * q <= 3 else NOT_PRENILPOTENT), p, q


def is_prenilpotent(gcm, a, b):
    return prenilpotency(gcm, a, b)[0] == PRENILPOTENT


class IntervalResult:
    """Roots of the form i*a + j*b (i, j >= 1) found within the slice.

    truncated means the slice cap was too small to promise completeness,
    so the listed roots are only a lower approximation.
    """

    __slots__ = ("roots", "truncated")

    def __init__(self, roots, truncated):
        self.roots = frozenset(roots)
        self.truncated = truncated

    def __len__(self):
        return len(self.roots)


def interval_exact_cap(two_spherical, a_root, b_root):
    """Height cap guaranteeing a complete closed interval for the pair.

    Within a 2-spherical system a prenilpotent interval only contains
    i*a + j*b with (i, j) among the rank-2 patterns (coefficients <= 3),
    so heights are bounded by 2(h(a)+h(b)) + max(h(a), h(b), 5).
    """
    if not two_spherical:
        return None
    ha, hb = height(a_root), height(b_root)
    return 2 * (ha + hb) + max(ha, hb, 5)


def _sign_range(ia, br, sign, cap, max_j):
    """The j in 1..max_j with sign * (ia + j*br) >= 0 in every coordinate
    and height(ia + j*br) <= cap.

    On that range the height is sign * sum(ia + j*br), linear in j, so the
    cap is one more inequality x + j*y >= 0 beside the coordinates.
    """
    xs = [sign * x for x in ia]
    ys = [sign * y for y in br]
    xs.append(cap - sum(xs))
    ys.append(-sum(ys))
    lo, hi = 1, max_j
    for x, y in zip(xs, ys):
        if y > 0:
            lo = max(lo, -(x // y))  # j >= ceil(-x / y)
        elif y < 0:
            hi = min(hi, x // -y)  # j <= floor(x / -y)
        elif x < 0:
            return range(0)
    return range(lo, hi + 1)


def _interval_scan(slice_, ar, br):
    """The slice roots i*a + j*b (i, j >= 1), lazily, row by row in i.

    slice_ is a RootSlice or a RealRoots; only .cap and membership are
    read.  A real root has one sign, so for each i only the j that
    _sign_range solves for, a vector >= 0 or <= 0 within the height cap,
    are tested.
    """
    cap = slice_.cap
    max_i = cap // max(height(ar), 1) + 1
    max_j = cap // max(height(br), 1) + 1
    for i in range(1, max_i + 1):
        ia = [i * x for x in ar]
        for sign in (1, -1):
            for j in _sign_range(ia, br, sign, cap, max_j):
                v = tuple(x + j * y for x, y in zip(ia, br))
                if v in slice_:
                    yield v


def _interval_truncated(slice_, a, b):
    """True unless the pair is prenilpotent and the slice cap reaches its
    interval_exact_cap, i.e. unless the slice lists the whole interval."""
    try:
        pre = is_prenilpotent(slice_.gcm, a, b)
    except OppositePair:
        pre = False
    need = interval_exact_cap(slice_.two_spherical, a.root, b.root)
    return not (pre and need is not None and slice_.cap >= need)


def closed_interval(slice_, a, b):
    """All slice roots expressible as i*a + j*b with integers i, j >= 1,
    with the truncation flag.

    slice_ is a RootSlice or a RealRoots; only .gcm, .cap, .two_spherical
    and membership are read.  This lists the whole interval; to decide
    whether it is provably empty, interval_is_empty checks truncation
    first and stops at the first root.
    """
    return IntervalResult(_interval_scan(slice_, a.root, b.root), _interval_truncated(slice_, a, b))


def interval_is_empty(slice_, a, b):
    """True iff the slice holds the pair's whole closed interval and it has
    no root: closed_interval(slice_, a, b) is not truncated and empty.

    Checks truncation first, so a truncated interval is never scanned, and
    stops the scan at the first root it finds.  Prenilpotency errors other
    than OppositePair (SignMismatch) propagate, as from closed_interval.
    """
    if _interval_truncated(slice_, a, b):
        return False
    return next(_interval_scan(slice_, a.root, b.root), None) is None


def supports_disjoint(a_root, b_root):
    return all(x == 0 or y == 0 for x, y in zip(a_root, b_root))


def opposite_signs(a_root, b_root):
    pos_a = all(c >= 0 for c in a_root)
    pos_b = all(c >= 0 for c in b_root)
    return pos_a != pos_b

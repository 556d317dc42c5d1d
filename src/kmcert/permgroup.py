"""Orders of permutation groups by deterministic Schreier-Sims.

`schreier_sims_order` builds a base and strong generating set (Sims 1970;
Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, 2005,
section 4.4.2) and returns the product of the basic orbit lengths.  Nothing
is random: every Schreier generator of every level is stripped through the
levels below it, so the order is exact.  `vector_permutation` turns an
invertible matrix over F_q into the permutation it induces on the nonzero
row vectors, which is how `chevalley.sigma_generation_report` orders a
matrix group without listing it.

A permutation of 0..m-1 is the tuple of its images; products act on the
right, so `_compose(a, b)` is "a, then b".
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

from .errors import SoundnessCheckFailed


def vector_permutation(g, n, q):
    """The permutation v -> v g of the q^n - 1 nonzero row vectors of F_q^n.

    g is an n x n matrix over Z/q, q prime, as a flat row-major tuple.  The
    vector v is point sum_k v_k q^(n-1-k) - 1.  The action is faithful: the
    image of the unit vector e_i is row i of g, so the permutation determines
    g, and the group the permutations generate has the order of the matrix
    group.  Raises SoundnessCheckFailed unless g permutes the nonzero vectors,
    that is unless g is invertible.
    """
    cols = [g[j::n] for j in range(n)]
    images = []
    for v in itertools.islice(itertools.product(range(q), repeat=n), 1, None):
        code = 0
        for col in cols:
            code = code * q + sum(map(int.__mul__, v, col)) % q
        images.append(code - 1)
    perm = tuple(images)
    if -1 in perm or len(set(perm)) != len(perm):
        raise SoundnessCheckFailed(f"matrix {g} does not permute the nonzero vectors of F_{q}^{n}")
    return perm


def _compose(a, b):
    # a group with an element other than the identity acts on two points or
    # more, so the getter returns a tuple; it is about four times as fast as
    # a map over a
    return itemgetter(*a)(b)


def _inverse(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


class _Level:
    """One base point with its strong generators and their orbit.

    uinv[p] is the inverse of a transversal element that maps the base point
    to p, for every p in the orbit; the element itself is rebuilt when a
    Schreier generator at p needs it.  `checked` holds the (point, generator
    index) pairs whose Schreier generator is known to lie in the next level's
    group.
    """

    __slots__ = ("base", "gens", "inverses", "uinv", "checked")

    def __init__(self, base, ident):
        self.base = base
        self.gens = []
        self.inverses = []
        self.uinv = {base: ident}
        self.checked = set()

    def add(self, g):
        """Add a generator and extend the orbit breadth-first."""
        self.gens.append(g)
        self.inverses.append(_inverse(g))
        uinv, checked = self.uinv, self.checked
        queue = list(uinv)
        for p in queue:
            for k, (x, xinv) in enumerate(zip(self.gens, self.inverses)):
                image = x[p]
                if image not in uinv:
                    uinv[image] = _compose(xinv, uinv[p])
                    checked.add((p, k))  # its Schreier generator is the identity
                    queue.append(image)

    def first_residue(self, below, ident):
        """The first Schreier generator that does not strip to the identity
        through the levels below, as (residue, index in below), or None."""
        uinv, checked = self.uinv, self.checked
        for p, wp in uinv.items():
            up = None
            for k, x in enumerate(self.gens):
                if (p, k) in checked:
                    continue
                checked.add((p, k))
                if up is None:
                    up = _inverse(wp)
                h = _compose(_compose(up, x), uinv[x[p]])
                if h == ident:
                    continue
                h, j = _strip(h, below)
                if j < len(below) or h != ident:
                    return h, j
        return None


def _strip(h, levels):
    """Sift h through the levels: (what is left, index of the level where it
    left the orbit, or len(levels))."""
    for j, level in enumerate(levels):
        w = level.uinv.get(h[level.base])
        if w is None:
            return h, j
        h = _compose(h, w)
    return h, len(levels)


def schreier_sims_order(generators):
    """Order of the group the permutations (tuples of one length) generate."""
    gens = list(dict.fromkeys(generators))
    if not gens:
        return 1
    ident = tuple(range(len(gens[0])))
    gens = [g for g in gens if g != ident]
    levels = []
    for g in gens:
        if all(g[level.base] == level.base for level in levels):
            levels.append(_Level(next(p for p, x in enumerate(g) if x != p), ident))
    for i, level in enumerate(levels):
        for g in gens:
            if all(g[low.base] == low.base for low in levels[:i]):
                level.add(g)
    # every generator moves some base point, and each level holds the
    # generators that fix the base points before it.  Check the levels from
    # the last to the first; a residue joins the levels after the one it came
    # from, up to where it left an orbit, and checking resumes at that level
    i = len(levels) - 1
    while i >= 0:
        found = levels[i].first_residue(levels[i + 1 :], ident)
        if found is None:
            i -= 1
            continue
        h, j = found
        j += i + 1
        if j == len(levels):
            levels.append(_Level(next(p for p, x in enumerate(h) if x != p), ident))
        for level in levels[i + 1 : j + 1]:
            level.add(h)
        i = j
    return math.prod(len(level.uinv) for level in levels)

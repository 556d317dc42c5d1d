"""Generalized Cartan matrices: validation, classification, derived data.

A generalized Cartan matrix (GCM) A = (a_ij) of size d satisfies

  (a) integer entries,
  (b) a_ii = 2,
  (c) a_ij <= 0 for i != j,
  (d) a_ij = 0  iff  a_ji = 0.

Classification into Spherical / Affine / Indefinite is defined by exact
integer principal minors (no floating point):

  * an indecomposable GCM is Spherical iff every principal minor is > 0,
  * Affine iff det = 0 and every proper principal minor is > 0,
  * Indefinite otherwise.

Evaluating that definition takes all 2^d principal minors; the tests keep
it as their oracle (tests/conftest.py).  classify reaches the same verdict
in O(d^3) (Kac, *Infinite-dimensional Lie algebras*, ch. 4): indecomposable
matrices of finite and affine type are symmetrizable, so a matrix without a
symmetrizer is Indefinite.  With positive integers e_i such that
E.A = (e_i a_ij) is symmetric, the principal minors of E.A are those of A
times positive factors, so A is Spherical iff E.A is positive definite and
Affine iff E.A is positive semidefinite of corank 1.  Fraction-free
(Bareiss) elimination of E.A yields the leading principal minors
D_1, ..., D_d as its pivots and stops at the first D_k <= 0: Spherical iff
every D_k > 0, Affine iff D_1, ..., D_{d-1} > 0 and D_d = 0 (a positive
definite leading block of size d-1 and a zero determinant force positive
semidefinite corank 1), Indefinite otherwise.

A decomposable matrix is Spherical iff all its indecomposable components
are; any other decomposable matrix is reported Indefinite (the Affine
label is reserved for indecomposable matrices).  One elimination decides
this too: E.A is block diagonal up to the order of the vertices, so it is
positive definite iff every component's block is, and Sylvester's criterion
holds in any vertex order.  A matrix without a symmetrizer has a component
without one, so it is Indefinite; classify eliminates every matrix once and
reports an Affine pivot pattern on a decomposable matrix as Indefinite.

Indices in the public API are 1-based throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    AxiomViolation,
    BadM,
    EmptyIndexSet,
    IndexOutOfRange,
    NotTwoSpherical,
    ParseError,
)

SPHERICAL = "Spherical"
AFFINE = "Affine"
INDEFINITE = "Indefinite"


def validate_gcm(rows):
    """Check the GCM axioms; return the matrix as a tuple of tuples.

    Raises AxiomViolation with the offending position (1-based) otherwise.
    """
    if not rows:
        raise AxiomViolation("matrix is empty")
    d = len(rows)
    mat = []
    for i, row in enumerate(rows, start=1):
        if len(row) != d:
            raise AxiomViolation(f"row {i} has length {len(row)}, expected {d}", (i, None))
        for j, e in enumerate(row, start=1):
            if not isinstance(e, int) or isinstance(e, bool):
                raise AxiomViolation(f"entry ({i},{j}) is not an integer", (i, j))
        mat.append(tuple(row))
    for i in range(d):
        if mat[i][i] != 2:
            raise AxiomViolation(f"diagonal entry ({i+1},{i+1}) is {mat[i][i]}, expected 2", (i + 1, i + 1))
        for j in range(d):
            if i == j:
                continue
            if mat[i][j] > 0:
                raise AxiomViolation(f"off-diagonal entry ({i+1},{j+1}) is positive", (i + 1, j + 1))
            if (mat[i][j] == 0) != (mat[j][i] == 0):
                raise AxiomViolation(
                    f"zero pattern not symmetric at ({i+1},{j+1})", (i + 1, j + 1)
                )
    return tuple(mat)


def parse_gcm_text(text):
    """Parse the plain text matrix format: first line d, then d integer rows.

    Blank lines and lines starting with '#' are ignored.  Raises ParseError
    with a 1-based line (and column where determinable) on bad input.
    """
    lines = text.splitlines()
    meaningful = [
        (idx + 1, line) for idx, line in enumerate(lines) if line.strip() and not line.strip().startswith("#")
    ]
    if not meaningful:
        raise ParseError("empty input", line=1)
    head_line, head = meaningful[0]
    tok = head.split()
    if len(tok) != 1:
        raise ParseError("first line must contain the single integer d", line=head_line)
    try:
        d = int(tok[0])
    except ValueError:
        raise ParseError(f"cannot read dimension {tok[0]!r}", line=head_line, col=head.index(tok[0]) + 1)
    if d < 1:
        raise ParseError("dimension must be >= 1", line=head_line)
    body = meaningful[1:]
    if len(body) != d:
        raise ParseError(f"expected {d} matrix rows, found {len(body)}", line=head_line)
    rows = []
    for lineno, line in body:
        toks = line.split()
        if len(toks) != d:
            raise ParseError(f"expected {d} entries, found {len(toks)}", line=lineno)
        row = []
        pos = 0
        for t in toks:
            col = line.index(t, pos) + 1
            pos = col - 1 + len(t)
            try:
                row.append(int(t))
            except ValueError:
                raise ParseError(f"bad integer {t!r}", line=lineno, col=col)
        rows.append(row)
    try:
        return validate_gcm(rows)
    except AxiomViolation as exc:
        line = head_line
        if exc.position is not None and exc.position[0] is not None:
            line = body[exc.position[0] - 1][0]
        raise ParseError(str(exc), line=line)


def neighbours(gcm, i):
    """1-based neighbour set of vertex i in the Dynkin diagram."""
    d = len(gcm)
    if not 1 <= i <= d:
        raise IndexOutOfRange(f"vertex {i} out of range 1..{d}")
    return {j + 1 for j in range(d) if j != i - 1 and gcm[i - 1][j] != 0}


def components(gcm):
    """Connected components of the Dynkin diagram as sorted 1-based tuples."""
    d = len(gcm)
    seen = set()
    out = []
    for start in range(1, d + 1):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in neighbours(gcm, v):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return out


def is_indecomposable(gcm):
    return len(components(gcm)) == 1


def submatrix(gcm, index_set):
    """Principal submatrix on a nonempty 1-based index set (any iterable)."""
    idx = sorted(set(index_set))
    if not idx:
        raise EmptyIndexSet("index set is empty")
    d = len(gcm)
    for i in idx:
        if not 1 <= i <= d:
            raise IndexOutOfRange(f"index {i} out of range 1..{d}")
    return tuple(tuple(gcm[i - 1][j - 1] for j in idx) for i in idx)


def symmetrizer(gcm):
    """Positive integers (e_1, ..., e_d) with e_i a_ij = e_j a_ji, or None.

    Each connected component is scaled from its first vertex along the
    Dynkin diagram; the result is None when some edge disagrees.
    """
    d = len(gcm)
    e = [None] * d
    for start in range(d):
        if e[start] is not None:
            continue
        e[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(d):
                if j == i or not gcm[i][j]:
                    continue
                ej = e[i] * gcm[i][j] / gcm[j][i]
                if e[j] is None:
                    e[j] = ej
                    stack.append(j)
                elif e[j] != ej:
                    return None
    scale = math.lcm(*(f.denominator for f in e))
    ints = [int(f * scale) for f in e]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def _classify_indecomposable(gcm, e):
    """Kind of a gcm with positive symmetrizer e (or None), read as if it
    were indecomposable; classify relabels Affine on a decomposable one."""
    if e is None:
        return INDEFINITE
    d = len(gcm)
    a = [[e[i] * x for x in row] for i, row in enumerate(gcm)]
    prev = 1
    for k in range(d):
        pivot = a[k][k]  # the leading principal minor of size k + 1
        if pivot <= 0:
            return AFFINE if pivot == 0 and k == d - 1 else INDEFINITE
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return SPHERICAL


def max_offdiag(gcm):
    """M(A): the largest |a_ij| over i != j (0 for d = 1)."""
    d = len(gcm)
    return max((abs(gcm[i][j]) for i in range(d) for j in range(d) if i != j), default=0)


def is_two_spherical(gcm):
    d = len(gcm)
    return all(gcm[i][j] * gcm[j][i] <= 3 for i in range(d) for j in range(d) if i != j)


def critical_order(d, M):
    """Least admissible ideal-index threshold n(A) for rank d and bound M.

    Defined for d >= 2 and M in {1, 2, 3}:
      M = 1 -> (2d-2)^2,  M = 2 -> 3(2d-2)^4,  M = 3 -> 188(2d-2)^16.
    """
    if d < 2:
        raise BadM(f"rank {d} < 2")
    b = 2 * d - 2
    if M <= 1:
        return b**2
    if M == 2:
        return 3 * b**4
    if M == 3:
        return 188 * b**16
    raise BadM(f"M = {M} > 3 has no admissible threshold")


class GcmClassification:
    """Classification record; emit JSON via .as_dict().

    symmetrizer is the matrix's `symmetrizer` (or None); it is not emitted,
    and lets a caller reuse it rather than compute it again.
    """

    __slots__ = (
        "kind", "indecomposable", "two_spherical", "simply_laced", "M", "nA", "symmetrizer"
    )

    def __init__(self, kind, indecomposable, two_spherical, simply_laced, M, nA, symmetrizer):
        self.kind = kind
        self.indecomposable = indecomposable
        self.two_spherical = two_spherical
        self.simply_laced = simply_laced
        self.M = M
        self.nA = nA
        self.symmetrizer = symmetrizer

    def as_dict(self):
        return {
            "kind": self.kind,
            "indecomposable": self.indecomposable,
            "two_spherical": self.two_spherical,
            "simply_laced": self.simply_laced,
            "M": self.M,
            "nA": self.nA,
        }

    def __repr__(self):
        return f"GcmClassification({self.as_dict()!r})"


def classify(gcm):
    """Full classification of a validated GCM."""
    d = len(gcm)
    indecomposable = is_indecomposable(gcm)
    M = max_offdiag(gcm)
    two_spherical = is_two_spherical(gcm)
    # a_ij = 0 iff a_ji = 0, so every a_ij * a_ji <= 1 iff every nonzero
    # off-diagonal entry is -1
    simply_laced = M <= 1
    e = symmetrizer(gcm)
    kind = _classify_indecomposable(gcm, e)
    if kind == AFFINE and not indecomposable:
        kind = INDEFINITE
    nA = None
    if two_spherical and indecomposable and d >= 2 and M <= 3:
        nA = critical_order(d, M)
    return GcmClassification(kind, indecomposable, two_spherical, simply_laced, M, nA, e)


def require_two_spherical(gcm):
    if not is_two_spherical(gcm):
        raise NotTwoSpherical("matrix is not 2-spherical (some a_ij * a_ji > 3)")

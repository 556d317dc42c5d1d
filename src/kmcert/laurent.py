"""Laurent polynomial/series scalars over Z/q and windowed Laurent matrices.

Scalars are dicts {degree: coefficient} in the variable t, zero coefficients
dropped, empty dict = 0.  The same representation serves truncated series in
t^{-1}: the valuation of a nonzero scalar is its maximal degree.
"""

from __future__ import annotations

from .errors import TypeMismatch, WindowBreach


def lp_canon(p, q):
    return {d: c % q for d, c in p.items() if c % q}


def lp_add(q, *parts):
    """Sum of any number of scalars in one pass."""
    out = {}
    for part in parts:
        for d, c in part.items():
            s = (out.get(d, 0) + c) % q
            if s:
                out[d] = s
            else:
                out.pop(d, None)
    return out


def lp_scale(a, r, q, k=0):
    """Multiply by r * t^k."""
    out = {}
    for d, c in a.items():
        v = c * r % q
        if v:
            out[d + k] = v
    return out


def lp_mul(a, b, q):
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = d1 + d2
            out[d] = (out.get(d, 0) + c1 * c2) % q
    return {d: c for d, c in out.items() if c}


def lp_valuation(a):
    """Max degree present, None for 0 (None playing -infinity)."""
    return max(a) if a else None


def lp_leading(a):
    """(degree, coefficient) of the top term, None for 0."""
    if not a:
        return None
    d = max(a)
    return (d, a[d])


class LaurentMatrixElem:
    """d x d matrix of Laurent polynomials mod q inside a degree window.

    Degrees must stay within [-window, window]; a product that would leave
    the window raises WindowBreach rather than truncating.
    """

    __slots__ = ("d", "q", "window", "entries")

    def __init__(self, d, q, window, entries=None):
        self.d = d
        self.q = q
        self.window = window
        if entries is None:
            entries = {(i, i): {0: 1} for i in range(1, d + 1)}
        self.entries = {
            pos: dict(p) for pos, p in entries.items() if any(c % q for c in p.values())
        }
        for pos, p in self.entries.items():
            self.entries[pos] = lp_canon(p, q)
            for deg in self.entries[pos]:
                if abs(deg) > window:
                    raise WindowBreach(deg, window)

    @classmethod
    def elementary(cls, d, q, window, i, j, poly):
        """Identity plus poly at entry (i, j), 1-based, i != j."""
        base = {(k, k): {0: 1} for k in range(1, d + 1)}
        base[(i, j)] = poly
        return cls(d, q, window, base)

    def __mul__(self, other):
        if not isinstance(other, LaurentMatrixElem):
            return NotImplemented
        if (self.d, self.q, self.window) != (other.d, other.q, other.window):
            raise TypeMismatch("laurent matrix shape/ring mismatch")
        cells = {}
        for (i, j), p in self.entries.items():
            for (k, l), r in other.entries.items():
                if j == k:
                    cells.setdefault((i, l), []).append(lp_mul(p, r, self.q))
        out = {pos: lp_add(self.q, *parts) for pos, parts in cells.items()}
        return LaurentMatrixElem(self.d, self.q, self.window, out)

    def is_identity(self):
        for (i, j), p in self.entries.items():
            if i == j:
                if p != {0: 1}:
                    return False
            elif p:
                return False
        return len(self.entries) == self.d

    def __eq__(self, other):
        return (
            isinstance(other, LaurentMatrixElem)
            and self.d == other.d
            and self.q == other.q
            and self.entries == other.entries
        )

    def __hash__(self):
        items = tuple(
            (pos, tuple(sorted(p.items()))) for pos, p in sorted(self.entries.items())
        )
        return hash((self.d, self.q, items))

    def __repr__(self):
        return f"LaurentMatrixElem(d={self.d}, q={self.q}, entries={self.entries!r})"

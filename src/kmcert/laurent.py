"""Laurent polynomial/series scalars over Z/q and windowed Laurent matrices.

Scalars are dicts {degree: coefficient} in the variable t, zero coefficients
dropped, empty dict = 0.  The same representation serves truncated series in
t^{-1}: the valuation of a nonzero scalar is its maximal degree.
"""

from __future__ import annotations

from .errors import TypeMismatch, WindowBreach


_ONE = {0: 1}


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
        q, window = self.q, self.window
        rows = {}  # the right factor's entries by row, in entry order
        for (k, l), r in other.entries.items():
            rows.setdefault(k, []).append((l, r))
        cells = {}
        for (i, j), p in self.entries.items():
            for l, r in rows.get(j, ()):
                # entries are canonical, so a factor {0: 1} leaves the other
                # as it is; the product shares that dict, which nothing mutates
                part = r if p == _ONE else p if r == _ONE else lp_mul(p, r, q)
                cells.setdefault((i, l), []).append(part)
        # every part is canonical (reduced mod q, no zeros), so a single part
        # is its own sum; only the empty sums and the window are left to check
        out = {}
        for pos, parts in cells.items():
            p = parts[0] if len(parts) == 1 else lp_add(q, *parts)
            if p:
                for deg in p:
                    if abs(deg) > window:
                        raise WindowBreach(deg, window)
                out[pos] = p
        res = LaurentMatrixElem.__new__(LaurentMatrixElem)
        res.d, res.q, res.window, res.entries = self.d, q, window, out
        return res

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

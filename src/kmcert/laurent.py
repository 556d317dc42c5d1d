"""Laurent polynomial/series scalars over Z/q and windowed Laurent matrices.

Scalars are dicts {degree: coefficient} in the variable t, zero coefficients
dropped, empty dict = 0.  The same representation serves truncated series in
t^{-1}: the valuation of a nonzero scalar is its maximal degree.

A d x d Laurent matrix is a dict {(row, column): scalar}, 1-based, holding
only its nonzero cells, each scalar canonical (`lp_canon`).  Degrees stay
within [-window, window]: a product that would leave the window raises
WindowBreach rather than truncating.  A matrix does not name its d, q or
window, so each check multiplies only the matrices it built itself, and two
matrices are equal exactly when their dicts are.
"""

from __future__ import annotations

from .errors import WindowBreach


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


def _check_window(p, window):
    for deg in p:
        if abs(deg) > window:
            raise WindowBreach(deg, window)


def lm_elementary(d, q, window, i, j, poly):
    """Identity plus poly at cell (i, j), 1-based, i != j."""
    m = {(k, k): {0: 1} for k in range(1, d + 1)}
    poly = lp_canon(poly, q)
    if poly:
        _check_window(poly, window)
        m[(i, j)] = poly
    return m


def lm_mul(a, b, q, window):
    """Product of two Laurent matrices built with the same d, q and window."""
    rows = {}  # b's cells by row, in cell order
    for (k, l), r in b.items():
        rows.setdefault(k, []).append((l, r))
    cells = {}
    for (i, j), p in a.items():
        for l, r in rows.get(j, ()):
            # cells are canonical, so a factor {0: 1} leaves the other as it
            # is; the product shares that dict, which nothing mutates
            part = r if p == _ONE else p if r == _ONE else lp_mul(p, r, q)
            cells.setdefault((i, l), []).append(part)
    # every part is canonical (reduced mod q, no zeros), so a single part is
    # its own sum; only the empty sums and the window are left to check
    out = {}
    for pos, parts in cells.items():
        p = parts[0] if len(parts) == 1 else lp_add(q, *parts)
        if p:
            _check_window(p, window)
            out[pos] = p
    return out

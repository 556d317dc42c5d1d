"""Laurent polynomial scalars over Z/q and windowed Laurent matrices.

Scalars are dicts {degree: coefficient} in the variable t, coefficients in
1..q-1, zero coefficients dropped, empty dict = 0.

A d x d Laurent matrix M is stored as its offset from the identity, M - I: a
dict {(row, column): scalar}, 1-based, holding only the nonzero cells of the
offset, each scalar canonical (`lp_canon`).  The identity is {}, and a
diagonal cell is allowed ({0: q - 1} is a zero diagonal entry).  Degrees stay
within [-window, window]: a product that would leave the window raises
WindowBreach rather than truncating.  Degree 0 is inside every window, so a
diagonal entry 1 + x leaves it exactly when x does.  A matrix does not name
its d, q or window, so each check multiplies only the matrices it built
itself, and two matrices are equal exactly when their dicts are.
"""

from __future__ import annotations

from .errors import WindowBreach


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


def lm_elementary(q, window, i, j, poly):
    """The offset of the elementary matrix with poly at cell (i, j), 1-based,
    i != j: {(i, j): poly}, or the identity {} when poly is 0 mod q."""
    poly = lp_canon(poly, q)
    if not poly:
        return {}
    _check_window(poly, window)
    return {(i, j): poly}


def lm_mul(a, b, q, window):
    """The offset of (I + a)(I + b), namely a + b + ab, for offsets built
    with the same q and window.  Only the stored cells are read."""
    cells = {pos: [p] for pos, p in a.items()}
    for pos, r in b.items():
        cells.setdefault(pos, []).append(r)
    for (i, j), p in a.items():
        for (k, l), r in b.items():
            if j == k:
                cells.setdefault((i, l), []).append(lp_mul(p, r, q))
    # every part is canonical (reduced mod q, no zeros), so a single part is
    # its own sum and the product may share it with a factor, which nothing
    # mutates; only the empty sums and the window are left to check
    out = {}
    for pos, parts in cells.items():
        p = parts[0] if len(parts) == 1 else lp_add(q, *parts)
        if p:
            _check_window(p, window)
            out[pos] = p
    return out

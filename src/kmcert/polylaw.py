"""Polynomial laws over Z: symbolic letter values and compiled evaluation.

`chevalley.UnipotentEngine` runs its collector on `Poly` letter values
(indeterminates) to derive the product and inverse laws of U+.  The
structure constants are integers, so each law is a polynomial over Z,
derived once per type and killed set and shared by every modulus;
`law_rows` freezes the collected coordinates and `compile_law` turns a
law's rows, reduced mod q, into one straight-line function of the integer
values.  `chevalley.mat_mul` compiles the n x n matrix product the same
way, since it is one more such law, and `symrep` each shear of packed
Laurent vectors, a linear law over Z left unreduced.  This code sits
outside `chevalley` because, with no cached bytecode, compiling the
largest module sets the peak memory of a CLI call: a `chevalley.py` grown
by this code raised it by about 0.5 MB.
"""

from __future__ import annotations

from functools import reduce
from operator import mul

from .errors import SoundnessCheckFailed


class Poly:
    """Polynomial over Z: {monomial: coefficient}.

    A monomial is the sorted tuple of its variable indices, each listed once
    per unit of its exponent (v_1^2 v_3 is (1, 1, 3)); its value is the
    product of the values at those indices.  Only the arithmetic
    `UnipotentEngine.collect` applies to letter values is defined (+, * by a
    polynomial or an integer, ** by a positive integer, unary - and truth),
    so the collector runs unchanged on indeterminate letters.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def var(cls, i):
        return cls({(i,): 1})

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly({m: c * other for m, c in self.terms.items()})
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        # k >= 1, as in every commutator table entry
        return reduce(mul, [self] * k)


def law_rows(coords):
    """Coordinates (each a Poly or 0) as rows of (monomial, coefficient) pairs."""
    return tuple(tuple(v.terms.items()) if v else () for v in coords)


def compile_law(rows, reduce=True):
    """One function (v, q) -> tuple: the coordinates of `law_rows` at v, mod q.

    Each coordinate becomes one expression such as (v[0] + 2*v[3]*v[7]) % q;
    with reduce=False it is left unreduced, v[0] + 2*v[3]*v[7].  The source
    is built only from the integer indices and coefficients of the rows;
    anything else is refused before it reaches eval.
    """
    coords = []
    for row in rows:
        terms = []
        for m, c in row:
            if type(c) is not int or not all(type(i) is int and i >= 0 for i in m):
                raise SoundnessCheckFailed(f"law term ({m!r}, {c!r}) is not made of integers")
            factors = [f"v[{i}]" for i in m]
            if c != 1 or not factors:
                factors.insert(0, str(c))
            terms.append("*".join(factors))
        expr = " + ".join(terms) or "0"
        coords.append(f"({expr}) % q" if reduce and terms else expr)
    return eval(f"lambda v, q: ({', '.join(coords)},)")

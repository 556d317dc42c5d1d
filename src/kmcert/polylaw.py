"""Polynomial laws over Z: symbolic letter values and compiled evaluation.

`chevalley.UnipotentEngine` runs its collector on `Poly` letter values
(indeterminates) to derive the product and inverse laws of U+.  The
structure constants are integers, so each law is a polynomial over Z,
derived once per type and killed set and shared by every modulus;
`law_rows` freezes the collected coordinates and `compile_law` turns a
law's rows, reduced mod q, into one straight-line function that takes each
operand as its own tuple and applies the law once (`UNARY`, `BINARY`) or
along a chain of earlier results, such as both bracketings of a product of
three.  `chevalley.mat_mul` compiles the n x n matrix product the same way,
since it is one more such law, and `symrep` each shear of packed Laurent
vectors, a linear law over Z left unreduced.  This code sits outside
`chevalley` because, with no cached bytecode, compiling the largest module
sets the peak memory of a CLI call: a `chevalley.py` grown by this code
raised it by about 0.5 MB.
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


# the law applied once, to one operand or to two: chains for `compile_law`
UNARY = (1, ((0,),), (1,))
BINARY = (2, ((0, 1),), (2,))


def compile_law(rows, chain, reduce=True):
    """The law of `law_rows`, mod q, applied along chain as one function.

    chain = (arity, steps, results) gives a function (x0, ..., x{arity-1}, q)
    -> one tuple per result (the tuple itself for one result).  Operands are
    tuples of n = len(rows) integers, numbered from the arguments on, step s
    giving operand arity + s; in a step, monomial index i names coordinate
    i % n of operand step[i // n].  UNARY gives law(a, q), BINARY law(a, b,
    q), and (3, ((0, 1), (3, 2), (1, 2), (0, 5)), (4, 6)) ((gh)k, g(hk)) for
    a product law.  Each coordinate is a local, such as x2_0 = (x0_0 +
    2*x0_3*x1_1) % q, or x0_0 + 2*x0_3*x1_1 with reduce=False.

    The source is built only from the integer indices and coefficients of
    the rows and the chain; anything else, or an index outside its step's
    operands, is refused before any source is built.
    """
    n = len(rows)
    arity, steps, results = chain
    if type(arity) is not int or not all(
        type(o) is int and 0 <= o < arity + s for s, step in enumerate(steps) for o in step
    ) or not all(type(r) is int and 0 <= r < arity + len(steps) for r in results):
        raise SoundnessCheckFailed(f"law chain {chain!r} is not made of earlier operands")
    for row in rows:
        for m, c in row:
            if type(c) is not int or not all(type(i) is int and i >= 0 for i in m):
                raise SoundnessCheckFailed(f"law term ({m!r}, {c!r}) is not made of integers")
            if any(i >= len(step) * n for step in steps for i in m):
                raise SoundnessCheckFailed(f"law index in {m!r} is outside a step of {chain!r}")

    def expr(row, step):
        terms = []
        for m, c in row:
            factors = [f"x{step[i // n]}_{i % n}" for i in m]
            if c != 1 or not factors:
                factors.insert(0, str(c))
            terms.append("*".join(factors))
        body = " + ".join(terms) or "0"
        return f"({body}) % q" if reduce and terms else body

    def names(o):
        return ", ".join(f"x{o}_{c}" for c in range(n)) + ","

    lines = [f"def law({', '.join(f'x{o}' for o in range(arity))}, q):"]
    lines += [f"    {names(o)} = x{o}" for o in range(arity)]
    for s, step in enumerate(steps, arity):
        lines += [f"    x{s}_{c} = {expr(row, step)}" for c, row in enumerate(rows)]
    lines.append("    return " + ", ".join(f"({names(r)})" for r in results))
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["law"]

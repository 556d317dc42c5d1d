"""Named exceptions for the toolkit.

Every precondition failure raises a specific class so callers (and the CLI)
can map failures to diagnostics instead of pattern-matching message strings.
All of these derive from KmcertError; input-syntax problems derive from
ParseError and carry line/column positions.
"""

from __future__ import annotations


class KmcertError(Exception):
    pass


class ParseError(KmcertError):
    """Bad input text. line/col are 1-based; col may be None."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)


class AxiomViolation(KmcertError):
    """Matrix fails one of the generalized Cartan matrix axioms."""

    def __init__(self, message, position=None):
        self.position = position
        super().__init__(message)


class EmptyIndexSet(KmcertError):
    pass


class DimensionMismatch(KmcertError):
    pass


class IndexOutOfRange(KmcertError):
    pass


class CapTooSmall(KmcertError):
    pass


class OppositePair(KmcertError):
    """The pair (a, -a) was passed where a non-opposite pair is required."""


class IsolatedVertex(KmcertError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"Dynkin diagram has isolated vertex {vertex}")


class NotTwoSpherical(KmcertError):
    pass


class BadIndexSet(KmcertError):
    def __init__(self, vertex, message=None):
        self.vertex = vertex
        super().__init__(message or f"index set leaves vertex {vertex} without a neighbour in it")


class CertificationFailed(KmcertError):
    def __init__(self, pair, message=None):
        self.pair = pair
        super().__init__(message or f"no certificate found for pair {pair}")


class BadM(KmcertError):
    pass


class InvertibilityUnmet(KmcertError):
    def __init__(self, unit, ring=None):
        self.unit = unit
        self.ring = ring
        extra = f" in {ring}" if ring is not None else ""
        super().__init__(f"{unit} is not invertible{extra}")


class TypeMismatch(KmcertError):
    pass


class Unsupported(KmcertError):
    pass


class CapExceeded(KmcertError):
    def __init__(self, cap, partial):
        self.cap = cap
        self.partial = partial
        super().__init__(f"closure exceeded cap {cap} ({partial} elements seen)")


class BadModulus(KmcertError):
    pass


class BadN(KmcertError):
    pass


class SoundnessCheckFailed(KmcertError):
    """A built-in soundness check failed: an incomplete commutator table, a
    non-normal quotient, a runaway collection, a conjugation leaving N or
    matching no dictionary, a reflection giving a root two coroots or mixed
    signs, pairings of opposite signs, a ledger cycle or an exhausted
    sampler.  Raised explicitly rather than asserted, so the check also runs
    under python -O."""

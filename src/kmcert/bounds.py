"""Kazhdan-type bound chain and the property (T) certificate.

The orthogonality-constant recursion is

    s_0(m) = 0,   s_i(m) = sqrt(s_{i-1}(m) + 1/m),

with closed-form envelopes s_2(m) < (3/m)^(1/4) and s_4(m) < (188/m)^(1/16).
A configuration of k subgroups with pairwise orthogonality constants below
1/(k-1) yields property (T), so the certificate compares each Sigma pair
bound with the threshold 1/(|Sigma| - 1).  Comparisons of s_i(m) against a
rational threshold T are exact: s_i(m) < T iff s_{i-1}(m) < T^2 - 1/m, and
the chain bottoms out at s_0 = 0, all in rational arithmetic.  Float values
are reported for display only.

Rings are described by a tiny grammar:

    Z/35         the integers modulo 35
    Zloc!4       Z with 1..4 factorially inverted, i.e. Z[1/4!]
    Zi!4         the Gaussian integers with 1/4! adjoined
    poly(SPEC)   univariate polynomials over SPEC

m(R) is the least index of a proper finite-index ideal:

    Z/q          least prime factor of q
    Z[1/n!]      least prime > n
    Z[i, 1/n!]   least prime-power residue-field size over primes of
                 residue characteristic > n (p for split p = 1 mod 4,
                 p^2 for inert p = 3 mod 4, 2 when the ramified prime
                 survives)
    R[t]         m(R): contracting a finite-index ideal of R[t] to R can
                 only shrink the index, and extending one preserves it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import sigma as sg
from .errors import BadM, BadModulus, InvertibilityUnmet, KmcertError, ParseError, TypeMismatch
from .gcm import classify
from .roots import enumerate_real_roots  # noqa: F401  bench/tracer.py wraps it here

A1XA1 = "A1xA1"
A2_TYPE = "A2"
B2_TYPE = "B2"
G2_TYPE = "G2"

_RANK2_BY_PRODUCT = {0: A1XA1, 1: A2_TYPE, 2: B2_TYPE, 3: G2_TYPE}
_S_INDEX = {A1XA1: 0, A2_TYPE: 1, B2_TYPE: 2, G2_TYPE: 4}

ALL_BELOW = "AllBelow"
BOUNDARY = "Boundary"
FAILS = "Fails"


# ---------------------------------------------------------------- rings ---


class RingSpec:
    """Base of the ring specs: spec_string, min_ideal_index (m(R)), is_invertible."""


class ZmodN(RingSpec):
    def __init__(self, q):
        if q < 2:
            raise BadModulus(f"modulus {q} < 2")
        self.q = q

    def spec_string(self):
        return f"Z/{self.q}"

    def min_ideal_index(self):
        return least_prime_factor(self.q)

    def is_invertible(self, u):
        return math.gcd(u, self.q) == 1


class LocalizedFactorial(RingSpec):
    """Z[1/n!]: every prime up to n becomes a unit."""

    def __init__(self, n):
        if n < 1:
            raise BadModulus(f"factorial cutoff {n} < 1")
        self.n = n

    def spec_string(self):
        return f"Zloc!{self.n}"

    def min_ideal_index(self):
        return next_prime_above(self.n)

    def is_invertible(self, u):
        return all(p <= self.n for p in prime_factors(u))


class GaussianLocalized(LocalizedFactorial):
    """Z[i, 1/n!]: Gaussian integers with small primes inverted."""

    def spec_string(self):
        return f"Zi!{self.n}"

    def min_ideal_index(self):
        # Residue fields at surviving primes: size 2 at (1+i), p at split
        # primes (p = 1 mod 4), p^2 at inert primes (p = 3 mod 4).  Once a
        # prime reaches the best seen index the scan can stop.
        best = None
        p = self.n
        while True:
            p = next_prime_above(p)
            if best is not None and p >= best:
                return best
            if p == 2:
                size = 2
            elif p % 4 == 1:
                size = p
            else:
                size = p * p
            if best is None or size < best:
                best = size


class PolyExtension(RingSpec):
    def __init__(self, base):
        if not isinstance(base, RingSpec):
            raise TypeMismatch("PolyExtension needs a RingSpec base")
        self.base = base

    def spec_string(self):
        return f"poly({self.base.spec_string()})"

    def min_ideal_index(self):
        return self.base.min_ideal_index()

    def is_invertible(self, u):
        return self.base.is_invertible(u)


def least_prime_factor(q):
    if q < 2:
        raise BadModulus(f"{q} has no prime factor")
    p = 2
    while p * p <= q:
        if q % p == 0:
            return p
        p += 1
    return q


def prime_factors(u):
    if u < 1:
        raise BadModulus(f"{u} < 1")
    out = set()
    p = 2
    while p * p <= u:
        while u % p == 0:
            out.add(p)
            u //= p
        p += 1
    if u > 1:
        out.add(u)
    return out


def is_prime(n):
    return n >= 2 and least_prime_factor(n) == n


def next_prime_above(n):
    p = n + 1
    while not is_prime(p):
        p += 1
    return p


# Largest modulus q of Z/q, and largest factorial cutoff n of Zloc!n and Zi!n,
# the ring parser accepts.  m(Z/q) is the least prime factor of q, found by
# trial division up to sqrt(q): for a prime q just under 10^12 that takes
# about 0.2 s on a 2-vCPU x86-64 virtual machine, and near 10^14 about 1.9 s.
# m(Zloc!n) and m(Zi!n) test primality by trial division from n + 1 up: at
# n = 10^12 they take about 0.1 s and 0.4 s.
RING_MAX_MODULUS = 10**12
# Deepest poly(...) nesting the parser accepts; parsing and every RingSpec
# method recurse once per level.
RING_MAX_POLY_DEPTH = 100


def parse_ring_spec(text):
    """Parse the ring mini-grammar; ParseError carries a 1-based column."""
    s = text.strip()
    offset = text.index(s) if s else 0

    def fail(msg, pos):
        raise ParseError(msg, line=1, col=offset + pos + 1)

    def number(num, what, pos):
        if num.isdigit():
            try:
                return int(num)
            except ValueError:  # a digit int() rejects, such as '²', or too many digits
                pass
        fail(f"bad {what} {num[:20]!r}", pos)

    def cutoff(num, pos):
        n = number(num, "factorial cutoff", pos)
        if n > RING_MAX_MODULUS:
            raise BadModulus(f"factorial cutoff {n} over the limit {RING_MAX_MODULUS}")
        return n

    def parse_at(t, pos, depth=0):
        if t.startswith("poly("):
            if not t.endswith(")"):
                fail("missing closing parenthesis", pos + len(t))
            if depth == RING_MAX_POLY_DEPTH:
                fail(f"poly(...) nested more than {RING_MAX_POLY_DEPTH} deep", pos)
            return PolyExtension(parse_at(t[5:-1], pos + 5, depth + 1))
        if t.startswith("Z/"):
            q = number(t[2:], "modulus", pos + 2)
            if q < 2:
                fail(f"modulus {q} < 2", pos + 2)
            if q > RING_MAX_MODULUS:
                raise BadModulus(f"modulus {q} over the limit {RING_MAX_MODULUS}")
            return ZmodN(q)
        if t.startswith("Zloc!"):
            return LocalizedFactorial(cutoff(t[5:], pos + 5))
        if t.startswith("Zi!"):
            return GaussianLocalized(cutoff(t[3:], pos + 3))
        fail(f"unrecognized ring spec {t!r}", pos)

    if not s:
        raise ParseError("empty ring spec", line=1, col=1)
    return parse_at(s, 0)


# ------------------------------------------------------- bound sequence ---


def s_sequence(m, i):
    """s_i(m) as a float; s_0 = 0, s_i = sqrt(s_{i-1} + 1/m)."""
    if m < 2:
        raise BadModulus(f"m = {m} < 2")
    if not 0 <= i <= 8:
        raise BadM(f"recursion index {i} out of range 0..8")
    s = 0.0
    for _ in range(i):
        s = math.sqrt(s + 1.0 / m)
    return s


def compare_s_to(m, i, threshold):
    """Exact sign of s_i(m) - threshold for a rational threshold.

    Uses the equivalence s_i < T iff s_{i-1} < T^2 - 1/m (valid for T >= 0;
    a negative intermediate threshold settles the comparison immediately
    since every s_j >= 0, and s_j > 0 for j >= 1).
    """
    t = Fraction(threshold)
    inv_m = Fraction(1, m)
    for level in range(i, 0, -1):
        if t < 0:
            return 1
        if t == 0:
            return 1  # s_level > 0 for level >= 1
        t = t * t - inv_m
    # compare s_0 = 0 with t
    if t > 0:
        return -1
    if t == 0:
        return 0
    return 1


def orth_bound(rank2type, m, ring=None):
    """Orthogonality-constant bound for one rank-2 pair type.

    A1xA1 pairs commute (bound 0); A2 pairs give s_1(m); B2 pairs give
    s_2(m) and need 2 invertible; G2 pairs give s_4(m) and need 2 and 3
    invertible.  Invertibility is checked against the ring when given.
    """
    if rank2type not in _S_INDEX:
        raise TypeMismatch(f"unknown rank-2 type {rank2type!r}")
    if ring is not None:
        needed = {B2_TYPE: (2,), G2_TYPE: (2, 3)}.get(rank2type, ())
        for u in needed:
            if not ring.is_invertible(u):
                raise InvertibilityUnmet(u, ring.spec_string())
    return s_sequence(m, _S_INDEX[rank2type])


# ----------------------------------------------------------- certificate ---


class PairBound:
    __slots__ = ("certificate", "rank2type", "bound", "cmp")

    def __init__(self, certificate, rank2type, bound, cmp):
        self.certificate = certificate
        self.rank2type = rank2type
        self.bound = bound
        self.cmp = cmp  # sign of bound - threshold, exact

    def as_dict(self):
        d = self.certificate.as_dict()
        d.update(
            {
                "rank2type": self.rank2type,
                "bound": self.bound,
                "below_threshold": self.cmp < 0,
                "at_threshold": self.cmp == 0,
            }
        )
        return d


class BoundReport:
    def __init__(self, sigma_size, threshold, pair_bounds, verdict):
        self.sigma_size = sigma_size
        self.threshold = threshold  # Fraction
        self.pair_bounds = pair_bounds
        self.verdict = verdict

    def as_dict(self):
        return {
            "sigma_size": self.sigma_size,
            "threshold": float(self.threshold),
            "threshold_exact": f"{self.threshold.numerator}/{self.threshold.denominator}",
            "pairs": [p.as_dict() for p in self.pair_bounds],
            "max_bound": max((p.bound for p in self.pair_bounds), default=0.0),
            "verdict": self.verdict,
        }


def bound_verdict(cmps):
    """AllBelow / Boundary / Fails from exact comparison signs."""
    if any(c > 0 for c in cmps):
        return FAILS
    if any(c == 0 for c in cmps):
        return BOUNDARY
    return ALL_BELOW


def bound_report(gcm, certificates, sigma_size, m, ring=None):
    """Each certificate's bound against 1/(sigma_size - 1); the bound and its
    comparison depend only on the rank-2 type, so each type is done once."""
    threshold = Fraction(1, sigma_size - 1)
    by_type = {}  # rank-2 type -> (bound, cmp)
    pair_bounds = []
    for cert in certificates:
        if cert.kind == sg.COMMUTE:
            rank2 = None
            bound = 0.0
            cmp = -1  # 0 < threshold
        else:
            rank2 = _RANK2_BY_PRODUCT[cert.rank2_product(gcm)]
            if rank2 not in by_type:
                by_type[rank2] = orth_bound(rank2, m, ring), compare_s_to(m, _S_INDEX[rank2], threshold)
            bound, cmp = by_type[rank2]
        pair_bounds.append(PairBound(cert, rank2, bound, cmp))
    verdict = bound_verdict([p.cmp for p in pair_bounds])
    return BoundReport(sigma_size, threshold, pair_bounds, verdict)


class Certificate:
    """Outcome of certify_property_T: hypotheses, Sigma, bounds, verdict."""

    def __init__(self, gcm, ring, classification, m, hypotheses, sigma, report, verdict):
        self.gcm = gcm
        self.ring = ring
        self.classification = classification
        self.m = m
        self.hypotheses = hypotheses  # list of (name, passed, detail)
        self.sigma = sigma
        self.report = report
        self.verdict = verdict

    @property
    def certified(self):
        return self.verdict == "certified"

    def as_dict(self):
        return {
            "gcm": {"d": len(self.gcm), **self.classification.as_dict()},
            "ring": self.ring.spec_string(),
            "m": self.m,
            "hypotheses": [
                {"name": n, "pass": p, "detail": d} for n, p, d in self.hypotheses
            ],
            "sigma": None if self.sigma is None else self.sigma.as_dict(),
            "bound_report": None if self.report is None else self.report.as_dict(),
            "verdict": self.verdict,
        }


def certify_property_T(gcm, ring):
    """Run the full hypothesis checklist; failures are reported, not thrown.

    Checks, in order: d >= 2; indecomposable; 2-spherical; M <= 3; every
    positive integer up to M invertible in R; m(R) >= n(A); every Sigma
    pair certified with orthogonality bound below 1/(|Sigma| - 1).  The
    verdict is "certified", "boundary" (some pair bound equals the
    threshold exactly) or "failed".
    """
    cls = classify(gcm)
    d = len(gcm)
    m = ring.min_ideal_index()
    hyps = []
    ok = True

    def check(name, passed, detail):
        nonlocal ok
        hyps.append((name, bool(passed), detail))
        ok = ok and bool(passed)

    check("size", d >= 2, f"d = {d}")
    check("indecomposable", cls.indecomposable, f"components connected: {cls.indecomposable}")
    check("two_spherical", cls.two_spherical, f"max pair product <= 3: {cls.two_spherical}")
    check("M_le_3", cls.M <= 3, f"M = {cls.M}")
    structural = ok

    if ok:
        bad = [u for u in range(2, cls.M + 1) if not ring.is_invertible(u)]
        check(
            "small_integers_invertible",
            not bad,
            "all of 2..M invertible" if not bad else f"not invertible: {bad}",
        )
        check("min_ideal_index", m >= cls.nA, f"m = {m}, n(A) = {cls.nA}")

    sigma = None
    report = None
    boundary = False
    if structural:
        try:
            sigma = sg.build_sigma(gcm)
            certs = sg.certify_pairs(sigma, classification=cls)
            check("sigma_certified", True, f"{len(certs)} pairs certified")
            try:
                report = bound_report(gcm, certs, sigma.size, m, ring)
                verdict_b = report.verdict
                check(
                    "orthogonality",
                    verdict_b == ALL_BELOW,
                    f"verdict {verdict_b}, threshold 1/{sigma.size - 1}",
                )
                boundary = verdict_b == BOUNDARY
            except InvertibilityUnmet as exc:
                check("orthogonality", False, str(exc))
        except KmcertError as exc:
            check("sigma_certified", False, f"{type(exc).__name__}: {exc}")

    if ok:
        verdict = "certified"
    elif boundary and all(p for n, p, _ in hyps if n != "orthogonality"):
        verdict = "boundary"
    else:
        verdict = "failed"
    return Certificate(gcm, ring, cls, m, hyps, sigma, report, verdict)

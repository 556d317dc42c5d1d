"""Exact certification toolkit for Kac-Moody groups over rings.

Everything here is integer or rational arithmetic: GCM classification,
real-root slices, the small generating set Sigma with prenilpotency
certificates, the spectral bound chain, rank-2 unipotent engines with
matrix cross-checks, and the symmetric-power / Laurent-series verifier.
Floats only ever appear in displayed bound values, never in decisions.
"""

__version__ = "0.1.0"

"""Exact certification toolkit for Kac-Moody groups over rings.

Everything here is integer or rational arithmetic: GCM classification,
real-root slices, the small generating set Sigma with prenilpotency
certificates, the spectral bound chain, rank-2 unipotent engines with
matrix cross-checks, and the symmetric-power / Laurent-series verifier.
Floats only ever appear in displayed bound values, never in decisions.

The package exports only `__version__`. A submodule is imported when it is
first named, by `import kmcert.chevalley` or as the attribute
`kmcert.chevalley` (PEP 562), so importing the package compiles none of
them.
"""

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    ("bounds", "chevalley", "cli", "errors", "gcm", "permgroup", "polylaw", "report", "roots", "sigma", "symrep")
)


def __getattr__(name):
    if name in _SUBMODULES:
        from importlib import import_module
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Exact certification toolkit for Kac-Moody groups over rings.

Everything here is integer or rational arithmetic: GCM classification,
real-root slices, the small generating set Sigma with prenilpotency
certificates, the spectral bound chain, rank-2 unipotent engines with
matrix cross-checks, and the symmetric-power / Laurent-series verifier.
Floats only ever appear in displayed bound values, never in decisions.
"""

from .errors import KmcertError, ParseError
from .gcm import (
    AFFINE,
    INDEFINITE,
    SPHERICAL,
    GcmClassification,
    classify,
    critical_order,
    parse_gcm_text,
    validate_gcm,
)
from .roots import (
    NOT_PRENILPOTENT,
    PRENILPOTENT,
    RealRoots,
    RootSlice,
    closed_interval,
    enumerate_real_roots,
    is_prenilpotent,
    prenilpotency,
)
from .sigma import (
    COMMUTE,
    RANK_TWO_EMBED,
    PairCertificate,
    SigmaSet,
    build_sigma,
    build_sigma_pseudo,
    certify_pairs,
    verify_certificate,
)
from .bounds import (
    ALL_BELOW,
    BOUNDARY,
    FAILS,
    Certificate,
    bound_report,
    certify_property_T,
    compare_s_to,
    orth_bound,
    parse_ring_spec,
    s_sequence,
)
from .chevalley import (
    QuotientEngine,
    UnipotentEngine,
    affine_pi_check,
    bfs_closure,
    chevalley_report,
    claim_a9_check,
    g2_v4_conjugation_check,
    matrix_realize,
    sigma_generation_report,
)
from .symrep import (
    check_transport,
    ledger_check,
    shear_rows,
    sym_power_oracle,
    symrep_report,
)
from .report import CheckReport

__version__ = "0.1.0"

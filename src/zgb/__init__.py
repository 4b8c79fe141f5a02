"""Zeta-zero ordinates, the reciprocal-ordinate sum A(T), and explicit
two-sided bounds for A(T) - M(T), with completeness-audited zero tables."""

__version__ = "0.1.0"

from .bounds import (
    BoundConstants,
    GAMMA1,
    antideriv_f,
    antideriv_r,
    big_f,
    big_r,
    compute_constants,
    e_frak,
    e_frak_sandwich,
    lower_bound_a,
    main_term,
    tail_lower,
    tail_upper,
    upper_bound_a,
)
from .errors import (
    AuditError,
    ConvergenceError,
    CoverageError,
    DomainError,
    TableFormatError,
    ValidationError,
    ZgbError,
)
from .zeros import (
    AuditReport,
    ZeroOrdinate,
    ZeroTable,
    audit_completeness,
    build_table,
    count_up_to,
    isolate_zeros,
    load_table,
    refine_zero,
    save_table,
)
from .zeta import hardy_z, rs_theta
from .summation import (
    PartialSumCheck,
    SweepResult,
    SweepRecords,
    TheoremCheck,
    a_of_t,
    partial_sum,
    theorem_sweep,
)
from .ingestion import ValidationReport, cross_validate, parse_reference

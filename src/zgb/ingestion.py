"""Published zero-ordinate tables as reference tables, and cross-validation
against computed tables.

zgb.zeros reads the table file and infers its error bound from the printed
precision, never assuming one; a reference file adds an optional declared
ordinate count, and its coverage ends just past its last printed ordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CoverageError, TableFormatError, ValidationError
from .zeros import ZeroTable, _read_ordinates, audit_completeness


def parse_reference(path: str | Path,
                    declared_count: int | None = None) -> ZeroTable:
    """Parse a published ordinate file into a ZeroTable, audited at its coverage height."""
    gammas, abs_err, _ = _read_ordinates(path)
    if declared_count is not None and declared_count != gammas.size:
        raise TableFormatError(f"declared count {declared_count} != parsed count {gammas.size}")
    # coverage reaches just past the last printed ordinate so the inclusive
    # boundary convention survives the file's rounding
    table = ZeroTable(gammas, np.full(gammas.size, abs_err),
                      float(gammas[-1]) + abs_err, "ingested")
    table.audit = audit_completeness(table)
    return table


@dataclass(frozen=True)
class ValidationReport:
    """Per-index agreement between a computed and a reference table."""

    n_compared: int
    max_abs_diff: float
    worst_index: int
    tolerance: float
    passed: bool
    boundary_note: str


def cross_validate(computed: ZeroTable, reference: ZeroTable) -> ValidationReport:
    """Compare two tables ordinate by ordinate over their common coverage.

    A count mismatch over the common range is fatal unless the stragglers sit
    within combined error of the coverage boundary (a zero straddling the cut
    is rounding, not a missed zero).
    """
    hi = min(computed.t_max, reference.t_max)
    if hi <= 14.0:
        raise CoverageError("tables have no zero ordinates in common coverage")
    n_c = computed.count_at(hi)
    n_r = reference.count_at(hi)
    n = min(n_c, n_r)
    if n == 0:
        raise CoverageError("no comparable ordinates in common coverage")

    tolerance = float(computed.abs_err.max(initial=0.0) + reference.abs_err.max(initial=0.0))

    diffs = np.abs(computed.gammas[:n] - reference.gammas[:n])
    worst = int(np.argmax(diffs))
    max_diff = float(diffs[worst])
    aligned = max_diff < tolerance

    boundary_note = ""
    if n_c != n_r:
        # excusable only when the shared prefix agrees and the surplus sits
        # within rounding of the coverage boundary; anything else means a
        # genuinely missing or spurious zero
        extra_tab = computed if n_c > n_r else reference
        stragglers = extra_tab.gammas[n:max(n_c, n_r)]
        at_boundary = np.all(np.abs(stragglers - hi) <= 2.0 * max(tolerance, 1e-9))
        if aligned and at_boundary:
            boundary_note = (
                f"{max(n_c, n_r) - n} ordinate(s) within rounding of the "
                f"coverage boundary at {hi:.9f} excluded from comparison"
            )
        else:
            raise ValidationError(
                f"count mismatch over common coverage (0, {hi}]: "
                f"computed {n_c} vs reference {n_r}"
            )
    return ValidationReport(
        n_compared=n,
        max_abs_diff=max_diff,
        worst_index=worst + 1,
        tolerance=tolerance,
        passed=aligned,
        boundary_note=boundary_note,
    )


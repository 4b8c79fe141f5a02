"""Parsing of externally published zero-ordinate tables and cross-validation
against computed tables.

Accepted layouts are plain text with one ordinate per line, either a single
column of decimals or two whitespace-separated columns where the second is
the ordinate (leading index column).  Anything else is a parse error; there
is deliberately no format zoo.  The error bound of ingested data is inferred
from the printed precision, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CoverageError, TableFormatError, ValidationError
from .zeros import ZeroTable, _assemble

_SANITY_FIRST = 14.1347
_SANITY_TOL = 1e-3


def _read_ordinates(path: str | Path,
                    declared_count: int | None = None) -> tuple[list[float], float]:
    """The ordinates of a table file and their common abs_err, 10^-d for the
    fewest decimals d printed on any line."""
    path = Path(path)
    values: list[float] = []
    n_cols = None
    min_decimals = None
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) not in (1, 2):
                raise TableFormatError(
                    f"expected 1 or 2 whitespace-separated fields, got {len(fields)}",
                    line=lineno,
                )
            if n_cols is None:
                n_cols = len(fields)
            elif len(fields) != n_cols:
                raise TableFormatError(
                    f"layout switched from {n_cols} to {len(fields)} fields",
                    line=lineno,
                )
            token = fields[-1]
            try:
                value = float(token)
            except ValueError as exc:
                raise TableFormatError(f"not a decimal: {token!r}", line=lineno) from exc
            if not math.isfinite(value):
                raise TableFormatError(f"non-finite ordinate {token!r}", line=lineno)
            if values and value <= values[-1]:
                raise TableFormatError(
                    f"ordinates must increase strictly: {value} after {values[-1]}",
                    line=lineno,
                )
            dec = len(token.split(".", 1)[1]) if "." in token else 0
            min_decimals = dec if min_decimals is None else min(min_decimals, dec)
            values.append(value)
    if not values:
        raise TableFormatError(f"no ordinates found in {path}")
    if abs(values[0] - _SANITY_FIRST) > _SANITY_TOL:
        raise TableFormatError(
            f"sanity gate: first ordinate {values[0]} is not ~{_SANITY_FIRST}",
            line=1,
        )
    if declared_count is not None and declared_count != len(values):
        raise TableFormatError(
            f"declared count {declared_count} != parsed count {len(values)}"
        )
    return values, 10.0 ** (-int(min_decimals or 0))


def parse_reference(path: str | Path,
                    declared_count: int | None = None) -> ZeroTable:
    """Parse a published ordinate file into a ZeroTable, audited at its coverage height."""
    gammas, abs_err = _read_ordinates(path, declared_count)
    # coverage reaches just past the last printed ordinate so the inclusive
    # boundary convention survives the file's rounding
    return _assemble(((g, abs_err) for g in gammas),
                     t_max=gammas[-1] + abs_err, source="ingested")


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

    err_c = max((z.abs_err for z in computed.ordinates), default=0.0)
    err_r = max((z.abs_err for z in reference.ordinates), default=0.0)
    tolerance = err_c + err_r

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

"""Parsing of externally published zero-ordinate tables and cross-validation
against computed tables.

Accepted layouts are plain text with one ordinate per line, either a single
column of decimals or two whitespace-separated columns where the second is
the ordinate (leading index column).  Anything else is a parse error; there
is deliberately no format zoo.  The error bound of ingested data is inferred
from the printed precision, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CoverageError, TableFormatError, ValidationError
from .zeros import ZeroTable, _assemble

_SANITY_FIRST = 14.1347
_SANITY_TOL = 1e-3


def _read_ordinates(path: str | Path, declared_count: int | None = None
                    ) -> tuple[np.ndarray, float, bytes]:
    """The ordinates of a table file, their common abs_err, 10^-d for the
    fewest decimals d printed on any line, and the bytes read.

    The checks run on whole columns, and only a failed one looks for its
    line: the first failure in file order, with a line's checks in the
    order field count, layout, decimal, finite, increasing.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        before = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise TableFormatError(f"not UTF-8: byte {data[exc.start]:#04x}",
                               line=before.count(b"\n") + 1) from exc
    # the line ends of text-mode reading: \n, \r\n and \r
    fields = list(map(str.split, text.replace("\r\n", "\n").replace("\r", "\n").split("\n")))
    tokens = [f[-1] for f in fields if f]
    width = np.fromiter(map(len, fields), dtype=np.intp, count=len(fields))
    rows = np.flatnonzero(width)  # 0-based numbers of the nonblank lines
    width = width[rows]
    bad = len(tokens)  # the first token that is not a decimal
    try:
        values = np.array(tokens, dtype=float)  # parses as float() does
    except ValueError:
        for bad, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                break
        values = np.array(tokens[:bad], dtype=float)
    n_cols = int(width[0]) if rows.size else 1
    broken = np.flatnonzero((width != n_cols) | (width > 2))
    # a NaN fails the rise too, but its line reports it as non-finite
    faults = np.flatnonzero(~np.isfinite(values) | ~(values > np.append(-np.inf, values[:-1])))
    first = min([bad, *broken[:1].tolist(), *faults[:1].tolist()])
    if first < rows.size:
        line, got, token = int(rows[first]) + 1, int(width[first]), tokens[first]
        if got > 2:
            raise TableFormatError(
                f"expected 1 or 2 whitespace-separated fields, got {got}", line=line)
        if got != n_cols:
            raise TableFormatError(f"layout switched from {n_cols} to {got} fields", line=line)
        if first == bad:
            raise TableFormatError(f"not a decimal: {token!r}", line=line)
        if not np.isfinite(values[first]):
            raise TableFormatError(f"non-finite ordinate {token!r}", line=line)
        raise TableFormatError(f"ordinates must increase strictly: {float(values[first])} "
                               f"after {float(values[first - 1])}", line=line)

    if not values.size:
        raise TableFormatError(f"no ordinates found in {path}")
    if abs(values[0] - _SANITY_FIRST) > _SANITY_TOL:
        raise TableFormatError(
            f"sanity gate: first ordinate {float(values[0])} is not ~{_SANITY_FIRST}",
            line=1,
        )
    if declared_count is not None and declared_count != values.size:
        raise TableFormatError(
            f"declared count {declared_count} != parsed count {values.size}"
        )
    arr = np.array(tokens)
    point = np.char.find(arr, ".")
    decimals = np.where(point >= 0, np.char.str_len(arr) - point - 1, 0)
    return values, 10.0 ** (-int(decimals.min())), data


def parse_reference(path: str | Path,
                    declared_count: int | None = None) -> ZeroTable:
    """Parse a published ordinate file into a ZeroTable, audited at its coverage height."""
    gammas, abs_err, _ = _read_ordinates(path, declared_count)
    # coverage reaches just past the last printed ordinate so the inclusive
    # boundary convention survives the file's rounding
    return _assemble(ZeroTable(gammas, np.full(gammas.size, abs_err),
                               float(gammas[-1]) + abs_err, False, "ingested"))


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


"""Reference-table parsing and cross-validation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgb.errors import CoverageError, TableFormatError, ValidationError
from zgb.ingestion import cross_validate, parse_reference
from zgb.zeros import ZeroTable, save_table, sidecar_path


def test_parse_reference_file(reference_path):
    table = parse_reference(reference_path)
    assert len(table) == 649
    assert table.audited
    assert table.gammas[0] == pytest.approx(14.134725142, abs=1e-12)
    assert table.abs_err[0] == pytest.approx(1e-9)
    # coverage reaches just past the last printed ordinate
    assert table.t_max == pytest.approx(999.791571557, abs=1e-6)
    assert table.t_max > table.gammas[-1]


def test_parse_reference_declared_count(reference_path):
    assert len(parse_reference(reference_path, declared_count=649)) == 649
    with pytest.raises(TableFormatError):
        parse_reference(reference_path, declared_count=650)


def test_reference_with_a_sidecar_reads_under_its_rules(table1000, tmp_path):
    # load_table reads every table file: a saved table keeps its coverage
    # height as a reference too, and a sidecar that does not match its table
    # file is refused
    path = tmp_path / "zeros1000.txt"
    save_table(table1000, path)
    table = parse_reference(path, declared_count=649)
    assert table.t_max == 1000.0
    assert table.audited
    meta = sidecar_path(path)
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "sha256": "0" * 64}))
    with pytest.raises(TableFormatError, match="sha256"):
        parse_reference(path)


def test_parse_two_column_layout(reference_path, tmp_path):
    src = reference_path.read_text().splitlines()[:50]
    dest = tmp_path / "indexed.txt"
    dest.write_text("".join(f"{i} {line}\n" for i, line in enumerate(src, 1)))
    table = parse_reference(dest)
    assert len(table) == 50
    assert table.gammas[0] == pytest.approx(14.134725142, abs=1e-12)


def test_parse_rejects_shuffled_line(reference_path, tmp_path):
    lines = reference_path.read_text().splitlines()
    lines[10], lines[11] = lines[11], lines[10]
    dest = tmp_path / "shuffled.txt"
    dest.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableFormatError) as exc:
        parse_reference(dest)
    assert exc.value.line == 12


def test_parse_rejects_empty_file(tmp_path):
    dest = tmp_path / "empty.txt"
    dest.write_text("")
    with pytest.raises(TableFormatError):
        parse_reference(dest)


def test_parse_rejects_bad_first_ordinate(tmp_path):
    dest = tmp_path / "nosanity.txt"
    dest.write_text("21.022039639\n25.010857580\n")
    with pytest.raises(TableFormatError):
        parse_reference(dest)


def test_parse_rejects_nonnumeric(tmp_path):
    dest = tmp_path / "garbage.txt"
    dest.write_text("14.134725142\nnot-a-number\n")
    with pytest.raises(TableFormatError) as exc:
        parse_reference(dest)
    assert exc.value.line == 2


def test_parse_rejects_layout_switch(tmp_path):
    dest = tmp_path / "mixed.txt"
    dest.write_text("14.134725142\n2 21.022039639\n")
    with pytest.raises(TableFormatError):
        parse_reference(dest)


def test_parse_rejects_three_columns(tmp_path):
    dest = tmp_path / "wide.txt"
    dest.write_text("1 14.134725142 0.5\n")
    with pytest.raises(TableFormatError):
        parse_reference(dest)


def test_abs_err_from_printed_precision(tmp_path):
    dest = tmp_path / "coarse.txt"
    dest.write_text("14.1347\n21.0220\n25.01086\n")
    table = parse_reference(dest)
    assert table.abs_err[0] == pytest.approx(1e-4)
    # the coarsest line sets the error of every ordinate
    assert table.abs_err[2] == pytest.approx(1e-4)


# ------------------------------------------------------------ cross-validation


def test_cross_validate_computed_vs_reference(table1000, reference_path):
    reference = parse_reference(reference_path)
    report = cross_validate(table1000, reference)
    assert report.n_compared == 649
    assert report.max_abs_diff < 1e-6
    assert report.passed


def test_cross_validate_identical(table1000):
    report = cross_validate(table1000, table1000)
    assert report.max_abs_diff == 0.0
    assert report.passed


def test_cross_validate_missing_zero_is_fatal(table1000, reference_path):
    reference = parse_reference(reference_path)
    broken = ZeroTable(
        np.delete(table1000.gammas, 300),
        np.delete(table1000.abs_err, 300),
        t_max=1000.0,
    )
    with pytest.raises(ValidationError):
        cross_validate(broken, reference)


def test_cross_validate_disjoint_coverage(table1000):
    empty = ZeroTable([], [], t_max=10.0)
    with pytest.raises(CoverageError):
        cross_validate(empty, table1000)


def test_cross_validate_without_comparable_ordinates(table1000):
    # common coverage up to 30, but one table holds no ordinate there
    empty = ZeroTable([], [], t_max=30.0)
    with pytest.raises(CoverageError, match="no comparable ordinates"):
        cross_validate(empty, table1000)


def test_rosser_envelope_on_ingested_data(reference_path):
    table = parse_reference(reference_path)
    assert table.audit is not None
    assert table.audit.envelope_ok


@given(st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_round_trip_parse_property(gaps):
    # strictly increasing synthetic ordinates starting at the true first zero,
    # printed at 9 decimals, must parse back to within half an ulp of print
    import tempfile
    from pathlib import Path

    gammas = 14.134725142 + np.concatenate(([0.0], np.cumsum(gaps)))
    with tempfile.TemporaryDirectory() as d:
        dest = Path(d) / "table.txt"
        dest.write_text("".join(f"{g:.9f}\n" for g in gammas))
        parsed = parse_reference(dest).gammas
    assert np.max(np.abs(parsed - np.round(gammas, 9))) < 5e-10


def test_parse_rejects_nonfinite(tmp_path):
    dest = tmp_path / "inf.txt"
    dest.write_text("14.134725142\ninf\n")
    with pytest.raises(TableFormatError) as exc:
        parse_reference(dest)
    assert exc.value.line == 2


def test_cross_validate_boundary_straggler_excused():
    # a zero straddling the coverage cut by less than combined rounding is
    # excluded from comparison rather than treated as a missing zero
    computed = ZeroTable([14.134725142, 21.00000005], [1e-8, 1e-8], t_max=25.0)
    reference = ZeroTable([14.134725142], [1e-7], t_max=21.0 + 1e-7)
    report = cross_validate(computed, reference)
    assert report.n_compared == 1
    assert report.passed
    assert "boundary" in report.boundary_note


# ------------------------------------------------------ bulk parser vs loop


def _read_ordinates_by_line(path, declared_count=None):
    """The line-by-line parser the bulk one replaced, kept as its reference."""
    import math
    from pathlib import Path

    from zgb.zeros import _SANITY_FIRST, _SANITY_TOL

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


_FAULTS = ["none", "three fields", "layout switch", "non-decimal", "non-finite",
           "not increasing", "bad first ordinate", "count mismatch", "empty"]


@st.composite
def _table_files(draw):
    """A valid 1- or 2-column table file with blank lines and mixed decimal
    counts, with at most one injected fault; returns (text, declared count)."""
    gaps = draw(st.lists(st.floats(min_value=1e-3, max_value=3.0), min_size=0, max_size=25))
    gammas = 14.134725142 + np.concatenate(([0.0], np.cumsum(gaps)))
    two_cols = draw(st.booleans())
    lines = []
    for i, g in enumerate(gammas.tolist(), start=1):
        token = f"{g:.{draw(st.integers(min_value=3, max_value=12))}f}"
        lines.append(f"{i} {token}" if two_cols else token)
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
    fault = draw(st.sampled_from(_FAULTS))
    at = draw(st.integers(min_value=0, max_value=len(lines)))
    if fault == "three fields":
        lines.insert(at, "1 14.5 0.5")
    elif fault == "layout switch":
        lines.insert(at, "30.25" if two_cols else "7 30.25")
    elif fault == "non-decimal":
        bad = draw(st.sampled_from(["abc", "1.2.3", "0x10", "1,5", "--1"]))
        lines.insert(at, f"7 {bad}" if two_cols else bad)
    elif fault == "non-finite":
        bad = draw(st.sampled_from(["inf", "-inf", "nan", "1e400", "Infinity"]))
        lines.insert(at, f"7 {bad}" if two_cols else bad)
    elif fault == "not increasing" and len(gammas) > 1:
        j = draw(st.integers(min_value=1, max_value=len(gammas) - 1))
        value = gammas[j - 1] - draw(st.sampled_from([0.0, 0.5]))
        rows = [k for k, line in enumerate(lines) if line.strip()]
        token = f"{value:.9f}"
        lines[rows[j]] = f"{j + 1} {token}" if two_cols else token
    elif fault == "bad first ordinate":
        lines.insert(0, "7 13.5" if two_cols else "13.5")
    elif fault == "empty":
        lines = [line for line in lines if not line.strip()]
    declared = None
    if fault == "count mismatch":
        declared = len(gammas) + draw(st.sampled_from([-1, 1]))
    elif draw(st.booleans()):
        declared = len(gammas)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), declared


def _reference_columns(path, declared_count):
    """The ordinates and abs_err of parse_reference: the table-file reader
    plus the declared count."""
    table = parse_reference(path, declared_count)
    return table.gammas, float(table.abs_err[0])


def _outcome(parse, path, *args):
    """What a parser makes of a file: its values bit for bit and abs_err, or
    its error message and line."""
    try:
        values, abs_err = parse(path, *args)[:2]
    except TableFormatError as exc:
        return "error", str(exc), exc.line
    return "ok", np.asarray(values, dtype=np.float64).view(np.int64).tolist(), abs_err


@given(_table_files())
@settings(max_examples=300, deadline=None)
def test_bulk_parser_matches_line_parser(case):
    import tempfile
    from pathlib import Path

    from zgb.zeros import _read_ordinates

    text, declared = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "table.txt"
        path.write_bytes(text.encode())
        assert _outcome(_read_ordinates, path) == _outcome(_read_ordinates_by_line, path)
        if declared is not None:
            assert (_outcome(_reference_columns, path, declared)
                    == _outcome(_read_ordinates_by_line, path, declared))


@pytest.mark.parametrize("token", ["1_00.5", "１４.１", "1e400", "١٠٠.٥"])
def test_bulk_parser_reads_tokens_as_float_does(tmp_path, token):
    # float() accepts underscores and non-ASCII digits and overflows to inf
    from zgb.zeros import _read_ordinates

    path = tmp_path / "edge.txt"
    path.write_text(f"14.134725142\n{token}\n")
    assert _outcome(_read_ordinates, path) == _outcome(_read_ordinates_by_line, path)


def test_parsing_builds_no_ordinate_records(reference_path, monkeypatch):
    from zgb import zeros

    made = []
    real = zeros.ZeroOrdinate
    monkeypatch.setattr(zeros, "ZeroOrdinate", lambda *a, **k: made.append(1) or real(*a, **k))
    table = parse_reference(reference_path)
    assert len(table) == 649
    assert made == []

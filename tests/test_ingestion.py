"""Reference-table parsing and cross-validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgb.errors import CoverageError, TableFormatError, ValidationError
from zgb.ingestion import cross_validate, parse_reference
from zgb.zeros import ZeroOrdinate, ZeroTable


def test_parse_reference_file(reference_path):
    table = parse_reference(reference_path)
    assert len(table) == 649
    assert table.source == "ingested"
    assert table.audited
    assert table.ordinates[0].gamma == pytest.approx(14.134725142, abs=1e-12)
    assert table.ordinates[0].abs_err == pytest.approx(1e-9)
    # coverage reaches just past the last printed ordinate
    assert table.t_max == pytest.approx(999.791571557, abs=1e-6)
    assert table.t_max > table.ordinates[-1].gamma


def test_parse_reference_declared_count(reference_path):
    assert len(parse_reference(reference_path, declared_count=649)) == 649
    with pytest.raises(TableFormatError):
        parse_reference(reference_path, declared_count=650)


def test_parse_two_column_layout(reference_path, tmp_path):
    src = reference_path.read_text().splitlines()[:50]
    dest = tmp_path / "indexed.txt"
    dest.write_text("".join(f"{i} {line}\n" for i, line in enumerate(src, 1)))
    table = parse_reference(dest)
    assert len(table) == 50
    assert table.ordinates[0].gamma == pytest.approx(14.134725142, abs=1e-12)


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
    assert table.ordinates[0].abs_err == pytest.approx(1e-4)
    # the coarsest line sets the error of every ordinate
    assert table.ordinates[2].abs_err == pytest.approx(1e-4)


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
    kept = [z for i, z in enumerate(table1000.ordinates) if i != 300]
    broken = ZeroTable(
        tuple(ZeroOrdinate(i, z.gamma, z.abs_err) for i, z in enumerate(kept, 1)),
        t_max=1000.0,
        audited=False,
        source="computed",
    )
    with pytest.raises(ValidationError):
        cross_validate(broken, reference)


def test_cross_validate_disjoint_coverage(table1000):
    empty = ZeroTable((), t_max=10.0, audited=False, source="computed")
    with pytest.raises(CoverageError):
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
    computed = ZeroTable(
        (ZeroOrdinate(1, 14.134725142, 1e-8),
         ZeroOrdinate(2, 21.00000005, 1e-8)),
        t_max=25.0, audited=False, source="computed",
    )
    reference = ZeroTable(
        (ZeroOrdinate(1, 14.134725142, 1e-7),),
        t_max=21.0 + 1e-7, audited=False, source="ingested",
    )
    report = cross_validate(computed, reference)
    assert report.n_compared == 1
    assert report.passed
    assert "boundary" in report.boundary_note

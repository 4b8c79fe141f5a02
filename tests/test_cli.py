"""Command-line interface: subcommand behaviour, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zgb
from zgb.cli import VERIFY_CSV_COLUMNS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_constants_command(capsys):
    code, out = run_cli(capsys, "constants")
    report = json.loads(out)
    assert code == 0
    assert report["c_au"] == pytest.approx(0.43596427, abs=1e-7)
    assert report["c_al"] == pytest.approx(0.06058187, abs=1e-7)
    assert report["c_au_below_cap"] == "PASS"
    assert report["c_al_above_floor"] == "PASS"
    assert report["converged"] is True


def test_sum_at_10(capsys, reference_path):
    code, out = run_cli(capsys, "sum", "--at", "10", "--table", str(reference_path))
    report = json.loads(out)
    assert code == 0
    assert report["A"] == 0.0
    assert report["delta"] == pytest.approx(0.25161111814164129, abs=1e-12)
    assert report["delta"] == pytest.approx(-report["M"], abs=1e-15)


def test_count_at_100(capsys, reference_path):
    code, out = run_cli(capsys, "count", "--at", "100", "--table", str(reference_path))
    report = json.loads(out)
    assert code == 0
    assert report["N"] == 29
    assert report["envelope_ok"] is True


def test_verify_range(capsys, reference_path):
    code, out = run_cli(
        capsys, "verify", "--t-min", "2", "--t-max", "999",
        "--samples", "500", "--table", str(reference_path),
    )
    report = json.loads(out)
    assert code == 0
    assert report["passed"] is True
    assert report["min_margin_lower"] > 0
    assert report["min_margin_upper"] > 0
    assert report["records"] >= 500


def test_verify_csv_columns(capsys, reference_path):
    code, out = run_cli(
        capsys, "verify", "--t-min", "2", "--t-max", "100", "--samples", "5",
        "--table", str(reference_path), "--format", "csv",
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == VERIFY_CSV_COLUMNS


def test_zeros_build_and_persist(capsys, tmp_path):
    out_file = tmp_path / "zeros30.txt"
    code, out = run_cli(capsys, "zeros", "--t-max", "30", "--out", str(out_file))
    report = json.loads(out)
    assert code == 0
    assert report["count"] == 3
    assert report["audited"] is True
    assert out_file.read_text().splitlines()[0] == "14.134725142"


def test_ingest_against_itself(capsys, reference_path):
    code, out = run_cli(
        capsys, "ingest", "--file", str(reference_path),
        "--table", str(reference_path),
    )
    report = json.loads(out)
    assert code == 0
    assert report["ingested_count"] == 649
    assert report["validation"]["passed"] is True
    assert report["validation"]["max_abs_diff"] == 0.0


def test_ingest_detects_corruption(capsys, tmp_path, reference_path):
    lines = reference_path.read_text().splitlines()
    lines[100] = f"{float(lines[100]) + 1e-4:.9f}"
    bad = tmp_path / "corrupt.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, out = run_cli(capsys, "ingest", "--file", str(bad),
                        "--table", str(reference_path))
    report = json.loads(out)
    assert code == 1
    assert report["validation"]["passed"] is False


def test_invalid_input_exits_2(capsys, reference_path):
    code, out = run_cli(capsys, "verify", "--t-min", "1", "--t-max", "100",
                        "--samples", "10", "--table", str(reference_path))
    error = json.loads(out)
    assert code == 2
    assert error["error"] == "DomainError"


def test_coverage_error_exits_2(capsys, reference_path):
    code, out = run_cli(capsys, "count", "--at", "2000",
                        "--table", str(reference_path))
    error = json.loads(out)
    assert code == 2
    assert error["error"] == "CoverageError"


def test_deterministic_output(capsys, reference_path):
    _, first = run_cli(capsys, "verify", "--t-min", "2", "--t-max", "500",
                       "--samples", "100", "--table", str(reference_path))
    _, second = run_cli(capsys, "verify", "--t-min", "2", "--t-max", "500",
                        "--samples", "100", "--table", str(reference_path))
    assert first == second


def test_report_to_file(tmp_path, capsys, reference_path):
    dest = tmp_path / "report.json"
    code, out = run_cli(capsys, "sum", "--at", "50", "--table",
                        str(reference_path), "--out", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["T"] == 50.0


def test_table_cache_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZGB_TABLE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "count", "--at", "25")
    assert code == 0
    assert json.loads(out)["N"] == 2
    cached = list(tmp_path.glob("zeros_*.txt"))
    assert len(cached) == 1
    # second run must reuse the cache rather than rebuilding
    code, out = run_cli(capsys, "count", "--at", "25")
    assert code == 0
    assert list(tmp_path.glob("zeros_*.txt")) == cached


def test_count_csv_single_row(capsys, reference_path):
    code, out = run_cli(capsys, "count", "--at", "100", "--format", "csv",
                        "--table", str(reference_path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert "envelope_ok" in lines[0].split(",")


def test_zeros_default_destination(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ZGB_TABLE_DIR", raising=False)
    code, out = run_cli(capsys, "zeros", "--t-max", "20")
    report = json.loads(out)
    assert code == 0
    assert (tmp_path / "zeros_20.txt").exists()
    assert report["count"] == 1


def test_package_defers_scipy_integrate():
    # only the e_frak_quadrature oracle needs scipy.integrate (~26 MB)
    env = dict(os.environ, PYTHONPATH=str(Path(zgb.__file__).parents[1]))
    subprocess.run(
        [sys.executable, "-c", "import zgb, sys; assert 'scipy.integrate' not in sys.modules"],
        env=env, check=True, timeout=120,
    )


def test_package_does_not_import_mpmath():
    # mpmath is a test oracle only; the package must run without it
    env = dict(os.environ, PYTHONPATH=str(Path(zgb.__file__).parents[1]))
    subprocess.run(
        [sys.executable, "-c", "import zgb, sys; assert 'mpmath' not in sys.modules"],
        env=env, check=True, timeout=120,
    )

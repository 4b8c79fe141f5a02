"""Command-line interface: subcommand behaviour, exit codes, determinism."""

import argparse
import ast
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zgb
from zgb import zeros
from zgb.cli import VERIFY_CSV_COLUMNS, main
from zgb.zeros import save_table, sidecar_path


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
    assert "converged" not in report


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


def test_verify_sweeps_t_max_and_2pi_with_one_sample(capsys, reference_path):
    # the upper bound holds from 2.222; on [2, 14] its least margin is at 2 pi
    code, out = run_cli(capsys, "verify", "--t-min", "2", "--t-max", "14", "--samples", "1",
                        "--table", str(reference_path))
    report = json.loads(out)
    assert code == 0
    assert report["records"] == 3
    assert report["min_margin_upper"] == pytest.approx(0.16720384438, abs=1e-11)


def test_verify_json_is_strict_when_no_record_reaches_the_upper_bound(capsys, reference_path):
    code, out = run_cli(capsys, "verify", "--t-min", "2", "--t-max", "2.1",
                        "--table", str(reference_path))
    assert code == 0
    assert "Infinity" not in out
    assert json.loads(out)["min_margin_upper"] is None


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


def test_ingest_csv_spreads_the_validation_over_columns(capsys, reference_path):
    code, out = run_cli(capsys, "ingest", "--file", str(reference_path),
                        "--table", str(reference_path), "--format", "csv")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["validation.passed"] == "True"
    assert row["validation.n_compared"] == "649"
    assert "validation" not in row


@pytest.mark.parametrize("argv, tables", [
    (["verify", "--t-min", "2", "--t-max", "500", "--samples", "20"], 1),
    (["sum", "--at", "500"], 1),
    (["count", "--at", "500"], 1),
    (["ingest"], 2),  # the reference file and the --table
])
def test_each_query_audits_each_table_it_reads_once(capsys, monkeypatch, reference_path,
                                                    argv, tables):
    calls = []
    original = zeros.audit_completeness

    def counting(table):
        calls.append(table)
        return original(table)

    monkeypatch.setattr(zeros, "audit_completeness", counting)
    if argv == ["ingest"]:
        argv = ["ingest", "--file", str(reference_path)]
    code, _ = run_cli(capsys, *argv, "--table", str(reference_path))
    assert code == 0
    assert len(calls) == len({id(t) for t in calls}) == tables


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


def test_ingest_refuses_a_file_that_fails_its_sidecar(capsys, tmp_path, table1000,
                                                     reference_path):
    path = tmp_path / "zeros1000.txt"
    save_table(table1000, path)
    meta = sidecar_path(path)
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "sha256": "0" * 64}))
    code, out = run_cli(capsys, "ingest", "--file", str(path), "--table", str(reference_path))
    assert code == 2
    assert json.loads(out)["error"] == "TableFormatError"


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


def test_count_at_a_zero_ordinate(tmp_path, capsys, monkeypatch):
    # the third ordinate as a double: Z there is within its error of zero,
    # and the zero counts as lying at T
    monkeypatch.setenv("ZGB_TABLE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "count", "--at", "25.01085758014569")
    assert code == 0, out
    assert json.loads(out)["N"] == 3


def test_cache_entry_named_above_its_coverage_is_rebuilt(tmp_path, capsys, monkeypatch):
    # zeros_1234.57.txt covers 1234.5678 only: its name rounds t_max up
    monkeypatch.setenv("ZGB_TABLE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "count", "--at", "1234.5678")
    assert code == 0, out
    assert [f.name for f in tmp_path.glob("zeros_*.txt")] == ["zeros_1234.57.txt"]
    code, out = run_cli(capsys, "count", "--at", "1234.569")
    assert code == 0, out
    assert json.loads(out)["T"] == 1234.569


@pytest.mark.parametrize("fmt, digest", [
    ("json", "49176f733ec7882a6e9cddbe67a31fd21b5be991b50379c5d19719c3c17293c9"),
    ("csv", "a29fb03dff6bba7a3402ba508e1a8e887be09f70b53c375305ccc6c864df52f6"),
], ids=["json", "csv"])  # ids that outlive a digest change
def test_verify_output_is_pinned(capsys, tmp_path, table1000, fmt, digest):
    # reports are byte-deterministic; an ulp of drift in any record changes
    # the CSV, and in an extreme the JSON
    path = tmp_path / "zeros1000.txt"
    save_table(table1000, path)
    code, out = run_cli(capsys, "verify", "--t-min", "2", "--t-max", "1000",
                        "--samples", "500", "--table", str(path), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_malformed_sidecar_exits_2(capsys, tmp_path, table100):
    path = tmp_path / "zeros100.txt"
    meta = sidecar_path(path)
    for corrupt in ("cut", "infinite t_max"):
        save_table(table100, path)
        if corrupt == "cut":
            meta.write_text(meta.read_text().splitlines()[0] + "\n")
        else:
            meta.write_text(json.dumps({**json.loads(meta.read_text()), "t_max": math.inf}))
        code, out = run_cli(capsys, "count", "--at", "50", "--table", str(path))
        assert code == 2
        assert json.loads(out)["error"] == "TableFormatError"


def _unreadable_path_cases():
    def bad_bytes(tmp_path, monkeypatch):
        (tmp_path / "bad.txt").write_bytes(b"14.134725142\n\xff\n")

    def cache_is_a_file(tmp_path, monkeypatch):
        (tmp_path / "cache").write_text("")
        monkeypatch.setenv("ZGB_TABLE_DIR", str(tmp_path / "cache"))

    def out_is_a_dir(tmp_path, monkeypatch):
        (tmp_path / "adir").mkdir()

    # argv, set-up, error type, and the path the message must name
    return [
        pytest.param(["count", "--at", "50", "--table", "{tmp}/missing/t.txt"], None,
                     "FileNotFoundError", "{tmp}/missing/t.txt", id="missing-table"),
        pytest.param(["ingest", "--file", "{tmp}/missing.txt"], None,
                     "FileNotFoundError", "{tmp}/missing.txt", id="missing-ingest-file"),
        pytest.param(["count", "--at", "20", "--table", "{tmp}/bad.txt"], bad_bytes,
                     "TableFormatError", None, id="table-not-utf8"),
        pytest.param(["constants", "--out", "{tmp}/missing/r.json"], None,
                     "FileNotFoundError", "{tmp}/missing/r.json", id="report-dir-missing"),
        pytest.param(["zeros", "--t-max", "30", "--out", "{tmp}/missing/x.txt"], None,
                     "FileNotFoundError", "{tmp}/missing/x.txt", id="table-dir-missing"),
        pytest.param(["zeros", "--t-max", "30", "--out", "{tmp}/adir"], out_is_a_dir,
                     "IsADirectoryError", "{tmp}/adir", id="table-path-is-a-dir"),
        pytest.param(["count", "--at", "50"], cache_is_a_file,
                     "FileExistsError", "{tmp}/cache", id="cache-dir-is-a-file"),
    ]


@pytest.mark.parametrize("argv, setup, error, named", _unreadable_path_cases())
def test_unreadable_path_exits_2(capsys, tmp_path, monkeypatch, argv, setup, error, named):
    # a path that is missing, not UTF-8 or in the way is an invalid input; the
    # message names the path given, never a temporary file, and none is left
    monkeypatch.delenv("ZGB_TABLE_DIR", raising=False)
    if setup is not None:
        setup(tmp_path, monkeypatch)
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert sorted(report) == ["error", "message"]
    assert report["error"] == error
    assert captured.err == ""
    if named is not None:
        assert repr(named.format(tmp=tmp_path)) in report["message"]
    assert ".tmp" not in report["message"].replace(str(tmp_path), "")
    assert not list(tmp_path.rglob("*.tmp"))


def test_corrupt_cache_entry_is_rebuilt(tmp_path, capsys, monkeypatch, table100):
    monkeypatch.setenv("ZGB_TABLE_DIR", str(tmp_path))
    path = tmp_path / "zeros_100.txt"
    good = None
    for corrupt in ("sidecar", "t_max", "truncated", "not UTF-8"):
        save_table(table100, path)
        good = good or (path.read_bytes(), sidecar_path(path).read_bytes())
        meta = sidecar_path(path)
        if corrupt == "sidecar":
            # a sidecar cut after its first line is not JSON
            meta.write_text(meta.read_text().splitlines()[0] + "\n")
        elif corrupt == "t_max":
            # a NaN coverage height is no height the audit can use
            meta.write_text(json.dumps({**json.loads(meta.read_text()), "t_max": math.nan}))
        elif corrupt == "not UTF-8":
            path.write_bytes(path.read_bytes() + b"\xff")
        else:
            # a table cut short, under a sidecar without count and sha256 as
            # older versions wrote, loads and fails its audit
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:15]))
            meta = json.loads(sidecar_path(path).read_text())
            del meta["count"], meta["sha256"]
            sidecar_path(path).write_text(json.dumps(meta))
        code, out = run_cli(capsys, "count", "--at", "50")
        assert code == 0, out
        assert json.loads(out)["N"] == 10
        assert (path.read_bytes(), sidecar_path(path).read_bytes()) == good


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
    # scipy.integrate (~26 MB) serves only the e_frak_quadrature test oracle
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


def test_package_defers_hashlib(reference_path):
    # hashlib loads OpenSSL (~3.5 MB of RSS); only save_table and the
    # sidecar check of load_table hash, so they import it, and a reference
    # file without a sidecar loads without it
    env = dict(os.environ, PYTHONPATH=str(Path(zgb.__file__).parents[1]))
    code = (f"import sys, zgb, zgb.cli; zgb.parse_reference({str(reference_path)!r}); "
            "assert not {'hashlib', '_hashlib'} & sys.modules.keys()")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def _zgb_imports(tree: ast.Module, modules: set[str]):
    """(zgb module named, line, inside a function body) for each zgb import
    in tree; the package itself is named "zgb"."""
    stack = [(tree, False)]
    while stack:
        node, in_function = stack.pop()
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
            targets = [n[1] if len(n) > 1 else "zgb" for n in names if n[0] == "zgb"]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "zgb"):
            path = (node.module or "").split(".")[node.level == 0:]
            targets = ([path[0]] if path and path[0] else
                       [a.name if a.name in modules else "zgb" for a in node.names])
        else:
            targets = []
        yield from ((target, node.lineno, in_function) for target in targets)
        in_function |= isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        stack.extend((child, in_function) for child in ast.iter_child_nodes(node))


def test_package_imports_are_module_level_and_acyclic():
    # a zgb import inside a function hides an import cycle; stdlib imports
    # may be deferred there
    files = {p.stem: p for p in Path(zgb.__file__).parent.glob("*.py")}
    graph, local = {}, []
    for name, path in files.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        edges = list(_zgb_imports(tree, set(files)))
        local += [f"{path.name}:{line} imports {target} in a function"
                  for target, line, inside in edges if inside]
        # every submodule import runs the package's __init__ first, so an
        # edge to the package closes no cycle of its own
        graph[name] = {target for target, _, _ in edges if target != "zgb"}
    assert not local, local
    while graph:
        leaves = [name for name, deps in graph.items() if not deps & graph.keys()]
        assert leaves, f"module-level import cycle among {sorted(graph)}"
        for name in leaves:
            del graph[name]


def test_cached_queries_do_not_import_scipy_special(reference_path):
    # with scipy installed, queries on a table audited above 500 still leave
    # scipy.special (~26 MB) unloaded
    env = dict(os.environ, PYTHONPATH=str(Path(zgb.__file__).parents[1]))
    code = (
        "import contextlib, io, sys\n"
        "from zgb.cli import main\n"
        f"ref = {str(reference_path)!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['count', '--at', '600'], ['verify', '--t-max', '990'],\n"
        "                 ['ingest', '--file', ref]):\n"
        "        assert main(argv + ['--table', ref]) == 0\n"
        "assert 'scipy.special' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_package_runs_without_scipy(reference_path):
    # scipy is a test extra: with every scipy import made to fail, Z on both
    # paths, a build and the cached queries still run
    env = dict(os.environ, PYTHONPATH=str(Path(zgb.__file__).parents[1]))
    code = (
        "import contextlib, io, math, sys\n"
        "sys.modules['scipy'] = None\n"
        "import zgb\n"
        "from zgb.cli import main\n"
        "assert all(math.isfinite(zgb.hardy_z(t)) for t in (2.0, 499.0))\n"
        "assert len(zgb.build_table(20.0)) == 1\n"
        f"ref = {str(reference_path)!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['count', '--at', '600'], ['verify', '--t-max', '990'],\n"
        "                 ['ingest', '--file', ref]):\n"
        "        assert main(argv + ['--table', ref]) == 0\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


@pytest.mark.parametrize("t_min, t_max", [("500", "100"), ("2", "nan"), ("nan", "100")])
def test_verify_rejects_an_empty_or_nan_range(capsys, reference_path, t_min, t_max):
    code, out = run_cli(capsys, "verify", "--t-min", t_min, "--t-max", t_max,
                        "--samples", "5", "--table", str(reference_path))
    assert code == 2
    assert json.loads(out)["error"] == "DomainError"


@pytest.mark.parametrize("argv", [
    ("verify", "--t-min", "500", "--t-max", "100"),
    ("verify", "--t-max", "nan"),
    ("count", "--at", "nan"),
    ("sum", "--at", "nan"),
])
def test_invalid_heights_exit_2_before_any_table_work(capsys, tmp_path, monkeypatch, argv):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("ZGB_TABLE_DIR", str(cache))
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "DomainError"
    assert list(cache.iterdir()) == []


def test_main_builds_the_parser_once(capsys, reference_path, monkeypatch):
    # the first call may build the parser; later calls in the process reuse it
    argv = ("sum", "--at", "10", "--table", str(reference_path))
    assert run_cli(capsys, *argv)[0] == 0
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        assert run_cli(capsys, *argv)[0] == 0
    assert built == []

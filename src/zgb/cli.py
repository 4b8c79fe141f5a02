"""Batch command-line front end.

Subcommands:
    zeros      build and persist an audited zero table
    count      N(T) by Turing's method, with the Rosser envelope verdict
    sum        A(T), M(T) and their difference
    constants  the additive bound constants and their rational comparisons
    verify     sweep the two-sided bound over a height range
    ingest     parse a published ordinate file and cross-validate

Reports are strict JSON (default) or CSV, deterministic for identical inputs:
no timestamps, sorted keys, null for a margin no record reaches.  Exit 0 only
when every check in scope passed; failed checks exit 1 with a machine-readable
error object, invalid inputs and paths that cannot be read or written exit 2.

count answers from certified_count; the other queries read the --table file,
else a table cached in $ZGB_TABLE_DIR, else one they build and read as saved.
At the top height a table failing checked_count, the audit's rule, exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .bounds import big_f, big_r, compute_constants, main_term
from .errors import CountMismatch, TableFormatError, ZgbError
from .ingestion import cross_validate, parse_reference
from .summation import a_of_t, check_sweep_range, theorem_sweep
from .zeros import (T_TOP, ZeroTable, _as_saved, build_table, certified_count, checked_count,
                    load_table, save_table)

ENV_TABLE_DIR = "ZGB_TABLE_DIR"

VERIFY_CSV_COLUMNS = ["T", "A", "M", "delta", "lower_ok", "upper_ok",
                      "margin_lo", "margin_hi"]


def _cache_dir() -> Path | None:
    d = os.environ.get(ENV_TABLE_DIR)
    return Path(d) if d else None


def _cache_file(t_max: float) -> str:
    return f"zeros_{t_max:g}.txt"


def _resolve_table(path: str | None, needed_t_max: float) -> ZeroTable:
    """--table file, else an adequate cached table, else a fresh build.

    A cached table that fails to load with TableFormatError, fails its
    audit, or covers less than its file name says (the name rounds t_max to
    six digits), is rebuilt and saved over; one named above T_TOP, which no
    build reaches, is left alone.  A table built here, cached or
    not, is returned as saved (_as_saved), so a query answers alike from a
    build, the cache or a --table file of that table.  A --table file is
    used as given, and the query's first count runs its audit.
    """
    if path:
        return load_table(path)
    cache = _cache_dir()
    if cache is not None and cache.is_dir():
        candidates = []
        for f in cache.glob("zeros_*.txt"):
            try:
                t = float(f.stem.split("_", 1)[1])
            except ValueError:
                continue
            if needed_t_max <= t <= T_TOP:
                candidates.append((t, f))
        if candidates:
            t, f = min(candidates)
            try:
                table = load_table(f)
            except TableFormatError:
                table = None
            if table is not None and table.audited and table.t_max >= needed_t_max:
                return table
            needed_t_max = t  # a corrupt, failing or short entry is built again
    table = build_table(max(20.0, needed_t_max))
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)
        save_table(table, cache / _cache_file(table.t_max))
    return _as_saved(table)


def _emit(report: dict, fmt: str, out: str | None, rows=None, columns=None) -> None:
    """The one printer of reports and error objects, to --out or stdout: JSON
    whole, before --out opens, so a refused report truncates none; CSV a row at a time."""
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    elif rows is None:  # one row; a nested dict spreads over "<key>.<field>" columns
        flat = {}
        for k, v in report.items():
            flat.update({f"{k}.{f}": x for f, x in v.items()}
                        if isinstance(v, dict) else {k: v})
        columns = sorted(flat)
        rows = [[flat[k] for k in columns]]
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        if fmt == "json":
            fh.write(text)
        else:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)
        fh.flush()  # a closed stdout fails here, inside main, not at exit


def _cmd_zeros(args) -> int:
    table = build_table(args.t_max)
    dest = args.out
    if dest is None:
        base = _cache_dir() or Path.cwd()
        base.mkdir(parents=True, exist_ok=True)
        dest = str(base / _cache_file(table.t_max))
    save_table(table, dest)
    report = {
        "command": "zeros",
        "t_max": table.t_max,
        "count": len(table),
        "audited": table.audited,
        "table_file": str(dest),
    }
    _emit(report, args.format, None)
    return 0


def _cmd_count(args) -> int:
    f, r = big_f(args.at), big_r(args.at)  # reject an invalid height before any table work,
    n = (checked_count(load_table(args.table), args.at) if args.table and args.at <= T_TOP
         else certified_count(args.at)[0])  # as certified_count does one past T_TOP
    ok = abs(n - f) <= r
    report = {
        "command": "count",
        "T": args.at,
        "N": n,
        "F": f,
        "R": r,
        "envelope_ok": ok,
    }
    _emit(report, args.format, args.out)
    return 0 if ok else 1


def _cmd_sum(args) -> int:
    m = main_term(args.at)  # rejects an invalid height before any table work
    table = _resolve_table(args.table, max(args.at, 20.0))
    if args.at >= 2.0:  # no zero lies below 2
        checked_count(table, args.at)
    a = a_of_t(table, args.at)
    report = {
        "command": "sum",
        "T": args.at,
        "A": a,
        "M": m,
        "delta": a - m,
    }
    _emit(report, args.format, args.out)
    return 0


def _cmd_constants(args) -> int:
    c = compute_constants()
    upper_ok = c.c_au < float(c.c_au_cap)
    lower_ok = c.c_al > float(c.c_al_floor)
    report = {
        "command": "constants",
        "gamma1": c.gamma1,
        "c_au": c.c_au,
        "c_al": c.c_al,
        "c_au_cap": str(c.c_au_cap),
        "c_al_floor": str(c.c_al_floor),
        "c_au_below_cap": "PASS" if upper_ok else "FAIL",
        "c_al_above_floor": "PASS" if lower_ok else "FAIL",
        "c_au_sharp": c.c_au_sharp,
        "c_al_sharp": c.c_al_sharp,
    }
    _emit(report, args.format, args.out)
    return 0 if (upper_ok and lower_ok) else 1


def _cmd_verify(args) -> int:
    check_sweep_range(args.t_min, args.t_max, args.samples)
    table = _resolve_table(args.table, args.t_max)
    checked_count(table, args.t_max)
    sweep = theorem_sweep(table, args.t_min, args.t_max, args.samples)
    passed = sweep.all_lower_ok and sweep.all_upper_ok
    if args.format == "csv":
        _emit({}, "csv", args.out, rows=sweep.records.rows(), columns=VERIFY_CSV_COLUMNS)
    else:
        report = {
            "command": "verify",
            "t_min": args.t_min,
            "t_max": args.t_max,
            "samples": args.samples,
            "records": len(sweep.records),
            "delta_min": sweep.delta_min,
            "delta_max": sweep.delta_max,
            "min_margin_lower": sweep.min_margin_lo,
            "min_margin_upper": None if sweep.min_margin_hi == math.inf else sweep.min_margin_hi,
            "all_lower_ok": sweep.all_lower_ok,
            "all_upper_ok": sweep.all_upper_ok,
            "passed": passed,
        }
        _emit(report, "json", args.out)
    return 0 if passed else 1


def _cmd_ingest(args) -> int:
    reference = parse_reference(args.file, declared_count=args.declared_count)
    computed = _resolve_table(args.table, reference.t_max)
    # a table that fails its audit is no table to validate against
    audited = reference.audited and computed.audited
    validation = cross_validate(computed, reference) if audited else None
    report = {
        "command": "ingest",
        "file": str(args.file),
        "ingested_count": len(reference),
        "ingested_audited": reference.audited,
        "validation": asdict(validation) if validation else None,
    }
    ok = audited and validation.passed
    _emit(report, args.format, args.out)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: main may run many times per process."""
    parser = argparse.ArgumentParser(
        prog="zgb",
        description="zeta-zero tables, A(T), and its explicit two-sided bounds",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("zeros", help="build and persist an audited zero table")
    p.add_argument("--t-max", type=float, required=True, dest="t_max")
    p.add_argument("--out", default=None, help="table file (default: cache dir)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("count", help="N(T) with the Rosser envelope verdict")
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--table", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("sum", help="A(T), M(T), and delta = A - M")
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--table", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("constants", help="bound constants and their comparisons")
    add_common(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("verify", help="sweep the two-sided bound on A(T)")
    p.add_argument("--t-min", type=float, default=2.0, dest="t_min")
    p.add_argument("--t-max", type=float, default=1000.0, dest="t_max")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--table", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ingest", help="parse and cross-validate a reference table")
    p.add_argument("--file", required=True)
    p.add_argument("--declared-count", type=int, default=None, dest="declared_count")
    p.add_argument("--table", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_ingest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader left: silence what stdout still holds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ZgbError, OSError) as exc:
        failed = isinstance(exc, CountMismatch)  # a failed check, not an invalid input
        error = {"error": type(exc).__name__, "message": str(exc), **(vars(exc) if failed else {})}
        _emit(error, "json", None)
        return 1 if failed else 2


if __name__ == "__main__":
    sys.exit(main())

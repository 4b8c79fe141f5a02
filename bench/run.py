"""zgb benchmark: closed-loop workloads with oracle checks and a traced run.

    python3 bench/run.py --workload build-1e4 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke

With ``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are its
per-layer metrics, taken from a traced pass over the same ops as an untraced
pass, whose difference is the tracing overhead.  ``--smoke`` runs every
workload at a small scale, traced and untraced, and asserts that every
metric of BENCHMARK.json is emitted with its unit.

Times are reported at the reference host speed of ``hostspeed.py``: each is
the wall time divided by the host's slowdown, measured by calibration
kernels that run while the ops do.  The raw wall times are in the result
file.

The program under test is imported from ``src/`` of the checkout the script
sits in.  Results, spans and an environment record go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: One client, one process, one BLAS/OpenMP thread: set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

#: Fresh-interpreter set-up probes taken before the set-up and after the
#: timed loop: the host's speed wanders over seconds, and probes spread over
#: the run give a median that one slow stretch does not decide.  Each one
#: adds about a second to every run.
PROBES_BEFORE = 2
PROBES_AFTER = 1


def pin_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ZGB_TABLE_DIR", None)
    sys.path.insert(0, str(SRC))


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it; else unknown."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": nproc,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "machine": platform.machine(),
    }


def probe_setup(n: int) -> list[tuple[float, float]]:
    """n fresh interpreters import zgb and build its models: (wall, scaled) s."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "probe"], cwd=ROOT,
                              check=True, timeout=120, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        report = json.loads(proc.stdout.splitlines()[-1])
        times.append((wall, hostspeed.child_scaled(wall, report, 0.0)))
    return times


def run_ops(workload, seconds: float, min_passes: int, speed: hostspeed.HostSpeed,
            tracer=None) -> list:
    """Closed loop over the workload's passes; stops between passes only.

    Calibration samples are taken before and after the loop and, untraced,
    every ``hostspeed.EVERY_S`` seconds from a timer; traced, after every
    op instead, so that no sample falls inside a span.  Each op's time at
    reference speed is worked out from them afterwards.
    """
    ops = []
    speed.sample()
    if not tracer:
        speed.start()
    try:
        start = time.perf_counter()
        for done, batch in enumerate(workload.passes(), start=1):
            for op in batch:
                span = tracer.begin_op(len(ops)) if tracer else None
                op.t0 = time.perf_counter()
                try:
                    workload.run(op)
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    op.error = f"{type(exc).__name__}: {exc}"
                op.t1 = time.perf_counter()
                op.latency_s = op.t1 - op.t0
                if not op.error:
                    workload.account(op)
                if tracer:
                    tracer.end_op(span, op.zeros, op.error)
                ops.append(op)
                if tracer:
                    speed.sample()
            if done >= min_passes and time.perf_counter() - start >= seconds:
                break
    finally:
        speed.stop()
    speed.sample()
    for op in ops:
        op.scaled_s = speed.scaled(op.t0, op.t1, workload.array_share[op.kind])
    return ops


def p95(values: list[float]) -> float:
    """95th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def end_to_end(ops: list, setup_s: float) -> dict:
    busy = sum(op.scaled_s for op in ops)
    lat_ms = [op.scaled_s * 1e3 for op in ops]
    return {
        "setup_s": setup_s,
        "zeros_per_s": sum(op.zeros for op in ops) / busy,
        "queries_per_s": len(ops) / busy,
        "query_p50_ms": statistics.median(lat_ms),
        "query_p95_ms": p95(lat_ms),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_pair(wl, spans_file: Path) -> tuple[list, dict, list]:
    """One pass untraced, then the same pass traced; spans go to spans_file.

    The per-layer counts repeat exactly for a seed, and the difference of
    the two passes is the tracing overhead.
    """
    import tracing

    plain = run_ops(wl, 0.0, 1, hostspeed.HostSpeed())
    wl.restart()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_ops(wl, 0.0, 1, hostspeed.HostSpeed(), tracer)
    finally:
        tracer.uninstall()
    values, missing = tracing.layer_metrics(tracer, sum(op.zeros for op in traced))
    untraced_s = sum(op.scaled_s for op in plain)
    traced_s = sum(op.scaled_s for op in traced)
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0
    tracer.write(spans_file)
    return plain + traced, values, missing


def measure(name: str, seed: int, seconds: float, trace: bool, scale) -> dict:
    """One run of one workload: its metric values, op records and notes."""
    import workloads
    import zgb

    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    speed = hostspeed.HostSpeed()
    try:
        probes = probe_setup(PROBES_BEFORE)
        wl = workloads.WORKLOADS[name](seed, scale, ROOT, workdir)
        zgb.hardy_z(1000.0)  # lazy model build, already timed by the probes
        speed.sample()
        if wl.setup_in_process:
            speed.start()
        try:
            t0 = time.perf_counter()
            wl.setup()
            t1 = time.perf_counter()
        finally:
            speed.stop()
        own_raw_s = t1 - t0
        own_s = (speed.scaled(t0, t1, wl.setup_array_share) if wl.setup_in_process
                 else wl.setup_scaled_s)
        result = {"missing": []}
        if not trace:
            ops = run_ops(wl, seconds, wl.min_passes, speed)
            probes += probe_setup(PROBES_AFTER)
            setup_s = statistics.median(s for _, s in probes) + own_s
            result["values"] = end_to_end(ops, setup_s)
            result["raw_setup_s"] = statistics.median(w for w, _ in probes) + own_raw_s
            result["calibration"] = speed.samples
        else:
            ops, result["values"], result["missing"] = traced_pair(
                wl, OUT / f"spans-{name}-seed{seed}.jsonl")
        wl.check(ops)
        result["ops"] = ops
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.environ.pop("ZGB_TABLE_DIR", None)


E2E_UNITS = {
    "setup_s": "s",
    "zeros_per_s": "zeros/s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("us_per_point") or name.endswith("us_per_record"):
        return "us"
    if name.endswith("_ratio") or name.endswith("per_zero"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def summarise(name: str, seed: int, trace: bool, result: dict, env: dict) -> dict:
    ops = result["ops"]
    units = E2E_UNITS if not trace else {k: layer_unit(k) for k in result["values"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["values"].items()}
    failed = [op for op in ops if not op.ok]
    unexplained = [op for op in failed if not op.known_defect]
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "env": env,
        "metrics": metrics, "missing_metrics": result["missing"],
        "raw_setup_s": result.get("raw_setup_s"),
        "calibration": result.get("calibration"),
        "ops": [{"kind": op.kind, "t0": op.t0, "t1": op.t1,
                 "latency_s": op.latency_s, "scaled_s": op.scaled_s,
                 "zeros": op.zeros,
                 "failures": op.failures,
                 "params": {k: v for k, v in op.params.items() if k != "picks"}}
                for op in ops],
    }
    OUT.joinpath(f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    for op in failed:
        tag = "known defect" if op.known_defect else "UNEXPECTED"
        print(f"failed op ({tag}) {op.kind}: {op.failures}", file=sys.stderr)
    for k in result["missing"]:
        print(f"metric missing, its traced function is gone: {k}", file=sys.stderr)
    return {"correct": not unexplained, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def smoke(env: dict) -> int:
    """Every workload at small scale, untraced and traced; names and units checked."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            out = summarise(name, 0, trace,
                            measure(name, 0, 0.0, trace, workloads.SMOKE), env)
            emitted = {k: m["unit"] for k, m in out["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared}
            if emitted != wanted:
                problems.append(f"{name} trace={int(trace)}: emitted {sorted(emitted.items())} "
                                f"!= declared {sorted(wanted.items())}")
            if not out["correct"]:
                problems.append(f"{name} trace={int(trace)}: incorrect output")
            print(json.dumps({"workload": name, "trace": int(trace), **out}), flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["build-1e4", "window-1e6", "verify-cached"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    needed = [SRC / "zgb" / "__init__.py", ROOT / "tests" / "data" / "zeros_to_1000_ref.txt"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"cannot run: the checkout lacks {', '.join(absent)}", file=sys.stderr)
        return 2

    pin_environment()
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(json.dumps({"env": env}), flush=True)
    if args.smoke:
        return smoke(env)

    import workloads

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL)
    print(json.dumps(summarise(args.workload, args.seed, bool(args.trace), result, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

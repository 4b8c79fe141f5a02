"""Span tracer for the per-layer run of the zgb benchmark.

The tracer wraps, from outside the package, the calls that cross between the
zgb modules (zeta, zeros, summation, bounds, ingestion, cli).  Nothing under
``src/`` is edited: each target is looked up by module and attribute name at
install time and every binding of that function inside the zgb modules is
replaced, so ``from .zeros import load_table`` style imports are traced too.
A target that no longer exists is recorded as missing and the metrics built
on it are left out, so a refactor that renames a private entry point costs
those metrics and nothing else.

Spans keep name, start, end, parent and op id in memory and are written out
as JSON lines when the run ends.  ``main_term`` is called once per sweep
record (tens of thousands of times per verify query), so it is counted as a
leaf aggregate (calls and seconds) charged to the enclosing span instead of
being recorded one span per call.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int
    op: int
    start: float
    end: float = 0.0
    size: int = 0        # points, brackets or calls handed to the call
    out: int = 0         # brackets, records or lines it returned
    child_s: float = 0.0  # part of [start, end] covered by children and leaves
    error: str = ""
    args: tuple = ()

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _npoints(args, kwargs) -> int:
    return int(np.size(args[0])) if args else 0


def _nbrackets(args, kwargs) -> int:
    return len(args[0]) if args else 0


def _one(args, kwargs) -> int:
    return 1


def _len_out(result) -> int:
    return len(result)


def _sweep_out(result) -> int:
    return len(result.records)


def _scan_args(args, kwargs) -> tuple:
    return tuple(float(x) for x in args[:3])


# (module, attribute path, span name, size from args, out from result, args kept)
# The private names are the only cross-module entries into the RS and EM
# paths and into segment rescans, so they are wrapped by name.
TARGETS = [
    ("zgb.cli", "main", "cli.main", None, None, None),
    ("zgb.zeta", "hardy_z_many", "zeta.hardy_z_many", _npoints, None, None),
    ("zgb.zeta", "_hardy_z_rs_batch", "zeta.rs", _npoints, None, None),
    ("zgb.zeta", "_hardy_z_em_batch", "zeta.em", _npoints, None, None),
    ("zgb.zeta", "rs_theta", "zeta.theta", _npoints, None, None),
    ("zgb.zeta", "_theta_gamma_arg", "zeta.theta", _npoints, None, None),
    # the chebval that zgb.zeta.chebyshev resolves: the C0..C3 corrections
    ("zgb.zeta", "chebyshev.chebval", "zeta.rs_corr", _npoints, None, None),
    ("zgb.zeros", "build_table", "zeros.build", None, _len_out, None),
    ("zgb.zeros", "isolate_zeros", "zeros.isolate", None, _len_out, None),
    ("zgb.zeros", "_scan_window", "zeros.rescan", None, _len_out, _scan_args),
    ("zgb.zeros", "_refine_many", "zeros.refine", _nbrackets, None, None),
    ("zgb.zeros", "refine_zero", "zeros.refine_zero", _one, None, None),
    ("zgb.zeros", "audit_completeness", "zeros.audit", None, None, None),
    ("zgb.zeros", "save_table", "zeros.save", None, None, None),
    ("zgb.zeros", "load_table", "zeros.load", None, _len_out, None),
    ("zgb.summation", "theorem_sweep", "summation.sweep", None, _sweep_out, None),
    ("zgb.summation", "a_of_t", "summation.a_of_t", None, None, None),
    ("zgb.ingestion", "parse_reference", "ingestion.parse", None, _len_out, None),
    ("zgb.ingestion", "cross_validate", "ingestion.cross_validate", None, None, None),
]

LEAF_TARGETS = [
    ("zgb.summation", "main_term", "bounds.main_term"),
]

LAYERS = ("zeta", "zeros", "summation", "bounds", "ingestion", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = -1
        self.leaf: dict[str, list[float]] = {}
        self.missing: list[str] = []
        self.grids: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name, size_fn, out_fn, args_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(
                id=len(tracer.spans), name=name,
                parent=parent.id if parent else -1, op=tracer.op,
                start=time.perf_counter(),
                size=size_fn(args, kwargs) if size_fn else 0,
                args=args_fn(args, kwargs) if args_fn else (),
            )
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent.child_s += span.dur
            if out_fn is not None:
                span.out = out_fn(result)
            # the first Z call of an isolation is its grid; keep it to tell
            # which segment rescans added brackets
            if (name == "zeta.hardy_z_many" and parent is not None
                    and parent.name == "zeros.isolate" and parent.id not in tracer.grids):
                tracer.grids[parent.id] = (np.array(args[0], dtype=float), np.array(result))
            return result

        return wrapper

    def _wrap_leaf(self, fn, name):
        tracer = self
        acc = self.leaf.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                acc[0] += 1
                acc[1] += dt
                if tracer.stack:
                    tracer.stack[-1].child_s += dt

        return wrapper

    def begin_op(self, op: int) -> Span:
        self.op = op
        span = Span(id=len(self.spans), name="bench.op", parent=-1, op=op,
                    start=time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end_op(self, span: Span, out: int, error: str = "") -> None:
        span.end = time.perf_counter()
        span.out = out
        span.error = error
        self.stack.pop()

    # -- patching ---------------------------------------------------------

    def _resolve(self, module: str, path: str):
        obj = importlib.import_module(module)
        *owners, attr = path.split(".")
        for o in owners:
            obj = getattr(obj, o)
        return obj, attr, getattr(obj, attr)

    def _patch_everywhere(self, owner, attr, original, replacement) -> None:
        """Rebind every zgb-module binding of ``original`` (and the owner's)."""
        sites = [(owner, attr)]
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "zgb" or modname.startswith("zgb.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original and (mod, key) != (owner, attr):
                    sites.append((mod, key))
        for obj, key in sites:
            self._patches.append((obj, key, getattr(obj, key)))
            setattr(obj, key, replacement)

    def install(self) -> None:
        for module, path, name, size_fn, out_fn, args_fn in TARGETS:
            try:
                owner, attr, fn = self._resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            self._patch_everywhere(owner, attr, fn,
                                   self._wrap(fn, name, size_fn, out_fn, args_fn))
        for module, path, name in LEAF_TARGETS:
            try:
                owner, attr, fn = self._resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            self._patch_everywhere(owner, attr, fn, self._wrap_leaf(fn, name))

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                    "start": s.start, "end": s.end, "size": s.size, "out": s.out,
                    "error": s.error,
                }) + "\n")
            fh.write(json.dumps({"leaf": self.leaf, "missing": self.missing}) + "\n")


def _grid_brackets_in(grid: np.ndarray, zvals: np.ndarray, a: float, b: float) -> int:
    """Sign changes of the isolation grid whose midpoint lies in (a, b]."""
    s = np.sign(zvals)
    for i in np.flatnonzero(s == 0.0):
        s[i] = s[i - 1] if i > 0 else 1.0
    flips = np.flatnonzero(s[:-1] * s[1:] < 0.0)
    mids = 0.5 * (grid[flips] + grid[flips + 1])
    return int(np.count_nonzero((mids > a) & (mids <= b)))


def layer_metrics(tracer: Tracer, zeros_delivered: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the recorded spans; returns (values, missing names)."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def of(name):
        return by_name.get(name, [])

    def total(name, attr="dur"):
        return float(sum(getattr(s, attr) for s in of(name)))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def outermost(s: Span, names: set[str]) -> Span | None:
        found = None
        p = s.parent
        while p >= 0:
            if spans[p].name in names:
                found = spans[p]
            p = spans[p].parent
        return found

    m: dict[str, float] = {}
    for path, tag in (("rs", "zeta.rs"), ("em", "zeta.em")):
        pts = total(tag, "size")
        m[f"zeta.{path}.points"] = pts
        m[f"zeta.{path}.self_s"] = total(tag, "self_s")
        m[f"zeta.{path}.us_per_point"] = ratio(total(tag), pts, 1e6)
    m["zeta.rs_corr.s"] = total("zeta.rs_corr")
    m["zeta.theta.points"] = total("zeta.theta", "size")
    m["zeta.theta.self_s"] = total("zeta.theta", "self_s")

    z_calls = of("zeta.hardy_z_many")
    m["zeros.grid.points"] = float(sum(
        s.size for s in z_calls if s.parent >= 0 and spans[s.parent].name == "zeros.isolate"))
    rescans = of("zeros.rescan")
    m["zeros.rescan.calls"] = float(len(rescans))
    m["zeros.rescan.points"] = float(sum(
        s.size for s in z_calls if s.parent >= 0 and spans[s.parent].name == "zeros.rescan"))

    # consecutive rescans of one segment (same isolation, same a and b) are
    # one descent through halved steps
    descents: list[list[Span]] = []
    for s in rescans:
        if descents and descents[-1][-1].parent == s.parent and descents[-1][-1].args[:2] == s.args[:2]:
            descents[-1].append(s)
        else:
            descents.append([s])
    # a descent is useful when its last scan holds more brackets than the
    # isolation grid had in the segment; a floor descent is one that reached
    # REFINE_FLOOR and was not useful
    zeros_mod = sys.modules.get("zgb.zeros")
    floor = getattr(zeros_mod, "REFINE_FLOOR", None)
    useful = 0
    floor_descents = 0
    for d in descents:
        grid = tracer.grids.get(d[0].parent)
        a, b = d[0].args[:2]
        before = _grid_brackets_in(*grid, a, b) if grid is not None else math.inf
        found = d[-1].out > before
        useful += found
        floor_descents += floor is not None and d[-1].args[2] <= floor and not found
    if floor is not None:
        m["zeros.rescan.floor_descents"] = float(floor_descents)
    m["zeros.rescan.useful_ratio"] = ratio(useful, len(descents))

    m["zeros.isolate.s"] = total("zeros.isolate")
    refine_names = {"zeros.refine", "zeros.refine_zero"}
    outer = [s for s in spans if s.name in refine_names and outermost(s, refine_names) is None]
    refine_pts = 0
    all_pts = 0
    for s in of("zeta.rs") + of("zeta.em"):
        all_pts += s.size
        if outermost(s, refine_names) is not None:
            refine_pts += s.size
    m["zeros.refine.s"] = float(sum(s.dur for s in outer))
    m["zeros.refine.z_points_per_zero"] = ratio(refine_pts, sum(s.size for s in outer))
    m["zeros.refine_zero.failed"] = float(sum(1 for s in of("zeros.refine_zero") if s.error))
    m["zeros.z_points_per_zero"] = ratio(all_pts, zeros_delivered)
    m["zeros.audit.calls"] = float(len(of("zeros.audit")))
    m["zeros.audit.s"] = total("zeros.audit")
    m["zeros.save.s"] = total("zeros.save")
    m["zeros.load.s"] = total("zeros.load")

    records = total("summation.sweep", "out")
    m["summation.sweep.records"] = records
    m["summation.sweep.s"] = total("summation.sweep")
    m["summation.sweep.us_per_record"] = ratio(m["summation.sweep.s"], records, 1e6)
    m["summation.a_of_t.s"] = total("summation.a_of_t")

    calls, secs = tracer.leaf.get("bounds.main_term", (0, 0.0))
    m["bounds.main_term.calls"] = float(calls)
    m["bounds.main_term.s"] = float(secs)

    m["ingestion.parse.s"] = total("ingestion.parse")
    m["ingestion.parse.lines"] = total("ingestion.parse", "out")
    m["ingestion.cross_validate.s"] = total("ingestion.cross_validate")

    for layer in LAYERS:
        own = sum(s.self_s for s in spans if s.name.startswith(layer + "."))
        if layer == "bounds":
            own += secs
        m[f"{layer}.self_s"] = float(own)
    m["trace.spans"] = float(len(spans))

    # a metric whose wrapped function has disappeared is reported missing
    needs = {
        "zeta.rs.": "zgb.zeta._hardy_z_rs_batch",
        "zeta.em.": "zgb.zeta._hardy_z_em_batch",
        "zeta.rs_corr.": "zgb.zeta.chebyshev.chebval",
        "zeta.theta.": "zgb.zeta.rs_theta",
        "zeros.grid.": "zgb.zeta.hardy_z_many",
        "zeros.rescan.": "zgb.zeros._scan_window",
        "zeros.isolate.": "zgb.zeros.isolate_zeros",
        "zeros.refine.": "zgb.zeros._refine_many",
        "zeros.refine_zero.": "zgb.zeros.refine_zero",
        "zeros.z_points": "zgb.zeta._hardy_z_rs_batch",
        "zeros.audit.": "zgb.zeros.audit_completeness",
        "zeros.save.": "zgb.zeros.save_table",
        "zeros.load.": "zgb.zeros.load_table",
        "summation.sweep.": "zgb.summation.theorem_sweep",
        "summation.a_of_t.": "zgb.summation.a_of_t",
        "bounds.": "zgb.summation.main_term",
        "ingestion.parse.": "zgb.ingestion.parse_reference",
        "ingestion.cross_validate.": "zgb.ingestion.cross_validate",
        "cli.": "zgb.cli.main",
    }
    gone = set(tracer.missing)
    missing = [k for k in m if any(k.startswith(p) and t in gone for p, t in needs.items())]
    if floor is None:
        missing.append("zeros.rescan.floor_descents")
    for k in missing:
        m.pop(k, None)
    return m, missing

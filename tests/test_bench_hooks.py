"""The per-layer benchmark wraps zgb functions by name from outside the
package; a renamed private name costs its metrics there, so it fails here."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from zgb import summation, zeros, zeta
from zgb.errors import ConvergenceError

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("zgb_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_hook(tracing):
    original = zeros.isolate_zeros
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert zeros.isolate_zeros is not original
        # zgb.zeta has no _theta_gamma_arg any more; the benchmark still lists it
        assert tracer.missing == ["zgb.zeta._theta_gamma_arg"]
    finally:
        tracer.uninstall()
    assert zeros.isolate_zeros is original
    assert hasattr(zeros, "REFINE_FLOOR")


def test_traced_pass_reports_every_metric_as_a_finite_number(tracing):
    # a small pass through each traced layer: the benchmark's traced run
    # prints these values as its last line, which must parse as strict JSON
    tracer = tracing.Tracer()
    tracer.install()
    try:
        brackets = zeros.isolate_zeros(999000.0, 999002.0)
        with pytest.raises(ConvergenceError):
            zeros.refine_zero(brackets[0])
        table = zeros.build_table(100.0)
        summation.theorem_sweep(table, 2.0, 100.0, 50)
    finally:
        tracer.uninstall()
    values, missing = tracing.layer_metrics(tracer, len(table))
    assert missing == []
    json.dumps(values, allow_nan=False)
    assert values["zeros.refine_zero.failed"] == 1.0
    assert values["zeros.grid.points"] > 0 and values["summation.sweep.records"] > 0


def test_a_z_call_over_several_slices_is_one_traced_span(tracing):
    # 2000 heights near 1e6 take four slices of the RS kernel; the slicing
    # stays inside the hooked kernel, so the batch is one span of its size
    tracer = tracing.Tracer()
    tracer.install()
    try:
        zeta.hardy_z_many(np.linspace(999000.0, 1e6, 2000))
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans].count("zeta.rs") == 1
    assert tracing.layer_metrics(tracer, 0)[0]["zeta.rs.points"] == 2000

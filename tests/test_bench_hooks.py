"""The per-layer benchmark wraps zgb functions by name from outside the
package; a renamed private name costs its metrics there, so it fails here."""

import importlib.util
import sys
from pathlib import Path

from zgb import zeros

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_benchmark_tracer_finds_every_hook(monkeypatch):
    spec = importlib.util.spec_from_file_location("zgb_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
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

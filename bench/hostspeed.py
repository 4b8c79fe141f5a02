"""Host-speed calibration: wall time scaled to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed steps by 30
to 60 % within a second and stays there for seconds to minutes.  A
wall-clock figure then says more about the host's state than about the
code.  So the benchmark times two fixed calibration kernels while ops run
and reports each op's time divided by the host's slowdown measured during
it: the time the op would take on the reference host, where the kernels
take ``PY_REF_S`` and ``ARRAY_REF_S``.

The two kernels stand for the two kinds of work zgb does, which the host's
steps slow by different amounts: an interpreter-bound loop (the sweep, the
parsers, refine_zero's one-point steps) and a dense cosine sum over a block
of heights and terms (the Riemann-Siegel main sum).  A workload weighs them
by its share of array-bound work.

The samples are taken in the process that does the work, from a SIGALRM
handler every ``EVERY_S`` seconds, so that they fall inside long ops too:
a sampler process on the other core does not see the steps of this one.
The time a sample takes inside an op is subtracted from the op.  Set-up
work that runs in a child process calibrates in the child (``child.py``).

On a 90-second trace, as (Q3 - Q1) / median of ten medians, raw timings
spread 0.17 (a Riemann-Siegel batch), 0.42 (``parse_reference``) and 0.17
(a 2 s run of batches); scaled by samples taken between ops they spread
0.03, 0.06 and 0.07, and by a sampler process 0.11, 0.45 and 0.09.  On a
second trace, raw 0.06, 0.10 and 0.08, the timer's samples left 0.04, 0.04
and 0.03.

The kernels call no zgb code, so a change to zgb moves the scaled figures
as it moves wall time.  The raw wall times stay in the result file.
"""

from __future__ import annotations

import signal
import statistics
import time

#: kernel times on the reference host, a 2-core x86_64 VM (see NOTES.md)
PY_REF_S = 0.0027
ARRAY_REF_S = 0.0029

#: seconds between two calibration samples while the timer runs
EVERY_S = 0.25
#: timings of each kernel per sample; the fastest is kept, so that one
#: preemption does not decide a sample
REPEATS = 3

_ARRAYS: list = []  # built on first use, so that importing this module
#                    does not import numpy (a set-up probe times that import)


def _py_kernel() -> float:
    acc = 0.0
    for i in range(1, 20000):
        acc += 1.0 / i
    return acc + sum(float(w) for w in [repr(i * 0.001) for i in range(3000)])


def _array_kernel() -> float:
    import numpy as np

    if not _ARRAYS:
        n = np.arange(1, 390)
        _ARRAYS.extend((np.linspace(950000.0, 950010.0, 300)[:, None],
                        np.log(n)[None, :], 1.0 / np.sqrt(n)[None, :]))
    heights, log_n, rsqrt_n = _ARRAYS
    return float((rsqrt_n * np.cos(heights * log_n)).sum())


def _fastest(kernel) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Calibration samples over a run, and the slowdown they give an interval."""

    def __init__(self) -> None:
        # (start, end, loop slowdown, array slowdown), both slowdowns
        # relative to the reference host
        self.samples: list[tuple[float, float, float, float]] = []

    def sample(self, array: bool = True) -> None:
        """One sample; with array=False the loop stands in for both kernels."""
        t0 = time.perf_counter()
        py = _fastest(_py_kernel) / PY_REF_S
        arr = _fastest(_array_kernel) / ARRAY_REF_S if array else py
        self.samples.append((t0, time.perf_counter(), py, arr))

    def sampling_s(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] that samples took."""
        return sum(min(e, t1) - max(s, t0) for s, e, _, _ in self.samples
                   if t0 < e and s < t1)

    def start(self) -> None:
        """Sample every EVERY_S seconds until stop(), inside ops too."""
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _around(self, t0: float, t1: float) -> list:
        """Samples inside [t0, t1], with the last before and the first after."""
        before = [s for s in self.samples if s[1] <= t0][-1:]
        inside = [s for s in self.samples if t0 < s[1] and s[0] < t1]
        after = [s for s in self.samples if s[0] >= t1][:1]
        return before + inside + after

    def slowdown(self, t0: float, t1: float, array_share: float) -> float:
        """Mean slowdown of the samples around [t0, t1], kernels weighed by
        the work's share of array-bound time."""
        near = self._around(t0, t1)
        if not near:
            raise RuntimeError("no calibration sample around the interval")
        return statistics.fmean(
            (1.0 - array_share) * py + array_share * arr for _, _, py, arr in near)

    def scaled(self, t0: float, t1: float, array_share: float) -> float:
        """Seconds that [t0, t1] of wall time, less the samples taken in it,
        would take on the reference host."""
        return (t1 - t0 - self.sampling_s(t0, t1)) / self.slowdown(t0, t1, array_share)


def child_scaled(wall_s: float, report: dict, array_share: float) -> float:
    """Seconds a child process (``child.py``) would take on the reference
    host: its wall time less its sampling, over its own mean slowdown."""
    slowdown = statistics.fmean(
        (1.0 - array_share) * py + array_share * arr for py, arr in report["slowdowns"])
    return (wall_s - report["sampling_s"]) / slowdown

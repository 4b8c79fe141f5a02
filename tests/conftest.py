import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zgb
from zgb import build_table, compute_constants, zeta

DATA_DIR = Path(__file__).parent / "data"


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False,
                     help="also run the tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: runs for more than a few seconds; "
                                       "skipped unless --run-slow is given")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow: give --run-slow to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def reference_path() -> Path:
    return DATA_DIR / "zeros_to_1000_ref.txt"


@pytest.fixture(scope="session")
def constants():
    return compute_constants()


@pytest.fixture(scope="session")
def table100():
    return build_table(100.0)


@pytest.fixture(scope="session")
def table1000():
    return build_table(1000.0)


@pytest.fixture(scope="session")
def table10000():
    return build_table(1e4)


#: appended to a child's code: its own peak RSS, VmHWM, in KiB, as its last line
_PRINT_PEAK = ("\nprint(*[line.split()[1] for line in open('/proc/self/status') "
               "if line.startswith('VmHWM:')])\n")


def run_child(code: str, cwd: Path | None = None, **env: str) -> tuple[str, int]:
    """Run Python code in a fresh process with zgb importable and the given
    environment variables set; return its stdout and its own peak RSS in KiB.

    The child reads VmHWM from /proc/self/status, since its ru_maxrss would
    also take in the RSS of this process, from which it is spawned.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(zgb.__file__).parents[1]), **env)
    out = subprocess.run([sys.executable, "-c", code + _PRINT_PEAK], env=env, cwd=cwd,
                         check=True, timeout=600, capture_output=True, text=True).stdout
    stdout, _, peak = out.rstrip("\n").rpartition("\n")
    return stdout, int(peak)


@pytest.fixture(scope="session")
def child():
    """run_child: code in a fresh process, with its stdout and peak RSS."""
    return run_child


class ZCounts:
    """The heights hardy_z_many handed to each Z kernel, by path ("rs" or
    "em"), with the kernel calls, Z points and main-sum terms they cost."""

    #: each path's kernel, and the main-sum terms a height costs on it:
    #: floor(sqrt(t / 2 pi)) on RS, one fewer than the EM term count on EM
    _PATHS = {"rs": ("_hardy_z_rs_batch", lambda ts: np.floor(np.sqrt(ts / (2.0 * math.pi)))),
              "em": ("_hardy_z_em_batch", lambda ts: zeta._em_term_count(ts) - 1.0)}

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.heights = {path: [] for path in self._PATHS}

    def batches(self, path: str | None = None):
        """(path, heights) of each kernel call, on one path or on both."""
        for p in [path] if path else self.heights:
            for ts in self.heights[p]:
                yield p, ts

    def calls(self, path: str | None = None) -> int:
        """Kernel calls, each of which pays the kernel's per-call overhead."""
        return sum(1 for _ in self.batches(path))

    def points(self, path: str | None = None) -> int:
        return sum(ts.size for _, ts in self.batches(path))

    def terms(self, path: str | None = None) -> int:
        return sum(int(self._PATHS[p][1](ts).sum()) for p, ts in self.batches(path))

    def watch(self, monkeypatch) -> "ZCounts":
        """Record every kernel call for as long as monkeypatch's patches hold."""
        for path, (name, _) in self._PATHS.items():
            def kernel(ts, path=path, original=getattr(zeta, name)):
                self.heights[path].append(np.array(ts, dtype=float))
                return original(ts)

            monkeypatch.setattr(zeta, name, kernel)
        return self


@pytest.fixture
def z_counts(monkeypatch) -> ZCounts:
    """Z points and main-sum terms by path, counted from the start of the test;
    outside pytest, ZCounts().watch(mp) under pytest.MonkeyPatch.context()
    counts the same way."""
    return ZCounts().watch(monkeypatch)

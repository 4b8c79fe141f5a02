"""Isolation and refinement of critical-line zero ordinates, completeness
auditing, and table persistence.

The pipeline is sign-change based: Hardy's Z is sampled on a grid, each sign
change brackets one ordinate, brackets are refined by bisection on the grid
path of Z plus a secant polish on its polish path (hardy_z_many with
polish=True, Euler-Maclaurin up to zeta.EM_POLISH_MAX), and the finished
table is audited two ways:

* Rosser envelope (necessary): |N(T) - F(T)| <= R(T) at the top height and at
  100 intermediate heights.  A violation is fatal.
* Theta heuristic (sensitive): where theta(t)/pi + 1 sits close to an integer
  and t is not crowding an ordinate, that integer should equal the count.
  Mismatches of 2 or more, or a consistent run of off-by-one mismatches,
  signal locally missed zeros and trigger re-isolation at half the grid step.
  An isolated off-by-one at a single gate is recorded as a warning only: the
  fluctuation term of the counting function occasionally reaches past 1 even
  at desk heights, right before a late zero arrives.

Zeros are assumed simple for the secant step; a multiple zero would surface
as an audit failure, not a wrong table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Literal

import numpy as np

from . import zeta
from .bounds import big_f, big_r
from .errors import AuditError, ConvergenceError, CoverageError, DomainError

TWO_PI = 2.0 * math.pi

#: Grid refinement floor for isolation (known zero gaps at desk heights are
#: orders of magnitude wider).
REFINE_FLOOR = 1e-4

#: Local re-isolation rounds build_table runs on a failing audit.
MAX_REPAIR_ROUNDS = 3

_GATE_TOL = 0.3           # integer-proximity gate for the theta heuristic
_SEGMENT_GRAM_LENGTHS = 6  # minimum gate spacing during isolation, in pi of theta


@dataclass(frozen=True)
class ZeroOrdinate:
    """One zero ordinate: 1-based rank, height, and absolute error bound."""

    index: int
    gamma: float
    abs_err: float


@dataclass
class AuditReport:
    """Outcome of a completeness audit."""

    t_max: float
    count: int
    envelope_ok: bool
    envelope_failures: list[tuple[float, int, float, float]] = field(default_factory=list)
    gates_checked: int = 0
    mismatches: list[tuple[float, int, int]] = field(default_factory=list)
    suspect_spans: list[tuple[float, float]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    passed: bool = False


@dataclass(eq=False)
class ZeroTable:
    """Sorted, optionally audited list of ordinates covering (0, t_max]."""

    ordinates: tuple[ZeroOrdinate, ...]
    t_max: float
    audited: bool
    source: Literal["computed", "ingested", "merged"]
    audit: AuditReport | None = None

    def __post_init__(self):
        prev = 0.0
        for rank, z in enumerate(self.ordinates, start=1):
            if z.index != rank:
                raise ValueError(f"ordinate indices must be consecutive from 1, got {z.index} at rank {rank}")
            if z.gamma <= 14.0:
                raise ValueError(f"no zero ordinate lies at or below 14, got {z.gamma}")
            if not z.gamma > prev:
                raise ValueError(f"ordinates must increase strictly, got {z.gamma} after {prev}")
            prev = z.gamma

    @cached_property
    def gammas(self) -> np.ndarray:
        return np.array([z.gamma for z in self.ordinates], dtype=float)

    @cached_property
    def prefix(self) -> np.ndarray:
        """prefix[k] = compensated sum of 1/gamma over the first k ordinates."""
        return _neumaier_prefix(1.0 / self.gammas)

    def __len__(self) -> int:
        return len(self.ordinates)

    def count_at(self, T: float) -> int:
        """Number of ordinates <= T (no audit requirement; internal queries)."""
        return int(np.searchsorted(self.gammas, T, side="right"))


def _neumaier_prefix(values: np.ndarray) -> np.ndarray:
    """Compensated running sums; prefix[k] = sum of the first k values."""
    out = [0.0]
    total = 0.0
    comp = 0.0
    for v in values.tolist():  # Python floats: same IEEE sums, no numpy scalars
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out.append(total + comp)
    return np.array(out)


def count_up_to(table: ZeroTable, T: float) -> int:
    """N(T) for an audited table, inclusive of an ordinate equal to T."""
    if T > table.t_max:
        raise CoverageError(f"T={T} beyond audited coverage t_max={table.t_max}")
    if not table.audited:
        raise AuditError("count_up_to requires an audited table", table.audit)
    return table.count_at(T)


def _initial_step(t_hi: float) -> float:
    denom = math.log(t_hi / TWO_PI)
    return min(0.5, math.pi / denom) if denom > 0 else 0.5


def _mean_gap(t: float) -> float:
    return TWO_PI / max(math.log(t / TWO_PI), 0.2)


def _brackets_from_grid(grid: np.ndarray, zvals: np.ndarray) -> list[tuple[float, float]]:
    s = np.sign(zvals)
    # a grid point landing exactly on a zero is adopted as a degenerate-width
    # sign carrier by nudging its sign to that of its left neighbour
    zero_hits = np.flatnonzero(s == 0.0)
    for i in zero_hits:
        s[i] = s[i - 1] if i > 0 else 1.0
    flips = np.flatnonzero(s[:-1] * s[1:] < 0.0)
    return [(float(grid[i]), float(grid[i + 1])) for i in flips]


def _scan_window(a: float, b: float, step: float) -> list[tuple[float, float]]:
    npts = max(3, int(math.ceil((b - a) / step)) + 1)
    grid = np.linspace(a, b, npts)
    return _brackets_from_grid(grid, zeta.hardy_z_many(grid))


def isolate_zeros(t_lo: float, t_hi: float,
                  initial_step: float | None = None) -> list[tuple[float, float]]:
    """Disjoint sign-change brackets for every zero ordinate in [t_lo, t_hi].

    The grid pass is followed by segment count checks anchored at gate
    points: grid points where theta/pi + 1 sits within 0.3 of an integer and
    which keep a safe distance from every bracket.  At such a point the
    nearby integer *is* the zero count (up to rare unit excursions of the
    fluctuation term), so the expected number of brackets per segment is an
    exact integer difference rather than a theta increment contaminated by
    fluctuation noise at both ends.  Deficient segments are rescanned at
    successively halved steps down to REFINE_FLOOR, which is what catches
    close pairs that a half-mean-gap grid steps over.
    """
    if t_lo < 2:
        raise DomainError(f"isolate_zeros requires t_lo >= 2, got {t_lo}")
    if not t_hi > t_lo:
        raise DomainError("isolate_zeros requires t_hi > t_lo")
    if t_hi > 1e6:
        raise DomainError("isolate_zeros validated for t_hi <= 1e6")
    step = initial_step if initial_step is not None else _initial_step(t_hi)

    npts = max(3, int(math.ceil((t_hi - t_lo) / step)) + 1)
    grid = np.linspace(t_lo, t_hi, npts)
    zvals = zeta.hardy_z_many(grid)
    brackets = _brackets_from_grid(grid, zvals)

    gates = _gate_indices(grid, brackets)
    bounds = [0] + gates + [grid.size - 1]
    g_of = lambda i: zeta.rs_theta(float(grid[i])) / math.pi + 1.0

    out: list[tuple[float, float]] = []
    mids = np.array([0.5 * (a + b) for a, b in brackets])
    for lo_i, hi_i in zip(bounds[:-1], bounds[1:]):
        if hi_i <= lo_i:
            continue
        a, b = float(grid[lo_i]), float(grid[hi_i])
        expected = int(round(g_of(hi_i)) - round(g_of(lo_i)))
        sel = np.flatnonzero((mids > a) & (mids <= b))
        found = [brackets[j] for j in sel]
        local_step = step
        while expected - len(found) >= 1 and local_step > REFINE_FLOOR:
            local_step *= 0.5
            found = _scan_window(a, b, local_step)
        out.extend(found)
    return out


def _gate_indices(grid: np.ndarray, brackets: list[tuple[float, float]]) -> list[int]:
    """Grid indices usable as integer count anchors for segment checks."""
    theta = zeta.rs_theta(grid)
    g = theta / math.pi + 1.0
    frac_dist = np.abs(g - np.round(g))
    mids = np.array([0.5 * (a + b) for a, b in brackets]) if brackets else np.empty(0)
    gates: list[int] = []
    theta_last = -math.inf
    for i in range(1, grid.size - 1):
        if frac_dist[i] > 0.25:
            continue
        if theta[i] - theta_last < _SEGMENT_GRAM_LENGTHS * math.pi:
            continue
        t = float(grid[i])
        if mids.size:
            j = int(np.searchsorted(mids, t))
            dist = min(
                t - mids[j - 1] if j > 0 else math.inf,
                mids[j] - t if j < mids.size else math.inf,
            )
            if dist < 0.3 * _mean_gap(t):
                continue
        gates.append(i)
        theta_last = theta[i]
    return gates


def _refine_many(brackets: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Vectorised bisection + secant polish; returns (gamma, abs_err) pairs."""
    if not brackets:
        return []
    a = np.array([br[0] for br in brackets], dtype=float)
    b = np.array([br[1] for br in brackets], dtype=float)
    fa = zeta.hardy_z_many(a)
    fb = zeta.hardy_z_many(b)
    bad = np.flatnonzero(np.sign(fa) * np.sign(fb) >= 0)
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"bracket ({a[i]}, {b[i]}) carries no sign change")

    # bisection to ~1e-6 wide brackets
    n_bisect = int(math.ceil(math.log2(float(np.max(b - a)) / 1e-6))) if np.max(b - a) > 1e-6 else 0
    for _ in range(max(n_bisect, 0)):
        m = 0.5 * (a + b)
        fm = zeta.hardy_z_many(m)
        take_left = np.sign(fm) == np.sign(fa)
        a = np.where(take_left, m, a)
        fa = np.where(take_left, fm, fa)
        b = np.where(take_left, b, m)
        fb = np.where(take_left, fb, fm)

    # secant polish on the polish path of Z
    x0, x1 = a.copy(), b.copy()
    f0 = zeta.hardy_z_many(x0, polish=True)
    f1 = zeta.hardy_z_many(x1, polish=True)
    last_step = np.abs(x1 - x0)
    slope = np.abs(f1 - f0) / np.maximum(last_step, 1e-300)
    active = np.ones(x1.shape, dtype=bool)
    for _ in range(12):
        if not np.any(active):
            break
        denom = f1 - f0
        safe = active & (denom != 0.0)
        x2 = np.where(safe, x1 - f1 * (x1 - x0) / np.where(denom == 0.0, 1.0, denom), x1)
        # a secant step escaping its original bracket falls back to the midpoint
        esc = safe & ((x2 < a - 1e-9) | (x2 > b + 1e-9))
        x2 = np.where(esc, 0.5 * (x0 + x1), x2)
        f2 = np.empty_like(x2)
        f2[safe] = zeta.hardy_z_many(x2[safe], polish=True)
        step = np.abs(x2 - x1)
        upd = safe & (step > 0.0)
        slope = np.where(upd, np.abs(f2 - f1) / np.maximum(step, 1e-300), slope)
        last_step = np.where(safe, step, last_step)
        x0 = np.where(safe, x1, x0)
        f0 = np.where(safe, f1, f0)
        x1 = np.where(safe, x2, x1)
        f1 = np.where(safe, f2, f1)
        active = active & (last_step > 1e-13)

    out = []
    for g, st, sl in zip(x1, last_step, slope):
        zerr = zeta.hardy_z_err(float(g), polish=True)
        sl = max(float(sl), 1e-12)
        abs_err = float(st) + zerr / sl + 1e-15 * abs(float(g))
        out.append((float(g), abs_err))
    return out


def refine_zero(bracket: tuple[float, float]) -> ZeroOrdinate:
    """Refine one sign-change bracket to a zero ordinate (abs_err <= 1e-9).

    The rank field is 0 (unranked); table assembly assigns real indices.
    Raises ConvergenceError when one retry from a tightened bracket still
    misses the error target.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not b > a:
        raise DomainError(f"degenerate bracket ({a}, {b})")
    gamma, abs_err = _refine_many([(a, b)])[0]
    if abs_err > 1e-9:
        # a second pass from a tightened bracket is the only retry that helps
        width = max(abs_err, 1e-10)
        a, b = gamma - width, gamma + width
        fa, fb = zeta.hardy_z(a), zeta.hardy_z(b)
        if math.copysign(1.0, fa) == math.copysign(1.0, fb):
            return ZeroOrdinate(index=0, gamma=gamma, abs_err=abs_err)
        gamma, abs_err = _refine_many([(a, b)])[0]
        if abs_err > 1e-9:
            raise ConvergenceError(f"refinement did not converge for bracket ({a}, {b})")
    return ZeroOrdinate(index=0, gamma=gamma, abs_err=abs_err)


def _assemble(zeros: Iterable[tuple[float, float]], t_max: float,
              source: str = "computed") -> ZeroTable:
    """Rank ascending (gamma, abs_err) pairs into a table and audit it once."""
    ords = tuple(
        ZeroOrdinate(index=i, gamma=g, abs_err=e)
        for i, (g, e) in enumerate(zeros, start=1)
    )
    table = ZeroTable(ordinates=ords, t_max=t_max, audited=False, source=source)
    table.audit = audit_completeness(table)
    table.audited = table.audit.passed
    return table


def audit_completeness(table: ZeroTable) -> AuditReport:
    """Check a table against the Rosser envelope and the theta heuristic."""
    t_max = table.t_max
    report = AuditReport(t_max=t_max, count=len(table), envelope_ok=True)
    heights = list(np.linspace(2.0, t_max, 102)[1:-1]) + [t_max]

    last_envelope_ok = 2.0
    for h in heights:
        n = table.count_at(h)
        f, r = big_f(h), big_r(h)
        if abs(n - f) > r:
            report.envelope_ok = False
            report.envelope_failures.append((float(h), n, f, r))
            report.suspect_spans.append((last_envelope_ok, float(h)))
        else:
            last_envelope_ok = float(h)
    if not report.envelope_ok:
        report.passed = False
        return report

    gammas = table.gammas
    mism: list[tuple[float, int, int]] = []
    last_clean = 2.0
    consecutive = 0
    prev_delta = 0
    systematic = False
    for h in heights:
        g = zeta.rs_theta(float(h)) / math.pi + 1.0
        nearest = round(g)
        if abs(g - nearest) > _GATE_TOL:
            continue
        # skip gates crowding an ordinate: the counting function's
        # fluctuation term is routinely near +-1 there
        if gammas.size:
            i = int(np.searchsorted(gammas, h))
            dist = min(
                abs(h - gammas[i - 1]) if i > 0 else math.inf,
                abs(gammas[i] - h) if i < gammas.size else math.inf,
            )
            if dist < 0.25 * _mean_gap(float(h)):
                continue
        report.gates_checked += 1
        n = table.count_at(h)
        delta = int(nearest) - n
        if delta == 0:
            last_clean = float(h)
            consecutive = 0
            continue
        mism.append((float(h), n, int(nearest)))
        if abs(delta) >= 2:
            report.suspect_spans.append((last_clean, float(h)))
            systematic = True
        else:
            consecutive = consecutive + 1 if delta == prev_delta or consecutive == 0 else 1
            prev_delta = delta
            if consecutive >= 3:
                report.suspect_spans.append((last_clean, float(h)))
                systematic = True
    report.mismatches = mism
    if mism and not systematic:
        report.warnings.append(
            "isolated off-by-one theta-gate mismatches (fluctuation-term noise): "
            + ", ".join(f"T={h:.3f}" for h, _, _ in mism)
        )
    report.passed = report.envelope_ok and not systematic
    return report


def build_table(t_max: float) -> ZeroTable:
    """Isolate and refine every ordinate up to t_max into an audited table."""
    if not 20.0 <= t_max <= 1e6:
        raise DomainError(f"build_table requires 20 <= t_max <= 1e6, got {t_max}")
    step = _initial_step(t_max)
    brackets = isolate_zeros(2.0, t_max, initial_step=step)
    table = _assemble(sorted(_refine_many(brackets)), t_max)

    for _ in range(MAX_REPAIR_ROUNDS):
        if table.audited:
            break
        step *= 0.5
        refreshed = dict((z.gamma, z.abs_err) for z in table.ordinates)
        for lo, hi in table.audit.suspect_spans:
            pad = 2.0 * _mean_gap(hi)
            lo = max(2.0, lo - pad)
            hi = min(t_max, hi + pad)
            for br in isolate_zeros(lo, hi, initial_step=step):
                if not any(br[0] < g < br[1] for g in refreshed):
                    g, e = _refine_many([br])[0]
                    refreshed[g] = e
        table = _assemble(sorted(refreshed.items()), t_max)

    if table.audited:
        return table
    report = table.audit
    if not report.envelope_ok:
        raise AuditError(
            f"Rosser envelope violated at {report.envelope_failures[0][0]:.3f} "
            "even after local re-isolation",
            report,
        )
    raise AuditError(
        "completeness audit still failing after local re-isolation", report
    )


# ---------------------------------------------------------------------------
# Persistence: one decimal ordinate per line, plus an optional JSON sidecar.
# ---------------------------------------------------------------------------

_TABLE_DECIMALS = 9


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


def save_table(table: ZeroTable, path: str | Path, sidecar: bool = True) -> None:
    path = Path(path)
    with path.open("w") as fh:
        for z in table.ordinates:
            fh.write(f"{z.gamma:.{_TABLE_DECIMALS}f}\n")
    if sidecar:
        meta = {
            "t_max": table.t_max,
            "source": table.source,
            "audited": table.audited,
            "tool_version": _tool_version(),
        }
        with sidecar_path(path).open("w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_table(path: str | Path) -> ZeroTable:
    """Load a persisted table, honouring its sidecar metadata when present.

    Without a sidecar this is plain reference-file parsing, whose audited
    coverage ends just past the last printed ordinate.  The sidecar restores
    the original coverage height (a computed table is complete up to the
    height it was built for, not merely up to its last zero) and the source
    tag.  Either way the file is parsed once and audited once, at the
    coverage height.
    """
    from .ingestion import _read_ordinates

    gammas, abs_err = _read_ordinates(path)
    meta_path = sidecar_path(path)
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    return _assemble(
        ((g, abs_err) for g in gammas),
        t_max=float(meta.get("t_max", gammas[-1] + abs_err)),
        source=meta.get("source", "ingested"),
    )


def _tool_version() -> str:
    from . import __version__

    return __version__

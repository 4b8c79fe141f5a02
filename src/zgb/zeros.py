"""Isolation and refinement of critical-line zero ordinates, completeness
auditing, and table persistence.

The pipeline is sign-change based.  Hardy's Z is sampled at the Gram points
g_n, where theta(g_n) = n pi.  A Gram block runs from one good Gram point
((-1)^n Z(g_n) > 0) to the next, and by Rosser's rule a block of length m
holds m zeros; a block whose samples show fewer sign changes is rescanned at
halving steps.  Turing's method, on Gram blocks from 168 pi up, certifies the
zero count at both ends of the range, so each sign change brackets exactly
one zero and none is missed; Z runs to zeta.Z_TOP, past 1e6, for its blocks.
Each bracket is a row (a, b, Z(a), Z(b)) with grid-path Z at both ends, so no
end is evaluated twice; an end within hardy_z_err of zero is the zero's place.
Brackets are refined by Illinois steps on the grid path of Z plus a secant
polish on its polish path (hardy_z_many with polish=True, Euler-Maclaurin up
to zeta.EM_POLISH_MAX).  The finished table is audited two ways:

* Rosser envelope (independent cross-check): |N(T) - F(T)| <= R(T) at the
  top height and at 100 intermediate heights.
* Turing certificate: the same Gram-block routine certifies N(t_max), and the
  table must hold exactly that many ordinates up to t_max.

A table runs its audit on the first read of ZeroTable.audit; a failure of
either check fails it, build_table then raises AuditError, and count_up_to
refuses the table.  A multiple zero shows no sign change of its own, so it
would surface as a block that stays short, not as a wrong table.
"""

from __future__ import annotations

import json
import math
import os
import uuid
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, zeta
from .bounds import big_f, big_r
from .errors import AuditError, ConvergenceError, CoverageError, DomainError, TableFormatError

TWO_PI = 2.0 * math.pi

#: Grid refinement floor for isolation (known zero gaps at desk heights are
#: orders of magnitude wider).
REFINE_FLOOR = 1e-4

#: Turing's method is proven for Gram blocks from here up (Lehman 1970).
TURING_MIN = 168.0 * math.pi


@dataclass(frozen=True)
class ZeroOrdinate:
    """One refined zero ordinate: height and absolute error bound."""

    gamma: float
    abs_err: float


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a completeness audit, as audit_completeness made it;
    frozen, so its verdict cannot be set afterwards."""

    t_max: float
    count: int
    envelope_ok: bool
    #: (height, count, F, R) at each height where |N - F| > R
    envelope_failures: tuple[tuple[float, int, float, float], ...]
    #: N(t_max) by Turing's method, and the number of Rosser-satisfying Gram
    #: blocks the method took on each side
    certified_count: int
    turing_blocks: int
    passed: bool


@dataclass(frozen=True, eq=False)
class ZeroTable:
    """Sorted ordinates covering (0, t_max], held as two read-only 1-D columns
    of one length, copied from the caller's: the heights gammas and their
    finite, non-negative absolute error bounds abs_err.  t_max must be finite
    and no lower than the last ordinate less its abs_err.  The table is
    frozen, so its audit, run by the first read of audit, stays its own."""

    gammas: np.ndarray
    abs_err: np.ndarray
    t_max: float

    def __post_init__(self):
        g, e = (np.array(c, dtype=float) for c in (self.gammas, self.abs_err))
        g.flags.writeable = e.flags.writeable = False
        vars(self).update(gammas=g, abs_err=e)  # past the frozen __setattr__
        if g.ndim != 1 or e.shape != g.shape:
            raise ValueError(f"gammas and abs_err must be 1-D columns of one length, "
                             f"got shapes {g.shape} and {e.shape}")
        if not (ok := np.isfinite(e) & (e >= 0.0)).all():
            raise ValueError(f"abs_err must be finite and >= 0, got {float(e[~ok][0])}")
        prev = np.append(0.0, g[:-1])
        bad = np.flatnonzero((g <= 14.0) | ~(g > prev))  # NaN fails the rise
        if bad.size:
            i = int(bad[0])
            if g[i] <= 14.0:
                raise ValueError(f"no zero ordinate lies at or below 14, got {float(g[i])}")
            raise ValueError(f"ordinates must increase strictly, got {float(g[i])} "
                             f"after {float(prev[i])}")
        last = float(g[-1] - e[-1]) if g.size else -math.inf
        if not (math.isfinite(self.t_max) and self.t_max >= last):
            raise ValueError(f"t_max {self.t_max} is not a finite height at or above "
                             f"the last ordinate less its abs_err, {last}")

    @cached_property
    def audit(self) -> AuditReport:
        """audit_completeness(self), run on the first read."""
        return audit_completeness(self)

    @property
    def audited(self) -> bool:
        """True when the table's audit passed."""
        return self.audit.passed

    @cached_property
    def prefix(self) -> np.ndarray:
        """prefix[k] = compensated sum of 1/gamma over the first k ordinates."""
        prefix = _neumaier_prefix(1.0 / self.gammas)
        prefix.flags.writeable = False
        return prefix

    def __len__(self) -> int:
        return self.gammas.size

    def count_at(self, T: float | np.ndarray) -> int | np.ndarray:
        """Ordinates <= T, at a height or at each of an array; no audit needed."""
        n = np.searchsorted(self.gammas, T, side="right")
        return n if np.ndim(n) else int(n)


def _neumaier_prefix(values: np.ndarray) -> np.ndarray:
    """Compensated running sums; prefix[k] = sum of the first k values.

    Neumaier's sum, done on columns: the running totals are one sequential
    cumsum, each step's rounding error follows from them, and the errors
    are summed by a second cumsum, so every rounding is the loop's own.
    """
    values = np.asarray(values, dtype=float)
    total = np.cumsum(values)
    before = np.concatenate(([0.0], total[:-1]))
    err = np.where(np.abs(before) >= np.abs(values),
                   (before - total) + values, (values - total) + before)
    comp = np.cumsum(np.concatenate(([0.0], err)))[1:]  # 0.0 + e, as the loop adds it
    return np.concatenate(([0.0], total + comp))


def count_up_to(table: ZeroTable, T: float) -> int:
    """N(T) for an audited table, inclusive of an ordinate equal to T."""
    if not T <= table.t_max:  # True for a NaN T too
        raise CoverageError(f"T={T} beyond audited coverage t_max={table.t_max}")
    if not table.audited:
        raise AuditError("count_up_to requires an audited table", table.audit)
    return table.count_at(T)


def _gram_points(n) -> np.ndarray:
    """Gram points g_n, where theta(g_n) = n pi, for indices n >= -1.

    Newton on rs_theta, started from the root of the leading terms
    t/2 log(t/(2 pi e)) - pi/8 = n pi, which is t = 2 pi e exp(W(x)) for
    x = (n + 1/8)/e.  W(x), the root of w - x exp(-w), takes Newton steps
    from log1p(x), with slope 1 + w at the root; 8 reach double precision
    for every Gram index up to 2e6, past the last below zeta.Z_TOP.
    """
    n = np.asarray(n, dtype=float)
    x = (n + 0.125) / math.e
    w = np.log1p(x)
    for _ in range(8):
        w = w - (w - x * np.exp(-w)) / (1.0 + w)
    t = TWO_PI * math.e * np.exp(w)
    for _ in range(4):
        t = t - (zeta.rs_theta(t) - math.pi * n) / zeta.rs_theta_deriv(t)
    return t


def _turing_blocks(t: float) -> int:
    """Rosser-satisfying Gram blocks Turing's method needs on each side of a
    Gram point, for blocks below height t (Brent 1979, Trudgian 2011)."""
    L = math.log(t)
    return math.ceil(min(0.0061 * L * L + 0.08 * L, 0.0031 * L * L + 0.11 * L))


def _brackets_from_grid(grid: np.ndarray, zvals: np.ndarray) -> np.ndarray:
    # a sample whose |Z| is within hardy_z_err of zero has no sign to count
    keep = np.abs(zvals) > zeta.hardy_z_err(grid)
    grid, zvals = grid[keep], zvals[keep]
    i = np.flatnonzero(np.signbit(zvals[:-1]) != np.signbit(zvals[1:]))
    rows = np.empty((i.size, 4))
    rows[:, 0], rows[:, 1] = grid[i], grid[i + 1]
    rows[:, 2], rows[:, 3] = zvals[i], zvals[i + 1]
    return rows


def _grid(a: float, b: float, step: float) -> np.ndarray:
    npts = max(3, int(math.ceil((b - a) / step)) + 1)
    grid = np.arange(npts) * ((b - a) / (npts - 1)) + a  # np.linspace(a, b, npts)
    grid[-1] = b
    return grid


def _scan_window(a: float, b: float, step: float) -> np.ndarray:
    grid = _grid(a, b, step)
    return _brackets_from_grid(grid, zeta.hardy_z_many(grid))


def _rescan(a: list[float], b: list[float], want: list[int],
            got: list[np.ndarray]) -> list[np.ndarray]:
    """Bracket rows of the Gram blocks [a, b] holding want zeros, from the
    rows got that their Gram points show: a block showing fewer is rescanned
    at halving steps from (b - a)/want down to REFINE_FLOOR, all blocks still
    short in one Z call a round."""
    got = list(got)
    step = [(hi - lo) / m for lo, hi, m in zip(a, b, want)]
    live = range(len(got))
    while live := [i for i in live if len(got[i]) < want[i] and step[i] > REFINE_FLOOR]:
        grids = []
        for i in live:
            step[i] *= 0.5
            grids.append(_grid(a[i], b[i], step[i]))
        z = zeta.hardy_z_many(np.concatenate(grids))
        cuts = np.cumsum([g.size for g in grids])[:-1]
        for i, grid, zvals in zip(live, grids, np.split(z, cuts)):
            got[i] = _brackets_from_grid(grid, zvals)
    return got


def _gram_scan(t_lo: float, t_hi: float) -> tuple[int, np.ndarray, int]:
    """N(t_lo) and sign-change brackets, one for each zero in (t_lo, t_hi],
    with the count certified by Turing's method.

    A Gram point g_n is good when (-1)^n Z(g_n) > hardy_z_err, and a Gram
    block runs from one good point to the next.  By Rosser's rule a block of
    length m holds m zeros; a block whose samples show fewer sign changes is
    rescanned at halving steps down to REFINE_FLOOR.  Turing's method, in
    Brent's form, turns k such blocks below a good g_c <= t_lo into
    N(g_c) >= c + 1 and k above a good g_d >= t_hi into N(g_d) <= d + 1, with
    k = _turing_blocks at the highest Gram point sampled.  Then d - c sign
    changes between them pin N(g_c) = c + 1 and N(g_d) = d + 1 and leave no
    zero unbracketed, so every block checked must show exactly its length:
    one that falls short at the floor, or shows more, raises AuditError.

    No Turing block starts below TURING_MIN = 168 pi: g_d >= TURING_MIN, and
    where the blocks below g_c would not, the count anchors at N(g_-1) = 0,
    since no zero lies below g_-1 = 9.67.  For t_hi <= 1e6 the blocks above
    g_d fit below zeta.Z_TOP; where they do not, Z raises DomainError.

    Returns (N(t_lo), the bracket rows (a, b, Z(a), Z(b)) of the zeros in
    (t_lo, t_hi], k), with a row across t_lo or t_hi trimmed by _cut.
    """
    top = max(t_hi, TURING_MIN)
    first = max(-1, int(zeta.rs_theta(max(t_lo, 10.0)) // math.pi))
    last = int(zeta.rs_theta(top) // math.pi) + 1
    pad = 4 * _turing_blocks(top) + 4
    while True:
        ns = np.arange(max(-1, first - pad), last + pad + 1)
        g = _gram_points(ns)
        z = zeta.hardy_z_many(g)
        k = _turing_blocks(float(g[-1]))
        ends = np.flatnonzero((np.where(ns % 2, -z, z) > zeta.hardy_z_err(g)) | (ns == -1))
        ge = g[ends]
        lo = int(np.searchsorted(ge, t_lo, side="right")) - 1  # last good <= t_lo
        hi = int(np.searchsorted(ge, top, side="left"))        # first good >= top
        c = lo if lo >= k and ge[lo - k] >= TURING_MIN else (0 if ns[0] == -1 else -1)
        if 0 <= c <= hi and hi + k < ge.size:
            break
        pad *= 2

    found = _brackets_from_grid(g, z)
    # brackets never straddle a good Gram point: its sample is reliable
    idx = np.searchsorted(found[:, 0], ge)
    lengths = np.diff(ns[ends])
    start, stop = max(c - k, 0), hi + k
    short = np.flatnonzero(np.diff(idx)[start:stop] != lengths[start:stop]) + start
    a, b, want = ge[short].tolist(), ge[short + 1].tolist(), lengths[short].tolist()
    got = _rescan(a, b, want, [found[idx[j]:idx[j + 1]] for j in short])
    out = []
    pos = idx[c]
    for i, j in enumerate(short.tolist()):
        if len(got[i]) != want[i]:
            raise AuditError(
                f"Gram block [{a[i]:.9f}, {b[i]:.9f}] shows {len(got[i])} sign changes "
                f"where Rosser's rule and Turing's method count {want[i]} zeros"
            )
        if j >= c:
            out += [found[pos:idx[j]], got[i]]
            pos = idx[j + 1]
    out.append(found[pos:])
    below, above = _cut(np.concatenate(out), t_lo)
    return int(ns[ends[c]]) + 1 + len(below), _cut(above, t_hi)[0], k


def _cut(rows: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Split ascending one-zero bracket rows at t into (zeros <= t, zeros > t).

    A row across t is trimmed to the side of t its zero lies on, as Z(t)
    tells, and carries Z(t) at its new end; a zero within hardy_z_err of t
    counts as lying at t, the end of its row.
    """
    i = int(np.searchsorted(rows[:, 1], t, side="right"))
    below, above = rows[:i], rows[i:]
    if not above.size or above[0, 0] >= t:
        return below, above
    a, b, za, zb = above[0]
    zt = zeta.hardy_z_many(np.array([t]))[0]
    if abs(zt) <= zeta.hardy_z_err(t) or (za > 0) != (zt > 0):
        return np.vstack((below, (a, t, za, zt))), above[1:]
    return below, np.vstack(((t, b, zt, zb), above[1:]))


def isolate_zeros(t_lo: float, t_hi: float) -> list[tuple[float, float]]:
    """Disjoint, ascending sign-change brackets, one for each zero ordinate
    in (t_lo, t_hi], all inside [t_lo, t_hi].

    The brackets come from _gram_scan: Z at the Gram points, short Gram
    blocks rescanned, and the count certified by Turing's method on both
    sides of the range.  A block that stays short raises AuditError.
    """
    if t_lo < 2:
        raise DomainError(f"isolate_zeros requires t_lo >= 2, got {t_lo}")
    if not t_hi > t_lo:
        raise DomainError("isolate_zeros requires t_hi > t_lo")
    if t_hi > 1e6:
        raise DomainError("isolate_zeros validated for t_hi <= 1e6")
    rows = _gram_scan(t_lo, t_hi)[1]
    ends, where = np.unique(rows[:, :2], return_inverse=True)
    ends = ends.tolist()  # adjacent brackets share the float of their common end
    return [(ends[i], ends[j]) for i, j in where.reshape(-1, 2).tolist()]


def _refine_many(rows: np.ndarray) -> np.ndarray:
    """Refine bracket rows (a, b, Z(a), Z(b)), with grid-path Z at both ends,
    all at once; returns (gamma, abs_err) rows.  An end within hardy_z_err of
    zero is the zero's place, and its Z counts as 0; only ends of one strict
    sign raise DomainError.

    Bracketed Illinois steps (regula falsi that halves the value kept at an
    end that stays twice in a row) narrow each bracket on the grid path of Z.
    A bracket stops at the first iterate whose |Z| is within hardy_z_err,
    since that sign could point the next step away from the zero.  A secant
    polish on the polish path of Z then starts from the last two iterates,
    reusing their values where the two paths are the same function.
    abs_err = last secant step + hardy_z_err / |slope| + 1e-15 gamma, plus
    the step back onto the row's end where the polish went past it.
    """
    a, b, fa, fb = rows.T.copy()
    same = np.flatnonzero(fa * fb > 0)
    if same.size:  # ends of one sign: one within hardy_z_err of zero is the zero's place
        for x, f in ((a, fa), (b, fb)):
            f[same] = np.where(np.abs(f[same]) > zeta.hardy_z_err(x[same]), f[same], 0.0)
    bad = np.flatnonzero(fa * fb > 0)
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"bracket ({a[i]}, {b[i]}) carries no sign change")

    # the last two iterates of each bracket, with their grid-path values
    x0, f0, x1, f1 = a.copy(), fa.copy(), b.copy(), fb.copy()
    ga, gb = fa.copy(), fb.copy()  # end values as Illinois scales them
    kept = np.zeros(a.shape, dtype=int)  # end that stayed last: -1 a, +1 b
    live = np.arange(a.size)
    while live.size:
        x = b[live] - gb[live] * (b[live] - a[live]) / (gb[live] - ga[live])
        # a point that rounds onto an end leaves the bracket as narrow as it gets
        inside = (x > a[live]) & (x < b[live])
        live, x = live[inside], x[inside]
        fx = zeta.hardy_z_many(x)
        x0[live], f0[live] = x1[live], f1[live]
        x1[live], f1[live] = x, fx
        sure = np.abs(fx) > zeta.hardy_z_err(x)
        live, x, fx = live[sure], x[sure], fx[sure]
        right = np.sign(fx) == np.sign(gb[live])
        i, j = live[right], live[~right]
        b[i], gb[i] = x[right], fx[right]
        ga[i] *= np.where(kept[i] == -1, 0.5, 1.0)
        a[j], ga[j] = x[~right], fx[~right]
        gb[j] *= np.where(kept[j] == 1, 0.5, 1.0)
        kept[i], kept[j] = -1, 1

    # secant polish on the polish path of Z, from the last two iterates
    for x, f in ((x0, f0), (x1, f1)):
        redo = zeta.em_path(x, polish=True) != zeta.em_path(x)
        if redo.any():
            f[redo] = zeta.hardy_z_many(x[redo], polish=True)
    last_step = np.abs(x1 - x0)
    slope = np.abs(f1 - f0) / np.maximum(last_step, 1e-300)
    live = np.flatnonzero(last_step > 1e-13)
    for _ in range(12):
        live = live[f1[live] != f0[live]]
        x2 = x1[live] - f1[live] * (x1[live] - x0[live]) / (f1[live] - f0[live])
        # a secant step escaping the bracket falls back to the midpoint
        esc = (x2 < a[live] - 1e-9) | (x2 > b[live] + 1e-9)
        x2 = np.where(esc, 0.5 * (x0[live] + x1[live]), x2)
        # a step that rounds away has converged; one no shorter than the last
        # is rounding noise: stop before it
        step = np.abs(x2 - x1[live])
        last_step[live[step == 0.0]] = 0.0
        go = (step > 0.0) & (step < last_step[live])
        live, x2, step = live[go], x2[go], step[go]
        if not live.size:
            break
        f2 = zeta.hardy_z_many(x2, polish=True)
        # a chord whose rise is within the Z error says nothing of the slope
        rise = np.abs(f2 - f1[live])
        slope[live] = np.where(rise > zeta.hardy_z_err(x2, polish=True), rise / step, slope[live])
        last_step[live] = step
        x0[live], f0[live] = x1[live], f1[live]
        x1[live], f1[live] = x2, f2
        live = live[step > 1e-13]

    # the polish may step past an end that is the zero's place: keep it there
    gamma = np.clip(x1, rows[:, 0], rows[:, 1])
    zerr = zeta.hardy_z_err(x1, polish=True)
    abs_err = last_step + zerr / np.maximum(slope, 1e-12) + 1e-15 * np.abs(x1)
    return np.column_stack((gamma, abs_err + np.abs(x1 - gamma)))


def refine_zero(bracket: tuple[float, float]) -> ZeroOrdinate:
    """Refine one sign-change bracket to a zero ordinate (abs_err <= 1e-9).

    One pass of _refine_many on the bracket, with Z at both ends from one
    hardy_z_many call.  Raises ConvergenceError, naming the bracket and the
    abs_err reached, when that pass misses the target.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not b > a:
        raise DomainError(f"degenerate bracket ({a}, {b})")
    fa, fb = zeta.hardy_z_many(np.array([a, b]))
    gamma, abs_err = _refine_many(np.array([[a, b, fa, fb]]))[0].tolist()
    if not abs_err <= 1e-9:
        raise ConvergenceError(f"bracket ({a}, {b}) refined to abs_err {abs_err:.3e} > 1e-9")
    return ZeroOrdinate(gamma=gamma, abs_err=abs_err)


def audit_completeness(table: ZeroTable) -> AuditReport:
    """Check a table against the Rosser envelope and the Turing-certified
    zero count at t_max."""
    t_max = table.t_max
    heights = np.append(np.linspace(2.0, t_max, 102)[1:-1], t_max)
    envelope = [(h, n, big_f(h), big_r(h))
                for h, n in zip(heights.tolist(), table.count_at(heights).tolist())]
    failures = tuple(row for row in envelope if abs(row[1] - row[2]) > row[3])
    certified, _, k = _gram_scan(t_max, t_max)
    return AuditReport(t_max=t_max, count=len(table), envelope_ok=not failures,
                       envelope_failures=failures, certified_count=certified,
                       turing_blocks=k,
                       passed=not failures and table.count_at(t_max) == certified)


def build_table(t_max: float) -> ZeroTable:
    """Isolate and refine every ordinate up to t_max into an audited table."""
    if not 20.0 <= t_max <= 1e6:
        raise DomainError(f"build_table requires 20 <= t_max <= 1e6, got {t_max}")
    zeros = _refine_many(_gram_scan(2.0, t_max)[1])
    table = ZeroTable(zeros[:, 0], zeros[:, 1], t_max)
    report = table.audit
    if not report.passed:
        raise AuditError(
            f"audit failed: {report.count} ordinates, Turing's method certifies "
            f"{report.certified_count} up to {t_max}, "
            f"Rosser envelope {'holds' if report.envelope_ok else 'violated'}",
            report,
        )
    return table


# ---------------------------------------------------------------------------
# Persistence: one decimal ordinate per line, plus a JSON sidecar.
# ---------------------------------------------------------------------------

_TABLE_DECIMALS = 9
_SANITY_FIRST = 14.1347
_SANITY_TOL = 1e-3


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


def _replace_atomically(path: Path, data: bytes) -> None:
    """Write data to a temp file beside path, then move it over path, so a
    failed or concurrent write never leaves a partial file under that name.
    An OSError that names a file names path, the name the caller gave."""
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:
            exc.filename, exc.filename2 = str(path), None
        raise


def save_table(table: ZeroTable, path: str | Path) -> None:
    """Write the ordinates, and a sidecar with the coverage height, audit
    status, ordinate count, sha256 of the table bytes and tool version."""
    import hashlib  # not at module top: it loads OpenSSL into every zgb process
    path = Path(path)
    data = "".join(f"{g:.{_TABLE_DECIMALS}f}\n" for g in table.gammas.tolist()).encode()
    _replace_atomically(path, data)
    meta = {
        "t_max": table.t_max,
        "audited": table.audited,
        "count": len(table),
        "sha256": hashlib.sha256(data).hexdigest(),
        "tool_version": __version__,
    }
    _replace_atomically(sidecar_path(path),
                        (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())


def _read_ordinates(path: str | Path) -> tuple[np.ndarray, float, bytes]:
    """The ordinates of a table file, their common abs_err, 10^-d for the
    fewest decimals d printed on any line, and the bytes read.

    A line holds one decimal ordinate, alone or after an index column, or
    nothing; anything else, or a first ordinate not near 14.1347, raises.

    The checks run on whole columns, and only a failed one looks for its
    line: the first failure in file order, with a line's checks in the
    order field count, layout, decimal, finite, increasing.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        before = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise TableFormatError(f"not UTF-8: byte {data[exc.start]:#04x}",
                               line=before.count(b"\n") + 1) from exc
    # the line ends of text-mode reading: \n, \r\n and \r
    fields = list(map(str.split, text.replace("\r\n", "\n").replace("\r", "\n").split("\n")))
    tokens = [f[-1] for f in fields if f]
    width = np.fromiter(map(len, fields), dtype=np.intp, count=len(fields))
    rows = np.flatnonzero(width)  # 0-based numbers of the nonblank lines
    width = width[rows]
    bad = len(tokens)  # the first token that is not a decimal
    try:
        values = np.array(tokens, dtype=float)  # parses as float() does
    except ValueError:
        for bad, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                break
        values = np.array(tokens[:bad], dtype=float)
    n_cols = int(width[0]) if rows.size else 1
    broken = np.flatnonzero((width != n_cols) | (width > 2))
    # a NaN fails the rise too, but its line reports it as non-finite
    faults = np.flatnonzero(~np.isfinite(values) | ~(values > np.append(-np.inf, values[:-1])))
    first = min([bad, *broken[:1].tolist(), *faults[:1].tolist()])
    if first < rows.size:
        line, got, token = int(rows[first]) + 1, int(width[first]), tokens[first]
        if got > 2:
            raise TableFormatError(
                f"expected 1 or 2 whitespace-separated fields, got {got}", line=line)
        if got != n_cols:
            raise TableFormatError(f"layout switched from {n_cols} to {got} fields", line=line)
        if first == bad:
            raise TableFormatError(f"not a decimal: {token!r}", line=line)
        if not np.isfinite(values[first]):
            raise TableFormatError(f"non-finite ordinate {token!r}", line=line)
        raise TableFormatError(f"ordinates must increase strictly: {float(values[first])} "
                               f"after {float(values[first - 1])}", line=line)

    if not values.size:
        raise TableFormatError(f"no ordinates found in {path}")
    if abs(values[0] - _SANITY_FIRST) > _SANITY_TOL:
        raise TableFormatError(
            f"sanity gate: first ordinate {float(values[0])} is not ~{_SANITY_FIRST}",
            line=1,
        )
    arr = np.array(tokens)
    point = np.char.find(arr, ".")
    decimals = np.where(point >= 0, np.char.str_len(arr) - point - 1, 0)
    return values, 10.0 ** (-int(decimals.min())), data


def load_table(path: str | Path) -> ZeroTable:
    """Load a table file, computed or published, honouring its sidecar when
    present; this is the one reader of table files.

    Without a sidecar the audited coverage ends just past the last printed
    ordinate, so the inclusive boundary convention survives the file's
    rounding.  A sidecar restores the original coverage height (a computed
    table is complete up to the height it was built for, not merely up to
    its last zero).  Like every table, it runs its audit at that height when
    first asked for it.  A sidecar that is not a JSON object, whose t_max
    ZeroTable rejects, or whose count or sha256 disagrees with the table file,
    raises TableFormatError; a sidecar without those two fields is trusted as
    it is, and keys it does not name are ignored.
    """
    gammas, abs_err, data = _read_ordinates(path)
    t_max = float(gammas[-1]) + abs_err
    meta_path = sidecar_path(path)
    if meta_path.exists():
        import hashlib  # not at module top: it loads OpenSSL into every zgb process
        try:
            meta = json.loads(meta_path.read_bytes())
            t_max = float(meta.get("t_max", t_max))
        except (ValueError, TypeError, AttributeError) as exc:
            raise TableFormatError(f"malformed sidecar {meta_path}: {exc}") from exc
        if meta.get("count", gammas.size) != gammas.size:
            raise TableFormatError(f"sidecar {meta_path} counts {meta['count']} "
                                   f"ordinates, the table file {gammas.size}")
        if "sha256" in meta and meta["sha256"] != hashlib.sha256(data).hexdigest():
            raise TableFormatError(f"sidecar {meta_path} sha256 does not match the table file")
    try:
        return ZeroTable(gammas, np.full(gammas.size, abs_err), t_max)
    except ValueError as exc:  # a t_max the audit cannot use
        raise TableFormatError(f"sidecar {meta_path}: {exc}") from exc

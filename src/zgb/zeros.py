"""Isolation and refinement of critical-line zero ordinates, completeness
auditing, and table persistence.

The pipeline is sign-change based.  Hardy's Z is sampled at the Gram points
g_n, where theta(g_n) = n pi.  A Gram block runs from one good Gram point
((-1)^n Z(g_n) > 0) to the next, and by Rosser's rule a block of length m
holds m zeros; a block whose samples show fewer sign changes is rescanned at
halving steps.  Turing's method, on Gram blocks from 168 pi up, certifies the
zero count at both ends of the range, so each sign change brackets exactly
one zero and none is missed; Z runs to zeta.Z_TOP, past 1e6, for its blocks.
The scan walks the Gram points in chunks closed at good Gram points, so its
memory stays flat in the height and a build refines each chunk as it comes.
Each bracket is a row (a, b, Z(a), Z(b)) with Z at both ends, so no end is
evaluated twice; an end within hardy_z_err of zero is the zero's place.
Brackets are refined by Anderson-Bjorck steps and a secant polish, on the one
Z of zeta.hardy_z_many.  The finished table is audited two ways:

* Rosser envelope (independent cross-check): |N(T) - F(T)| <= R(T) at the
  top height and at 100 intermediate heights.
* Turing certificate: certified_count(t_max), which the table's count up to
  t_max must match by _count_agrees, the one count rule.

A table runs its audit on the first read of ZeroTable.audit; a failure of
either check fails it, build_table then raises AuditError, and count_up_to,
the gate of every query that reads a table's ordinates, refuses the table.
N(T) needs no table: certified_count(T) is the one route to the local scan,
and checked_count holds a table to it by the same rule.  A multiple zero
would surface as a block that stays short, not as a wrong table.
"""

from __future__ import annotations

import json
import math
import os
import re
import uuid
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, zeta
from .bounds import big_f, big_r
from .errors import AuditError, ConvergenceError, CountMismatch, CoverageError, DomainError, TableFormatError

TWO_PI = 2.0 * math.pi

#: Grid refinement floor for isolation (known zero gaps at desk heights are
#: orders of magnitude wider).
REFINE_FLOOR = 1e-4

#: Turing's method is proven for Gram blocks from here up (Lehman 1970).
TURING_MIN = 168.0 * math.pi

#: The top of every table, isolation and certified count.
T_TOP = 1e6


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
    of one length, copied from the caller's unless read-only: the heights
    gammas and their finite, non-negative absolute error bounds abs_err.
    t_max must be finite and no lower than the last ordinate less its
    abs_err.  The table is frozen, so its audit stays its own."""

    gammas: np.ndarray
    abs_err: np.ndarray
    t_max: float

    def __post_init__(self):
        # a read-only float64 column owning its memory is shared: nothing
        # writes it unless its owner makes it writeable again
        g, e = (c if isinstance(c, np.ndarray) and c.dtype == float and c.base is None and
                not c.flags.writeable else np.array(c, dtype=float) for c in (self.gammas, self.abs_err))
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
    are summed by a second cumsum, so every rounding is the loop's own; both
    are worked in place, and before, the totals a step back, is a view.
    """
    values = np.asarray(values, dtype=float)
    out, err = np.zeros(values.size + 1), np.zeros(values.size + 1)  # 0.0 + e first
    total, before, step = out[1:], out[:-1], err[1:]
    np.cumsum(values, out=total)
    first = np.abs(before, out=step) >= np.abs(values)
    np.add(np.subtract(before, total, out=step, where=first), values, out=step, where=first)
    other = np.logical_not(first, out=first)
    np.add(np.subtract(values, total, out=step, where=other), before, out=step, where=other)
    total += np.cumsum(err, out=err)[1:]
    return out


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


def _grids(a: np.ndarray, b: np.ndarray, step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grids of max(3, ceil((b - a)/step) + 1) points on [a[i], b[i]], each as
    np.linspace lays it alone, end to end, and the i of each point."""
    width = b - a
    npts = np.maximum(3, np.ceil(width / step).astype(int) + 1)
    last = np.cumsum(npts) - 1
    block = np.repeat(np.arange(npts.size), npts)
    j = np.arange(last[-1] + 1) - (last + 1 - npts)[block]  # index within its grid
    grid = j * (width / (npts - 1))[block] + a[block]
    grid[last] = b
    return grid, block


def _brackets_from_grid(grid: np.ndarray, z: np.ndarray,
                        blk: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Bracket rows (a, b, Z(a), Z(b)) of the sign changes of Z's samples z on
    grid and, given each point's block id, only of those within one block,
    with the block id of each row."""
    # a sample whose |Z| is within hardy_z_err of zero has no sign to count
    keep = np.abs(z) > zeta.hardy_z_err(grid)
    grid, z = grid[keep], z[keep]
    flip = np.signbit(z[:-1]) != np.signbit(z[1:])
    if blk is not None:
        blk = blk[keep]
        flip &= blk[:-1] == blk[1:]
    i = np.flatnonzero(flip)
    return (np.column_stack((grid[i], grid[i + 1], z[i], z[i + 1])),
            None if blk is None else blk[i])


def _scan_window(a: float, b: float, step: float) -> np.ndarray:
    grid = _grids(*np.atleast_1d(a, b, step))[0]
    return _brackets_from_grid(grid, zeta.hardy_z_many(grid))[0]


def _rescan(a: np.ndarray, b: np.ndarray, want: np.ndarray,
            n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows, ascending by block, and the block of each, for the Gram blocks
    [a, b] holding want zeros whose Gram points show n != want sign changes.
    Blocks showing fewer are rescanned at halving steps from (b - a)/want
    down to REFINE_FLOOR, all in one Z call a round; a block that ends with
    other than want raises AuditError.  A sign change counts only within a
    block, so a block's rows are _scan_window's at its last step."""
    n, step = n.copy(), (b - a) / want
    live = np.flatnonzero((n < want) & (step > REFINE_FLOOR))
    rows, owner = np.empty((0, 4)), np.empty(0, dtype=int)
    while live.size:
        step[live] *= 0.5
        grid, blk = _grids(a[live], b[live], step[live])
        found, blk = _brackets_from_grid(grid, zeta.hardy_z_many(grid), live[blk])
        n[live] = np.bincount(blk, minlength=a.size)[live]
        stay = ~np.isin(owner, live)
        rows, owner = np.concatenate((rows[stay], found)), np.concatenate((owner[stay], blk))
        live = live[(n[live] < want[live]) & (step[live] > REFINE_FLOOR)]
    if (bad := np.flatnonzero(n != want)).size:
        i = int(bad[0])
        raise AuditError(f"Gram block [{a[i]:.9f}, {b[i]:.9f}] shows {n[i]} sign changes "
                         f"where Rosser's rule and Turing's method count {want[i]} zeros")
    order = np.argsort(owner, kind="stable")
    return rows[order], owner[order]


_SCAN_CHUNK = 1 << 16  # the most Gram points a chunk of _gram_chunks samples


def _gram_samples(ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gram points at the indices ns, Z there, and which are good, g_-1 too."""
    g = _gram_points(ns)
    z = zeta.hardy_z_many(g)
    return g, z, (np.where(ns % 2, -z, z) > zeta.hardy_z_err(g)) | (ns == -1)


def _gram_chunks(t_lo: float, t_hi: float) -> Iterator[tuple[int, np.ndarray, int]]:
    """N(t_lo) and sign-change brackets, one for each zero in (t_lo, t_hi],
    with the count certified by Turing's method, in chunks.

    A Gram point g_n is good when (-1)^n Z(g_n) > hardy_z_err, and a Gram
    block runs from one good point to the next.  By Rosser's rule a block of
    length m holds m zeros; the blocks whose samples show fewer sign changes
    are rescanned together, at halving steps down to REFINE_FLOOR, by _rescan.
    Turing's method, in Brent's form, turns k such blocks below a good
    g_c <= t_lo into N(g_c) >= c + 1 and k above a good g_d >= t_hi into
    N(g_d) <= d + 1, with k = _turing_blocks at the highest Gram point the
    first pad reaches.  Then d - c sign changes between them pin
    N(g_c) = c + 1 and N(g_d) = d + 1 and leave no zero unbracketed, so every
    block checked must show exactly its length: one that falls short at the
    floor, or shows more, raises AuditError.

    No Turing block starts below TURING_MIN = 168 pi: g_d >= TURING_MIN, and
    where the blocks below g_c would not, the count anchors at N(g_-1) = 0,
    since no zero lies below g_-1 = 9.67.  For t_hi <= 1e6 the blocks above
    g_d fit below zeta.Z_TOP; where they do not, Z raises DomainError.

    A chunk of at most _SCAN_CHUNK Gram points closes at a good point, which
    opens the next, so no block or row spans a seam.  From the chunk holding
    t_lo on, each yields (N below its first row, its rows (a, b, Z(a), Z(b))
    in (t_lo, t_hi], a row across either end trimmed by _cut, k).  The blocks
    above g_d are checked in the last chunk: callers run the walk to its end.
    """
    top = max(t_hi, TURING_MIN)
    first = max(-1, int(zeta.rs_theta(max(t_lo, 10.0)) // math.pi))
    last = int(zeta.rs_theta(top) // math.pi) + 1
    pad = low = 4 * _turing_blocks(top) + 4
    k = 0
    while True:  # the pads double until k good blocks lie below t_lo
        ns = np.arange(max(-1, first - low), last + pad + 1)[:_SCAN_CHUNK]
        g, z, good = _gram_samples(ns)
        # k is set once, at the highest Gram point the first pad reaches
        k = k or _turing_blocks(float(g[-1] if ns[-1] == last + pad
                                      else _gram_points(last + pad)))
        ge = g[good]
        lo = int(np.searchsorted(ge, t_lo, side="right")) - 1  # last good <= t_lo
        c = lo if lo >= k and ge[lo - k] >= TURING_MIN else (0 if ns[0] == -1 else -1)
        if c >= 0:
            break
        # below TURING_MIN no wider pad gives those blocks: anchor at g_-1
        pad, low = (2 * pad, 2 * low) if g[0] >= TURING_MIN else (pad, first + 1)
    end, need, n, start = last + pad, k, int(ns[good][c]) + 1, max(c - k, 0)
    while True:
        ends = np.flatnonzero(good)
        ge, lengths = g[ends], np.diff(ns[ends])
        hi = int(np.searchsorted(ge, top, side="left"))  # first good >= top
        stop = min(hi + need, ge.size - 1)  # blocks [start, stop) are checked here
        need -= max(stop - hi, 0)           # good blocks still wanted above g_d = ge[hi]
        found = _brackets_from_grid(g, z)[0]
        # brackets never straddle a good Gram point: its sample is reliable, so
        # a row's block is the last good point at or below its left end, or -1
        block = np.searchsorted(ge, found[:, 0], side="right") - 1
        shown = np.bincount(block + 1, minlength=ge.size + 1)[1:]
        short = np.flatnonzero(shown[start:stop] != lengths[start:stop]) + start
        # from g_c up, the rows of the short blocks replace their Gram-point rows;
        # both sets ascend and all rows are disjoint, so one insert merges them
        rows = found[(block >= c) & (block < stop) & ~np.isin(block, short)]
        got, owner = _rescan(ge[short], ge[short + 1], lengths[short], shown[short])
        got = got[short[owner] >= c]
        rows = np.insert(rows, np.searchsorted(rows[:, 0], got[:, 0]), got, axis=0)
        below, rows = _cut(rows, t_lo)
        n += len(below)
        rows = _cut(rows, t_hi)[0]
        if ge[stop] > t_lo:  # a chunk at or below t_lo only adds to the count
            yield n, rows, k
        if not need:
            return
        # the next chunk opens at this one's last good point, with the samples
        # from there on; where they end at the pad, the pad is walked again
        n, end, keep = n + len(rows), end + pad * (ns[-1] == end), slice(ends[-1], None)
        more = np.arange(ns[-1] + 1, min(ns[ends[-1]] + _SCAN_CHUNK, end + 1))
        ns, g, z, good = (np.concatenate((v[keep], w))
                          for v, w in zip((ns, g, z, good), (more, *_gram_samples(more))))
        c = start = 0


def _gram_scan(t_lo: float, t_hi: float) -> tuple[int, np.ndarray, int]:
    """_gram_chunks(t_lo, t_hi) run to its end: (N(t_lo), every row, k)."""
    ns, rows, ks = zip(*_gram_chunks(t_lo, t_hi))
    return ns[0], np.concatenate(rows), ks[0]


def _cut(rows: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Split ascending one-zero bracket rows at t into views (zeros <= t, zeros > t).

    A row across t is trimmed in place to the side of t its zero lies on, as
    Z(t) tells, and carries Z(t) at its new end; a zero within hardy_z_err
    of t counts as lying at t, the end of its row.
    """
    i = int(np.searchsorted(rows[:, 1], t, side="right"))
    if i < len(rows) and rows[i, 0] < t:
        zt = zeta.hardy_z_many(np.array([t]))[0]
        below = int(abs(zt) <= zeta.hardy_z_err(t) or (rows[i, 2] > 0) != (zt > 0))
        rows[i, below::2] = t, zt  # (b, Z(b)) for a zero at or below t, else (a, Z(a))
        i += below
    return rows[:i], rows[i:]


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
    if t_hi > T_TOP:
        raise DomainError("isolate_zeros validated for t_hi <= 1e6")
    rows = _gram_scan(t_lo, t_hi)[1]
    ends, where = np.unique(rows[:, :2], return_inverse=True)
    ends = ends.tolist()  # adjacent brackets share the float of their common end
    return [(ends[i], ends[j]) for i, j in where.reshape(-1, 2).tolist()]


def _refine_many(rows: np.ndarray) -> np.ndarray:
    """Refine bracket rows (a, b, Z(a), Z(b)), with Z at both ends, all at
    once; returns (gamma, abs_err) rows.  An end within hardy_z_err of zero
    is the zero's place, and its Z counts as 0; only ends of one strict sign
    raise DomainError.

    Anderson-Bjorck steps (regula falsi that scales the value kept at an end
    that stays twice in a row by 1 - f(x)/f(replaced end), or 1/2 if that is
    not positive) narrow each bracket until an iterate's |Z| is within
    hardy_z_err, whose sign could point the next step away.  A secant polish
    then starts from the last two iterates.  A secant step of at most 8 ulps
    of the iterate is taken without Z at its end and ends the row's polish.
    abs_err = last secant step, taken or evaluated, + hardy_z_err / |slope| +
    1e-15 gamma, plus the step back onto the row's end where the polish went
    past it.
    """
    a, b, fa, fb = rows.T.copy()
    for x, f in ((a, fa), (b, fb)):
        f[np.abs(f) <= zeta.hardy_z_err(x)] = 0.0
    if (bad := np.flatnonzero(fa * fb > 0)).size:
        i = int(bad[0])
        raise DomainError(f"bracket ({a[i]}, {b[i]}) carries no sign change")

    # the last two iterates: an end at the zero's place is the last
    left = fa == 0.0
    x0, f0 = np.where(left, b, a), np.where(left, fb, fa)
    x1, f1 = np.where(left, a, b), np.where(left, fa, fb)
    ga, gb = fa, fb  # end values as Anderson-Bjorck scales them
    kept = np.zeros(a.shape, dtype=int)  # end that stayed last: -1 a, +1 b
    live = np.flatnonzero(fa * fb < 0)
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
        m = 1.0 - fx / np.where(right, gb[live], ga[live])
        m = np.where(m > 0.0, m, 0.5)
        ga[i] *= np.where(kept[i] == -1, m[right], 1.0)
        gb[j] *= np.where(kept[j] == 1, m[~right], 1.0)
        b[i], gb[i] = x[right], fx[right]
        a[j], ga[j] = x[~right], fx[~right]
        kept[i], kept[j] = -1, 1

    # secant polish from the last two iterates
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
        # a step of a few ulps is taken unconfirmed: Z moves over it by about
        # its own error or less, so a step from Z at its end is rounding noise
        done = step <= 8.0 * np.spacing(x1[live])
        x1[live[done]], last_step[live[done]] = x2[done], step[done]
        live, x2, step = live[~done], x2[~done], step[~done]
        if not live.size:
            break
        f2 = zeta.hardy_z_many(x2)
        # a chord whose rise is within the Z error says nothing of the slope
        rise = np.abs(f2 - f1[live])
        slope[live] = np.where(rise > zeta.hardy_z_err(x2), rise / step, slope[live])
        last_step[live] = step
        x0[live], f0[live] = x1[live], f1[live]
        x1[live], f1[live] = x2, f2
        live = live[step > 1e-13]

    # the polish may step past an end that is the zero's place: keep it there
    gamma = np.clip(x1, rows[:, 0], rows[:, 1])
    zerr = zeta.hardy_z_err(x1)
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


def certified_count(T: float) -> tuple[int, int]:
    """N(T) by Turing's method on the Gram blocks around T alone, and the
    Rosser-satisfying blocks it took on each side; no table is read.

    A zero within hardy_z_err of T counts as lying at T.  Past 1e6 the scan
    still answers while its blocks fit below zeta.Z_TOP, but no table or
    isolation reaches there, so T must lie in [2, 1e6].
    """
    if not 2.0 <= T <= T_TOP:  # NaN fails too
        raise DomainError(f"certified_count requires 2 <= T <= 1e6, got {T}")
    n, _, k = _gram_scan(T, T)
    return n, k


def _count_agrees(table: ZeroTable, T: float, n: int) -> bool:
    """The one count rule: table counts n ordinates up to T, or it holds every
    ordinate between its count and n, each within its abs_err of T."""
    lo, hi = sorted((n, table.count_at(T)))
    return hi <= len(table) and not (abs(table.gammas[lo:hi] - T) > table.abs_err[lo:hi]).any()


def checked_count(table: ZeroTable, T: float) -> int:
    """N(T) for a table past count_up_to's gate that agrees with it by
    _count_agrees, else CountMismatch; at t_max, the audit's, with no scan."""
    n = table.audit.certified_count if T == table.t_max else certified_count(T)[0]
    listed = count_up_to(table, T)
    if not _count_agrees(table, T, n):
        raise CountMismatch(T, n, listed)
    return n


def audit_completeness(table: ZeroTable) -> AuditReport:
    """Check a table against the Rosser envelope and, by _count_agrees, the
    Turing-certified zero count at t_max."""
    t_max = table.t_max
    heights = np.append(np.linspace(2.0, t_max, 102)[1:-1], t_max)
    envelope = [(h, n, big_f(h), big_r(h))
                for h, n in zip(heights.tolist(), table.count_at(heights).tolist())]
    failures = tuple(row for row in envelope if abs(row[1] - row[2]) > row[3])
    certified, k = certified_count(t_max)
    return AuditReport(t_max=t_max, count=len(table), envelope_ok=not failures,
                       envelope_failures=failures, certified_count=certified,
                       turing_blocks=k,
                       passed=not failures and _count_agrees(table, t_max, certified))


def build_table(t_max: float) -> ZeroTable:
    """Isolate and refine, chunk by chunk, every ordinate up to t_max into an audited table."""
    if not 20.0 <= t_max <= T_TOP:
        raise DomainError(f"build_table requires 20 <= t_max <= 1e6, got {t_max}")
    zeros = np.concatenate([_refine_many(rows) for _, rows, _ in _gram_chunks(2.0, t_max)])
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


def _replace_atomically(path: Path, chunks: Iterable[bytes]) -> None:
    """Write chunks, as they come, to a temp file beside path, then move it
    over path, so a failed or concurrent write never leaves a partial file
    under that name.  An OSError naming a file names path, the caller's."""
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:
            exc.filename, exc.filename2 = str(path), None
        raise


def _printed(gammas: np.ndarray) -> Iterator[bytes]:
    """The one printer of table files: the bytes of gammas' file, one %.9f
    ordinate a line, in slices of _SCAN_CHUNK lines."""
    for i in range(0, gammas.size, _SCAN_CHUNK):
        s = gammas[i:i + _SCAN_CHUNK].tolist()
        yield (f"%.{_TABLE_DECIMALS}f\n" * len(s) % tuple(s)).encode()


def save_table(table: ZeroTable, path: str | Path) -> None:
    """Write the ordinates, a slice of _printed at a time, and a sidecar with
    the coverage height, audit status, count, sha256 and tool version."""
    import hashlib  # not at module top: it loads OpenSSL into every zgb process
    path, digest = Path(path), hashlib.sha256()
    _replace_atomically(path, (digest.update(s) or s for s in _printed(table.gammas)))
    meta = {
        "t_max": table.t_max,
        "audited": table.audited,
        "count": len(table),
        "sha256": digest.hexdigest(),
        "tool_version": __version__,
    }
    _replace_atomically(sidecar_path(path),
                        [(json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()])


def _as_saved(table: ZeroTable) -> ZeroTable:
    """The table load_table gives for the files save_table writes of table:
    _printed's slices read back by _parse_lines, t_max as the sidecar keeps it."""
    gammas, decimals = _parse_lines(s.decode() for s in _printed(table.gammas))
    return ZeroTable(gammas, np.full(gammas.size, 10.0 ** -decimals), table.t_max)


def _parse_lines(blocks: Iterable[str]) -> tuple[np.ndarray, int]:
    """The one parser of table lines: the ordinates of the text blocks gives
    in blocks of whole lines, and the fewest decimals on a line.  Detection
    runs on a block's whole columns (bulk parse, field counts, finiteness,
    strict rise), carrying the layout and the last ordinate across seams.
    Only the first block that fails is walked, line by line from its number,
    both carried in, checking field count, layout, decimal, finite, increasing;
    numpy parses a token as float() does, so the walk finds what detection saw."""
    parts, n_cols, decimals, seen = [np.full(1, -math.inf)], 0, math.inf, 0  # -inf below the first
    for block in blocks:
        first, seen = seen + 1, seen + block.count("\n")  # the block's first line number
        if not (fields := [f for f in map(str.split, block.split("\n")) if f]):
            continue
        tokens = [f[-1] for f in fields]
        width = np.fromiter(map(len, fields), dtype=np.intp, count=len(fields))
        n_cols = n_cols or int(width[0])
        try:
            values = np.array(tokens, dtype=float)
        except ValueError:
            break
        if (not (np.isfinite(values).all() and (np.diff(values, prepend=parts[-1][-1]) > 0).all())
                or ((width > 2) | (width != n_cols)).any()):
            break
        point = np.char.find(tokens := np.array(tokens), ".")
        decimals = min(decimals, int(np.where(point >= 0, np.char.str_len(tokens) - point - 1,
                                              0).min()))
        parts.append(values)
    else:  # a column of its own, past the sentinel, that a table can share
        return np.concatenate(parts[1:]) if len(parts) > 1 else np.empty(0), decimals
    prev = float(parts[-1][-1])
    for line, f in enumerate(map(str.split, block.split("\n")), start=first):
        if not f:
            continue
        got, token = len(f), f[-1]
        if got > 2:
            raise TableFormatError(
                f"expected 1 or 2 whitespace-separated fields, got {got}", line=line)
        if got != n_cols:
            raise TableFormatError(f"layout switched from {n_cols} to {got} fields", line=line)
        try:
            value = float(token)
        except ValueError as exc:
            raise TableFormatError(f"not a decimal: {token!r}", line=line) from exc
        if not math.isfinite(value):
            raise TableFormatError(f"non-finite ordinate {token!r}", line=line)
        if value <= prev:
            raise TableFormatError(
                f"ordinates must increase strictly: {value} after {prev}", line=line)
        prev = value


def _read_ordinates(path: str | Path, digest: bool = False) -> tuple[np.ndarray, float, str | None]:
    """The ordinates of a table file as a read-only column, their common
    abs_err, 10^-d for the fewest decimals d printed on any line, and with
    digest set the sha256 of the bytes read, which go when it returns.

    A line holds one decimal ordinate, alone or after an index column, or
    nothing; anything else, or a first ordinate not near 14.1347, raises.
    _parse_lines reads the text a block at a time, so no object a line of
    the whole file is held, whether or not a line fails.
    """
    path = Path(path)
    data = path.read_bytes()
    # the line ends of text-mode reading: \n, \r\n and \r
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        lines.decode()  # checked whole, decoded a block at a time
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"not UTF-8: byte {lines[exc.start]:#04x}",
                               line=lines[:exc.start].count(b"\n") + 1) from exc
    # blocks of whole lines, each to the first line end from 16 * _SCAN_CHUNK
    # bytes on: about _SCAN_CHUNK table lines
    whole_lines = re.compile(rb".{0,%d}[^\n]*\n?" % (16 * _SCAN_CHUNK), re.S)
    values, decimals = _parse_lines(m[0].decode() for m in whole_lines.finditer(lines))
    if not values.size:
        raise TableFormatError(f"no ordinates found in {path}")
    if abs(values[0] - _SANITY_FIRST) > _SANITY_TOL:
        raise TableFormatError(
            f"sanity gate: first ordinate {float(values[0])} is not ~{_SANITY_FIRST}", line=1)
    if digest:
        import hashlib  # not at module top: it loads OpenSSL into every zgb process
    values.flags.writeable = False
    return values, 10.0 ** -decimals, hashlib.sha256(data).hexdigest() if digest else None


def load_table(path: str | Path) -> ZeroTable:
    """Load a table file, computed or published, honouring its sidecar when
    present; the one reader of table files, which parses a block at a time.

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
    meta_path = sidecar_path(path)
    gammas, abs_err, sha256 = _read_ordinates(path, digest=meta_path.exists())
    t_max = float(gammas[-1]) + abs_err
    if sha256 is not None:  # the sidecar was there when the table was read
        try:
            meta = json.loads(meta_path.read_bytes())
            t_max = float(meta.get("t_max", t_max))
        except (ValueError, TypeError, AttributeError) as exc:
            raise TableFormatError(f"malformed sidecar {meta_path}: {exc}") from exc
        if meta.get("count", gammas.size) != gammas.size:
            raise TableFormatError(f"sidecar {meta_path} counts {meta['count']} "
                                   f"ordinates, the table file {gammas.size}")
        if "sha256" in meta and meta["sha256"] != sha256:
            raise TableFormatError(f"sidecar {meta_path} sha256 does not match the table file")
    (column := np.full(gammas.size, abs_err)).flags.writeable = False
    try:
        return ZeroTable(gammas, column, t_max)  # shares both columns
    except ValueError as exc:  # a t_max the audit cannot use
        raise TableFormatError(f"sidecar {meta_path}: {exc}") from exc

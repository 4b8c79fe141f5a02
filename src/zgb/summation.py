"""The reciprocal-ordinate sum A(T), weighted partial sums with their
Stieltjes counterpart, and sweeps that verify the two-sided bound

    3/50 < A(T) - M(T)            (T >= 2)
          A(T) - M(T) < 109/250   (T >= 2.222)

A is a step function jumping by 1/gamma at each ordinate, so its extreme
deviations from the smooth M live at the jumps; sweeps therefore always
include every ordinate and both of its one-sided neighbourhoods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable

import numpy as np

from .bounds import C_AL_FLOOR, C_AU_CAP, UPPER_THRESHOLD, main_term
from .errors import DomainError
from .zeros import ZeroTable, _neumaier_prefix, count_up_to

#: One-sided offset applied around each ordinate during sweeps.
SWEEP_EPS = 1e-6

_LOWER = float(C_AL_FLOOR)
_UPPER = float(C_AU_CAP)

#: Records converted to Python objects at a time when rows are read.
_ROW_CHUNK = 4096


def a_of_t(table: ZeroTable, T: float) -> float:
    """A(T): compensated ascending sum of 1/gamma over ordinates gamma <= T."""
    return float(table.prefix[count_up_to(table, T)])


@dataclass(frozen=True)
class PartialSumCheck:
    """Both sides of the partial-summation identity for one weight."""

    direct: float
    stieltjes: float
    difference: float


def partial_sum(table: ZeroTable, phi: Callable[[float], float],
                U: float, V: float) -> PartialSumCheck:
    """Sum of phi(gamma) over U < gamma <= V, against its Stieltjes form.

    The identity integrates by parts:

        sum = -integral_U^V N(t) phi'(t) dt + N(V) phi(V) - N(U) phi(U)

    and because N is a step function the integral is evaluated exactly as a
    finite sum of N-constant pieces times phi increments; no quadrature error
    enters.  phi must be C^1 and nonnegative on [U, V].
    """
    if not U > 1:
        raise DomainError(f"partial_sum requires U > 1, got {U}")
    if not V >= U:
        raise DomainError("partial_sum requires V >= U")
    hi = count_up_to(table, V)

    gammas = table.gammas
    lo = int(np.searchsorted(gammas, U, side="right"))
    inside = gammas[lo:hi]

    values = [phi(x) for x in [U, *inside.tolist(), V]]  # one call per point
    direct = float(_neumaier_prefix(np.array(values[1:-1]))[-1])

    # exact step integral of N(t) phi'(t) over [U, V]
    integral = 0.0
    for j in range(len(values) - 1):
        n_val = lo + j  # N on the open interval between points j and j + 1
        integral += n_val * (values[j + 1] - values[j])
    stieltjes = -integral + hi * values[-1] - lo * values[0]
    return PartialSumCheck(direct=direct, stieltjes=stieltjes,
                           difference=direct - stieltjes)


@dataclass(frozen=True)
class TheoremCheck:
    """One verification record of the two-sided bound at height T."""

    T: float
    a_val: float
    m_val: float
    delta: float
    lower_ok: bool
    upper_ok: bool
    margin_lo: float
    margin_hi: float


class SweepRecords(Sequence):
    """The records of a sweep, held as one array per TheoremCheck field; a
    record is built only when it is read."""

    def __init__(self, *columns: np.ndarray):
        self._columns = columns

    def __len__(self) -> int:
        return self._columns[0].size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        j = range(len(self))[i]  # IndexError past either end
        return TheoremCheck(*(c[j].item() for c in self._columns))

    def __iter__(self):
        return (TheoremCheck(*row) for row in self.rows())

    def rows(self):
        """Field tuples of Python floats and bools, converted a chunk at a time."""
        for lo in range(0, len(self), _ROW_CHUNK):
            yield from zip(*(c[lo:lo + _ROW_CHUNK].tolist() for c in self._columns))


@dataclass(frozen=True)
class SweepResult:
    records: SweepRecords
    delta_min: float
    delta_max: float
    min_margin_lo: float
    min_margin_hi: float
    all_lower_ok: bool
    all_upper_ok: bool


def check_sweep_range(t_min: float, t_max: float, samples: int) -> None:
    """Raise DomainError unless theorem_sweep can sweep [t_min, t_max] with
    samples grid points, whatever the table."""
    if not 2 <= t_min <= t_max:  # False for a NaN end too
        raise DomainError(
            f"theorem_sweep requires 2 <= t_min <= t_max, got t_min={t_min}, t_max={t_max}")
    if samples < 1:
        raise DomainError("theorem_sweep requires samples >= 1")


def theorem_sweep(table: ZeroTable, t_min: float, t_max: float,
                  samples: int) -> SweepResult:
    """Evaluate the bound on a grid plus at every ordinate and gamma +- eps.

    Violations are data, not exceptions: every record carries its margins and
    the result aggregates the global extremes.
    """
    check_sweep_range(t_min, t_max, samples)
    count_up_to(table, t_max)  # coverage and audit guard

    g = table.gammas
    near = np.concatenate((g - SWEEP_EPS, g, g + SWEEP_EPS))
    near = near[(near >= t_min) & (near <= t_max)]
    T = np.unique(np.concatenate((np.linspace(t_min, t_max, samples), near)))
    a_val = table.prefix[np.searchsorted(g, T, side="right")]
    m_val = main_term(T)
    delta = a_val - m_val
    margin_lo = delta - _LOWER
    margin_hi = _UPPER - delta
    lower_ok = margin_lo > 0.0
    upper_applies = T >= UPPER_THRESHOLD
    upper_ok = (margin_hi > 0.0) | ~upper_applies
    return SweepResult(
        records=SweepRecords(T, a_val, m_val, delta, lower_ok, upper_ok,
                             margin_lo, margin_hi),
        delta_min=float(delta.min()),
        delta_max=float(delta.max()),
        min_margin_lo=float(margin_lo.min()),
        min_margin_hi=float(margin_hi.min(initial=math.inf, where=upper_applies)),
        all_lower_ok=bool(lower_ok.all()),
        all_upper_ok=bool(upper_ok.all()),
    )

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
from typing import Callable, Sequence

import numpy as np

from .bounds import C_AL_FLOOR, C_AU_CAP, UPPER_THRESHOLD, main_term
from .errors import DomainError
from .zeros import ZeroTable, _neumaier_prefix, count_up_to

#: One-sided offset applied around each ordinate during sweeps.
SWEEP_EPS = 1e-6

_LOWER = float(C_AL_FLOOR)
_UPPER = float(C_AU_CAP)


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

    direct = float(_neumaier_prefix(np.array([phi(g) for g in inside]))[-1])

    # exact step integral of N(t) phi'(t) over [U, V]
    pieces = np.concatenate(([U], inside, [V]))
    integral = 0.0
    for j in range(pieces.size - 1):
        n_val = lo + j  # N on the open interval (pieces[j], pieces[j+1])
        integral += n_val * (phi(float(pieces[j + 1])) - phi(float(pieces[j])))
    stieltjes = -integral + hi * phi(V) - lo * phi(U)
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


@dataclass(frozen=True)
class SweepResult:
    records: tuple[TheoremCheck, ...]
    delta_min: float
    delta_max: float
    min_margin_lo: float
    min_margin_hi: float
    all_lower_ok: bool
    all_upper_ok: bool


def _check_at(T: float, a_val: float) -> TheoremCheck:
    m = main_term(T)
    delta = a_val - m
    margin_lo = delta - _LOWER
    margin_hi = _UPPER - delta
    upper_applies = T >= UPPER_THRESHOLD
    return TheoremCheck(
        T=T,
        a_val=a_val,
        m_val=m,
        delta=delta,
        lower_ok=margin_lo > 0.0,
        upper_ok=(margin_hi > 0.0) if upper_applies else True,
        margin_lo=margin_lo,
        margin_hi=margin_hi,
    )


def theorem_sweep(table: ZeroTable, t_min: float, t_max: float,
                  samples: int) -> SweepResult:
    """Evaluate the bound on a grid plus at every ordinate and gamma +- eps.

    Violations are data, not exceptions: every record carries its margins and
    the result aggregates the global extremes.
    """
    if t_min < 2:
        raise DomainError(f"theorem_sweep requires t_min >= 2, got {t_min}")
    if samples < 1:
        raise DomainError("theorem_sweep requires samples >= 1")
    count_up_to(table, t_max)  # coverage and audit guard

    gammas = table.gammas
    prefix = table.prefix

    points = set(np.linspace(t_min, t_max, samples))
    for g in gammas:
        for T in (g - SWEEP_EPS, g, g + SWEEP_EPS):
            if t_min <= T <= t_max:
                points.add(float(T))

    records = []
    for T in sorted(points):
        k = int(np.searchsorted(gammas, T, side="right"))
        records.append(_check_at(float(T), float(prefix[k])))

    deltas = [r.delta for r in records]
    hi_margins = [r.margin_hi for r in records if r.T >= UPPER_THRESHOLD]
    return SweepResult(
        records=tuple(records),
        delta_min=min(deltas),
        delta_max=max(deltas),
        min_margin_lo=min(r.margin_lo for r in records),
        min_margin_hi=min(hi_margins) if hi_margins else math.inf,
        all_lower_ok=all(r.lower_ok for r in records),
        all_upper_ok=all(r.upper_ok for r in records),
    )


@dataclass(frozen=True)
class ResidualPoint:
    T: float
    residual: float
    within_bounds: bool


def asymptotic_residual(table: ZeroTable,
                        heights: Sequence[float]) -> list[ResidualPoint]:
    """A(T) - M(T) at the given heights, each flagged against (3/50, 109/250).

    The flag applies each side only over its validity range (lower for T >= 2,
    upper for T >= 2.222).  Duplicate heights produce duplicate records.
    """
    prefix = table.prefix
    out = []
    for T in heights:
        k = count_up_to(table, T)
        residual = float(prefix[k]) - main_term(T)
        ok = True
        if T >= 2.0 and not residual > _LOWER:
            ok = False
        if T >= UPPER_THRESHOLD and not residual < _UPPER:
            ok = False
        out.append(ResidualPoint(T=float(T), residual=residual, within_bounds=ok))
    return out

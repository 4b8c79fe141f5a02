"""Closed-form estimates for the zero-counting function N(T) and for the
reciprocal-ordinate sum A(T) = sum of 1/gamma over ordinates gamma <= T.

The counting envelope is Rosser's explicit bound |N(T) - F(T)| <= R(T), valid
for T >= 2, with

    F(T) = (T/2pi) log(T/2pi) - T/2pi + 7/8
    R(T) = (137/1000) log T + (433/1000) log log T + 397/250

Pushing F and R through Stieltjes partial summation of A(T) produces a
two-sided explicit bound

    M(T) + 3/50 < A(T) < M(T) + 109/250

with M(T) = log^2(T)/(4pi) - log(2pi) log(T)/(2pi).  The lower bound holds for
T >= 2, the upper for T >= 2.222.  Everything needed for that derivation lives
here: both antiderivatives, the auxiliary function E(t) = integral over s >= 1
of ds/(s t^s) (an exponential integral in disguise), its two-sided envelope,
the sign-controlled tail terms, and the additive constants c_au and c_al,
computed in closed form as the limits of the exact bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
LOG_2PI = math.log(TWO_PI)

#: First zero ordinate, correct to double precision.  The zero-finder
#: reproduces this value independently; tests compare the two routes.
GAMMA1 = 14.134725141734694

#: Validity threshold of the simplified upper bound, taken verbatim as 2222/1000.
UPPER_THRESHOLD = 2.222

C_AU_CAP = Fraction(109, 250)
C_AL_FLOOR = Fraction(3, 50)

# Evaluation-error scale for the E1-based path of e_frak (relative ~1e-15,
# kept with generous headroom; used to assert strict inequalities with margin).
E_FRAK_EVAL_ERR = 1e-13


def _check_domain(name: str, var: str, x: float, lo: float) -> None:
    """Raise DomainError unless lo <= x < inf, which NaN and inf fail too."""
    if not lo <= x < math.inf:
        raise DomainError(f"{name} requires finite {var} >= {lo}, got {x}")


def big_f(T: float) -> float:
    """Smooth main term F(T) of the zero count, defined for T >= 2."""
    _check_domain("big_f", "T", T, 2)
    x = T / TWO_PI
    return x * math.log(x) - x + 0.875


def big_r(T: float) -> float:
    """Rosser's explicit envelope radius R(T), defined for T >= 2."""
    _check_domain("big_r", "T", T, 2)
    lt = math.log(T)
    return 0.137 * lt + 0.433 * math.log(lt) + 397.0 / 250.0


def main_term(T: float | np.ndarray) -> float | np.ndarray:
    """Main term M(T) = log^2(T)/(4pi) - log(2pi) log(T)/(2pi) of A(T), at
    one height or at each of an array of them, in an array of its shape.
    The logs of an array come from math.log too, since np.log can differ
    from it in the last place."""
    many = isinstance(T, np.ndarray)
    lowest, highest = (T.min(initial=math.inf), T.max(initial=-math.inf)) if many else (T, T)
    if not (1 < lowest and highest < math.inf):  # True for a NaN T too
        raise DomainError(f"main_term requires finite T > 1, "
                          f"got {highest if lowest > 1 else lowest}")
    lt = np.fromiter(map(math.log, T.flat), float, T.size).reshape(T.shape) if many else math.log(T)
    out = lt * lt / FOUR_PI - LOG_2PI * lt / TWO_PI
    return np.asarray(out) if many else out  # numpy makes a 0-d result a scalar


def antideriv_f(t: float) -> float:
    """Antiderivative P of F(t)/t^2, so that P'(t) = big_f(t)/t^2."""
    _check_domain("antideriv_f", "t", t, 2)
    lt = math.log(t)
    return (
        lt * lt / FOUR_PI
        - (1.0 + LOG_2PI) * lt / TWO_PI
        + (LOG_2PI * LOG_2PI - 2.0 * LOG_2PI) / FOUR_PI
        - 7.0 / (8.0 * t)
    )


def antideriv_r(t: float) -> float:
    """Antiderivative Q of R(t)/t^2, so that Q'(t) = big_r(t)/t^2."""
    _check_domain("antideriv_r", "t", t, 2)
    return _antideriv_r_elementary(t) - 0.433 * e_frak(t)


def _antideriv_r_elementary(t: float) -> float:
    """The elementary part of antideriv_r (everything except the E(t) term)."""
    lt = math.log(t)
    return -0.433 * math.log(lt) / t - 0.137 * lt / t - 69.0 / (40.0 * t)


# ---------------------------------------------------------------------------
# E(t) = integral_{1}^{inf} ds / (s t^s) and its exponential-integral core.
# ---------------------------------------------------------------------------

_EULER_GAMMA = 0.5772156649015328606


def exp_integral_e1(x: float) -> float:
    """E1(x) for x > 0: power series for x <= 1, continued fraction beyond.

    Relative accuracy is a few ulps over the whole range used here.
    """
    if not 0 < x < math.inf:
        raise DomainError(f"exp_integral_e1 requires finite x > 0, got {x}")
    if x <= 1.0:
        # E1(x) = -euler_gamma - log x + sum_{k>=1} (-1)^(k+1) x^k / (k k!)
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 40):
            term *= -x / k
            add = -term / k
            total += add
            if abs(add) < 1e-18 * max(abs(total), 1e-3):
                break
        return total
    # Modified Lentz evaluation of E1(x) = exp(-x) / (x + 1 - 1^2/(x + 3 - ...))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * math.exp(-x)
    raise ConvergenceError(f"continued fraction for E1({x}) did not converge")


def e_frak(t: float) -> float:
    """E(t) evaluated through the identity E(t) = E1(log t).

    The substitution u = s log t turns the defining integral into the
    exponential integral.  Its independent check, adaptive quadrature of the
    definition, lives with the tests in tests/oracles.py.
    """
    _check_domain("e_frak", "t", t, 1.0 + 1e-6)
    return exp_integral_e1(math.log(t))


class SandwichResult(NamedTuple):
    lo: float
    hi: float
    holds: bool
    margin_lo: float
    margin_hi: float


def e_frak_sandwich(t: float) -> SandwichResult:
    """Two-sided envelope 1/(tL) - 1/(tL^2) < E(t) < 1/(tL) - 31/(95 tL^2).

    `holds` demands both strict inequalities with margin exceeding the
    evaluation error of the E1 path (L = log t).
    """
    _check_domain("e_frak_sandwich", "t", t, 2)
    lt = math.log(t)
    base = 1.0 / (t * lt)
    lo = base - 1.0 / (t * lt * lt)
    hi = base - (31.0 / 95.0) / (t * lt * lt)
    val = e_frak(t)
    margin_lo = val - lo
    margin_hi = hi - val
    holds = margin_lo > E_FRAK_EVAL_ERR and margin_hi > E_FRAK_EVAL_ERR
    return SandwichResult(lo, hi, holds, margin_lo, margin_hi)


# ---------------------------------------------------------------------------
# Tail terms and the assembled bounds for A(T).
# ---------------------------------------------------------------------------


def tail_upper(T: float) -> float:
    """Tail of the sharp upper bound; negative once T >= 2.222."""
    _check_domain("tail_upper", "T", T, 2)
    lt = math.log(T)
    return -(137.0 * lt * lt + 433.0 * lt - 433.0) / (1000.0 * T * lt * lt)


def tail_lower(T: float) -> float:
    """Tail of the sharp lower bound; positive for all T >= 2.  It is not the
    exact lower bound's distance above M + c_al, 0.137/T + 0.433 E(T) (see
    compute_constants): at T = 1e4 that is 1.8e-5, and this 7.8e-4."""
    _check_domain("tail_lower", "T", T, 2)
    lt = math.log(T)
    llt = math.log(lt)
    num = (274.0 * lt**3 + 866.0 * llt * lt * lt + 3313.0 * lt * lt
           + 433.0 * lt - 433.0)
    return num / (1000.0 * T * lt * lt)


class BoundPair(NamedTuple):
    sharp: float
    simplified: float


def upper_bound_a(T: float, constants: "BoundConstants | None" = None) -> BoundPair:
    """Upper bounds for A(T), sharp and simplified, valid for T >= 2.222."""
    _check_domain("upper_bound_a", "T", T, UPPER_THRESHOLD)
    c = constants if constants is not None else compute_constants()
    m = main_term(T)
    return BoundPair(m + c.c_au + tail_upper(T), m + float(C_AU_CAP))


def lower_bound_a(T: float, constants: "BoundConstants | None" = None) -> BoundPair:
    """Lower bounds for A(T), defined for T >= 2.  The simplified form holds
    there, the sharp form only from the fourth ordinate, 30.4249, up."""
    _check_domain("lower_bound_a", "T", T, 2)
    c = constants if constants is not None else compute_constants()
    m = main_term(T)
    return BoundPair(m + c.c_al + tail_lower(T), m + float(C_AL_FLOOR))


# ---------------------------------------------------------------------------
# The additive constants.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundConstants:
    """Additive constants of the explicit bounds, plus their rational caps.

    c_au and c_al reproduce the constants of the published bound: in the
    boundary term at gamma_1 the value E(gamma_1) is replaced by its upper
    envelope 1/(g log g) - 31/(95 g log^2 g), the substitution that keeps
    both one-sided bounds valid.  c_au_sharp / c_al_sharp keep the exact
    E(gamma_1) instead and are the sharpest constants this derivation yields.
    """

    gamma1: float
    c_au: float
    c_al: float
    c_au_cap: Fraction
    c_al_floor: Fraction
    c_au_sharp: float
    c_al_sharp: float


def compute_constants() -> BoundConstants:
    """Compute c_au and c_al in closed form, as the limits of the exact bounds.

    The exact bounds are [P(T) - P(g1)] +- [Q(T) - Q(g1)] + (F(T) +- R(T))/T.
    P(T) + F(T)/T - M(T) is the same constant K at every T, and
    Q(T) + R(T)/T = -0.137/T - 0.433 E(T) goes to 0, so the exact bounds
    minus M(T) are c_au - (0.137/T + 0.433 E(T)) and
    c_al + (0.137/T + 0.433 E(T)), with c_au, c_al = K - P(g1) -+ Q(g1).
    """
    k = (LOG_2PI * LOG_2PI - 4.0 * LOG_2PI - 2.0) / FOUR_PI
    base = k - antideriv_f(GAMMA1)
    q_envelope = _antideriv_r_elementary(GAMMA1) - 0.433 * e_frak_sandwich(GAMMA1).hi
    q_exact = antideriv_r(GAMMA1)
    return BoundConstants(
        gamma1=GAMMA1,
        c_au=base - q_envelope,
        c_al=base + q_envelope,
        c_au_cap=C_AU_CAP,
        c_al_floor=C_AL_FLOOR,
        c_au_sharp=base - q_exact,
        c_al_sharp=base + q_exact,
    )

"""Independent reference paths that only the tests need."""

import math

import numpy as np
from numpy.polynomial import chebyshev
from scipy.integrate import quad

from zgb.errors import DomainError
from zgb.zeta import RS_SWITCH, TWO_PI, riemann_siegel_err


def e_frak_quadrature(t: float) -> float:
    """E(t) by adaptive quadrature of the defining integral, the check on
    zgb.bounds.e_frak's exponential-integral route."""
    if t < 1.0 + 1e-6:
        raise DomainError(f"e_frak_quadrature requires t >= 1 + 1e-6, got {t}")
    lt = math.log(t)
    val, _ = quad(lambda s: math.exp(-s * lt) / s, 1.0, math.inf,
                  epsabs=1e-14, epsrel=1e-13, limit=300)
    return val


# ---------------------------------------------------------------------------
# Gabcke's Riemann-Siegel corrections C0..C3, which zgb.zeta ships as the cut
# Chebyshev coefficients that correction_models() regenerates.
# ---------------------------------------------------------------------------

CHEB_NODES = 64
CAUCHY_SAMPLES = 256
CAUCHY_RADIUS = 0.25


def psi(z: np.ndarray) -> np.ndarray:
    """Psi(z) = cos(2pi(z^2 - z - 1/16))/cos(2pi z), entire.

    The quarter-integer zeros of the denominator are all cancelled by the
    numerator; near them both cosines are rewritten about their nearest root
    so the ratio stays finite in floating point.
    """
    z = np.asarray(z, dtype=complex)
    a = TWO_PI * (z * z - z - 0.0625)
    b = TWO_PI * z
    den = np.cos(b)
    out = np.empty_like(z)
    near = np.abs(den) < 0.1
    safe = ~near
    out[safe] = np.cos(a[safe]) / den[safe]
    if near.any():
        an, bn = a[near], b[near]
        j = np.round(an.real / math.pi - 0.5)
        l = np.round(bn.real / math.pi - 0.5)
        da = an - (j + 0.5) * math.pi
        db = bn - (l + 0.5) * math.pi
        sign = np.where((j - l) % 2 == 0, 1.0, -1.0)
        out[near] = sign * np.sin(da) / np.sin(db)
    return out


def psi_derivs_at(p: float, orders: tuple[int, ...]) -> dict[int, float]:
    """Derivatives of Psi at real p from a Cauchy integral over a circle."""
    k = np.arange(CAUCHY_SAMPLES)
    # small phase offset keeps samples off the real axis's quarter points
    phi = TWO_PI * (k + 0.31) / CAUCHY_SAMPLES
    ring = p + CAUCHY_RADIUS * np.exp(1j * phi)
    vals = psi(ring)
    out = {}
    for n in orders:
        coef = np.mean(vals * np.exp(-1j * n * phi)) / CAUCHY_RADIUS ** n
        out[n] = coef.real * math.factorial(n)
    return out


def correction_fit() -> np.ndarray:
    """Degree-64 Chebyshev interpolants of C0..C3 over p in [0, 1], as a
    (65, 4) array whose column k holds the coefficients of C_k."""
    xs = np.cos(math.pi * (np.arange(CHEB_NODES + 1) + 0.5) / (CHEB_NODES + 1))
    ps = 0.5 * (xs + 1.0)
    pi2 = math.pi ** 2
    pi4 = math.pi ** 4
    pi6 = math.pi ** 6
    c_vals = np.empty((ps.size, 4))
    for i, p in enumerate(ps):
        d = psi_derivs_at(float(p), (0, 1, 2, 3, 5, 6, 9))
        c_vals[i, 0] = d[0]
        c_vals[i, 1] = -d[3] / (96.0 * pi2)
        c_vals[i, 2] = d[2] / (64.0 * pi2) + d[6] / (18432.0 * pi4)
        c_vals[i, 3] = (-d[1] / (64.0 * pi2) - d[5] / (3840.0 * pi4)
                        - d[9] / (5308416.0 * pi6))
    return chebyshev.chebfit(xs, c_vals, CHEB_NODES)


def correction_models() -> np.ndarray:
    """The rows of correction_fit() that zgb.zeta keeps: the fewest for which
    every dropped tail, the sum of the dropped |coefficients| (which bounds
    the truncation error since |T_j| <= 1), is below 1e-3 of the smallest
    riemann_siegel_err on [RS_SWITCH, 1e6]."""
    coeffs = correction_fit()
    # tails[j, k] = sum of |coefficient i of C_k| over i >= j
    tails = np.cumsum(np.abs(coeffs[::-1]), axis=0)[::-1]
    limit = 1e-3 * float(np.min(riemann_siegel_err(np.geomspace(RS_SWITCH, 1e6, 2001))))
    keep = int(np.flatnonzero(np.any(tails >= limit, axis=1))[-1]) + 1
    return coeffs[:keep].copy()

"""Independent reference paths that only the tests need."""

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from numpy.polynomial import polynomial
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
# Gabcke's Riemann-Siegel corrections C0, C1, ..., which zgb.zeta ships as the
# cut Chebyshev coefficients that correction_models() regenerates.
# ---------------------------------------------------------------------------

CAUCHY_SAMPLES = 256
CAUCHY_RADIUS = 0.25

#: zgb.zeta ships C0..C6 and sizes its truncation term by C7.
SHIPPED_TERMS = 7
SERIES_TERMS = SHIPPED_TERMS + 1
#: Degree of the power series in x = 2p - 1; its dropped tail is below 1e-27.
SERIES_DEGREE = 64
#: Working precision: the Taylor coefficients of F come from sums that cancel
#: to some 60 digits; 120 and 200 digits give the same float64 coefficients.
SERIES_DPS = 120


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


def gabcke_closed_forms(p: float) -> tuple[float, ...]:
    """Gabcke's closed forms of C0..C4 at p, from the derivatives of Psi:
    C_k = sum_j d_j Psi^(3k - 4j)(p) / pi^(2k - 2j), the check on
    correction_series's recursion.  C4's terms are Psi^(0, 4, 8, 12)."""
    d = psi_derivs_at(p, (0, 1, 2, 3, 4, 5, 6, 8, 9, 12))
    pi2 = math.pi ** 2
    return (d[0],
            -d[3] / (96.0 * pi2),
            d[2] / (64.0 * pi2) + d[6] / (18432.0 * pi2 ** 2),
            -d[1] / (64.0 * pi2) - d[5] / (3840.0 * pi2 ** 2) - d[9] / (5308416.0 * pi2 ** 3),
            (d[0] / (128.0 * pi2) + 19.0 * d[4] / (24576.0 * pi2 ** 2)
             + 11.0 * d[8] / (5898240.0 * pi2 ** 3) + d[12] / (2038431744.0 * pi2 ** 4)))


def _f_taylor(count: int) -> list:
    """Taylor coefficients c_0 .. c_(2 count - 1) about 0 of
    F(z) = (exp(pi i (z^2/2 + 3/8)) - i sqrt(2) cos(pi z / 2)) / (2 cos(pi z)),
    from the Euler numbers as in mpmath's rszeta (Arias de Reyna, II,
    section 3.14); the odd ones are 0."""
    v = [(-1) ** n * mp.eulernum(2 * n) * mp.pi ** (2 * n) / mp.fac(2 * n) for n in range(count)]
    w = [mp.pi ** n / (mp.fac(n) * 2 ** n) for n in range(2 * count)]
    nu = mp.expjpi(mp.mpf(3) / 8) / 2
    c = [mp.mpc(0)] * (2 * count)
    for n in range(count):
        p1 = (-1) ** (n + 1) * 1j * mp.fsum((-1) ** k * v[k] * w[2 * n - 2 * k] for k in range(n + 1))
        p2 = mp.fsum(1j ** (n - k) * v[k] * w[n - k] for k in range(n + 1))
        c[2 * n] = mp.sqrt(2) / 2 * p1 + nu * p2
    return c


def _rs_d(count: int) -> dict[tuple[int, int], Fraction]:
    """Arias de Reyna's d_l^(k) on the critical line, exact, for k < count:
    d_0^(0) = 1, then for m = 3k - 2l, d_l^(k) = -(m + 1) d_(l-2)^(k-1) +
    d_l^(k-1) / (4m) when m > 0, and minus the sum over r < l of
    (-1)^(l-r) (2l - 2r)! / (l - r)! d_r^(k) when m = 0.  Odd l give 0."""
    d = {(0, 0): Fraction(1)}
    for k in range(1, count):
        for l in range(3 * k // 2 + 1):
            m = 3 * k - 2 * l
            if m:
                d[k, l] = (-(m + 1) * d.get((k - 1, l - 2), 0)
                           + Fraction(1, 4 * m) * d.get((k - 1, l), 0))
            else:
                d[k, l] = -sum((-1) ** (l - r) * Fraction(math.factorial(2 * l - 2 * r),
                                                          math.factorial(l - r)) * d[k, r]
                               for r in range(l))
    return d


@functools.cache
def _correction_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """correction_series() and correction_fit(), each worked in SERIES_DPS
    digits and rounded once."""
    degree, count = SERIES_DEGREE, SERIES_TERMS
    with mp.workdps(SERIES_DPS):
        c = _f_taylor((degree + 3 * count) // 2 + 1)
        d = _rs_d(count)
        # T_k(z) = sum_l d_l^(k) F^(3k - 2l)(z) / (pi^(2k - l) (2i)^l), in powers of z
        terms = []
        for k in range(count):
            row = [mp.mpc(0)] * (degree + 1)
            for l in range(3 * k // 2 + 1):
                if d[k, l]:
                    scale = mp.mpf(d[k, l].numerator) / d[k, l].denominator / (
                        mp.pi ** (2 * k - l) * (2j) ** l)
                    m = 3 * k - 2 * l
                    for j in range(degree + 1):
                        row[j] += scale * c[j + m] * mp.fac(j + m) / mp.fac(j)
            terms.append(row)
        # e_m: coefficients of exp(i (theta - theta_0)) in powers of 1/a, where
        # theta - theta_0 = sum_n theta_n t^(1 - 2n) at t = 2 pi a^2, theta_0 =
        # t/2 log(t/2pi) - t/2 - pi/8 the phase of Arias de Reyna's U; by
        # e' = (i delta)' e, m e_m = sum_j j (i delta_j) e_(m-j)
        delta = [mp.mpf(0)] * count
        for n in range(1, (count + 1) // 4 + 1):  # 4n - 2 < count
            b = abs(mp.bernoulli(2 * n))
            delta[4 * n - 2] = ((1 - mp.mpf(2) / 4 ** n) * b / (4 * n * (2 * n - 1))
                                / (2 * mp.pi) ** (2 * n - 1))
        e = [mp.mpc(1)]
        for m in range(1, count):
            e.append(mp.fsum(j * 1j * delta[j] * e[m - j] for j in range(1, m + 1)) / m)
        # C_k(p) = 2 Re sum_m e_m T_(k-m)(z) at z = 1 - 2p = -x
        power = [[(-1) ** j * 2 * mp.re(mp.fsum(e[m] * terms[k - m][j] for m in range(k + 1)))
                  for k in range(count)] for j in range(degree + 1)]
        # x^n = 2^(1-n) sum_i binom(n, i) T_(n-2i)(x), the T_0 term halved
        cheb = [[mp.mpf(0)] * count for _ in range(degree + 1)]
        for n in range(degree + 1):
            for i in range(n // 2 + 1):
                weight = mp.binomial(n, i) / mp.mpf(2) ** (n - 1) / (2 if 2 * i == n else 1)
                for k in range(count):
                    cheb[n - 2 * i][k] += weight * power[n][k]
        return (np.array(power, dtype=float), np.array(cheb, dtype=float))


def correction_series() -> np.ndarray:
    """Gabcke's C_0 .. C_(SERIES_TERMS - 1) as power series in x = 2p - 1, a
    (SERIES_DEGREE + 1, SERIES_TERMS) array whose column k holds C_k's.

    They come from the recursion of J. Arias de Reyna, "High precision
    computation of Riemann's zeta function by the Riemann-Siegel formula, I",
    Math. Comp. 80 (2011) 995-1009, on the critical line: with a =
    sqrt(t/2pi), N = floor(a) and p = a - N,
    Z(t) = 2 sum_(n <= N) n^-1/2 cos(theta - t log n)
           + (-1)^(N-1) a^-1/2 sum_k C_k(p) a^-k,
    C_k(p) = 2 Re sum_(m <= k) e_m T_(k-m)(1 - 2p), where T_k is Arias de
    Reyna's k-th term, built from d_l^(k) (_rs_d) and the derivatives of F
    (_f_taylor), and e_m turns his phase theta_0 into theta.  It matches
    Gabcke's closed forms of C0..C4 (gabcke_closed_forms).
    """
    return _correction_coefficients()[0].copy()


def correction_fit() -> np.ndarray:
    """The Chebyshev coefficients in x = 2p - 1 of correction_series(), of
    T_0 .. T_SERIES_DEGREE, as an array of the same shape."""
    return _correction_coefficients()[1].copy()


def correction_max(k: int) -> float:
    """max |C_k| over p in [0, 1], on 200,001 points of x."""
    x = np.linspace(-1.0, 1.0, 200001)
    return float(np.max(np.abs(polynomial.polyval(x, correction_series()[:, k]))))


def correction_models() -> np.ndarray:
    """The rows of correction_fit() that zgb.zeta keeps, for the columns it
    ships: the fewest for which every column's dropped tail, the sum of its
    dropped |coefficients| (which bounds the truncation since |T_j| <= 1),
    times u^k at RS_SWITCH, the largest weight C_k takes in Z, is below 1e-3
    of the smallest riemann_siegel_err on [RS_SWITCH, 1e6]."""
    coeffs = correction_fit()[:, :SHIPPED_TERMS]
    # tails[j, k] = sum of |coefficient i of C_k| over i >= j, weighted by u^k
    tails = np.cumsum(np.abs(coeffs[::-1]), axis=0)[::-1]
    tails *= (RS_SWITCH / TWO_PI) ** (-0.5 * np.arange(SHIPPED_TERMS))
    limit = 1e-3 * float(np.min(riemann_siegel_err(np.geomspace(RS_SWITCH, 1e6, 2001))))
    keep = int(np.flatnonzero(np.any(tails >= limit, axis=1))[-1]) + 1
    return coeffs[:keep].copy()

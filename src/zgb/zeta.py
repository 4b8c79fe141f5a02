"""Critical-line machinery: the Riemann-Siegel theta function and the Hardy
Z-function, by two routes over one main-sum kernel, _cos_sum, which adds
n^-1/2 cos(theta(t) - t log n) up to a term count of each height's own:

* Euler-Maclaurin (EM): slow (N - 1 terms, N = max(60, ceil(2t))) but near
  machine accuracy.  It is the low-height path of Z and the reference the
  fast path is checked against up to 1e4.  Its remainder at N is added as a
  complex number rotated by theta.  N does not depend on the rest of a batch.
* Riemann-Siegel (RS): main sum of ~sqrt(t/2pi) terms plus four correction
  terms C0..C3 built from derivatives of the entire function
  Psi(p) = cos(2pi(p^2 - p - 1/16))/cos(2pi p), all four from one product of
  a Chebyshev basis with their models.  Truncation error decays like
  (t/2pi)^(-11/4).

em_path is the only place that chooses between the two, for hardy_z_many
and hardy_z_err alike.  RS runs from RS_SWITCH up: there its error is
already far below what sign decisions on the isolation grid and in the
bracketed refinement need, at a fraction of EM's cost.  The secant polish
turns the Z error into an ordinate's abs_err, so with polish set EM keeps
running up to EM_POLISH_MAX, where it is still affordable and RS's error is
still orders above it.  hardy_z_err is the one error model of Z, for both
paths: 1e-14 + 3e-15 (1 + t) on EM and riemann_siegel_err on RS.  Every
sign decision and every abs_err rests on it, so downstream checks can
demand margins that exceed accumulated error.

Both paths rotate by one theta, rs_theta, exact to rounding for t >= 1: the
asymptotic series from a switch height of 30 up, and below it the argument
of Gamma(1/4 + it/2) from Stirling's series after a recurrence shift.  The
package needs numpy and nothing else.

All functions are pure; array-valued helpers are vectorised with numpy.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev

from .errors import DomainError

TWO_PI = 2.0 * math.pi
LOG_PI = math.log(math.pi)
_EPS = np.finfo(float).eps

#: Heights at or above this use the Riemann-Siegel path of hardy_z.
RS_SWITCH = 500.0

#: With polish set, heights below this still use the Euler-Maclaurin path,
#: which is near machine accuracy there.
EM_POLISH_MAX = 1500.0

# The least EM term count N: against mpmath, heights in [10, 20) reach 5.2x
# hardy_z_err with 20 and 0.72x with 40; with 60, 0.22x.
_EM_MIN_TERMS = 60

# Matrix elements (heights x terms) one chunk of the main sum may hold:
# 2 MB per float64 array, at any batch size.
_BATCH_ELEMENTS = 1 << 18

# Riemann-Siegel theta asymptotic series: coefficient of t^-(2n-1) is
# (1 - 2^(1-2n)) |B_2n| / (4n (2n-1)).
_THETA_COEFFS = (
    1.0 / 48.0,
    7.0 / 5760.0,
    31.0 / 80640.0,
    127.0 / 430080.0,
)

# The series from here up: its first omitted term (1 - 2^-9) |B_10| / 180 t^-9 is 2e-17 at 30.
_THETA_SERIES_MIN = 30.0
# Below, Stirling at w = 1/4 + K + it/2: |w| >= 8.25 puts |B_18| / 306 |w|^-17 below 1e-16.
_GAMMA_SHIFT = 8
# Stirling series of log Gamma: the coefficient of w^-(2k-1) is B_2k / (2k (2k-1)).
_STIRLING_COEFFS = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
                    -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)


def rs_theta(t):
    """The Riemann-Siegel theta function, exact to rounding for t >= 1.

    This is the one theta of the package: from _THETA_SERIES_MIN up the
    asymptotic series truncated after its t^-7 term, below it the
    Gamma-argument form theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi.
    Accepts scalars or arrays.
    """
    arr = np.asarray(t, dtype=float)
    low = arr < _THETA_SERIES_MIN
    has_low = low.any()  # ndarray.any: np.any adds microseconds of dispatch a call
    if has_low and (arr[low] < 1.0).any():
        raise DomainError("rs_theta requires t >= 1")
    main = 0.5 * arr * (np.log(arr / TWO_PI) - 1.0) - math.pi / 8.0
    inv2 = 1.0 / (arr * arr)
    corr = np.zeros_like(arr)
    for c in reversed(_THETA_COEFFS):
        corr = (corr + c) * inv2
    corr *= arr  # series is in odd powers 1/t, 1/t^3, ...
    out = main + corr
    if has_low:
        # Im log Gamma(w) at w = 1/4 + K + it/2 by Stirling, Im[(w - 1/2) log w
        # - w] plus the series in odd powers of 1/w, then the recurrence
        # Gamma(w) = Gamma(1/4 + it/2) prod_{j<K} (1/4 + j + it/2) back down
        b = 0.5 * arr[low]
        w = (0.25 + _GAMMA_SHIFT) + 1j * b
        inv = 1.0 / w
        inv2 = inv * inv
        tail = np.zeros_like(w)
        for c in reversed(_STIRLING_COEFFS):
            tail = tail * inv2 + c
        val = (_GAMMA_SHIFT - 0.25) * np.angle(w) + b * (np.log(np.abs(w)) - 1.0)
        val += np.imag(tail * inv)
        for j in range(_GAMMA_SHIFT):
            val -= np.arctan2(b, 0.25 + j)
        out = np.asarray(out)  # assignable for a scalar t too
        out[low] = val - b * LOG_PI
    return float(out) if np.isscalar(t) else out


def rs_theta_deriv(t):
    """Derivative of the theta expansion; ~ 0.5 log(t/2pi) for large t."""
    arr = np.asarray(t, dtype=float)
    if (arr < 1.0).any():
        raise DomainError("rs_theta_deriv requires t >= 1")
    out = 0.5 * np.log(arr / TWO_PI)
    inv2 = 1.0 / (arr * arr)
    power = inv2.copy()
    for n, c in enumerate(_THETA_COEFFS, start=1):
        out -= (2 * n - 1) * c * power
        power *= inv2
    return float(out) if np.isscalar(t) else out


# ---------------------------------------------------------------------------
# The main sum of both paths.
# ---------------------------------------------------------------------------


def _cos_sum(ts: np.ndarray, theta: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of n^-1/2 cos(theta - t log n) over 1 <= n <= counts, per height.

    Heights are taken in ascending order, in chunks of at most
    _BATCH_ELEMENTS heights x terms, so a chunk's term count stays close to
    that of each of its heights; a chunk is worked in one buffer.
    """
    out = np.zeros(ts.shape, dtype=float)
    order = np.argsort(ts)
    chunk = max(1, _BATCH_ELEMENTS // int(counts.max(initial=1)))
    for pos in range(0, order.size, chunk):
        idx = order[pos:pos + chunk]
        cnt = counts[idx, None]
        n = np.arange(1, int(cnt.max()) + 1)
        buf = np.multiply(ts[idx, None], np.log(n))  # one buffer, each step in place
        np.subtract(theta[idx, None], buf, out=buf)
        np.cos(buf, out=buf)
        np.divide(buf, np.sqrt(n), out=buf)
        if cnt.min() < n.size:  # mask only where the counts differ
            buf *= n <= cnt
        out[idx] = buf.sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Riemann-Siegel correction terms.
# ---------------------------------------------------------------------------


def _psi(z: np.ndarray) -> np.ndarray:
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


_CHEB_NODES = 64
_CAUCHY_SAMPLES = 256
_CAUCHY_RADIUS = 0.25
_FACTORIALS = [math.factorial(k) for k in range(13)]

_cheb_models: np.ndarray | None = None


def _psi_derivs_at(p: float, orders: tuple[int, ...]) -> dict[int, float]:
    """Derivatives of Psi at real p from a Cauchy integral over a circle."""
    k = np.arange(_CAUCHY_SAMPLES)
    # small phase offset keeps samples off the real axis's quarter points
    phi = TWO_PI * (k + 0.31) / _CAUCHY_SAMPLES
    ring = p + _CAUCHY_RADIUS * np.exp(1j * phi)
    vals = _psi(ring)
    out = {}
    for n in orders:
        coef = np.mean(vals * np.exp(-1j * n * phi)) / _CAUCHY_RADIUS ** n
        out[n] = coef.real * _FACTORIALS[n]
    return out


def _correction_fit() -> np.ndarray:
    """Degree-64 Chebyshev interpolants of C0..C3 over p in [0, 1], as a
    (65, 4) array whose column k holds the coefficients of C_k."""
    xs = np.cos(math.pi * (np.arange(_CHEB_NODES + 1) + 0.5) / (_CHEB_NODES + 1))
    ps = 0.5 * (xs + 1.0)
    pi2 = math.pi ** 2
    pi4 = math.pi ** 4
    pi6 = math.pi ** 6
    c_vals = np.empty((ps.size, 4))
    for i, p in enumerate(ps):
        d = _psi_derivs_at(float(p), (0, 1, 2, 3, 5, 6, 9))
        c_vals[i, 0] = d[0]
        c_vals[i, 1] = -d[3] / (96.0 * pi2)
        c_vals[i, 2] = d[2] / (64.0 * pi2) + d[6] / (18432.0 * pi4)
        c_vals[i, 3] = (-d[1] / (64.0 * pi2) - d[5] / (3840.0 * pi4)
                        - d[9] / (5308416.0 * pi6))
    return chebyshev.chebfit(xs, c_vals, _CHEB_NODES)


def _correction_models() -> np.ndarray:
    """The models of _correction_fit, cut for one product with _cheb_basis
    over C0..C3, built once per process.

    The cut keeps the lowest common degree at which every dropped tail (the
    sum of the dropped |coefficients|, which bounds the truncation error
    since |T_j| <= 1) is below 1e-3 of the smallest riemann_siegel_err on
    [RS_SWITCH, 1e6].  That is degree 21, against 64 before the cut.

    Concurrent first calls may build twice; both results are identical and
    the assignment is atomic, so the race is benign.
    """
    global _cheb_models
    if _cheb_models is not None:
        return _cheb_models
    coeffs = _correction_fit()
    # tails[j, k] = sum of |coefficient i of C_k| over i >= j
    tails = np.cumsum(np.abs(coeffs[::-1]), axis=0)[::-1]
    limit = 1e-3 * float(np.min(riemann_siegel_err(np.geomspace(RS_SWITCH, 1e6, 2001))))
    keep = int(np.flatnonzero(np.any(tails >= limit, axis=1))[-1]) + 1
    _cheb_models = coeffs[:keep].copy()
    return _cheb_models


def _cheb_basis(x: np.ndarray, count: int) -> np.ndarray:
    """T_j(x) = cos(j arccos x) for j < count, as a (len(x), count) array."""
    return np.cos(np.arccos(x)[:, None] * np.arange(count))


def _hardy_z_rs_batch(ts: np.ndarray) -> np.ndarray:
    """Riemann-Siegel Z for an array of heights (all >= RS_SWITCH)."""
    models = _correction_models()
    ts = np.asarray(ts, dtype=float)
    tau = np.sqrt(ts / TWO_PI)
    big_n = np.floor(tau).astype(int)
    p = tau - big_n
    out = 2.0 * _cos_sum(ts, rs_theta(ts), big_n)
    u = 1.0 / tau
    c0, c1, c2, c3 = (_cheb_basis(2.0 * p - 1.0, models.shape[0]) @ models).T
    corr = c0 + c1 * u + c2 * u ** 2 + c3 * u ** 3
    sign = np.where(big_n % 2 == 1, 1.0, -1.0)  # (-1)^(N-1)
    out += sign * tau ** -0.5 * corr
    return out


# B_2, B_4, ..., B_10 over (2k)!: the Bernoulli corrections of the EM remainder.
_BERN_OVER_FACT = (
    1.0 / 6.0 / 2.0,
    -1.0 / 30.0 / 24.0,
    1.0 / 42.0 / 720.0,
    -1.0 / 30.0 / 40320.0,
    5.0 / 66.0 / 3628800.0,
)


def _hardy_z_em_batch(ts: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin Z = Re e^(i theta) zeta(1/2 + it) for an array of heights.

    zeta is the sum over n < N plus the remainder 1/2 N^-s + N^(1-s)/(s-1) +
    sum_k B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k), with N = max(_EM_MIN_TERMS,
    ceil(2t)) for each height."""
    ts = np.asarray(ts, dtype=float)
    theta = rs_theta(ts)
    nf = np.maximum(_EM_MIN_TERMS, np.ceil(2.0 * ts))
    s = 0.5 + 1j * ts
    rem = 0.5 * nf ** (-s) + nf ** (1 - s) / (s - 1.0)
    fac = s * nf ** (-s - 1.0)
    for k, b in enumerate(_BERN_OVER_FACT, start=1):
        rem += b * fac
        fac = fac * (s + 2 * k - 1) * (s + 2 * k) / (nf * nf)
    return _cos_sum(ts, theta, nf.astype(int) - 1) + np.real(np.exp(1j * theta) * rem)


def em_path(ts, polish: bool = False) -> np.ndarray:
    """Where hardy_z_many(ts, polish) takes the Euler-Maclaurin path."""
    return np.asarray(ts, dtype=float) < (EM_POLISH_MAX if polish else RS_SWITCH)


def hardy_z_many(ts, polish: bool = False) -> np.ndarray:
    """Z(t) for an array of heights t >= 2, with per-height path selection.

    EM runs below RS_SWITCH, or below EM_POLISH_MAX with polish set; RS runs
    above.  Polish points lie within 1e-9 of a bracket that has already been
    evaluated here, so they skip the domain check: a bracket ending at 1e6
    may be polished just past it.
    """
    ts = np.asarray(ts, dtype=float)
    if not polish and not (ts >= 2.0).all():  # NaN fails it too
        raise DomainError("hardy_z requires t >= 2")
    if not polish and (ts > 1e6).any():
        raise DomainError("hardy_z validated for t <= 1e6")
    lo = em_path(ts, polish)
    if not ts.size:
        return np.empty(ts.shape)
    all_em = lo.all()
    if all_em or not lo.any():  # one path: no scatter
        kernel = _hardy_z_em_batch if all_em else _hardy_z_rs_batch
        return kernel(ts.ravel()).reshape(ts.shape)
    out = np.empty(ts.shape)
    out[lo] = _hardy_z_em_batch(ts[lo])
    out[~lo] = _hardy_z_rs_batch(ts[~lo])
    return out


def hardy_z(t: float) -> float:
    """Hardy's Z(t) = e^(i theta(t)) zeta(1/2 + it), real on the critical line,
    at one height t >= 2."""
    return float(hardy_z_many(np.array([float(t)]))[0])


def riemann_siegel_err(t):
    """Error envelope of the Riemann-Siegel path with corrections C0..C3.

    Truncation decays like (t/2pi)^(-11/4); the coefficient 0.02 was
    calibrated against the Euler-Maclaurin path with several-fold headroom.
    The second term models phase rounding of the main sum, which takes over
    at large heights.  Valid for t >= 30.  Accepts scalars or arrays.
    """
    arr = np.asarray(t, dtype=float)
    v = arr / TWO_PI
    trunc = 0.02 * v ** -2.75
    rounding = 8.0 * _EPS * np.maximum(np.abs(rs_theta(arr)), 10.0) * (v ** 0.25 + 1.0)
    out = trunc + rounding
    return float(out) if np.isscalar(t) else out


def hardy_z_err(t, polish: bool = False):
    """Bound on |computed - true| for hardy_z_many(..., polish) at height t.

    Accepts scalars or arrays, like riemann_siegel_err.
    """
    arr = np.asarray(t, dtype=float)
    out = np.where(em_path(arr, polish), 1e-14 + 3e-15 * (1.0 + arr),
                   riemann_siegel_err(np.maximum(arr, RS_SWITCH)))
    return float(out) if np.isscalar(t) else out

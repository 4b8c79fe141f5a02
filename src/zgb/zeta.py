"""Critical-line machinery: the Riemann-Siegel theta function and the Hardy
Z-function, by two routes over one main-sum kernel, _cos_sum, which adds
n^-1/2 cos(theta(t) - t log n) up to a term count of each height's own:

* Euler-Maclaurin (EM): slow (N - 1 terms, N = max(60, ceil(0.4 t))) but
  near machine accuracy.  It is the low-height path of Z and the reference
  the fast path is checked against up to 1e4.  Its remainder at N, with
  B_2..B_40, is added as a complex number rotated by theta; Backlund's bound
  on what that remainder omits is at most 2.2e-5 of Z's EM error model on
  [2, 1e4].  N does not depend on the rest of a batch.
* Riemann-Siegel (RS): main sum of ~sqrt(t/2pi) terms plus four correction
  terms C0..C3 built from derivatives of the entire function
  Psi(p) = cos(2pi(p^2 - p - 1/16))/cos(2pi p), all four from one product of
  a power basis in 2p - 1 with monomial coefficients that are derived at
  import from the shipped Chebyshev ones, _CORRECTION_MODELS.
  Truncation error decays like (t/2pi)^(-11/4).

Z is a function of t alone: every sum over terms adds them in one order
fixed by the height itself, never by the other heights of a call, so a
height gets the same float64 alone, in any batch and in any order.

_em_top is the only place that sets where the two meet, for hardy_z_many,
em_path and hardy_z_err alike.  RS runs from RS_SWITCH up: there its error is
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
# cheb2poly turns the shipped C0..C3 coefficients into a power basis at
# import.  bench/tracing.py also looks up zgb.zeta.chebyshev.chebval.
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

#: The top of Z's domain: 1e6 plus some 1,900 Gram points, room for the
#: Turing blocks that certify a zero count at any height up to 1e6.
Z_TOP = 1e6 + 1e3

# EM term count N = max(_EM_MIN_TERMS, ceil(_EM_TERMS_PER_T * t)).  With
# _EM_BERN_TERMS Bernoulli terms, Backlund's bound on the truncation is at
# most 2.2e-5 of the EM error model on [2, 1e4], largest at t = 150 where the
# floor hands over; below, the floor keeps it under 1e-11 (a floor of 20
# would let it reach 1.3e-3 near t = 50).
_EM_MIN_TERMS = 60
_EM_TERMS_PER_T = 0.4
_EM_BERN_TERMS = 20

# Matrix elements (terms x heights) one chunk of the main sum may hold:
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
    least = arr.min(initial=math.inf)
    if not (least >= 1.0 and arr.max(initial=-math.inf) < math.inf):  # True for a NaN t too
        raise DomainError("rs_theta requires finite t >= 1")
    main = 0.5 * arr * (np.log(arr / TWO_PI) - 1.0) - math.pi / 8.0
    inv2 = 1.0 / (arr * arr)
    corr = _THETA_COEFFS[-1] * inv2
    for c in reversed(_THETA_COEFFS[:-1]):
        corr = (corr + c) * inv2
    corr *= arr  # series is in odd powers 1/t, 1/t^3, ...
    out = main + corr
    if least < _THETA_SERIES_MIN:
        low = arr < _THETA_SERIES_MIN
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
    if not (arr.min(initial=math.inf) >= 1.0 and arr.max(initial=-math.inf) < math.inf):
        raise DomainError("rs_theta_deriv requires finite t >= 1")
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

    Each chunk of heights is worked in one terms x heights buffer, padded to
    its largest count with zero terms, and summed one term row at a time in
    n order: a padded term adds exactly 0, so a height's sum is the same
    float64 whatever else is in its call or its chunk.  Heights are taken in
    ascending order, and a chunk closes before a count passes 9/8 of its
    first height's, or its terms x heights pass _BATCH_ELEMENTS; so padding
    stays under an eighth of a chunk when the counts rise with t, as both
    paths' do.  A batch that fits one chunk is worked as it comes, unsorted.
    """
    out = np.empty(ts.shape)
    top = int(counts.max(initial=0))
    least = int(counts.min(initial=top))
    n = np.arange(1.0, top + 1)[:, None]  # the terms of the widest chunk, as a column
    log_n, weight = np.log(n), n ** -0.5
    if 8 * top <= 9 * least and ts.size * top <= _BATCH_ELEMENTS:
        # skipping the sort and plan saves 5-9 of 56-68 us in a one-point
        # call near 1e6, and up to a tenth of a 7-point one (2-core x86_64 VM)
        chunks = [(slice(None), top, least)]
    else:
        order = np.argsort(ts)
        widest = np.maximum.accumulate(counts[order])  # bounds each chunk's largest count
        chunks, pos = [], 0
        while pos < order.size:
            stop = int(np.searchsorted(widest, 9 * int(widest[pos]) // 8, side="right"))
            stop = min(stop, pos + max(1, _BATCH_ELEMENTS // max(1, int(widest[stop - 1]))))
            idx = order[pos:stop]
            chunks.append((idx, int(widest[stop - 1]), int(counts[idx].min())))
            pos = stop
    for idx, width, least in chunks:
        buf = np.multiply(log_n[:width], ts[idx])  # one buffer, each step in place
        np.subtract(theta[idx], buf, out=buf)
        np.cos(buf, out=buf)
        buf *= weight[:width]
        if least < width:  # mask only where the counts differ
            buf *= n[:width] <= counts[idx]
        # numpy reduces axis 0 of a wide buffer a row at a time, in n order,
        # but a lone column pairwise; accumulating it keeps the n order
        out[idx] = np.add.accumulate(buf)[-1] if buf.shape[1] == 1 else buf.sum(axis=0)
    return out


# ---------------------------------------------------------------------------
# Riemann-Siegel correction terms.
# ---------------------------------------------------------------------------


# Chebyshev coefficients of Gabcke's corrections over p in [0, 1]: row j
# holds the coefficients of T_j(2p - 1) in C0, C1, C2, C3, from a degree-64
# interpolant of Cauchy-integral derivatives of Psi(p) = cos(2pi(p^2 - p -
# 1/16))/cos(2pi p) (tests/oracles.py regenerates them).  The rows kept are
# the fewest for which every dropped tail, the sum of the dropped
# |coefficients|, is below 1e-3 of the smallest riemann_siegel_err on
# [RS_SWITCH, Z_TOP]: since |T_j| <= 1 that bounds the truncation error.
_CORRECTION_MODELS = np.array((
    (0.6426672862397719, 3.391630841667722e-17, 0.00314611585398879, 1.2430975649977335e-15),
    (-2.903693309837712e-16, 0.010697913921003046, -7.523942347533131e-17, 7.123256221297049e-05),
    (0.27197299999785374, 2.731008378914694e-17, -0.002308783884530819, 9.08833344647926e-16),
    (-9.83467307036467e-16, 0.017170651243377882, -2.152856187278157e-17, 0.00023234305298206254),
    (0.010738605819339825, 3.179837054000952e-17, 5.769820766688812e-05, 2.6539491548526114e-16),
    (-2.848160270377887e-16, 0.002793211149788468, 1.3160569625410642e-17, -0.00012929912045455633),
    (-0.0013743815296347528, 2.8451173641061153e-17, 0.0003523886202366797, 6.00950215969573e-17),
    (-2.1178627651527878e-16, -3.637565371929095e-05, 1.9018164198570294e-17, 1.8074496413734968e-05),
    (-0.00012468221880362787, -1.8257437630627478e-18, 2.5246667458709595e-05, -1.0356816768436415e-16),
    (-8.705754843537535e-16, -2.7108955231124894e-05, 2.0739308058540897e-17, 6.526185187081632e-06),
    (-5.764599705933764e-07, -8.520137560959489e-18, -3.442821197164867e-06, -1.6094121453040107e-16),
    (-9.201748565836249e-16, -1.0483749866812427e-06, 6.275994185528195e-18, -1.1696365394790757e-07),
    (2.7280674234891876e-07, -5.477231289188244e-18, -3.535074556387128e-07, -1.7410178415581175e-16),
    (-6.767423548419253e-16, 5.886467166710558e-08, 1.1563043832730737e-17, -7.34947614546096e-08),
    (8.077952346288788e-09, -2.7386156445941217e-18, 3.730830203209799e-09, -1.1479363910257026e-16),
    (-1.4605950104501984e-16, 4.322967282289275e-09, -2.5674521668069895e-18, -1.7750910760942421e-09),
    (-2.088465174631455e-10, -1.2171625087084985e-17, 1.2776951871783832e-09, -7.554965727882048e-17),
    (9.737300069667989e-18, -1.1369564593218314e-11, -2.1300343902398723e-18, 2.555552447979357e-10),
    (-1.311592897324125e-11, -1.7496711062684668e-17, 2.1874612356687945e-11, 3.953638609830282e-17),
    (1.996146514281938e-16, -6.699798608016663e-12, -1.5823112613210483e-17, 1.137666791082827e-11),
    (-1.430409380234227e-14, -1.8257437630627474e-18, -1.9141571924964956e-12, 9.147736979512308e-18),
    (3.4080550243837974e-16, -1.0077375274601147e-13, -1.141089851914218e-17, -3.3494904063462517e-13),
))


# The same four polynomials in the power basis of 2p - 1: row j holds the
# coefficients of (2p - 1)^j, none above 0.44 in size.
_CORRECTION_POWERS = np.column_stack([chebyshev.cheb2poly(c) for c in _CORRECTION_MODELS.T])


def _hardy_z_rs_batch(ts: np.ndarray) -> np.ndarray:
    """Riemann-Siegel Z for an array of heights (all >= RS_SWITCH)."""
    ts = np.asarray(ts, dtype=float)
    tau = np.sqrt(ts / TWO_PI)
    floor = np.floor(tau)
    big_n = floor.astype(int)
    p = tau - floor
    out = 2.0 * _cos_sum(ts, rs_theta(ts), big_n)
    u = 1.0 / tau
    # einsum, not BLAS: it adds each height's 22 products in power order,
    # whatever the number of heights
    c0, c1, c2, c3 = np.einsum("ij,jk->ki", np.vander(2.0 * p - 1.0, _CORRECTION_POWERS.shape[0],
                                                      increasing=True), _CORRECTION_POWERS)
    corr = c0 + c1 * u + c2 * u ** 2 + c3 * u ** 3
    sign = np.where(big_n & 1, 1.0, -1.0)  # (-1)^(N-1)
    out += sign * tau ** -0.5 * corr
    return out


# B_2, B_4, ..., B_40 as (numerator, denominator).
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
              (-236364091, 2730), (8553103, 6), (-23749461029, 870),
              (8615841276005, 14322), (-7709321041217, 510), (2577687858367, 6),
              (-26315271553053477373, 1919190), (2929993913841559, 6),
              (-261082718496449122051, 13530))
# B_2k/(2k)!, each one correctly rounded division of integers: the Bernoulli
# corrections of the EM remainder.
_BERN_OVER_FACT = tuple(num / (den * math.factorial(2 * k))
                        for k, (num, den) in enumerate(_BERNOULLI[:_EM_BERN_TERMS], start=1))


def _em_term_count(ts: np.ndarray) -> np.ndarray:
    """The EM term count N of each height, as floats."""
    return np.maximum(_EM_MIN_TERMS, np.ceil(_EM_TERMS_PER_T * ts))


def _hardy_z_em_batch(ts: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin Z = Re e^(i theta) zeta(1/2 + it) for an array of heights.

    zeta is the sum over n < N plus the remainder 1/2 N^-s + N^(1-s)/(s-1) +
    sum_k B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k) over k <= _EM_BERN_TERMS,
    with N = _em_term_count(t) for each height.  What the remainder omits is
    at most |s + 2K + 1|/(sigma + 2K + 1) times its first omitted term, for
    K = _EM_BERN_TERMS (Backlund; H. M. Edwards, "Riemann's Zeta Function",
    1974, section 6.4)."""
    ts = np.asarray(ts, dtype=float)
    theta = rs_theta(ts)
    nf = _em_term_count(ts)
    s = 0.5 + 1j * ts
    rem = 0.5 * nf ** (-s) + nf ** (1 - s) / (s - 1.0)
    fac = s * nf ** (-s - 1.0)
    for k, b in enumerate(_BERN_OVER_FACT, start=1):
        rem += b * fac
        fac = fac * (s + 2 * k - 1) * (s + 2 * k) / (nf * nf)
    return _cos_sum(ts, theta, nf.astype(int) - 1) + np.real(np.exp(1j * theta) * rem)


def _em_top(polish: bool) -> float:
    """The height below which Z takes the Euler-Maclaurin path."""
    return EM_POLISH_MAX if polish else RS_SWITCH


def em_path(ts, polish: bool = False) -> np.ndarray:
    """Where hardy_z_many(ts, polish) takes the Euler-Maclaurin path."""
    return np.asarray(ts, dtype=float) < _em_top(polish)


def hardy_z_many(ts, polish: bool = False) -> np.ndarray:
    """Z(t) for an array of heights 2 <= t <= Z_TOP, with per-height path
    selection.

    EM runs below RS_SWITCH, or below EM_POLISH_MAX with polish set; RS runs
    above.  The batch's least and greatest heights decide both the domain
    check and, when every height takes one path, that path; only a batch
    across the switch is split by em_path.  A height's value does not depend
    on the batch: it is the same float64 alone, in any batch and in any
    order, as hardy_z gives it.
    """
    ts = np.asarray(ts, dtype=float)
    if not ts.size:
        return np.empty(ts.shape)
    least, most = ts.min(), ts.max()
    if not least >= 2.0:  # a NaN fails it too
        raise DomainError("hardy_z requires t >= 2")
    if most > Z_TOP:
        raise DomainError(f"hardy_z validated for t <= {Z_TOP}")
    top = _em_top(polish)
    if most < top or least >= top:  # one path: no scatter
        kernel = _hardy_z_em_batch if most < top else _hardy_z_rs_batch
        return kernel(ts.ravel()).reshape(ts.shape)
    lo = em_path(ts, polish)
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
    at large heights.  It scales with |theta(t)|, taken in closed form as
    0.5 t (log(t/2pi) - 1): that exceeds theta by pi/8 less the series' tail,
    so it bounds |theta| from theta's root at t = 17.85 up, and from
    RS_SWITCH up it is above |theta| by at most 4.7e-4 of it.  Valid for
    t >= 30.  Accepts scalars or arrays.
    """
    arr = np.asarray(t, dtype=float)
    v = arr / TWO_PI
    trunc = 0.02 * v ** -2.75
    rounding = 8.0 * _EPS * np.maximum(0.5 * arr * (np.log(v) - 1.0), 10.0) * (v ** 0.25 + 1.0)
    out = trunc + rounding
    return float(out) if np.isscalar(t) else out


def hardy_z_err(t, polish: bool = False):
    """Bound on |computed - true| for hardy_z_many(..., polish) at height t.

    Accepts scalars or arrays, like riemann_siegel_err.
    """
    arr = np.asarray(t, dtype=float)
    out = riemann_siegel_err(np.maximum(arr, RS_SWITCH))
    em = em_path(arr, polish)
    if em.any():
        out = np.where(em, 1e-14 + 3e-15 * (1.0 + arr), out)
    return float(out) if np.isscalar(t) else out

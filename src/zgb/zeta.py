"""Critical-line machinery: the Riemann-Siegel theta function and the Hardy
Z-function, by two routes over one main-sum kernel, _cos_sum, which adds
n^-1/2 cos(theta(t) - t log n) up to a term count of each height's own and
takes a cosine only for those terms:

* Euler-Maclaurin (EM): slow (N - 1 terms, N = max(60, ceil(t/4))) but
  near machine accuracy.  It is the low-height path of Z and the reference
  the fast path is checked against up to 1e4.  Its remainder at N, with
  B_2..B_2K for K = _EM_BERN_TERMS, is added as a complex number rotated by
  theta; Backlund's bound on what that remainder omits is at most 4.0e-6 of
  Z's EM error model on [2, 1e4].  N does not depend on the rest of a batch.
* Riemann-Siegel (RS): main sum of ~sqrt(t/2pi) terms plus seven correction
  terms C0..C6 (Gabcke 1979; Arias de Reyna 2011).  C_k is a function of the
  fractional part p of sqrt(t/2pi), with the parity of k in 2p - 1; all
  seven come from one product of a power basis in (2p - 1)^2 with monomial
  coefficients that are derived at import from the shipped Chebyshev ones,
  _CORRECTION_MODELS.
  riemann_siegel_err covers the first term left out, C7 (t/2pi)^(-15/4).

Z is a function of t alone: every sum over terms adds them in one order
fixed by the height itself, never by the other heights of a call, so a
height gets the same float64 alone, in any batch and in any order.

RS_SWITCH is the one place where the two paths meet, for hardy_z_many and
hardy_z_err alike, and for the isolation grid and the refinement alike.  RS
costs a fraction of EM's, and from RS_SWITCH up its truncation is at most
1.6e-12: rounding in the main sum's phases, which grows with t, decides its
error.  hardy_z_err is the one error model of Z: 1e-14 + 3e-15 (1 + t) on EM
and riemann_siegel_err on RS.  Every sign decision and every abs_err rests
on it, so downstream checks can demand margins that exceed accumulated error.

Both paths rotate by one theta, rs_theta, exact to rounding for t >= 1: the
asymptotic series from a switch height of 30 up, and below it the argument
of Gamma(1/4 + it/2) from Stirling's series after a recurrence shift.
Both series and the EM remainder take their coefficients from one list of
Bernoulli numbers, derived exactly at import.  The package needs numpy and
nothing else.

All functions are pure; array-valued helpers are vectorised with numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
# cheb2poly turns the shipped C0..C6 coefficients into a power basis at
# import.  bench/tracing.py also looks up zgb.zeta.chebyshev.chebval.
from numpy.polynomial import chebyshev, polynomial

from .errors import DomainError

TWO_PI = 2.0 * math.pi
LOG_PI = math.log(math.pi)
_EPS = np.finfo(float).eps

#: Heights at or above this use the Riemann-Siegel path of hardy_z.
RS_SWITCH = 500.0

#: The top of Z's domain: 1e6 plus some 1,900 Gram points, room for the
#: Turing blocks that certify a zero count at any height up to 1e6.
Z_TOP = 1e6 + 1e3

# EM term count N = max(_EM_MIN_TERMS, ceil(_EM_TERMS_PER_T * t)).  With
# _EM_BERN_TERMS Bernoulli terms, Backlund's bound on the truncation is at
# most 4.0e-6 of the EM error model on [2, 1e4], largest at t = 240 where the
# floor hands over and falling below it (a floor of 30 would let it reach
# 1.1e-3 near t = 120).  Fewer main-sum terms and more Bernoulli terms cost
# less: at t = 1000 the 150 cos terms saved outweigh 24 more remainder rows.
_EM_MIN_TERMS = 60
_EM_TERMS_PER_T = 0.25
_EM_BERN_TERMS = 44

# Twice max|C7| over p in [0, 1] (1.0909e-5, tests/oracles.py): the
# truncation term of riemann_siegel_err is this times (t/2pi)^(-15/4).
_RS_TRUNCATION = 2.182e-5

# Matrix elements (terms x heights) any buffer of a Z kernel may hold, 2 MB
# per float64 array at any batch size; _in_slices alone divides it.
_BATCH_ELEMENTS = 1 << 18


def _bernoulli(count: int) -> list[Fraction]:
    """B_2, B_4, ..., B_2count, exact: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
    from the tangent numbers T_k, by the integer recurrence of R. P. Brent and
    D. Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers" (2013)."""
    tan = [0] + [math.factorial(k - 1) for k in range(1, count + 1)]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            tan[j] = (j - k) * tan[j - 1] + (j - k + 2) * tan[j]
    return [Fraction((-1) ** (k - 1) * 2 * k * tan[k], 4 ** k * (4 ** k - 1))
            for k in range(1, count + 1)]


# Every series coefficient below is worked from these exactly and rounded once.
_BERNOULLI = _bernoulli(_EM_BERN_TERMS)

# Riemann-Siegel theta asymptotic series: the coefficient of t^-(2n-1) is
# (1 - 2^(1-2n)) |B_2n| / (4n (2n-1)), for n <= 4.
_THETA_COEFFS = tuple(float((1 - Fraction(2, 4 ** n)) * abs(b) / (4 * n * (2 * n - 1)))
                      for n, b in enumerate(_BERNOULLI[:4], start=1))

# The series from here up: its first omitted term (1 - 2^-9) |B_10| / 180 t^-9 is 2e-17 at 30.
_THETA_SERIES_MIN = 30.0
# Below, Stirling at w = 1/4 + K + it/2: |w| >= 8.25 puts |B_18| / 306 |w|^-17 below 1e-16.
_GAMMA_SHIFT = 8
# Stirling series of log Gamma: the coefficient of w^-(2k-1) is B_2k / (2k (2k-1)), for k <= 8.
_STIRLING_COEFFS = tuple(float(b / (2 * k * (2 * k - 1))) for k, b in enumerate(_BERNOULLI[:8], 1))


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

    The call is worked in one terms x heights buffer, as tall as the largest
    count, and summed one term row at a time in n order.  The cosine is taken
    only where a height has a term, and every other entry is set to +0.0: a
    sum starts from the n = 1 row, which every height has, and adding +0.0
    leaves it as it is, so a height's sum is the same float64 whatever else
    is in its call, in any order.  The kernels size each call by _in_slices.
    """
    top = int(counts.max(initial=0))
    n = np.arange(1.0, top + 1)[:, None]  # the terms, as a column
    buf = np.multiply(np.log(n), ts)  # one buffer, each step in place
    np.subtract(theta, buf, out=buf)
    if counts.min(initial=top) == top:
        np.cos(buf, out=buf)
    else:
        has = n <= counts
        np.cos(buf, out=buf, where=has)
        np.copyto(buf, 0.0, where=np.logical_not(has, out=has))
    buf *= n ** -0.5
    return _row_sum(buf)


def _in_slices(body, ts: np.ndarray, terms: int) -> np.ndarray:
    """body(ts) on consecutive slices of at most _BATCH_ELEMENTS // max(terms,
    _EM_BERN_TERMS) heights, terms the main-sum count at ts's highest height:
    no kernel buffer outgrows _BATCH_ELEMENTS, and Z, of t alone, moves no bit."""
    step = max(1, _BATCH_ELEMENTS // max(terms, _EM_BERN_TERMS))
    out = np.empty(ts.shape)
    for i in range(0, ts.size, step):
        out[i:i + step] = body(ts[i:i + step])
    return out


def _row_sum(buf: np.ndarray) -> np.ndarray:
    """Sum of a terms x heights buffer over its rows, in row order for every
    height: numpy reduces axis 0 of a wide buffer a row at a time, but a lone
    column pairwise, so that one is accumulated instead."""
    return np.add.accumulate(buf)[-1] if buf.shape[1] == 1 else buf.sum(axis=0)


# ---------------------------------------------------------------------------
# Riemann-Siegel correction terms.
# ---------------------------------------------------------------------------


# Chebyshev coefficients of Gabcke's corrections over p in [0, 1]: row j
# holds those of T_j(2p - 1) in C0..C6, from the power series of Arias de
# Reyna's recursion, rounded once (tests/oracles.py regenerates them).  C_k has
# k's parity in 2p - 1, so T_j of the other parity are exactly 0.  The rows kept
# are the fewest for which every C_k's dropped tail, the sum of its dropped
# |coefficients| (|T_j| <= 1), times u^k = (t/2pi)^(-k/2) at RS_SWITCH, is
# below 1e-3 of the smallest riemann_siegel_err on [RS_SWITCH, 1e6].
_CORRECTION_MODELS = np.array((
    (0.6426672862397684, 0.0, 0.0031461158539889122, 0.0, 0.0001676574524669686, 0.0, 1.2189742141068971e-05),
    (0.0, 0.010697913921003001, 0.0, 7.123256221203874e-05, 0.0, 8.828845234808902e-05, 0.0),
    (0.27197299999785507, 0.0, -0.0023087838845307503, 0.0, -0.00022728768943416726, 0.0, -1.3829760140503787e-05),
    (0.0, 0.017170651243377882, 0.0, 0.00023234305298164808, 0.0, -1.562868496932839e-05, 0.0),
    (0.010738605819340285, 0.0, 5.769820766689844e-05, 0.0, 6.477387188445696e-05, 0.0, 5.11096730499826e-06),
    (0.0, 0.002793211149788471, 0.0, -0.00012929912045472474, 0.0, -1.8342447697160084e-07, 0.0),
    (-0.0013743815296336614, 0.0, 0.000352388620236659, 0.0, -8.49220050012541e-06, 0.0, -2.0458136450386076e-06),
    (0.0, -3.6375653719275045e-05, 0.0, 1.807449641367144e-05, 0.0, 2.1097267874937543e-06, 0.0),
    (-0.00012468221880320676, 0.0, 2.5246667458684434e-05, 0.0, -2.6161407245219076e-06, 0.0, 4.938136644832012e-07),
    (0.0, -2.7108955231150888e-05, 0.0, 6.5261851872204395e-06, 0.0, -6.657016174096388e-07, 0.0),
    (-5.764599706783048e-07, 0.0, -3.442821197193136e-06, 0.0, 8.336764968733215e-07, 0.0, -3.6187528349622816e-08),
    (0.0, -1.0483749866752774e-06, 0.0, -1.1696365378521986e-07, 0.0, 2.771474120506843e-08, 0.0),
    (2.728067429580452e-07, 0.0, -3.535074556622459e-07, 0.0, 6.324704037544833e-08, 0.0, -1.287690509807986e-08),
    (0.0, 5.886467166527572e-08, 0.0, -7.349476126518126e-08, 0.0, 1.8111249375764875e-08, 0.0),
    (8.07795305950047e-09, 0.0, 3.730830183792625e-09, 0.0, -1.0059949403001072e-08, 0.0, 2.574412111144866e-09),
    (0.0, 4.322967268502779e-09, 0.0, -1.7750910077907072e-09, 0.0, -5.765890811715977e-10, 0.0),
    (-2.0884608068869654e-10, 0.0, 1.2776951864116635e-09, 0.0, -7.822677204130333e-10, 0.0, 1.3641457070791684e-10),
    (0.0, -1.1369591588273712e-11, 0.0, 2.555552961326525e-10, 0.0, -1.8675033426083153e-10, 0.0),
    (-1.3115561854739528e-11, 0.0, 2.1874616204147057e-11, 0.0, 3.16765828534986e-11, 0.0, -3.032439574084382e-11),
    (0.0, -6.6998339103553274e-12, 0.0, 1.13766366005373e-11, 0.0, -1.1051608917093021e-13, 0.0),
    (-1.4207987228087186e-14, 0.0, -1.914141096461037e-12, 0.0, 3.5006944702052894e-12, 0.0, -1.3216671239902537e-12),
    (0.0, -1.0079997652808475e-13, 0.0, -3.349863898530277e-13, 0.0, 7.870643368056824e-13, 0.0),
    (1.0271701357931162e-14, 0.0, -6.562883102168523e-14, 0.0, -1.4314814511443748e-14, 0.0, 1.3031652130009368e-13),
))


# The same seven polynomials in powers of y = (2p - 1)^2, zero-padded: column
# k holds the coefficients of y^j in C_k / (2p - 1)^(k mod 2), none above 0.44.
_CORRECTION_POWERS = np.column_stack([
    np.pad(c, (0, (len(_CORRECTION_MODELS) + 1) // 2 - c.size)) for c in
    (chebyshev.cheb2poly(c)[k % 2::2] for k, c in enumerate(_CORRECTION_MODELS.T))])


# Batches of at least this many heights build the power basis of the
# corrections row by row on contiguous rows; smaller ones in one strided
# accumulate, which costs less per call (4.0 against 15 us at one height on
# a 2-core x86_64 VM).
_ROW_BY_ROW_MIN = 128


def _corrections(x: np.ndarray) -> np.ndarray:
    """C0..C6 at the heights whose 2p - 1 is x, as a 7 x heights array.

    Row j of the power basis is y^j, y = x * x, each row the one before times
    y, the products np.vander makes; einsum, not BLAS, adds each height's 12
    products in power order, whatever the number of heights, and the odd C_k
    are then multiplied by x.
    """
    powers = np.empty((_CORRECTION_POWERS.shape[0], x.size))
    powers[0] = 1.0
    np.multiply(x, x, out=powers[1])
    powers[2:] = powers[1]
    if x.size < _ROW_BY_ROW_MIN:
        np.multiply.accumulate(powers, axis=0, out=powers)
    else:
        for j in range(2, powers.shape[0]):
            powers[j] *= powers[j - 1]
    out = np.einsum("ji,jk->ki", powers, _CORRECTION_POWERS)
    out[1::2] *= x
    return out


def _hardy_z_rs_batch(ts: np.ndarray) -> np.ndarray:
    """Riemann-Siegel Z for an array of heights (all >= RS_SWITCH), by _in_slices."""
    return _in_slices(_hardy_z_rs_slice, ts, int(math.sqrt(ts.max(initial=0.0) / TWO_PI)))


def _hardy_z_rs_slice(ts: np.ndarray) -> np.ndarray:
    tau = np.sqrt(ts / TWO_PI)
    floor = np.floor(tau)
    big_n = floor.astype(int)
    p = tau - floor
    out = 2.0 * _cos_sum(ts, rs_theta(ts), big_n)
    u = 1.0 / tau
    corr = polynomial.polyval(u, _corrections(2.0 * p - 1.0), tensor=False)  # Horner in u
    sign = np.where(big_n & 1, 1.0, -1.0)  # (-1)^(N-1)
    out += sign * tau ** -0.5 * corr
    return out


# B_2k / (2k)!: the Bernoulli corrections of the EM remainder.
_BERN_OVER_FACT = np.array([float(b / math.factorial(2 * k)) for k, b in enumerate(_BERNOULLI, 1)])
# At s = 1/2 + it, (s + 2k - 1)(s + 2k) = 4k^2 - 1/4 - t^2 + 4kt i; the
# columns hold 4k and 4k^2 - 1/4 for k = 1 .. _EM_BERN_TERMS - 1.
_EM_STEP_IM = 4.0 * np.arange(1.0, _EM_BERN_TERMS)[:, None]
_EM_STEP_RE = _EM_STEP_IM * _EM_STEP_IM / 4.0 - 0.25


def _em_term_count(ts: np.ndarray) -> np.ndarray:
    """The EM term count N of each height, as floats."""
    return np.maximum(_EM_MIN_TERMS, np.ceil(_EM_TERMS_PER_T * ts))


def _em_remainder(ts: np.ndarray, nf: np.ndarray) -> np.ndarray:
    """The EM remainder at N = nf of each height, as a complex array.

    Its Bernoulli terms are worked in one _EM_BERN_TERMS x heights buffer:
    row 0 starts as s N^(-s-1) and row k as the factor (s + 2k - 1)(s + 2k)
    / N^2 that takes term k to term k + 1, so one product down the rows
    gives each term's s(s+1)...(s+2k-2) N^(1-s-2k), whatever the number of
    heights.
    """
    s = 0.5 + 1j * ts
    n_s = nf ** -s
    rem = 0.5 * n_s + nf * n_s / (s - 1.0)
    inv_n2 = 1.0 / (nf * nf)
    fac = np.empty((_EM_BERN_TERMS, ts.size), dtype=complex)
    fac[0] = s * n_s / nf
    fac.real[1:] = (_EM_STEP_RE - ts * ts) * inv_n2
    fac.imag[1:] = _EM_STEP_IM * (ts * inv_n2)
    np.multiply.accumulate(fac, axis=0, out=fac)
    fac *= _BERN_OVER_FACT[:, None]
    return rem + _row_sum(fac)


def _hardy_z_em_batch(ts: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin Z = Re e^(i theta) zeta(1/2 + it) for an array of heights.

    zeta is the sum over n < N plus the remainder 1/2 N^-s + N^(1-s)/(s-1) +
    sum_k B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k) over k <= _EM_BERN_TERMS,
    with N = _em_term_count(t) for each height.  What the remainder omits is
    at most |s + 2K + 1|/(sigma + 2K + 1) times its first omitted term, for
    K = _EM_BERN_TERMS (Backlund; H. M. Edwards, "Riemann's Zeta Function",
    1974, section 6.4).  It is worked by _in_slices."""
    return _in_slices(_hardy_z_em_slice, ts, int(_em_term_count(ts.max(initial=0.0))) - 1)


def _hardy_z_em_slice(ts: np.ndarray) -> np.ndarray:
    theta, nf = rs_theta(ts), _em_term_count(ts)
    rem = np.real(np.exp(1j * theta) * _em_remainder(ts, nf))
    return _cos_sum(ts, theta, nf.astype(int) - 1) + rem


def hardy_z_many(ts) -> np.ndarray:
    """Z(t) for an array of heights 2 <= t <= Z_TOP, with per-height path
    selection.

    EM runs below RS_SWITCH and RS from it up.  The batch's least and
    greatest heights decide both the domain check and, when every height
    takes one path, that path; only a batch across the switch is split.  A
    height's value does not depend on the batch: it is the same float64
    alone, in any batch and in any order, as hardy_z gives it.
    """
    ts = np.asarray(ts, dtype=float)
    if not ts.size:
        return np.empty(ts.shape)
    least, most = ts.min(), ts.max()
    if not least >= 2.0:  # a NaN fails it too
        raise DomainError("hardy_z requires t >= 2")
    if most > Z_TOP:
        raise DomainError(f"hardy_z validated for t <= {Z_TOP}")
    if most < RS_SWITCH or least >= RS_SWITCH:  # one path: no scatter
        kernel = _hardy_z_em_batch if most < RS_SWITCH else _hardy_z_rs_batch
        return kernel(ts.ravel()).reshape(ts.shape)
    lo = ts < RS_SWITCH
    out = np.empty(ts.shape)
    out[lo] = _hardy_z_em_batch(ts[lo])
    out[~lo] = _hardy_z_rs_batch(ts[~lo])
    return out


def hardy_z(t: float) -> float:
    """Hardy's Z(t) = e^(i theta(t)) zeta(1/2 + it), real on the critical line,
    at one height t >= 2."""
    return float(hardy_z_many(np.array([float(t)]))[0])


def riemann_siegel_err(t):
    """Error envelope of the Riemann-Siegel path with corrections C0..C6.

    The first term, twice the first term left out at its largest,
    2 max|C7| (t/2pi)^(-15/4) with max|C7| = 1.0909e-5, is an estimate of the
    truncation, not a proof: the series is asymptotic, and what it omits is
    C7's term plus later ones under 3 % of it at RS_SWITCH.  Checked against
    mpmath's exact remainder on [RS_SWITCH, 1500), where the term is largest
    (1.6e-12 at RS_SWITCH), the remainder reaches 0.51 of it.  The second
    term, phase rounding of the main sum, is the larger from RS_SWITCH up
    and takes over entirely at large heights.  It scales with |theta(t)|, taken in
    closed form as 0.5 t (log(t/2pi) - 1): that exceeds theta by pi/8 less the
    series' tail, so it bounds |theta| from theta's root at t = 17.85 up, and
    from RS_SWITCH up it is above |theta| by at most 4.7e-4 of it.  Valid for
    t >= 30.  Accepts scalars or arrays.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))  # ** on np.float64 would take C's pow
    v = arr / TWO_PI
    # numpy works each operation on a large temporary that nothing else holds
    # in place, so an array of heights costs three float arrays its size;
    # halving last is exact, the float64 that halving t first gives
    rounding = 8.0 * _EPS * np.maximum((np.log(v) - 1.0) * arr * 0.5, 10.0) * (v ** 0.25 + 1.0)
    out = _RS_TRUNCATION * v ** -3.75 + rounding
    return float(out[0]) if np.isscalar(t) else out.reshape(np.shape(t))


def hardy_z_err(t):
    """Bound on |computed - true| for hardy_z_many at height t > 0.

    Accepts scalars or arrays, like riemann_siegel_err.  The RS envelope is
    worked at every height, then EM's term is set by index below RS_SWITCH.
    """
    arr = np.asarray(t, dtype=float)
    out = riemann_siegel_err(arr)  # an array, 0-d for a scalar t
    em = arr < RS_SWITCH
    if em.any():
        out[em] = 1e-14 + 3e-15 * (1.0 + arr[em])
    return float(out) if np.isscalar(t) else out

"""Critical-line machinery: theta expansion, Euler-Maclaurin zeta, Hardy Z.

The two evaluation routes check each other; where an external oracle is
wanted (theta as a Gamma argument, Z and its error model), mpmath provides
arbitrary-precision references.
"""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.optimize import brentq

from oracles import (
    SHIPPED_TERMS,
    correction_fit,
    correction_max,
    correction_models,
    correction_series,
    gabcke_closed_forms,
)
from zgb import zeta
from zgb.errors import DomainError
from zgb.zeta import (
    _CORRECTION_MODELS,
    _CORRECTION_POWERS,
    RS_SWITCH,
    Z_TOP,
    _cos_sum,
    _hardy_z_em_batch,
    _hardy_z_rs_batch,
    hardy_z,
    hardy_z_err,
    hardy_z_many,
    riemann_siegel_err,
    rs_theta,
    rs_theta_deriv,
)

mp.mp.dps = 30

GAMMA1 = 14.134725141734694


# ---------------------------------------------------------------------- theta


def test_theta_root():
    # the expansion's zero crossing, against the Gamma-argument value
    root = brentq(rs_theta, 17.0, 18.5, xtol=1e-12)
    assert root == pytest.approx(17.8455995404108608, abs=1e-8)


def test_theta_against_gamma_argument_oracle():
    # high-precision oracle: arg Gamma(1/4 + it/2) - (t/2) log pi
    t = 2.0 * math.pi * 1e4
    oracle = float(mp.siegeltheta(t))
    assert rs_theta(t) == pytest.approx(oracle, abs=1e-9)
    assert rs_theta(t) == pytest.approx(257935.05726197053, abs=1e-9)


def test_theta_accuracy_for_t_geq_10():
    # above t ~ 1e5 the output's own float64 representation floor (eps*theta)
    # passes 1e-10, so the tolerance carries that term explicitly
    for t in np.logspace(1, 6, 40):
        t = float(t)
        ref = mp.siegeltheta(t)
        tol = 1e-10 + 4.0 * 2.3e-16 * abs(float(ref))
        assert abs(rs_theta(t) - float(ref)) < tol


def test_theta_correction_term_bracket():
    # the first correction term dominates: value in (1/(48t), 1.001/(48t)],
    # up to the cancellation noise of subtracting two ~theta-sized quantities
    for t in (10.0, 50.0, 1e3, 1e5):
        leading = 0.5 * t * (math.log(t / (2 * math.pi)) - 1.0) - math.pi / 8.0
        corr = rs_theta(t) - leading
        slack = 4.0 * 2.3e-16 * abs(rs_theta(t))
        assert 1.0 / (48.0 * t) - slack < corr <= 1.001 / (48.0 * t) + slack


def test_theta_monotone_above_10():
    grid = np.linspace(10.0, 1e4, 2000)
    vals = rs_theta(grid)
    assert np.all(np.diff(vals) > 0)


def test_theta_derivative_matches_log():
    # FD approaches theta' = 0.5 log(t/2pi) - 1/(48 t^2) - ...; the distance
    # to the bare log is the correction-term scale
    for t in (100.0, 1e3, 1e5):
        h = t * 1e-5
        fd = (rs_theta(t + h) - rs_theta(t - h)) / (2 * h)
        target = 0.5 * math.log(t / (2 * math.pi))
        assert abs(fd - target) <= 1.0 / (48.0 * t * t) + 1e-6 * abs(target)
        assert rs_theta_deriv(t) == pytest.approx(fd, rel=1e-7)


def test_theta_domain_error():
    with pytest.raises(DomainError):
        rs_theta(0.5)


def test_theta_exact_to_rounding():
    # the Gamma-argument form below the series' switch height, the series
    # from there up; the series alone is 9.4e-4 off at t = 2
    switch = zeta._THETA_SERIES_MIN
    spots = [2.0, 5.0, float(mp.grampoint(-1)),
             math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf)]
    ts = np.concatenate((spots, np.linspace(2.0, 40.0, 761),
                         np.logspace(math.log10(2.0), 6.0, 200)))
    eps = np.finfo(float).eps
    for t, got in zip(ts, rs_theta(ts)):
        ref = float(mp.siegeltheta(float(t)))
        assert abs(got - ref) <= 1e-13 + 4.0 * eps * abs(ref), t
    assert rs_theta(2.0) == rs_theta(np.array([2.0]))[0]


# ------------------------------------------------------------- Euler-Maclaurin


def test_z_within_its_error_model_against_mpmath():
    # hardy_z_err is the one error model of Z, so every sign decision and
    # abs_err rests on it: check it at seeded heights below RS_SWITCH and
    # below 1500, each in one batch and one height at a time.  The second set
    # adds the closest calls seen in [1000, 1500) when EM ran there:
    # 1268.1287 (0.86 of the model under an earlier EM sum) and the worst of
    # default_rng(3).uniform(1000, 1500, 2000), at 0.65
    rng = np.random.default_rng(8)
    for top, worst in ((RS_SWITCH, ()), (1500.0, (1268.1287, 1378.4677181401307))):
        ts = np.concatenate((rng.uniform(2.0, top, 40), worst))
        got = hardy_z_many(ts)
        for t, z, err in zip(ts.tolist(), got, hardy_z_err(ts)):
            ref = float(mp.siegelz(t))
            assert abs(z - ref) <= err, t
            alone = float(hardy_z_many(np.array([t]))[0])
            assert abs(alone - ref) <= err, (t, "alone")
    # above, EM is the reference the RS tests compare against within 1e-10
    ts = np.geomspace(1500.0, 1e4, 6)
    for t, z in zip(ts.tolist(), _hardy_z_em_batch(ts)):
        assert abs(z - float(mp.siegelz(t))) <= 1e-10, t
    # the band past 1e6 that only Turing's method uses, up to Z_TOP: the
    # worst of these is 0.031 of the model
    ts = np.random.default_rng(7).uniform(1e6, Z_TOP, 12)
    for t, z, err in zip(ts.tolist(), hardy_z_many(ts), hardy_z_err(ts)):
        assert abs(z - float(mp.siegelz(t))) <= err, t


@pytest.mark.slow
def test_z_errs_within_a_third_of_its_model_from_rs_switch_to_1e4():
    # RS refines as well as scans from RS_SWITCH up: on 1,001 evenly spaced
    # heights of [RS_SWITCH, 1e4] the worst |Z - siegelz| is 0.23 of
    # hardy_z_err, 4.2e-12 at 1070, and none on [RS_SWITCH, 1500) errs by
    # more than 1e-11, though the model passes it from 685 up; about 25 s
    ts = np.linspace(RS_SWITCH, 1e4, 1001)
    with mp.workdps(20):
        miss = np.abs(hardy_z_many(ts) - np.array([float(mp.siegelz(t)) for t in ts.tolist()]))
    assert np.max(miss / hardy_z_err(ts)) <= 1.0 / 3.0
    assert np.max(miss[ts < 1500.0]) <= 1e-11


def test_em_bernoulli_coefficients_against_mpmath():
    # the Bernoulli numbers derived at import are exact, and every series
    # coefficient taken from them is its formula worked in exact rationals
    # and rounded once: theta's t^-(2n-1), Stirling's w^-(2k-1) and the EM
    # remainder's B_2k/(2k)!
    bern = [Fraction(*mp.bernfrac(2 * k)) for k in range(1, zeta._EM_BERN_TERMS + 1)]
    assert zeta._BERNOULLI == bern
    assert len(zeta._BERN_OVER_FACT) == zeta._EM_BERN_TERMS == 44
    assert zeta._BERN_OVER_FACT.tolist() == [float(b / math.factorial(2 * k))
                                             for k, b in enumerate(bern, start=1)]
    assert zeta._THETA_COEFFS == tuple(
        float((1 - Fraction(1, 2 ** (2 * n - 1))) * abs(b) / (4 * n * (2 * n - 1)))
        for n, b in enumerate(bern[:4], start=1))
    assert zeta._STIRLING_COEFFS == tuple(float(b / (2 * k * (2 * k - 1)))
                                          for k, b in enumerate(bern[:8], start=1))


def test_em_remainder_matches_a_term_by_term_loop():
    # the remainder's Bernoulli terms, one product down a terms x heights
    # buffer, against each height's terms in Python complex arithmetic, each
    # term from the one before; the roundings differ, so they agree
    # within 32 eps of the sum of the terms' sizes
    ts = np.concatenate((np.linspace(2.0, np.nextafter(1500.0, 0.0), 3000), [240.0]))
    nf = zeta._em_term_count(ts)
    got = zeta._em_remainder(ts, nf)
    for t, n, z in zip(ts.tolist(), nf.tolist(), got.tolist()):
        s = complex(0.5, t)
        terms = [0.5 * n ** -s, n ** (1 - s) / (s - 1.0)]
        fac = s * n ** (-s - 1.0)
        for k, b in enumerate(zeta._BERN_OVER_FACT.tolist(), start=1):
            terms.append(b * fac)
            fac = fac * (s + 2 * k - 1) * (s + 2 * k) / (n * n)
        assert abs(z - sum(terms)) <= 32 * np.finfo(float).eps * sum(map(abs, terms)), t


def test_em_truncation_within_backlund_bound():
    # what the EM remainder omits after B_2K is at most |s + 2K + 1| /
    # (sigma + 2K + 1) times the first omitted term, B_2K+2/(2K+2)!
    # s(s+1)...(s+2K) N^(-s-2K-1) (Backlund; Edwards, "Riemann's Zeta
    # Function", section 6.4); for the kernel's own N(t) and K it must stay
    # far below the EM error model, which leaves the rest to rounding
    # the bound peaks where N steps up; its worst ratio is 4.0e-6, at t = 240
    steps = np.arange(1.0, 1e4 * zeta._EM_TERMS_PER_T + 1.0) / zeta._EM_TERMS_PER_T
    ts = np.unique(np.concatenate((np.linspace(2.0, 1e4, 200001), steps,
                                   np.nextafter(steps, 0.0))))
    big_k = zeta._EM_BERN_TERMS
    s = 0.5 + 1j * ts
    first_omitted = float(mp.log(abs(mp.bernoulli(2 * big_k + 2) / mp.factorial(2 * big_k + 2))))
    for j in range(2 * big_k + 1):
        first_omitted += np.log(np.abs(s + j))
    first_omitted -= (0.5 + 2 * big_k + 1) * np.log(zeta._em_term_count(ts))
    bound = np.abs(s + 2 * big_k + 1) / (0.5 + 2 * big_k + 1) * np.exp(first_omitted)
    model = 1e-14 + 3e-15 * (1.0 + ts)  # the EM branch of hardy_z_err
    em = ts < RS_SWITCH
    assert np.array_equal(model[em], hardy_z_err(ts[em]))
    assert np.max(bound / model) <= 1e-3


# --------------------------------------------------------------------- hardy Z


def test_z_vanishes_at_first_zero():
    assert abs(hardy_z(GAMMA1)) < 1e-5


def test_z_domain_error():
    # Z is validated on [2, Z_TOP] on both paths; NaN is no height, so it
    # fails the t >= 2 check alone or in a batch
    with pytest.raises(DomainError):
        hardy_z(1.9)
    with pytest.raises(DomainError):
        hardy_z(math.nan)
    assert np.isfinite(hardy_z_many(np.array([2.0, Z_TOP]))).all()
    for bad in (1.9, math.nan, np.nextafter(Z_TOP, math.inf), 1e7):
        with pytest.raises(DomainError):
            hardy_z_many(np.array([600.0, bad]))
    # an empty batch passes and keeps its shape
    assert hardy_z_many(np.empty((0, 3))).shape == (0, 3)


def test_z_path_choice_at_the_batch_ends():
    # the least and greatest heights pick one kernel for a batch on one side
    # of the switch; a batch across it is split height by height
    below = np.array([2.0, 100.0, np.nextafter(RS_SWITCH, 0.0)])
    above = np.array([RS_SWITCH, 5000.0, 1e6])
    assert np.array_equal(hardy_z_many(below), _hardy_z_em_batch(below))
    assert np.array_equal(hardy_z_many(above), _hardy_z_rs_batch(above))
    across = np.array([[1e6, 2.0], [RS_SWITCH, np.nextafter(RS_SWITCH, 0.0)]])
    want = [[_hardy_z_rs_batch(np.array([1e6]))[0], _hardy_z_em_batch(np.array([2.0]))[0]],
            [_hardy_z_rs_batch(np.array([RS_SWITCH]))[0],
             _hardy_z_em_batch(np.array([np.nextafter(RS_SWITCH, 0.0)]))[0]]]
    assert np.array_equal(hardy_z_many(across), want)


def test_z_of_a_height_does_not_depend_on_its_batch():
    # one call, 6-point calls, one-point calls (every tenth height) and the
    # reversed order give each height the same float64, on both paths and on
    # batches across the switch and around 1500, where EM once polished
    rng = np.random.default_rng(21)
    bands = [rng.uniform(lo, hi, 600) for lo, hi in
             ((2.0, RS_SWITCH), (RS_SWITCH, 1500.0), (1500.0, 1e4), (5e5, 1e6))]
    bands += [rng.uniform(top - 50.0, top + 50.0, 120) for top in (RS_SWITCH, 1500.0)]
    for ts in bands:
        whole = hardy_z_many(ts)
        sixes = np.concatenate([hardy_z_many(ts[i:i + 6]) for i in range(0, ts.size, 6)])
        assert np.array_equal(sixes, whole)
        assert np.array_equal(hardy_z_many(ts[::-1])[::-1], whole)
        alone = [hardy_z_many(ts[i:i + 1])[0] for i in range(0, ts.size, 10)]
        assert np.array_equal(alone, whole[::10])
        assert np.array_equal([hardy_z(t) for t in ts[::10].tolist()], whole[::10])


def test_z_and_theta_are_pinned_bit_for_bit():
    # 2,000 seeded heights in each band where Z or theta takes other code:
    # Stirling's theta, EM, RS on [RS_SWITCH, 1500) where its error is
    # largest against EM's, RS where EM checks it, RS to 1e6, and the band
    # past it that only Turing's method reads.  A change that moves Z on
    # purpose (ROADMAP item 4) re-pins it, with each moved ordinate checked
    # against mpmath
    rng = np.random.default_rng(29)
    ts = np.concatenate([rng.uniform(lo, hi, 2000) for lo, hi in (
        (2.0, 30.0), (30.0, RS_SWITCH), (RS_SWITCH, 1500.0), (1500.0, 1e4),
        (1e4, 1e6), (1e6, Z_TOP))])
    got = {name: hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()
           for name, values in (("ts", ts), ("z", hardy_z_many(ts)),
                                ("theta", rs_theta(ts)), ("theta_deriv", rs_theta_deriv(ts)))}
    assert got == {
        "ts": "d4babee560d6721d7e5c48761d27eff0a19f7b4651ea83a2a31abcdd60f13545",
        "z": "d26a0f28d584c9adfbdd63754b6a3de7c21c126f7de6d13672b8d46a79f0327f",
        "theta": "930a1351100950529a0bd74404945f1905eb4c17367c70004a4fc74827bba86f",
        "theta_deriv": "afd6f79a3de6ca56ebcd1cea2dd666b4924ee61032d9fbe26d6b0b1338ed2962",
    }


def test_z_error_model_is_pinned_bit_for_bit():
    # the error model at the heights of the Z and theta pin: every sign
    # decision and every abs_err reads it, so a rewrite of its arithmetic
    # keeps each bit
    rng = np.random.default_rng(29)
    ts = np.concatenate([rng.uniform(lo, hi, 2000) for lo, hi in (
        (2.0, 30.0), (30.0, RS_SWITCH), (RS_SWITCH, 1500.0), (1500.0, 1e4),
        (1e4, 1e6), (1e6, Z_TOP))])
    got = {name: hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()
           for name, values in (("err", hardy_z_err(ts)), ("rs_err", riemann_siegel_err(ts)))}
    assert got == {
        "err": "d05efa08aef65c200418991a3397d19f8694695a421877463714a51bc70dab17",
        "rs_err": "5c7a3a952359b840b5d29a55298400b17e9cda7dcd6ece2f751331f5aa25e0f5",
    }


def test_z_error_model_works_in_three_arrays_of_its_heights():
    # the isolation grid of a 1e6 scan passes 1.75 M heights at once: the RS
    # envelope takes three float arrays their size, then the EM rows are set
    # by index (3.0 times the heights' nbytes; 5.0 with a clipped copy of the
    # heights, separate terms and np.where)
    ts = np.random.default_rng(34).uniform(2.0, 1e6, 200_000)
    tracemalloc.start()
    try:
        hardy_z_err(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * ts.nbytes


def test_z_error_model_gives_a_scalar_its_value_in_an_array():
    # one float64 a height: zeros._cut decides at a range end with the scalar
    # form, and every other caller with the array form (** on an np.float64
    # once took C's pow, an ulp off numpy's loop on 113 of these heights)
    ts = np.random.default_rng(35).uniform(30.0, 1e6, 3000)
    for err, array in ((riemann_siegel_err, riemann_siegel_err(ts)), (hardy_z_err, hardy_z_err(ts))):
        scalars = [err(t) for t in ts.tolist()]
        assert all(type(s) is float for s in scalars)
        assert np.array_equal(scalars, array)


def test_z_sign_bookkeeping_14_to_18():
    # no ordinate lies in (14.2, 18], so the signs agree
    assert math.copysign(1.0, hardy_z(18.0)) == math.copysign(1.0, hardy_z(14.2))


def test_z_sign_changes_across_gamma1():
    assert hardy_z(14.0) * hardy_z(14.2) < 0


def test_modulus_identity_1000_samples():
    rng = np.random.default_rng(7)
    ts = rng.uniform(2.0, 1e4, 1000)
    z = hardy_z_many(ts)
    worst = float(np.max(np.abs(np.abs(z) - np.abs(_hardy_z_em_batch(ts)))))
    assert worst < 1e-7


def test_rs_and_em_agree_within_combined_estimates():
    for t in np.logspace(math.log10(30.0), 4, 30):
        t = float(t)
        z_rs = float(_hardy_z_rs_batch(np.array([t]))[0])
        z_em = float(_hardy_z_em_batch(np.array([t]))[0])
        budget = riemann_siegel_err(t) + 1e-10
        assert abs(z_rs - z_em) <= budget


def test_z_spot_values_against_mpmath():
    for t in (2.0, 14.2, 100.0, 550.0, 5000.0, 9999.0,
              925000.123, 950000.5, 975000.25, 999000.75):
        ref = float(mp.siegelz(t))
        assert hardy_z(t) == pytest.approx(ref, abs=hardy_z_err(t) + 1e-12)


def test_methods_agree_within_estimates_at_sampled_points():
    for t in (600.0, 1234.5, 7777.0):
        z_rs = float(_hardy_z_rs_batch(np.array([t]))[0])
        z_em = float(_hardy_z_em_batch(np.array([t]))[0])
        assert abs(z_rs - z_em) <= hardy_z_err(t) + 1e-11


def test_rs_error_model_covers_the_first_omitted_correction():
    # with C0..C6 the first term left out is C7 (t/2pi)^(-15/4): the envelope
    # is at least twice that at its largest, max|C7| = 1.0909e-5, everywhere
    c7_max = correction_max(SHIPPED_TERMS)
    assert c7_max == pytest.approx(1.0909e-5, rel=1e-4)
    assert 2.0 * c7_max <= zeta._RS_TRUNCATION <= 2.0005 * c7_max
    ts = np.geomspace(RS_SWITCH, Z_TOP, 200001)
    margin = riemann_siegel_err(ts) / (c7_max * (ts / zeta.TWO_PI) ** -3.75)
    assert margin.min() >= 2.0


def test_rs_truncation_term_covers_the_exact_remainder():
    # at t = 2pi a^2, a = N + p, the exact remainder of Z after the main sum,
    # from mpmath's siegelz in 30 digits, is (-1)^(N-1) a^-1/2 sum_k C_k(p)
    # a^-k.  Less the shipped C0..C6, it is C7(p) a^-7 to within 3 % of C7's
    # largest term, so within 0.52 of the truncation term, on heights from
    # RS_SWITCH to 1500, where that term is largest (1.6e-12 down to 2.6e-14)
    c7 = correction_series()[:, SHIPPED_TERMS]
    c7_max = correction_max(SHIPPED_TERMS)
    worst = 0.0
    for a in np.linspace(math.sqrt(RS_SWITCH / zeta.TWO_PI), math.sqrt(1500.0 / zeta.TWO_PI), 61):
        big_n, p = int(a), a - int(a)
        t = zeta.TWO_PI * a * a
        theta = mp.siegeltheta(t)
        main = 2 * mp.fsum(mp.cos(theta - t * mp.log(n)) / mp.sqrt(n) for n in range(1, big_n + 1))
        exact = (mp.siegelz(t) - main) * (-1) ** (big_n - 1) * mp.sqrt(a)
        shipped = mp.fsum(c * mp.mpf(a) ** -k
                          for k, c in enumerate(zeta._corrections(np.array([2.0 * p - 1.0]))[:, 0]))
        rest = float(exact - shipped) * a ** 7
        assert abs(rest - np.polynomial.polynomial.polyval(2.0 * p - 1.0, c7)) <= 0.03 * c7_max, a
        worst = max(worst, abs(rest) / c7_max)
        # in Z the rest is a^-1/2 of it, against the envelope's truncation term
        assert abs(rest) * a ** -7.5 <= 0.52 * zeta._RS_TRUNCATION * (t / zeta.TWO_PI) ** -3.75
    assert worst >= 0.9  # C7 is what the rest is made of


def test_correction_models_drop_only_a_negligible_tail():
    # the shipped coefficients are the oracle's, cut where every C_k's
    # dropped coefficients, weighted by u^k at RS_SWITCH, sum to below 1e-3
    # of the smallest RS error on [RS_SWITCH, 1e6], and one coefficient fewer
    # would not
    full = correction_fit()[:, :SHIPPED_TERMS]
    kept = _CORRECTION_MODELS
    assert np.array_equal(correction_models(), kept)
    limit = 1e-3 * riemann_siegel_err(np.linspace(RS_SWITCH, 1e6, 200001)).min()
    weight = (RS_SWITCH / zeta.TWO_PI) ** (-0.5 * np.arange(SHIPPED_TERMS))
    assert kept.shape[1] == SHIPPED_TERMS and kept.shape[0] < full.shape[0]
    assert np.array_equal(kept, full[:kept.shape[0]])
    tails = np.abs(full[kept.shape[0]:]).sum(axis=0) * weight
    assert np.all(tails < limit)
    assert (np.abs(full[kept.shape[0] - 1:]).sum(axis=0) * weight).max() >= limit


def test_shipped_corrections_match_gabckes_closed_forms():
    # C0..C4 in the derivatives of Psi, C4's from Psi^(0, 4, 8, 12) (ROADMAP
    # item 1), against the shipped columns the recursion gave.  The closed
    # forms take their derivatives from Cauchy integrals, which err by up to
    # 8.2e-14 in C4, and the row cut moves C3 by up to 2.6e-14
    ps = np.linspace(0.0, 1.0, 81)
    got = chebyshev.chebval(2.0 * ps - 1.0, _CORRECTION_MODELS[:, :5])
    want = np.array([gabcke_closed_forms(p) for p in ps.tolist()]).T
    assert np.all(np.abs(got - want).max(axis=1) <= [1e-14, 1e-14, 1e-14, 5e-14, 2e-13])


def test_correction_powers_are_the_shipped_chebyshev_columns():
    # the power basis in y = (2p - 1)^2 is derived from the shipped Chebyshev
    # coefficients: C_k has only T_j, and so only powers, of k's parity, the
    # others exactly 0; y's powers times (2p - 1) for odd k agree with the
    # Chebyshev sums on all of [-1, 1]
    rows = _CORRECTION_POWERS.shape[0]
    for k, (col, powers) in enumerate(zip(_CORRECTION_MODELS.T, _CORRECTION_POWERS.T)):
        assert not col[(k + 1) % 2::2].any()
        full = chebyshev.cheb2poly(col)
        assert not full[(k + 1) % 2::2].any()
        assert np.array_equal(powers, np.pad(full[k % 2::2], (0, rows - full[k % 2::2].size)))
    x = np.linspace(-1.0, 1.0, 10001)
    got = np.vander(x * x, rows, increasing=True) @ _CORRECTION_POWERS
    got[:, 1::2] *= x[:, None]
    assert np.max(np.abs(got - chebyshev.chebval(x, _CORRECTION_MODELS).T)) <= 1e-15


def test_rs_batch_builds_one_correction_basis_per_slice(monkeypatch):
    # 2000 heights near 1e6 take four slices of at most _BATCH_ELEMENTS // 398
    # heights; each slice builds one power basis for C0..C6, and the bases
    # cover every height of the batch once, in order
    calls = []
    original = zeta._corrections

    def recording(x):
        calls.append(x.copy())
        return original(x)

    monkeypatch.setattr(zeta, "_corrections", recording)
    ts = np.linspace(999000.0, 1e6, 2000)
    out = _hardy_z_rs_batch(ts)
    assert out.shape == (2000,) and np.all(np.isfinite(out))
    tau = np.sqrt(ts / zeta.TWO_PI)
    assert np.array_equal(np.concatenate(calls), 2.0 * (tau - np.floor(tau)) - 1.0)
    assert len(calls) == 4 and max(x.size for x in calls) <= zeta._BATCH_ELEMENTS // 398


@pytest.mark.parametrize("size", [1, 7, 130, 20000])
def test_corrections_are_the_vander_products_bit_for_bit(size):
    # the power rows, one strided accumulate below _ROW_BY_ROW_MIN heights and
    # row by row from it up, are the products np.vander makes of (2p - 1)^2,
    # so C0..C6 are the same float64 as from the Vandermonde matrix
    x = np.random.default_rng(size).uniform(-1.0, 1.0, size)
    reference = np.einsum("ij,jk->ki", np.vander(x * x, _CORRECTION_POWERS.shape[0], increasing=True),
                          _CORRECTION_POWERS)
    reference[1::2] *= x
    assert np.array_equal(zeta._corrections(x), reference)


def _cos_sum_reference(ts, theta, counts):
    # each height's own terms, in the kernel's phase arithmetic, summed exactly
    out = []
    for t, th, c in zip(ts.tolist(), theta.tolist(), counts.tolist()):
        n = np.arange(1, c + 1)
        out.append(math.fsum(np.cos(th - t * np.log(n)) / np.sqrt(n)))
    return np.array(out)


def _cos_sum_cases():
    rs = np.random.default_rng(12).uniform(2 * math.pi * 81, 2 * math.pi * 41 ** 2, 3000)
    em = np.linspace(2.0, np.nextafter(1500.0, 0.0), 1500)
    rs_counts = np.floor(np.sqrt(rs / zeta.TWO_PI)).astype(int)
    em_counts = np.maximum(60, np.ceil(0.4 * em)).astype(int) - 1  # wider than EM's own
    ones = np.array([700.0, 800.0, 900.0, 1000.0])
    shuffled = np.random.default_rng(13).permutation(rs.size)
    one_chunk = (rs_counts >= 32) & (rs_counts <= 36)  # counts 32-36, and 659 x 36 elements
    return {
        "rs-counts-9-40": (rs, rs_counts),
        "em-counts-59-599": (em, em_counts),
        "a-count-of-1": (ones, np.array([1, 12, 1, 40])),
        "all-counts-1": (ones, np.ones(4, dtype=int)),
        "one-height": (rs[:1], rs_counts[:1]),
        "empty": (rs[:0], rs_counts[:0]),
        "rs-shuffled": (rs[shuffled], rs_counts[shuffled]),
        "one-chunk": (rs[one_chunk], rs_counts[one_chunk]),
    }


@pytest.mark.parametrize("case", sorted(_cos_sum_cases()))
@pytest.mark.parametrize("budget", [zeta._BATCH_ELEMENTS, 1000, 1])
def test_cos_sum_matches_an_exact_sum(case, budget):
    # the kernels call the sum on consecutive slices of budget // max(largest
    # count, _EM_BERN_TERMS) heights, and the two smaller budgets split each
    # case, down to one height a slice, each giving its heights the sums one
    # call gives them
    ts, counts = _cos_sum_cases()[case]
    theta = rs_theta(ts)
    got = _cos_sum(ts, theta, counts)
    assert got.shape == ts.shape
    assert np.max(np.abs(got - _cos_sum_reference(ts, theta, counts)), initial=0.0) <= 1e-13
    if case == "rs-shuffled":  # heights in any order; each height keeps its bits
        ts0, counts0 = _cos_sum_cases()["rs-counts-9-40"]
        order = np.argsort(ts)
        assert np.array_equal(got[order], _cos_sum(ts0, rs_theta(ts0), counts0)[np.argsort(ts0)])
    if case == "one-chunk":  # a height's value does not depend on its row in the buffer
        assert np.array_equal(_cos_sum(ts[::-1], theta[::-1], counts[::-1])[::-1], got)
    step = max(1, budget // max(int(counts.max(initial=0)), zeta._EM_BERN_TERMS))
    for i in range(0, ts.size, step):
        part = slice(i, i + step)
        assert np.array_equal(_cos_sum(ts[part], theta[part], counts[part]), got[part])


@pytest.mark.parametrize("budget", [1, 2 * zeta._EM_BERN_TERMS + 1])
def test_em_remainder_chunks_leave_each_height_as_it_is(budget, monkeypatch):
    # the kernel, remainder and main sum alike, is worked in slices of
    # _BATCH_ELEMENTS // max(terms at the highest height, _EM_BERN_TERMS)
    # heights (at least one); here the top height takes 374 terms, so both
    # budgets give slices of one height, and each height gets the float64
    # one slice of all 300 gives it
    ts = np.random.default_rng(14).uniform(2.0, 1500.0, 300)
    whole = _hardy_z_em_batch(ts)
    monkeypatch.setattr(zeta, "_BATCH_ELEMENTS", budget)
    assert np.array_equal(_hardy_z_em_batch(ts), whole)


@pytest.mark.parametrize("budget", [1, 2 * 398 + 1])
def test_rs_slices_leave_each_height_as_it_is(budget, monkeypatch):
    # the twin of the EM check: the top height, 1e6, takes 398 main-sum
    # terms, so the budgets give slices of one and of two heights, and each
    # height gets the float64 one slice of all 300 gives it
    ts = np.append(np.random.default_rng(15).uniform(RS_SWITCH, 1e6, 299), 1e6)
    whole = _hardy_z_rs_batch(ts)
    monkeypatch.setattr(zeta, "_BATCH_ELEMENTS", budget)
    assert np.array_equal(_hardy_z_rs_batch(ts), whole)


def test_batch_kernels_bound_their_working_set():
    # one dense heights x terms array for these batches takes 64 MB (RS,
    # 20000 x 400 floats), 19 MB (EM, 1400 x 1750 floats) or, for the EM
    # remainder's Bernoulli terms, 14 MB (20000 x 44 complex); C0..C6's power
    # basis, built whole for 80000 RS heights, takes 7.7 MB (12 x 80000
    # floats), and 14 MB when it held 22 rows for C0..C3 it lifted the peak to
    # 21.1 MB; worked in slices sized by one element budget, the peaks measure
    # 2.7, 3.2, 2.5 and 2.7 MB
    for kernel, ts in ((_hardy_z_rs_batch, np.linspace(9.9e5, 1e6, 20000)),
                       (_hardy_z_rs_batch, np.linspace(9.9e5, 1e6, 80000)),
                       (_hardy_z_em_batch, np.linspace(6900.0, 6999.0, 1400)),
                       (_hardy_z_em_batch, np.linspace(1000.0, 1499.0, 20000))):
        tracemalloc.start()
        try:
            kernel(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

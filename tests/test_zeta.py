"""Critical-line machinery: theta expansion, Euler-Maclaurin zeta, Hardy Z.

The two evaluation routes check each other; where an external oracle is
wanted (theta as a Gamma argument, Z and its error model), mpmath provides
arbitrary-precision references.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.optimize import brentq

from oracles import correction_fit, correction_models
from zgb import zeta
from zgb.errors import DomainError
from zgb.zeta import (
    _CORRECTION_MODELS,
    EM_POLISH_MAX,
    RS_SWITCH,
    _cheb_basis,
    _cos_sum,
    _hardy_z_em_batch,
    _hardy_z_rs_batch,
    em_path,
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
    # abs_err rests on it: check it at seeded heights on both EM paths, the
    # grid path below RS_SWITCH and the polish path below EM_POLISH_MAX, each
    # in one batch and one height at a time
    rng = np.random.default_rng(8)
    for polish, top in ((False, RS_SWITCH), (True, EM_POLISH_MAX)):
        ts = rng.uniform(2.0, top, 40)
        assert em_path(ts, polish).all()
        got = hardy_z_many(ts, polish)
        for t, z, err in zip(ts.tolist(), got, hardy_z_err(ts, polish)):
            ref = float(mp.siegelz(t))
            assert abs(z - ref) <= err, (polish, t)
            alone = float(hardy_z_many(np.array([t]), polish)[0])
            assert abs(alone - ref) <= err, (polish, t, "alone")
    # above, EM is the reference the RS tests compare against within 1e-10
    ts = np.geomspace(EM_POLISH_MAX, 1e4, 6)
    for t, z in zip(ts.tolist(), _hardy_z_em_batch(ts)):
        assert abs(z - float(mp.siegelz(t))) <= 1e-10, t


def test_em_bernoulli_coefficients_against_mpmath():
    coeffs = zeta._BERN_OVER_FACT
    assert len(coeffs) == zeta._EM_BERN_TERMS == 20
    for k, c in enumerate(coeffs, start=1):
        assert c == pytest.approx(float(mp.bernoulli(2 * k) / mp.factorial(2 * k)), rel=1e-15)


def test_em_truncation_within_backlund_bound():
    # what the EM remainder omits after B_2K is at most |s + 2K + 1| /
    # (sigma + 2K + 1) times the first omitted term, B_2K+2/(2K+2)!
    # s(s+1)...(s+2K) N^(-s-2K-1) (Backlund; Edwards, "Riemann's Zeta
    # Function", section 6.4); for the kernel's own N(t) and K it must stay
    # far below the EM error model, which leaves the rest to rounding
    steps = 2.5 * np.arange(1.0, 4001.0)  # the bound peaks where N steps up
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
    polish = em_path(ts, polish=True)
    assert np.array_equal(model[polish], hardy_z_err(ts[polish], polish=True))
    assert np.max(bound / model) <= 1e-3


def test_em_value_does_not_depend_on_its_batch():
    # each height takes its own term count, so a value computed alone and
    # inside a shared batch differ only by the rounding of the batch's order
    ts = np.random.default_rng(9).uniform(2.0, EM_POLISH_MAX, 200)
    batched = _hardy_z_em_batch(ts)
    for t, z in zip(ts.tolist(), batched):
        assert abs(float(_hardy_z_em_batch(np.array([t]))[0]) - z) <= 1e-14, t


# --------------------------------------------------------------------- hardy Z


def test_z_vanishes_at_first_zero():
    assert abs(hardy_z(GAMMA1)) < 1e-5


def test_z_domain_error():
    with pytest.raises(DomainError):
        hardy_z(1.9)
    with pytest.raises(DomainError):
        hardy_z_many(np.array([1e6 + 1e-9]))
    # NaN is no height: it fails the t >= 2 check alone or in a batch
    with pytest.raises(DomainError):
        hardy_z(math.nan)
    with pytest.raises(DomainError):
        hardy_z_many(np.array([600.0, math.nan]))
    # a secant polish may step 1e-9 past a bracket that ends at 1e6, and no further
    assert np.isfinite(hardy_z_many(np.array([1e6 + 1e-9]), polish=True)).all()
    for bad in (1.9, math.nan, np.nextafter(1e6 + 1e-9, math.inf), 1e7):
        with pytest.raises(DomainError):
            hardy_z_many(np.array([600.0, bad]), polish=True)
    # an empty batch passes either way and keeps its shape
    for polish in (False, True):
        assert hardy_z_many(np.empty((0, 3)), polish).shape == (0, 3)


def test_z_path_choice_at_the_batch_ends():
    # the least and greatest heights pick one kernel for a batch on one side
    # of the switch; a batch across it is split height by height
    for polish, top in ((False, RS_SWITCH), (True, EM_POLISH_MAX)):
        below = np.array([2.0, 100.0, np.nextafter(top, 0.0)])
        above = np.array([top, 5000.0, 1e6])
        assert np.array_equal(hardy_z_many(below, polish), _hardy_z_em_batch(below))
        assert np.array_equal(hardy_z_many(above, polish), _hardy_z_rs_batch(above))
        across = np.array([[1e6, 2.0], [top, np.nextafter(top, 0.0)]])
        want = [[_hardy_z_rs_batch(np.array([1e6]))[0], _hardy_z_em_batch(np.array([2.0]))[0]],
                [_hardy_z_rs_batch(np.array([top]))[0],
                 _hardy_z_em_batch(np.array([np.nextafter(top, 0.0)]))[0]]]
        assert np.array_equal(hardy_z_many(across, polish), want)


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
        polished = float(hardy_z_many(np.array([t]), polish=True)[0])
        assert polished == pytest.approx(ref, abs=hardy_z_err(t, polish=True) + 1e-12)


def test_methods_agree_within_estimates_at_sampled_points():
    for t in (600.0, 1234.5, 7777.0):
        z_rs = float(_hardy_z_rs_batch(np.array([t]))[0])
        z_em = float(_hardy_z_em_batch(np.array([t]))[0])
        assert abs(z_rs - z_em) <= hardy_z_err(t) + 1e-11


def test_correction_models_drop_only_a_negligible_tail():
    # the shipped coefficients are the oracle's fit, cut where every C_k's
    # dropped coefficients sum to below 1e-3 of the smallest RS error on
    # [RS_SWITCH, 1e6], and one coefficient fewer would not
    full = correction_fit()
    kept = _CORRECTION_MODELS
    assert np.array_equal(correction_models(), kept)
    limit = 1e-3 * riemann_siegel_err(np.linspace(RS_SWITCH, 1e6, 200001)).min()
    assert kept.shape[1] == 4 and kept.shape[0] < full.shape[0]
    assert np.array_equal(kept, full[:kept.shape[0]])
    tails = np.abs(full[kept.shape[0]:]).sum(axis=0)
    assert np.all(tails < limit)
    assert np.abs(full[kept.shape[0] - 1:]).sum(axis=0).max() >= limit


def test_rs_batch_makes_one_cheb_basis_call(monkeypatch):
    # 2000 heights near 1e6 span several main-sum chunks; C0..C3 still take
    # one Chebyshev pass
    calls = []
    original = zeta._cheb_basis

    def counting(x, count):
        calls.append((np.shape(x), count))
        return original(x, count)

    monkeypatch.setattr(zeta, "_cheb_basis", counting)
    out = _hardy_z_rs_batch(np.linspace(999000.0, 1e6, 2000))
    assert out.shape == (2000,) and np.all(np.isfinite(out))
    assert calls == [((2000,), _CORRECTION_MODELS.shape[0])]


def test_cheb_basis_product_matches_chebval():
    models = _CORRECTION_MODELS
    x = np.linspace(-1.0, 1.0, 10001)
    got = _cheb_basis(x, models.shape[0]) @ models
    assert np.max(np.abs(got - chebyshev.chebval(x, models).T)) < 1e-14


def _cos_sum_reference(ts, theta, counts):
    # each height's own terms, in the kernel's phase arithmetic, summed exactly
    out = []
    for t, th, c in zip(ts.tolist(), theta.tolist(), counts.tolist()):
        n = np.arange(1, c + 1)
        out.append(math.fsum(np.cos(th - t * np.log(n)) / np.sqrt(n)))
    return np.array(out)


def _cos_sum_cases():
    rs = np.random.default_rng(12).uniform(2 * math.pi * 81, 2 * math.pi * 41 ** 2, 3000)
    em = np.linspace(2.0, np.nextafter(EM_POLISH_MAX, 0.0), 1500)
    rs_counts = np.floor(np.sqrt(rs / zeta.TWO_PI)).astype(int)
    em_counts = zeta._em_term_count(em).astype(int) - 1
    ones = np.array([700.0, 800.0, 900.0, 1000.0])
    shuffled = np.random.default_rng(13).permutation(rs.size)
    return {
        "rs-counts-9-40": (rs, rs_counts),
        "em-counts-59-599": (em, em_counts),
        "a-count-of-1": (ones, np.array([1, 12, 1, 40])),
        "all-counts-1": (ones, np.ones(4, dtype=int)),
        "one-height": (rs[:1], rs_counts[:1]),
        "empty": (rs[:0], rs_counts[:0]),
        "rs-shuffled": (rs[shuffled], rs_counts[shuffled]),
    }


@pytest.mark.parametrize("case", sorted(_cos_sum_cases()))
@pytest.mark.parametrize("budget", [zeta._BATCH_ELEMENTS, 1000, 1])
def test_cos_sum_matches_an_exact_sum(case, budget, monkeypatch):
    # chunks close at 9/8 of their first count and at the element budget;
    # the two smaller budgets split the 9/8 windows, down to one height each
    monkeypatch.setattr(zeta, "_BATCH_ELEMENTS", budget)
    ts, counts = _cos_sum_cases()[case]
    theta = rs_theta(ts)
    got = _cos_sum(ts, theta, counts)
    assert got.shape == ts.shape
    assert np.max(np.abs(got - _cos_sum_reference(ts, theta, counts)), initial=0.0) <= 1e-13
    if case == "rs-shuffled":  # the chunks follow the sorted heights, not the input order
        ts0, counts0 = _cos_sum_cases()["rs-counts-9-40"]
        order = np.argsort(ts)
        assert np.array_equal(got[order], _cos_sum(ts0, rs_theta(ts0), counts0)[np.argsort(ts0)])


def test_batch_kernels_bound_their_working_set():
    # one dense heights x terms array for these batches takes 64 MB (RS,
    # 20000 x 400 floats) or 31 MB (EM, 1400 x 2800 floats); chunked by one
    # element budget, the peaks measure 8.0 and 4.3 MB
    for kernel, ts in ((_hardy_z_rs_batch, np.linspace(9.9e5, 1e6, 20000)),
                       (_hardy_z_em_batch, np.linspace(6900.0, 6999.0, 1400))):
        tracemalloc.start()
        try:
            kernel(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

"""Closed-form layer: envelope functions, antiderivatives, E(t), tails,
assembled bounds, and the additive constants.

Expected decimals were frozen from independent high-precision evaluation
(arbitrary-precision arithmetic for the closed forms, adaptive quadrature
for E(t)); tolerances leave room for float64 evaluation only.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgb import bounds
from zgb.bounds import (
    FOUR_PI,
    GAMMA1,
    LOG_2PI,
    antideriv_f,
    antideriv_r,
    big_f,
    big_r,
    compute_constants,
    e_frak,
    e_frak_sandwich,
    exp_integral_e1,
    lower_bound_a,
    main_term,
    tail_lower,
    tail_upper,
    upper_bound_a,
)
from zgb.errors import DomainError
from zgb.zeta import rs_theta, rs_theta_deriv

from oracles import e_frak_quadrature

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------- F, R


def test_big_f_collapses_at_2pi():
    # log(T/2pi) = 0 leaves -1 + 7/8
    assert big_f(TWO_PI) == pytest.approx(-0.125, abs=1e-14)


def test_big_f_collapses_at_2pi_e():
    assert big_f(TWO_PI * math.e) == pytest.approx(0.875, abs=1e-13)


def test_big_f_at_100():
    assert big_f(100.0) == pytest.approx(29.002343587325348, abs=1e-10)


def test_big_r_at_e():
    assert big_r(math.e) == pytest.approx(0.137 + 397.0 / 250.0, abs=1e-14)


def test_big_r_at_e_to_e():
    expected = 0.137 * math.e + 0.433 + 397.0 / 250.0
    assert big_r(math.exp(math.e)) == pytest.approx(expected, rel=1e-13)


def test_big_r_at_100():
    assert big_r(100.0) == pytest.approx(2.8801770934551897, abs=1e-12)


@pytest.mark.parametrize("func", [big_f, big_r, tail_upper, tail_lower,
                                  antideriv_f, antideriv_r, e_frak_sandwich])
def test_domain_errors_below_2(func):
    with pytest.raises(DomainError):
        func(1.5)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("func", [
    big_f, big_r, main_term, antideriv_f, antideriv_r, exp_integral_e1, e_frak,
    e_frak_sandwich, tail_upper, tail_lower, upper_bound_a, lower_bound_a,
    rs_theta, rs_theta_deriv,
    pytest.param(lambda x: main_term(np.array([5.0, x])), id="main_term_array"),
    pytest.param(lambda x: rs_theta(np.array([5.0, 100.0, x])), id="rs_theta_array"),
], ids=lambda f: f.__name__)
def test_non_finite_argument_raises_domain_error(func, x):
    # no NaN, inf or ConvergenceError comes back from outside the domain
    with pytest.raises(DomainError):
        func(x)


@pytest.mark.parametrize("func, x, message", [
    (big_f, 1.5, "big_f requires finite T >= 2, got 1.5"),
    (e_frak, 1.0, "e_frak requires finite t >= 1.000001, got 1.0"),
    (upper_bound_a, 2.0, "upper_bound_a requires finite T >= 2.222, got 2.0"),
])
def test_domain_error_names_the_function_variable_and_bound(func, x, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        func(x)


# ------------------------------------------------------------------ main term


def test_main_term_limit_at_1():
    assert abs(main_term(1.0 + 1e-12)) < 1e-11


def test_main_term_at_2pi():
    expected = -math.log(TWO_PI) ** 2 / (4 * math.pi)
    assert main_term(TWO_PI) == pytest.approx(expected, abs=1e-15)
    assert main_term(TWO_PI) == pytest.approx(-0.26879615561980412, abs=1e-14)


def test_main_term_at_100():
    assert main_term(100.0) == pytest.approx(0.34060105576893427, abs=1e-13)


def test_main_term_keeps_the_shape_of_an_array():
    # 0-d, 1-d and 2-d arrays give arrays of their shape, each value the
    # scalar path's bit for bit
    for T in (np.array(5.0), np.array([5.0, 100.0, 1e6]), np.array([[2.0, 5.0], [1e3, 1e12]])):
        got = main_term(T)
        assert isinstance(got, np.ndarray) and got.shape == T.shape
        assert got.tolist() == np.vectorize(lambda t: main_term(float(t)))(T).tolist()
    with pytest.raises(DomainError):
        main_term(np.array([[5.0], [1.0]]))


def test_main_term_domain():
    with pytest.raises(DomainError):
        main_term(1.0)


# ------------------------------------------------------------ antiderivatives


def _centered_diff(f, t, h):
    return (f(t + h) - f(t - h)) / (2 * h)


def test_antideriv_f_is_antiderivative_at_50():
    fd = _centered_diff(antideriv_f, 50.0, 1e-3)
    assert fd == pytest.approx(big_f(50.0) / 50.0**2, rel=1e-8)


def test_antideriv_f_at_gamma1():
    assert antideriv_f(GAMMA1) == pytest.approx(-0.72364630595201572, abs=1e-12)


def test_antideriv_r_is_antiderivative_at_50():
    fd = _centered_diff(antideriv_r, 50.0, 1e-3)
    assert fd == pytest.approx(big_r(50.0) / 50.0**2, rel=1e-8)


def test_antideriv_r_at_gamma1():
    assert antideriv_r(GAMMA1) == pytest.approx(-0.18642959817369579, abs=1e-12)


def test_antideriv_r_decays():
    assert abs(antideriv_r(1e6)) < 1e-4


@given(st.floats(min_value=2.01, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_antiderivative_identities_property(t):
    h = max(1e-4, t * 1e-6)
    fd_f = _centered_diff(antideriv_f, t, h)
    fd_r = _centered_diff(antideriv_r, t, h)
    assert fd_f == pytest.approx(big_f(t) / t**2, rel=1e-6)
    assert fd_r == pytest.approx(big_r(t) / t**2, rel=1e-6)


# ------------------------------------------------------------------------ E(t)


def test_e1_at_1():
    assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552027, abs=1e-14)


def test_e_frak_at_e_matches_quadrature():
    assert e_frak(math.e) == pytest.approx(e_frak_quadrature(math.e), abs=1e-12)
    assert e_frak(math.e) == pytest.approx(0.21938393439552027, abs=1e-13)


def test_e_frak_derivative():
    # d/dt E(t) = -1/(t^2 log t)
    t, h = 10.0, 1e-3
    fd = _centered_diff(e_frak, t, h)
    assert fd == pytest.approx(-1.0 / (t * t * math.log(t)), rel=1e-6)


def test_e_frak_asymptotic_scale():
    t = 1e6
    scaled = t * math.log(t) * e_frak(t)
    assert 0.9 < scaled < 1.0


def test_e_frak_domain():
    with pytest.raises(DomainError):
        e_frak(1.0)
    with pytest.raises(DomainError):
        e_frak(1.0 + 1e-9)


def test_e_frak_quadrature_agreement_log_grid():
    for t in np.logspace(math.log10(2.0), 6, 25):
        assert abs(e_frak(float(t)) - e_frak_quadrature(float(t))) < 1e-10


def test_sandwich_holds_at_2_and_beyond():
    for t in (2.0, 100.0, 1e6):
        res = e_frak_sandwich(t)
        assert res.holds
        assert res.lo < e_frak(t) < res.hi


def test_sandwich_binding_point_is_2():
    # the 31/95 coefficient is tightest at the low end of its range
    assert e_frak_sandwich(2.0).margin_hi < e_frak_sandwich(3.0).margin_hi


def test_sandwich_width_at_1e6():
    t = 1e6
    res = e_frak_sandwich(t)
    assert res.hi - res.lo < 2.0 / (t * math.log(t) ** 2)


@given(st.floats(min_value=2.0, max_value=1e6))
@settings(max_examples=80, deadline=None)
def test_sandwich_property(t):
    assert e_frak_sandwich(t).holds


# ----------------------------------------------------------------------- tails


def test_tail_upper_boundary():
    assert tail_upper(2.222) <= 0.0


def test_tail_upper_positive_below_threshold():
    # below the 2.222 threshold the numerator flips sign; record the fact
    assert tail_upper(2.0) > 0.0


def test_tail_upper_at_100():
    v = tail_upper(100.0)
    assert v < 0.0
    assert abs(v) < 1e-2


def test_tail_lower_signs():
    assert tail_lower(2.0) > 0.0
    assert tail_lower(100.0) > 0.0
    assert 0.0 < tail_lower(1e6) < 1e-3


# ------------------------------------------------------------ assembled bounds


def test_upper_bound_sharp_below_cap(constants):
    for T in np.linspace(2.222, 1e4, 500):
        ub = upper_bound_a(float(T), constants)
        assert ub.sharp < ub.simplified


def test_lower_bound_sharp_above_floor(constants):
    for T in np.linspace(2.0, 1e4, 500):
        lb = lower_bound_a(float(T), constants)
        assert lb.sharp > lb.simplified


def test_bound_ordering_simplified(constants):
    for T in np.logspace(math.log10(2.222), 6, 400):
        assert (lower_bound_a(float(T), constants).simplified
                < upper_bound_a(float(T), constants).simplified)


def test_bound_ordering_sharp_far_range(constants):
    # the sharp forms cross below T ~ 20 (the sharp lower tail overshoots
    # there); from 50 upward the ordering is clean
    for T in np.logspace(math.log10(50.0), 6, 200):
        assert (lower_bound_a(float(T), constants).sharp
                < upper_bound_a(float(T), constants).sharp)


def test_upper_bound_admits_first_jump(constants):
    assert upper_bound_a(GAMMA1, constants).sharp >= 1.0 / GAMMA1


def test_lower_bound_consistent_below_gamma1(constants):
    # A(2) = 0 must exceed the simplified floor M(2) + 3/50
    lb = lower_bound_a(2.0, constants)
    assert lb.simplified == pytest.approx(-0.10451731873276985, abs=1e-12)
    assert 0.0 > lb.simplified


def test_sharp_bounds_hold_on_the_table(constants, table1000):
    # A(T) is a step function, so its extremes against the bounds lie at the
    # ordinates (A = prefix[k + 1]) and at their left limits (A = prefix[k])
    gammas, prefix = table1000.gammas.tolist(), table1000.prefix.tolist()
    for T in np.linspace(2.222, gammas[0], 100, endpoint=False).tolist():
        assert upper_bound_a(T, constants).sharp >= 0.0
    for k, g in enumerate(gammas):
        assert upper_bound_a(g, constants).sharp >= prefix[k + 1]
        if k >= 3:  # the sharp lower form exceeds A on [2, gamma_4)
            assert lower_bound_a(g, constants).sharp <= prefix[k + 1]
        if k >= 4:
            assert lower_bound_a(g, constants).sharp <= prefix[k]
    assert lower_bound_a(1000.0, constants).sharp <= prefix[-1]


def test_bound_domain_errors(constants):
    with pytest.raises(DomainError):
        upper_bound_a(2.2, constants)
    with pytest.raises(DomainError):
        lower_bound_a(1.9, constants)


# -------------------------------------------------------------------- constants


def test_constants_match_published_decimals(constants):
    assert constants.c_au == pytest.approx(0.43596427, abs=1e-7)
    assert constants.c_al == pytest.approx(0.06058187, abs=1e-7)


def test_constants_high_precision(constants):
    # the closed-form limits against an independent high-precision evaluation
    assert constants.c_au == pytest.approx(0.435964277761, abs=1e-8)
    assert constants.c_al == pytest.approx(0.060581879542, abs=1e-8)


def test_constants_rational_comparisons(constants):
    assert constants.c_au < float(constants.c_au_cap) == 109 / 250
    assert constants.c_al > float(constants.c_al_floor) == 3 / 50


def test_constants_are_the_limits_of_the_exact_bounds(constants):
    # The exact bounds [P(T) - P(g1)] +- [Q(T) - Q(g1)] + (F(T) +- R(T))/T,
    # with E(g1) inside Q(g1) replaced by its upper envelope, minus M(T), are
    # c_au and c_al off by 0.137/T + 0.433 E(T) at every T.
    k = (LOG_2PI**2 - 4.0 * LOG_2PI - 2.0) / FOUR_PI
    q_g1 = antideriv_r(GAMMA1) + 0.433 * (e_frak(GAMMA1) - e_frak_sandwich(GAMMA1).hi)
    for T in np.logspace(2, 12, 61).tolist():
        m = main_term(T)
        p_part = antideriv_f(T) - antideriv_f(GAMMA1)
        q_part = antideriv_r(T) - q_g1
        upper = p_part + q_part + (big_f(T) + big_r(T)) / T
        lower = p_part - q_part + (big_f(T) - big_r(T)) / T
        rest = 0.137 / T + 0.433 * e_frak(T)
        assert antideriv_f(T) + big_f(T) / T - m == pytest.approx(k, abs=1e-13)
        assert upper - m == pytest.approx(constants.c_au - rest, abs=1e-13)
        assert lower - m == pytest.approx(constants.c_al + rest, abs=1e-13)
        # the sharp form lies above the exact bound, up to four ulps of M(T)
        assert upper_bound_a(T, constants).sharp >= upper - 4 * math.ulp(m)


def test_constants_sharp_variants_are_tighter(constants):
    assert constants.c_au_sharp < constants.c_au
    assert constants.c_al_sharp > constants.c_al


def test_constants_gamma1_field(constants):
    assert constants.gamma1 == pytest.approx(14.13472514, abs=1e-8)


def test_compute_constants_is_fast():
    import time

    t0 = time.time()
    compute_constants()
    assert time.time() - t0 < 1.0

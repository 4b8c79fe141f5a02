"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s to see them inline).

The heavy shared artifact is the audited zero table to height 1e4
(10142 ordinates); its build time counts toward the sweep criterion's
runtime budget.
"""

import math
import time

import numpy as np
import pytest

from zgb.bounds import (
    GAMMA1,
    antideriv_f,
    antideriv_r,
    big_f,
    big_r,
    compute_constants,
    e_frak,
    e_frak_sandwich,
    tail_lower,
    tail_upper,
)
from zgb.ingestion import cross_validate, parse_reference
from zgb.summation import partial_sum, theorem_sweep
from zgb.zeros import build_table, count_up_to, isolate_zeros, refine_zero

from oracles import e_frak_quadrature

_E_FRAK_EVAL_ERR = 1e-13


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num}: {name:<42s} {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def built10k():
    """The 1e4 table and the seconds its build took."""
    t0 = time.time()
    table = build_table(1e4)
    return table, time.time() - t0


@pytest.fixture(scope="module")
def table10k(built10k):
    return built10k[0]


def test_criterion_1_constants_reproduction():
    t0 = time.time()
    c = compute_constants()
    elapsed = time.time() - t0
    ok = (
        abs(c.c_au - 0.43596427) <= 1e-7
        and abs(c.c_al - 0.06058187) <= 1e-7
        and c.c_au < 109.0 / 250.0
        and c.c_al > 3.0 / 50.0
        and elapsed < 1.0
    )
    _report(1, "constants c_au, c_al to 1e-7", ok)


def test_criterion_2_first_zero():
    t0 = time.time()
    brackets = isolate_zeros(2.0, 15.0)
    zero = refine_zero(brackets[0])
    elapsed = time.time() - t0
    ok = (
        len(brackets) == 1
        and abs(zero.gamma - 14.134725) <= 1e-5
        and elapsed < 1.0
    )
    _report(2, "first ordinate = 14.134725 +- 1e-5", ok)


def test_criterion_3_theorem_at_desk_scale(built10k):
    table10k, build_seconds = built10k
    t0 = time.time()
    sweep = theorem_sweep(table10k, 2.0, 1e4, 1000)
    elapsed = build_seconds + (time.time() - t0)
    ts = np.array([r.T for r in sweep.records])
    idx = np.clip(np.searchsorted(table10k.gammas, ts), 0, len(table10k) - 1)
    dist = np.minimum(np.abs(table10k.gammas[idx] - ts),
                      np.abs(table10k.gammas[np.maximum(idx - 1, 0)] - ts))
    n_ordinate_points = int((dist < 2e-6).sum())
    ok = (
        len(table10k) == 10142
        and table10k.audited
        and sweep.all_lower_ok
        and sweep.all_upper_ok
        and sweep.min_margin_lo > 0.0
        and sweep.min_margin_hi > 0.0
        and len(sweep.records) >= 1000 + 2 * len(table10k)
        and elapsed < 120.0
    )
    print(f"  [build {build_seconds:.1f}s + sweep {time.time()-t0:.1f}s; "
          f"{len(sweep.records)} records, {n_ordinate_points} at ordinates; "
          f"margins lo={sweep.min_margin_lo:.6f} hi={sweep.min_margin_hi:.6f}]")
    _report(3, "two-sided bound on [2, 1e4] incl. jumps", ok)


def test_criterion_4_rosser_envelope(table10k):
    rng = np.random.default_rng(2024)
    heights = rng.uniform(2.0, 1e4, 1000)
    ok = all(
        abs(count_up_to(table10k, float(T)) - big_f(float(T))) <= big_r(float(T))
        for T in heights
    )
    _report(4, "|N(T) - F(T)| <= R(T) at 1000 heights", ok)


def test_criterion_5_e_frak_properties():
    t0 = time.time()
    grid = np.logspace(math.log10(2.0), 6.0, 200)
    sandwich_ok = True
    for t in grid:
        res = e_frak_sandwich(float(t))
        sandwich_ok &= res.holds
        sandwich_ok &= min(res.margin_lo, res.margin_hi) > 10.0 * _E_FRAK_EVAL_ERR

    deriv_ok = True
    for t in np.logspace(math.log10(2.5), 5.5, 50):
        t = float(t)
        h = t * 1e-5
        fd = (e_frak(t + h) - e_frak(t - h)) / (2.0 * h)
        target = -1.0 / (t * t * math.log(t))
        deriv_ok &= abs(fd - target) <= 1e-6 * abs(target)

    oracle_ok = all(
        abs(e_frak(float(t)) - e_frak_quadrature(float(t))) <= 1e-10
        for t in np.logspace(math.log10(2.0), 6.0, 40)
    )
    elapsed = time.time() - t0
    _report(5, "E(t): sandwich, derivative, dual paths",
            sandwich_ok and deriv_ok and oracle_ok and elapsed < 5.0)


def test_criterion_6_antiderivative_identities():
    t0 = time.time()
    rng = np.random.default_rng(99)
    ok = True
    for t in rng.uniform(2.001, 1e4, 200):
        t = float(t)
        h = max(1e-4, t * 1e-6)
        fd_f = (antideriv_f(t + h) - antideriv_f(t - h)) / (2 * h)
        fd_r = (antideriv_r(t + h) - antideriv_r(t - h)) / (2 * h)
        ok &= abs(fd_f - big_f(t) / t**2) <= 1e-7 * abs(big_f(t) / t**2)
        ok &= abs(fd_r - big_r(t) / t**2) <= 1e-7 * abs(big_r(t) / t**2)
    elapsed = time.time() - t0
    _report(6, "antiderivatives of F/t^2 and R/t^2", ok and elapsed < 1.0)


def test_criterion_7_partial_summation(table10k):
    t0 = time.time()
    rng = np.random.default_rng(123)
    weights = [lambda t: 1.0 / t, lambda t: 1.0 / (t * t),
               lambda t: math.log(t) / t, lambda t: 1.0]
    ok = True
    for _ in range(50):
        U = float(rng.uniform(2.0, 9000.0))
        V = float(min(U + rng.uniform(1.0, 2000.0), 1e4))
        phi = weights[rng.integers(0, len(weights))]
        res = partial_sum(table10k, phi, U, V)
        ok &= abs(res.difference) <= 1e-8
    elapsed = time.time() - t0
    _report(7, "partial-summation identity, 50 triples", ok and elapsed < 10.0)


def test_criterion_8_tail_signs():
    t0 = time.time()
    upper_ok = all(tail_upper(float(T)) < 0.0
                   for T in np.linspace(2.222, 1e4, 20000))
    lower_ok = all(tail_lower(float(T)) > 0.0
                   for T in np.linspace(2.0, 1e4, 20000))
    elapsed = time.time() - t0
    _report(8, "tail term signs on dense grids", upper_ok and lower_ok and elapsed < 1.0)


def test_criterion_9_cross_validation(reference_path):
    t0 = time.time()
    computed = build_table(1000.0)
    reference = parse_reference(reference_path)
    report = cross_validate(computed, reference)
    elapsed = time.time() - t0
    ok = (
        len(reference) == 649
        and report.n_compared == 649
        and report.max_abs_diff <= 1e-6
        and report.passed
        and elapsed < 5.0
    )
    print(f"  [max |computed - reference| = {report.max_abs_diff:.2e}]")
    _report(9, "cross-validation against 649 references", ok)

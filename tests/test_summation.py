"""A(T), the partial-summation identity, and the two-sided bound sweeps.

Frozen sums come from arbitrary-precision evaluation over independently
computed ordinates: A(100) = 0.59224351116440666, A(1000) = 2.0286569751459763.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgb.bounds import UPPER_THRESHOLD, main_term
from zgb.errors import AuditError, CoverageError, DomainError
from zgb.summation import (
    _neumaier_prefix,
    a_of_t,
    partial_sum,
    theorem_sweep,
)
from zgb.zeros import ZeroTable

GAMMA1 = 14.134725141734694


# --------------------------------------------------------------------- a_of_t


def test_a_empty_below_gamma1(table100):
    assert a_of_t(table100, 10.0) == 0.0


def test_a_single_term(table100):
    assert a_of_t(table100, 20.0) == pytest.approx(0.070747749954285586, abs=1e-10)
    assert a_of_t(table100, 20.0) == pytest.approx(1.0 / GAMMA1, abs=1e-10)


def test_a_at_100(table100):
    assert a_of_t(table100, 100.0) == pytest.approx(0.59224351116440666, abs=1e-8)


def test_a_at_1000(table1000):
    assert a_of_t(table1000, 1000.0) == pytest.approx(2.0286569751459763, abs=1e-8)


def test_a_range_and_audit_guards(table100):
    with pytest.raises(CoverageError):
        a_of_t(table100, 500.0)
    short = ZeroTable(table100.gammas[:-1], table100.abs_err[:-1], table100.t_max)
    with pytest.raises(AuditError):
        a_of_t(short, 50.0)


def test_compensated_prefix_direction_independence():
    # ascending vs descending accumulation on a synthetic 1e5-entry table
    rng = np.random.default_rng(3)
    gammas = 14.13 + np.cumsum(rng.uniform(0.05, 1.0, 100_000))
    recip = 1.0 / gammas
    up = _neumaier_prefix(recip)[-1]
    down = _neumaier_prefix(recip[::-1])[-1]
    assert abs(up - down) < 1e-12


# ----------------------------------------------------------------- partial sum


def test_partial_sum_constant_weight(table100):
    res = partial_sum(table100, lambda t: 1.0, 2.0, 100.0)
    assert res.direct == 29.0
    assert res.stieltjes == pytest.approx(29.0, abs=1e-12)


def test_partial_sum_reciprocal_weight_matches_a(table100):
    res = partial_sum(table100, lambda t: 1.0 / t, 2.0, 100.0)
    assert res.direct == pytest.approx(a_of_t(table100, 100.0), abs=1e-12)
    assert abs(res.difference) < 1e-9


def test_partial_sum_log_weight(table100):
    res = partial_sum(table100, math.log, 15.0, 30.0)
    # exactly two ordinates in (15, 30]
    assert res.direct == pytest.approx(math.log(21.022039638771555)
                                       + math.log(25.010857580145684), abs=1e-6)
    assert abs(res.difference) < 1e-9


def test_partial_sum_random_weights(table1000):
    rng = np.random.default_rng(11)
    weights = [lambda t: 1.0 / t, lambda t: 1.0 / (t * t),
               lambda t: math.log(t) / t, lambda t: 1.0]
    for _ in range(50):
        U = rng.uniform(2.0, 500.0)
        V = U + rng.uniform(1.0, 450.0)
        phi = weights[rng.integers(0, len(weights))]
        res = partial_sum(table1000, phi, float(U), float(min(V, 1000.0)))
        assert abs(res.difference) < 1e-8


def test_partial_sum_evaluates_phi_once_per_point(table100):
    # once at U, at each of the 29 ordinates in (2, 100] and at V
    calls = []

    def phi(t):
        calls.append(t)
        return 1.0 / t

    res = partial_sum(table100, phi, 2.0, 100.0)
    assert len(calls) == 29 + 2
    assert abs(res.difference) < 1e-9


def test_partial_sum_domain(table100):
    with pytest.raises(DomainError):
        partial_sum(table100, lambda t: 1.0, 0.5, 50.0)
    with pytest.raises(DomainError):
        partial_sum(table100, lambda t: 1.0, 50.0, 20.0)


# -------------------------------------------------------------------- sweeps


def test_sweep_2_to_100(table100):
    sweep = theorem_sweep(table100, 2.0, 100.0, 200)
    assert sweep.all_lower_ok
    assert sweep.all_upper_ok
    assert sweep.min_margin_lo > 0
    assert sweep.min_margin_hi > 0


def test_sweep_record_at_2(table100):
    sweep = theorem_sweep(table100, 2.0, 100.0, 50)
    first = sweep.records[0]
    assert first.T == 2.0
    assert first.a_val == 0.0
    assert first.delta == pytest.approx(-main_term(2.0), abs=1e-15)
    assert first.delta == pytest.approx(0.16451731873276985, abs=1e-12)
    assert first.delta > 3.0 / 50.0


def test_sweep_jump_at_gamma1(table100):
    # two records at T = gamma_1: A's left limit, then its value
    sweep = theorem_sweep(table100, 2.0, 100.0, 10)
    g1 = table100.gammas[0]
    below, above = [r for r in sweep.records if r.T == g1]
    assert below.a_val == 0.0
    assert above.a_val == pytest.approx(1.0 / g1, abs=1e-15)
    assert above.m_val == below.m_val
    assert above.delta - below.delta == pytest.approx(1.0 / g1, abs=1e-15)


def test_sweep_step_structure(table100):
    # A is flat between consecutive ordinates, so delta peaks at each jump
    # and decays to the next one
    g = table100.gammas
    for k in (0, 5, 20):
        lo, hi = g[k], g[k + 1]
        sweep = theorem_sweep(table100, np.nextafter(lo, math.inf), np.nextafter(hi, 0.0), 5)
        a_vals = {r.a_val for r in sweep.records}
        assert len(a_vals) == 1
        deltas = [r.delta for r in sweep.records]
        assert deltas == sorted(deltas, reverse=True)


def test_sweep_domain(table100):
    with pytest.raises(DomainError):
        theorem_sweep(table100, 1.0, 100.0, 10)
    with pytest.raises(DomainError):
        theorem_sweep(table100, 2.0, 100.0, 0)


def test_sweep_vacuous_upper_below_threshold(table100):
    sweep = theorem_sweep(table100, 2.0, 2.21, 5)
    assert all(r.upper_ok for r in sweep.records)
    assert sweep.min_margin_hi == math.inf


def test_sweep_one_sample_still_sweeps_t_max_and_2pi(table100):
    # the grid is t_min alone: t_max and 2 pi, clipped into range, are swept anyway
    sweep = theorem_sweep(table100, 2.0, 14.0, 1)
    assert [r.T for r in sweep.records] == [2.0, 2 * math.pi, 14.0]
    assert sweep.min_margin_hi == sweep.records[1].margin_hi
    assert sweep.min_margin_hi == pytest.approx(0.16720384438, abs=1e-11)
    assert [r.T for r in theorem_sweep(table100, 2.0, 5.0, 1).records] == [2.0, 5.0]
    assert [r.T for r in theorem_sweep(table100, 7.0, 7.0, 1).records] == [7.0]
    g1 = table100.gammas[0]
    sweep = theorem_sweep(table100, 10.0, 20.0, 1)
    assert [(r.T, r.a_val) for r in sweep.records] == [
        (10.0, 0.0), (g1, 0.0), (g1, table100.prefix[1]), (20.0, table100.prefix[1])]


@pytest.mark.parametrize("t_min, t_max", [(2.0, 100.0), (2.0, 14.0), (20.0, 100.0)])
def test_sweep_extremes_match_brute_force(table100, t_min, t_max):
    # A - M peaks only at the ends, at 2 pi, or at an ordinate, as A's left
    # limit or as its value there; on [2, 14] the upper margin is least at
    # 2 pi, and on [20, 100] the lower margin at a left limit
    g = table100.gammas.tolist()
    candidates = [(T, math.fsum(1.0 / x for x in g if x <= T) - main_term(T))
                  for T in (t_min, min(max(2 * math.pi, t_min), t_max), t_max)]
    for k, x in enumerate(g):
        if t_min < x <= t_max:
            candidates += [(x, math.fsum(1.0 / y for y in g[:j]) - main_term(x)) for j in (k, k + 1)]
    deltas = [d for _, d in candidates]
    upper = [d for T, d in candidates if T >= UPPER_THRESHOLD]
    sweep = theorem_sweep(table100, t_min, t_max, 50)
    assert sweep.delta_min == pytest.approx(min(deltas), abs=1e-14)
    assert sweep.delta_max == pytest.approx(max(deltas), abs=1e-14)
    assert sweep.min_margin_lo == pytest.approx(min(deltas) - 3.0 / 50.0, abs=1e-14)
    assert sweep.min_margin_hi == pytest.approx(109.0 / 250.0 - max(upper), abs=1e-14)
    # and no height of a dense grid, or an ulp beside an ordinate, gets past them
    T = np.concatenate((np.linspace(t_min, t_max, 200_001),
                        np.nextafter(g, 0.0), np.nextafter(g, math.inf)))
    T = T[(T >= t_min) & (T <= t_max)]
    delta = table100.prefix[np.searchsorted(g, T, side="right")] - main_term(T)
    assert delta.min() >= sweep.delta_min - 1e-14
    assert delta.max() <= sweep.delta_max + 1e-14
    assert delta[T >= UPPER_THRESHOLD].max() <= 109.0 / 250.0 - sweep.min_margin_hi + 1e-14



# ------------------------------------------------- columnar sweep vs loop


def _theorem_sweep_by_record(table, t_min, t_max, samples):
    """A per-record sweep over the same points as the columnar one, kept as
    its reference: (records as field tuples, aggregates).  A point is a
    height and the index into the prefix sums of A there."""
    lower, upper = 3.0 / 50.0, 109.0 / 250.0
    gammas, prefix = table.gammas, table.prefix
    heights = [*np.linspace(t_min, t_max, samples).tolist(), t_max,
               min(max(2 * math.pi, t_min), t_max)]
    points = {(T, int(np.searchsorted(gammas, T, side="right"))) for T in heights}
    for k, g in enumerate(gammas.tolist()):
        if t_min < g <= t_max:
            points |= {(g, k), (g, k + 1)}  # A's left limit and its value
    records = []
    for T, n in sorted(points):
        a_val = float(prefix[n])
        m = main_term(T)
        delta = a_val - m
        margin_lo, margin_hi = delta - lower, upper - delta
        upper_ok = (margin_hi > 0.0) if T >= UPPER_THRESHOLD else True
        records.append((T, a_val, m, delta, margin_lo > 0.0, upper_ok, margin_lo, margin_hi))
    hi_margins = [r[7] for r in records if r[0] >= UPPER_THRESHOLD]
    aggregates = (min(r[3] for r in records), max(r[3] for r in records),
                  min(r[6] for r in records), min(hi_margins) if hi_margins else math.inf,
                  all(r[4] for r in records), all(r[5] for r in records))
    return records, aggregates


def _bits(values):
    """Each value with its exact type and, for a float, its exact bits."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


@given(st.floats(min_value=2.0, max_value=1000.0), st.floats(min_value=2.0, max_value=1000.0),
       st.sampled_from(["t", "gamma", "gamma-ulp", "gamma+ulp"]),
       st.sampled_from(["t", "gamma", "gamma-ulp", "gamma+ulp"]),
       st.sampled_from([1, 2, 7, 500]) | st.integers(1, 1200))
@settings(max_examples=40, deadline=None)
def test_sweep_matches_per_record_sweep(table1000, lo, hi, lo_on, hi_on, samples):
    # an end marked "gamma" moves onto the first ordinate at or above it,
    # or one ulp to either side of it
    g = table1000.gammas
    toward = {"gamma": None, "gamma-ulp": 0.0, "gamma+ulp": math.inf}

    def end(t, on):
        k = int(np.searchsorted(g, t))
        if on == "t" or k == g.size:
            return t
        return float(g[k] if toward[on] is None else np.nextafter(g[k], toward[on]))

    t_min, t_max = sorted((end(lo, lo_on), end(hi, hi_on)))
    records, aggregates = _theorem_sweep_by_record(table1000, t_min, t_max, samples)
    sweep = theorem_sweep(table1000, t_min, t_max, samples)
    assert len(sweep.records) == len(records)
    assert [_bits(dataclasses.astuple(r)) for r in sweep.records] == [_bits(r) for r in records]
    assert _bits((sweep.delta_min, sweep.delta_max, sweep.min_margin_lo, sweep.min_margin_hi,
                  sweep.all_lower_ok, sweep.all_upper_ok)) == _bits(aggregates)
    # indexing builds the same records as iterating
    assert sweep.records[-1] == list(sweep.records)[-1]
    assert sweep.records[0] == sweep.records[:1][0]


def test_sweep_builds_records_only_when_read(table1000, monkeypatch):
    from zgb import summation

    made = []
    real = summation.TheoremCheck
    monkeypatch.setattr(summation, "TheoremCheck",
                        lambda *a, **k: made.append(1) or real(*a, **k))
    sweep = theorem_sweep(table1000, 2.0, 1000.0, 500)
    assert len(sweep.records) == 500 + 2 * len(table1000) + 1  # grid, two per ordinate, 2 pi
    assert made == []
    assert sweep.records[10].T > sweep.records[9].T
    assert len(made) == 2


def _neumaier_prefix_by_step(values):
    """The step-by-step compensated sum the column form replaced."""
    out, total, comp = [0.0], 0.0, 0.0
    for v in np.asarray(values, dtype=float).tolist():
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out.append(total + comp)
    return np.array(out)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300,
                          max_value=1e300) | st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0]),
                max_size=200))
@settings(max_examples=200, deadline=None)
def test_neumaier_prefix_matches_step_by_step(values):
    got, want = _neumaier_prefix(values), _neumaier_prefix_by_step(values)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_neumaier_prefix_matches_step_by_step_on_a_table(table1000):
    recip = 1.0 / table1000.gammas
    assert np.array_equal(_neumaier_prefix(recip).view(np.int64),
                          _neumaier_prefix_by_step(recip).view(np.int64))

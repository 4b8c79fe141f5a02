"""Zero isolation, refinement, auditing, and persistence.

Reference ordinates and counts were frozen from arbitrary-precision
computation: the first ordinates to 12+ digits, counts N(100) = 29,
N(1000) = 649, and the close pair near 7005 whose gap (0.0377) is far below
the initial grid step.
"""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from zgb import ingestion, zeros, zeta
from zgb.errors import (
    AuditError,
    ConvergenceError,
    CoverageError,
    DomainError,
    TableFormatError,
)
from zgb.ingestion import parse_reference
from zgb.zeros import (
    ZeroTable,
    _scan_window,
    audit_completeness,
    build_table,
    count_up_to,
    isolate_zeros,
    load_table,
    refine_zero,
    save_table,
    sidecar_path,
)

GAMMA1 = 14.134725141734694
GAMMA2 = 21.022039638771555
LEHMER_LO = 7005.06286617492
LEHMER_HI = 7005.10056467265


# -------------------------------------------------------------------- isolate


def test_isolate_first_zero_only():
    brackets = isolate_zeros(2.0, 15.0)
    assert len(brackets) == 1
    a, b = brackets[0]
    assert a < GAMMA1 < b


def test_isolate_empty_below_gamma1():
    assert isolate_zeros(2.0, 10.0) == []


def test_isolate_29_below_100():
    assert len(isolate_zeros(2.0, 100.0)) == 29


def test_isolate_close_pair_window():
    # 11 ordinates in (7000, 7010], two of them 0.0377 apart
    brackets = isolate_zeros(7000.0, 7010.0)
    assert len(brackets) == 11


def test_isolate_close_pair_near_1e6():
    # 95 ordinates in the window, two of them 0.062 apart at 909407.78/.84
    brackets = isolate_zeros(909407.3563914519, 909457.3563914519)
    assert len(brackets) == 95
    flat = [x for br in brackets for x in br]
    assert flat == sorted(flat)
    assert flat[0] >= 909407.3563914519 and flat[-1] <= 909457.3563914519


def test_isolate_raises_on_a_short_gram_block(monkeypatch):
    # a floor above the first rescan step of the blocks near 7005 (0.8955)
    # leaves them unrescanned, so the block holding the close pair stays
    # short; blocks are checked in ascending order, so the lowest short one
    # raises
    monkeypatch.setattr(zeros, "REFINE_FLOOR", 1.0)
    with pytest.raises(AuditError, match="Gram block") as info:
        isolate_zeros(7000.0, 7010.0)
    assert "[7000.920483057, 7003.607093067] shows 1 sign changes" in str(info.value)


def test_audit_certifies_the_count_at_1e6():
    # Z runs a few Gram blocks past 1e6, so Turing's method certifies
    # N(1e6) = 1,747,146 at 1e6 itself, and an empty table fails against it
    report = audit_completeness(ZeroTable([], [], t_max=1e6))
    assert report.certified_count == 1747146
    assert not report.passed
    brackets = isolate_zeros(999990.0, 1e6)
    assert len(brackets) == 19
    assert brackets[0][0] >= 999990.0 and brackets[-1][1] <= 1e6


def test_gram_scan_raises_where_turing_blocks_pass_the_top_of_z(monkeypatch):
    # blocks too many to fit below zeta.Z_TOP: the pad doubles until Z
    # refuses a Gram point, and no bracket certified on fewer blocks comes back
    calls = []

    def blocks(t):
        calls.append(t)
        return 1 if len(calls) == 1 else 1000

    monkeypatch.setattr(zeros, "_turing_blocks", blocks)
    with pytest.raises(DomainError, match=f"validated for t <= {zeta.Z_TOP}"):
        isolate_zeros(999990.0, 1e6)
    assert len(calls) > 2


def test_audit_below_168_pi_uses_no_turing_bound(table100, monkeypatch):
    # Turing's bounds are proven only for Gram blocks from 168 pi up: the
    # audit at 100 anchors its count at N(g_-1) = 0 and scans up to Gram
    # points past 168 pi
    seen = []
    original = zeta.hardy_z_many

    def recording(ts, polish=False):
        seen.extend(np.atleast_1d(ts).tolist())
        return original(ts, polish)

    monkeypatch.setattr(zeta, "hardy_z_many", recording)
    assert audit_completeness(table100).passed
    grams = zeros._gram_points(np.arange(-1, 400)).tolist()
    assert grams[0] in seen
    assert any(g >= 168.0 * np.pi for g in set(grams) & set(seen))


def test_gram_points_against_mpmath():
    # up to the last Gram index below the top of Z's domain
    mpmath = pytest.importorskip("mpmath")
    top = int(zeta.rs_theta(zeta.Z_TOP) // np.pi)
    ns = np.array([-1, 0, 1, 1000, 1747144, top])
    got = zeros._gram_points(ns)
    for n, g in zip(ns, got):
        assert g == pytest.approx(float(mpmath.grampoint(int(n))), abs=1e-9)


def test_isolate_domain_errors():
    with pytest.raises(DomainError):
        isolate_zeros(1.0, 10.0)
    with pytest.raises(DomainError):
        isolate_zeros(10.0, 5.0)
    with pytest.raises(DomainError, match="t_hi <= 1e6"):
        isolate_zeros(999990.0, 1000001.0)


def test_gram_scan_doubles_a_pad_too_short_for_turing(monkeypatch):
    # the first guess of one Turing block sizes the pad; ten blocks at the top
    # Gram point sampled do not fit in it, so the scan doubles the pad
    want = isolate_zeros(7000.0, 7010.0)
    calls = []

    def blocks(t):
        calls.append(t)
        return 1 if len(calls) == 1 else 10

    monkeypatch.setattr(zeros, "_turing_blocks", blocks)
    assert isolate_zeros(7000.0, 7010.0) == want
    assert len(want) == 11
    assert len(calls) > 2  # one for the pad, one per pass of the scan


def _per_block_descent(a, b, want, got):
    # each short Gram block on its own, one _scan_window call a halving step
    out = []
    for lo, hi, m, rows in zip(a, b, want, got):
        step = (hi - lo) / m
        while len(rows) < m and step > zeros.REFINE_FLOOR:
            step *= 0.5
            rows = _scan_window(lo, hi, step)
        out.append(rows)
    return out


@pytest.mark.parametrize("lo, hi", [(2.0, 3000.0), (909407.3563914519, 909457.3563914519)])
def test_batched_rescans_match_the_per_block_descent(monkeypatch, lo, hi):
    batched = zeros._rescan
    blocks = []

    def recording(*args):
        blocks.append((args, batched(*args)))
        return blocks[-1][1]

    monkeypatch.setattr(zeros, "_rescan", recording)
    new = zeros._gram_scan(lo, hi)
    monkeypatch.setattr(zeros, "_rescan", _per_block_descent)
    old = zeros._gram_scan(lo, hi)
    # a height's Z does not depend on its batch, so the count, the rows, and
    # each block's brackets, the Turing blocks below t_lo included, match bit
    # for bit
    assert (new[0], new[2]) == (old[0], old[2])
    assert np.array_equal(new[1], old[1])
    (args, got), = blocks
    assert len(got) > 1 and all(map(np.array_equal, got, _per_block_descent(*args)))
    # the window has short Turing blocks below t_lo; the range from 2 starts at g_-1
    assert any(b <= lo for b in args[1]) == (lo > 1e5)


def test_gram_scan_makes_one_z_call_per_rescan_round(monkeypatch):
    # the short Gram blocks below 1e4 take five halving rounds: one Z call for
    # the Gram points and one a round, on the 16,906 points that a call per
    # block and step spent in 1,065 calls
    sizes, depth = [], {}
    z, grid = zeta.hardy_z_many, zeros._grid

    def counting(ts):
        sizes.append(ts.size)
        return z(ts)

    def recording(a, b, step):
        depth[a, b] = depth.get((a, b), 0) + 1
        return grid(a, b, step)

    monkeypatch.setattr(zeta, "hardy_z_many", counting)
    monkeypatch.setattr(zeros, "_grid", recording)
    zeros._gram_scan(2.0, 1e4)
    rounds = max(depth.values())
    assert len(sizes) == 1 + rounds == 6
    assert sum(sizes) == 16906
    assert len(depth) == 817 and sum(depth.values()) == 1064


# --------------------------------------------------------------------- refine


def test_refine_first_zero():
    z = refine_zero((14.0, 14.5))
    assert z.gamma == pytest.approx(14.134725, abs=1e-6)
    assert z.gamma == pytest.approx(GAMMA1, abs=1e-8)
    assert z.abs_err <= 1e-9


def test_refine_second_zero():
    z = refine_zero((20.8, 21.2))
    assert z.gamma == pytest.approx(21.022040, abs=1e-6)
    assert z.gamma == pytest.approx(GAMMA2, abs=1e-8)


def test_refine_degenerate_bracket():
    with pytest.raises(DomainError):
        refine_zero((14.2, 14.2))


def test_refine_no_sign_change():
    with pytest.raises(DomainError):
        refine_zero((15.0, 16.0))


@pytest.mark.parametrize("n", [1, 3, 4, 6, 7])
def test_refine_a_bracket_that_ends_at_a_zero(n):
    # isolating up to the ordinate itself trims the last bracket to end
    # there, where |Z| is within its error: that end is the zero's place
    mpmath = pytest.importorskip("mpmath")
    gamma = mpmath.zetazero(n).imag
    bracket = isolate_zeros(2.0, float(gamma))[-1]
    assert bracket[1] == float(gamma)
    z = refine_zero(bracket)
    assert z.abs_err <= 1e-9
    assert abs(mpmath.mpf(z.gamma) - gamma) <= z.abs_err


def test_refine_zero_refines_once_and_raises_on_a_miss(monkeypatch):
    # near 1e6 the refinement of this bracket cannot reach abs_err <= 1e-9;
    # refine_zero spends one pass on it, evaluates no end point by point,
    # and raises rather than return the miss
    bracket = isolate_zeros(950000.0, 950002.0)[0]
    results = []
    original = zeros._refine_many

    def counting(rows):
        results.append(original(rows))
        return results[-1]

    def no_hardy_z(t):
        raise AssertionError(f"hardy_z({t}) called")

    monkeypatch.setattr(zeros, "_refine_many", counting)
    monkeypatch.setattr(zeta, "hardy_z", no_hardy_z)
    with pytest.raises(ConvergenceError, match=re.escape(f"bracket ({bracket[0]}, {bracket[1]})")):
        refine_zero(bracket)
    assert len(results) == 1
    assert results[0][0, 1] > 1e-9


def test_refine_spends_few_z_points_per_zero(monkeypatch):
    # Illinois steps plus a secant polish from the last two iterates, on rows
    # that carry Z at both ends, take 9.00 Z points per zero to 1e3 (5844 for
    # 649 zeros; 28.1 with bisection to 1e-6 before the polish); the bound
    # leaves 33 % headroom
    rows = zeros._gram_scan(2.0, 1e3)[1]
    points = []
    for name in ("_hardy_z_rs_batch", "_hardy_z_em_batch"):
        original = getattr(zeta, name)

        def counting(ts, original=original):
            points.append(len(ts))
            return original(ts)

        monkeypatch.setattr(zeta, name, counting)
    refined = zeros._refine_many(rows)
    assert len(refined) == 649
    assert sum(points) / len(refined) <= 12.0
    assert max(e for _, e in refined) <= 1e-8


def test_refine_evaluates_no_bracket_end(monkeypatch):
    # each row carries Z at both of its ends, so the refinement spends no
    # point on them
    rows = zeros._gram_scan(2.0, 1e3)[1]
    heights = []
    original = zeta.hardy_z_many

    def recording(ts, polish=False):
        heights.extend(np.atleast_1d(ts).tolist())
        return original(ts, polish)

    monkeypatch.setattr(zeta, "hardy_z_many", recording)
    assert len(zeros._refine_many(rows)) == 649
    assert heights
    assert not set(rows[:, :2].ravel().tolist()) & set(heights)


def test_isolate_returns_tuples_that_share_ends():
    lo, hi = 7000.0, 7010.0  # a rescanned block among the brackets
    brackets = isolate_zeros(lo, hi)
    rows = zeros._gram_scan(lo, hi)[1]
    assert type(brackets) is list
    assert all(type(br) is tuple and len(br) == 2 for br in brackets)
    assert all(type(x) is float for br in brackets for x in br)
    assert brackets == [tuple(r) for r in rows[:, :2].tolist()]
    shared = [(p, q) for p, q in zip(brackets, brackets[1:]) if p[1] == q[0]]
    assert shared and all(p[1] is q[0] for p, q in shared)


@pytest.mark.parametrize("centre", [1e3, 1e5, 9.5e5])
def test_rows_carry_z_at_their_ends(centre):
    rng = np.random.default_rng(int(centre))
    lo = centre + rng.uniform(0.0, 20.0)
    hi = lo + 10.0
    rows = np.vstack((zeros._gram_scan(lo, hi)[1],
                      _scan_window(lo, lo + 2.0, 0.05)))
    assert len(rows) > 4
    ends = rows[:, :2]
    assert np.array_equal(zeta.hardy_z_many(ends), rows[:, 2:])
    err = zeta.hardy_z_err(ends)
    # opposite signs, unless an end is within Z's error: the zero's place
    sure = np.abs(rows[:, 2:]) > err
    flips = (rows[:, 2] > 0) != (rows[:, 3] > 0)
    assert np.all(flips | ~sure[:, 0] | ~sure[:, 1])


def test_refine_lehmer_pair():
    brackets = _scan_window(7005.0, 7005.2, 1e-3)
    assert len(brackets) == 2
    got = sorted(refine_zero(br).gamma for br in brackets)
    assert got[0] == pytest.approx(LEHMER_LO, abs=1e-6)
    assert got[1] == pytest.approx(LEHMER_HI, abs=1e-6)


# ---------------------------------------------------------------------- build


def test_build_table_100(table100):
    assert len(table100) == 29
    assert table100.audited


def test_build_table_20():
    table = build_table(20.0)
    assert len(table) == 1
    assert table.gammas[0] == pytest.approx(GAMMA1, abs=1e-8)


def test_build_table_1000(table1000):
    assert len(table1000) == 649
    assert table1000.audited


def test_refine_zero_matches_the_built_table(table1000):
    # Z of a height does not depend on its batch, so refining a bracket
    # alone gives the row build_table refined among all the others, bit for bit
    brackets = isolate_zeros(2.0, 1000.0)
    assert len(brackets) == len(table1000)
    for i in range(0, len(brackets), 10):
        z = refine_zero(brackets[i])
        assert (z.gamma, z.abs_err) == (table1000.gammas[i], table1000.abs_err[i]), brackets[i]


def test_build_table_up_to_a_zero_ordinate():
    # the 600th ordinate (mpmath zetazero) as a double: grid-path Z there is
    # within its error, and the polish path puts the zero an ulp above it
    t_max = 939.0243008992184
    table = build_table(t_max)
    assert table.audited and len(table) == 600
    assert t_max - table.abs_err[-1] <= table.gammas[-1] <= t_max


@pytest.mark.slow
@pytest.mark.parametrize("t_max, count, digest", [
    (1e3, 649, "c4d92a81d25e9145a5b3e5d3ded90615639860e30ba70bfb16afda15f4b04883"),
    (1e4, 10142, "3748908cee13adad4d16c56bd302ff80dfae412ec3c1413ab30072e032bca236"),
    (1e5, 138069, "ac60ba053a5576235a3df5dd73541f1331cabae31d9aef5885dd9e893d0c091b"),
], ids=["1e3", "1e4", "1e5"])
def test_saved_tables_are_pinned(tmp_path, t_max, count, digest):
    # a change to the Z kernels or the refinement must leave every printed
    # ordinate as it is; the 1e5 build takes about 10 s
    table = build_table(t_max)
    assert table.audited and len(table) == count
    path = tmp_path / "zeros.txt"
    save_table(table, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_build_table_domain():
    with pytest.raises(DomainError):
        build_table(10.0)
    with pytest.raises(DomainError):
        build_table(2e6)


def test_build_table_raises_when_the_audit_fails(monkeypatch):
    # a refinement that loses the first zero leaves 28 ordinates where
    # Turing's method certifies 29
    original = zeros._refine_many
    monkeypatch.setattr(zeros, "_refine_many", lambda rows: original(rows)[1:])
    with pytest.raises(AuditError, match="audit failed: 28 ordinates, Turing's method "
                       "certifies 29 up to 100.0, Rosser envelope holds") as exc:
        build_table(100.0)
    assert exc.value.report.count == 28
    assert not exc.value.report.passed


def test_table_invariants(table1000):
    gammas = table1000.gammas
    assert np.all(np.diff(gammas) > 0)
    assert gammas[0] > 14.0
    assert np.all((table1000.abs_err >= 0.0) & (table1000.abs_err <= 1e-8))


def test_stability_under_half_step(table1000):
    # a dense uniform grid, independent of the Gram points, must reproduce
    # the identical multiset
    brackets = _scan_window(2.0, 1000.0, 0.25)
    assert len(brackets) == 649
    from zgb.zeros import _refine_many

    redone = np.array(sorted(g for g, _ in _refine_many(brackets)))
    assert np.max(np.abs(redone - table1000.gammas)) < 1e-8


def test_zero_table_validation():
    err = [1e-9, 1e-9]
    with pytest.raises(ValueError, match="at or below 14"):
        ZeroTable([14.134725, 13.0], err, 25.0)
    with pytest.raises(ValueError, match="at or below 14"):
        ZeroTable([14.134725, 14.0], err, 25.0)
    with pytest.raises(ValueError, match="increase strictly, got 21.0 after 21.02204"):
        ZeroTable([14.134725, 21.02204, 21.0], err + [1e-9], 25.0)
    with pytest.raises(ValueError, match="increase strictly"):
        ZeroTable([14.134725, float("nan")], err, 25.0)
    # a t_max the audit cannot use: not finite, or below the last ordinate
    # by more than its abs_err
    gammas = [14.134725142, 21.022039639]
    for t_max in (float("nan"), float("inf"), 20.0, 21.022039637):
        with pytest.raises(ValueError, match="not a finite height"):
            ZeroTable(gammas, err, t_max)
    # a t_max within the last ordinate's abs_err of it still covers it
    assert ZeroTable(gammas, err, 21.022039638).t_max == 21.022039638
    with pytest.raises(ValueError, match="not a finite height"):
        ZeroTable([], [], float("-inf"))
    # abs_err is a finite, non-negative 1-D column as long as gammas
    for bad_gammas, bad_err in ((gammas, err[:1]), (gammas, err + [1e-9]),
                                (gammas, [err]), ([gammas], [err])):
        with pytest.raises(ValueError, match="1-D columns of one length"):
            ZeroTable(bad_gammas, bad_err, 25.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            ZeroTable(gammas, [bad, 1e-9], 25.0)


# ---------------------------------------------------------------------- count


def test_count_up_to(table100):
    assert count_up_to(table100, 10.0) == 0
    assert count_up_to(table100, 100.0) == 29
    # inclusive boundary: the ordinate itself counts
    g1 = table100.gammas[0]
    assert count_up_to(table100, g1) == 1
    assert count_up_to(table100, np.nextafter(g1, 0.0)) == 0


def test_count_range_error(table100):
    with pytest.raises(CoverageError):
        count_up_to(table100, 101.0)
    # NaN > t_max is False, so only a test of T <= t_max keeps it out
    with pytest.raises(CoverageError):
        count_up_to(table100, float("nan"))


def test_count_requires_audit(table100):
    # a table short of its last zero runs its audit on the first count,
    # fails it, and is refused
    short = ZeroTable(table100.gammas[:-1], table100.abs_err[:-1], table100.t_max)
    with pytest.raises(AuditError):
        count_up_to(short, 50.0)
    assert not short.audited


def test_audit_state_comes_from_the_audit(table100):
    # no caller can claim an audit: audited derives from audit, which the
    # table runs itself on the first read
    columns = (table100.gammas, table100.abs_err, table100.t_max)
    with pytest.raises(TypeError):
        ZeroTable(*columns, audited=True)
    with pytest.raises(TypeError):
        ZeroTable(*columns, audit=table100.audit)
    table = ZeroTable(*columns)
    with pytest.raises(AttributeError):
        table.audited = True
    assert table.audit is not table100.audit
    assert table.audit == table100.audit and table.audited


def test_a_foreign_audit_report_cannot_be_assigned(table100):
    bad = ZeroTable(table100.gammas[:-1], table100.abs_err[:-1], 100.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        bad.audit = table100.audit
    with pytest.raises(AuditError):
        count_up_to(bad, 100.0)
    assert bad.audit.count == 28 and not bad.audited


def test_t_max_cannot_be_reassigned():
    table = build_table(100.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.t_max = 150.0
    with pytest.raises(CoverageError):
        count_up_to(table, 150.0)
    # a table claiming more coverage is a new table, with an audit of its own
    wider = dataclasses.replace(table, t_max=150.0)
    with pytest.raises(AuditError):
        count_up_to(wider, 150.0)
    assert wider.audit.certified_count == 52


def test_columns_cannot_be_written(table100):
    table = build_table(100.0)
    for column in (table.gammas, table.abs_err, table.prefix):
        with pytest.raises(ValueError, match="read-only"):
            column[5] = 40.0
    assert count_up_to(table, 40.0) == 6
    gammas = table100.gammas.copy()
    table = ZeroTable(gammas, table100.abs_err, 100.0)
    gammas[5] = 40.0  # the caller's array is not the table's
    assert table.gammas[5] == table100.gammas[5]


def test_count_at_takes_a_height_or_an_array(table100):
    g1, g2 = table100.gammas[:2].tolist()
    assert table100.count_at(g1) == 1 and type(table100.count_at(g1)) is int
    heights = np.array([2.0, g1, g2, 100.0])
    assert table100.count_at(heights).tolist() == [0, 1, 2, 29]


def test_count_monotone(table1000):
    counts = [count_up_to(table1000, float(T)) for T in np.linspace(2, 1000, 200)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


# ---------------------------------------------------------------------- audit


def test_audit_passes_table100(table100):
    report = audit_completeness(table100)
    assert report.envelope_ok
    assert report.passed
    # F(100) ~ 29.0023, R(100) ~ 2.8802: |29 - F| comfortably inside
    assert abs(29 - 29.002343587325348) <= 2.8801770934551897


def test_audit_catches_missing_pair(table100):
    # drop two mid-table zeros: envelope still holds (|27 - 29.0| <= 2.88),
    # the Turing-certified count carries the detection
    broken = ZeroTable(
        np.delete(table100.gammas, [14, 15]),
        np.delete(table100.abs_err, [14, 15]),
        t_max=100.0,
    )
    report = audit_completeness(broken)
    assert report.envelope_ok
    assert not report.passed
    assert report.certified_count == 29
    assert report.count == 27


def test_audit_report_cannot_be_forged(table100):
    # a table short of its last zero fails its own audit, and the report is
    # fixed once made: setting passed raises, so no count comes from the table
    bad = ZeroTable(table100.gammas[:-1], table100.abs_err[:-1], 100.0)
    assert not bad.audited
    assert bad.audit.certified_count == 29 and bad.audit.count == 28
    with pytest.raises(dataclasses.FrozenInstanceError):
        bad.audit.passed = True
    with pytest.raises(AuditError):
        count_up_to(bad, 100.0)


def test_audit_certifies_the_count(table1000):
    report = audit_completeness(table1000)
    assert report.certified_count == 649
    assert report.turing_blocks == 1


def test_audit_empty_table_low_coverage():
    empty = ZeroTable([], [], t_max=10.0)
    report = audit_completeness(empty)
    assert report.envelope_ok
    assert report.passed


# ---------------------------------------------------------------- persistence


def test_save_and_reparse_round_trip(table100, tmp_path):
    path = tmp_path / "zeros100.txt"
    save_table(table100, path)
    resurrected = parse_reference(path)
    assert len(resurrected) == 29
    assert np.max(np.abs(resurrected.gammas - table100.gammas)) < 1e-9
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["t_max"] == 100.0
    assert resurrected.t_max == 100.0
    assert meta["audited"] is True
    assert "tool_version" in meta


def test_load_table_audits_once(table100, tmp_path, monkeypatch):
    path = tmp_path / "zeros100.txt"
    save_table(table100, path)
    calls = []
    original = zeros.audit_completeness

    def counting(table):
        calls.append(table.t_max)
        return original(table)

    # rebind every module-level name of the audit, so a call through any
    # import is counted
    for mod in (zeros, ingestion):
        monkeypatch.setattr(mod, "audit_completeness", counting, raising=False)
    loaded = load_table(path)
    assert calls == []  # loading reads; the first count audits
    assert count_up_to(loaded, 100.0) == 29
    assert loaded.audited and count_up_to(loaded, 50.0) == 10
    assert calls == [100.0]
    assert loaded.t_max == 100.0
    assert np.array_equal(loaded.gammas, parse_reference(path).gammas)


def test_sidecar_records_count_and_sha256(table100, tmp_path):
    path = tmp_path / "zeros100.txt"
    save_table(table100, path)
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["count"] == 29
    assert meta["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_load_table_checks_the_sidecar(table100, tmp_path):
    path = tmp_path / "zeros100.txt"
    save_table(table100, path)
    meta_path = sidecar_path(path)
    meta = json.loads(meta_path.read_text())
    # a table cut short still parses, but no longer matches its sidecar
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:20]))
    with pytest.raises(TableFormatError, match="counts 29 ordinates, the table file 20"):
        load_table(path)
    # a single changed digit keeps the count and breaks the hash
    lines[5] = lines[5][:-2] + ("1" if lines[5][-2] != "1" else "2") + "\n"
    path.write_text("".join(lines))
    with pytest.raises(TableFormatError, match="sha256"):
        load_table(path)
    # a sidecar without the two fields, as older versions wrote, still loads,
    # and so does the source key they wrote
    del meta["count"], meta["sha256"]
    meta_path.write_text(json.dumps({**meta, "source": "computed"}))
    assert len(load_table(path)) == 29
    for broken in ('{"t_max": 100.0,\n', "[1, 2]", '{"t_max": "high"}'):
        meta_path.write_text(broken)
        with pytest.raises(TableFormatError, match="malformed sidecar"):
            load_table(path)
    # a t_max the audit cannot use: not finite, or below the last ordinate
    # (98.831194218) by more than its printed rounding
    for t_max in ("Infinity", "-Infinity", "NaN", "-1", "98.8311942", "true"):
        meta_path.write_text(f'{{"t_max": {t_max}}}')
        with pytest.raises(TableFormatError, match="not a finite height"):
            load_table(path)
    for t_max in ("98.8311942175", "100"):
        meta_path.write_text(f'{{"t_max": {t_max}}}')
        assert load_table(path).t_max == float(t_max)


def test_load_table_builds_no_ordinate_records(table1000, tmp_path, monkeypatch):
    path = tmp_path / "zeros1000.txt"
    save_table(table1000, path)
    made = []
    real = zeros.ZeroOrdinate
    monkeypatch.setattr(zeros, "ZeroOrdinate", lambda *a, **k: made.append(1) or real(*a, **k))
    assert len(load_table(path)) == 649
    assert made == []


def test_save_table_replaces_atomically(table100, tmp_path, monkeypatch):
    path = tmp_path / "zeros100.txt"
    save_table(table100, path)
    before = path.read_bytes()

    class DiskFull:
        """A file that takes half of what is written, then runs out of space."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError("no space left on device")

    real_open = open
    monkeypatch.setattr(zeros, "open", lambda f, mode: DiskFull(real_open(f, mode)),
                        raising=False)
    with pytest.raises(OSError):
        save_table(table100, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "zeros100.txt", "zeros100.txt.meta.json"]


def test_save_layout_is_one_ordinate_per_line(table100, tmp_path):
    path = tmp_path / "zeros.txt"
    save_table(table100, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 29
    assert lines[0] == "14.134725142"


def test_isolate_at_height_1e5():
    # ten times the acceptance scale; 77 ordinates in (100000, 100050]
    brackets = isolate_zeros(100000.0, 100050.0)
    assert len(brackets) == 77


def test_refine_near_top_of_range():
    # the 10000th ordinate, frozen from arbitrary-precision computation
    brackets = _scan_window(9877.0, 9878.5, 0.05)
    zero = min((refine_zero(br) for br in brackets),
               key=lambda z: abs(z.gamma - 9877.78))
    assert zero.gamma == pytest.approx(9877.782654005501, abs=1e-7)
    assert abs(zero.gamma - 9877.782654005501) <= zero.abs_err

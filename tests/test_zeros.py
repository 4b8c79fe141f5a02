"""Zero isolation, refinement, auditing, and persistence.

Reference ordinates and counts were frozen from arbitrary-precision
computation: the first ordinates to 12+ digits, counts N(100) = 29,
N(1000) = 649, and the close pair near 7005 whose gap (0.0377) is far below
the initial grid step.
"""

import contextlib
import dataclasses
import hashlib
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest

from zgb import ingestion, zeros, zeta
from zgb.errors import (
    AuditError,
    ConvergenceError,
    CountMismatch,
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
    certified_count,
    checked_count,
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


def test_isolate_raises_on_a_gram_block_showing_more_sign_changes(monkeypatch):
    # Z with its sign wrong on (7007.4, 7007.8), inside the block
    # [7007.189, 7008.980] of length 2 and between no Gram points: the block's
    # samples show no sign change, so it is rescanned, and the first round
    # finds its two zeros and the two false ones at the ends of the interval
    z = zeta.hardy_z_many

    def wrong(ts):
        return np.where((ts > 7007.4) & (ts < 7007.8), -1.0, 1.0) * z(ts)

    monkeypatch.setattr(zeta, "hardy_z_many", wrong)
    with pytest.raises(AuditError, match="Gram block") as info:
        isolate_zeros(7000.0, 7010.0)
    assert ("[7007.189011284, 7008.979872533] shows 4 sign changes where Rosser's rule "
            "and Turing's method count 2 zeros") in str(info.value)


@pytest.mark.parametrize("lo, hi, count, digest", [
    (2.0, 1e4, 0, "fa83daafdc6b5e00976cd833d7b575b3065dbf151bcfc24a707aea7056d2782f"),
    (909407.3563914519, 909457.3563914519, 1575122,
     "43f133eb74167f8b17351208686a66a37c30bbff60408a9a7512f3c85ddc7210"),
], ids=["2-1e4", "window-1e6"])
def test_gram_scan_rows_are_pinned(lo, hi, count, digest):
    # the bracket rows, ends and Z values, bit for bit: the table pins see
    # them only through the refinement and nine printed decimals
    n, rows, _ = zeros._gram_scan(lo, hi)
    assert n == count
    assert hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("size", [60, 64, 1000])
@pytest.mark.parametrize("lo, hi, count, digest", [
    (2.0, 3000.0, 0, "93cf9d805fe782bf53fc317c2682f04abed5c7199bc924c12e6a723c2470b695"),
    (2.0, 1e4, 0, "fa83daafdc6b5e00976cd833d7b575b3065dbf151bcfc24a707aea7056d2782f"),
    (909407.3563914519, 909457.3563914519, 1575122,
     "43f133eb74167f8b17351208686a66a37c30bbff60408a9a7512f3c85ddc7210"),
    (400.0, 600.0, 202, "ba9380175690f45429b87661ad4a62e1b0eac36e1087bfc355e229ea6b5cb905"),
], ids=["2-3000", "2-1e4", "window-1e6", "400-600"])
def test_gram_chunk_seams_leave_every_row_as_it_is(monkeypatch, size, lo, hi, count, digest):
    # chunks close at good Gram points, so no block or bracket spans a seam,
    # and a chunk carries the samples past its last good point into the next:
    # the rows are the pinned ones, on no more Z points than one chunk takes;
    # below 168 pi the count anchors at g_-1, so chunks below 400 only count,
    # and on [2, 1e4] some chunks of 60 end with a row past their last good
    # point
    points = []
    z = zeta.hardy_z_many
    monkeypatch.setattr(zeta, "hardy_z_many",
                        lambda ts: (points.append(np.size(ts)), z(ts))[1])
    zeros._gram_scan(lo, hi)
    whole = sum(points)
    monkeypatch.setattr(zeros, "_SCAN_CHUNK", size)
    del points[:]
    n, rows, _ = zeros._gram_scan(lo, hi)
    assert n == count
    assert hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest() == digest
    assert sum(points) <= whole
    gram_points = (zeta.rs_theta(hi) - zeta.rs_theta(max(lo, 10.0))) / np.pi
    assert (len(list(zeros._gram_chunks(lo, hi))) > 1) == (gram_points > size)


def test_gram_chunks_keep_their_memory_flat_in_the_range(monkeypatch):
    # a chunk's samples, rows and rescans are freed before the next chunk:
    # walking to 1e5 peaks near walking to 2e4 (3.3 and 2.8 MB), where the
    # whole-range pass took 14.9 MB at 1e5
    monkeypatch.setattr(zeros, "_SCAN_CHUNK", 4096)
    peaks = []
    for t_hi in (2e4, 1e5):
        tracemalloc.start()
        try:
            for _ in zeros._gram_chunks(2.0, t_hi):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_every_caller_runs_the_walk_to_its_last_chunk(monkeypatch):
    # the Turing blocks above t_hi are checked only in the last chunk: Z with
    # its sign wrong on (7007.4, 7007.8), inside the block [7007.189,
    # 7008.980] just above 7007, breaks the certificate after two chunks of
    # rows have come out, and no caller returns a row
    z = zeta.hardy_z_many
    monkeypatch.setattr(zeta, "hardy_z_many", lambda ts: np.where(
        (ts > 7007.4) & (ts < 7007.8), -1.0, 1.0) * z(ts))
    monkeypatch.setattr(zeros, "_SCAN_CHUNK", 64)
    chunks = []
    with pytest.raises(AuditError, match=r"\[7007.189011284, 7008.979872533\] shows 4"):
        chunks.extend(zeros._gram_chunks(6900.0, 7007.0))
    assert len(chunks) == 2 and all(len(rows) for _, rows, _ in chunks)
    with pytest.raises(AuditError, match="shows 4 sign changes"):
        isolate_zeros(6900.0, 7007.0)
    with pytest.raises(AuditError, match="shows 4 sign changes"):
        build_table(7007.0)


@pytest.mark.slow
def test_gram_scan_to_1e6_is_pinned_within_its_memory(child):
    # all 1,747,146 rows up to 1e6, bit for bit, hashed chunk by chunk in a
    # fresh process, about 17 s and 63 MB of the child's own peak RSS
    code = ("import hashlib; from zgb import zeros; h, ns, count = hashlib.sha256(), [], 0\n"
            "for n, rows, _ in zeros._gram_chunks(2.0, 1e6):\n"
            "    ns.append(n); count += len(rows); h.update(rows.astype('<f8').tobytes())\n"
            "print(ns[0], count, h.hexdigest())")
    out, peak = child(code)
    assert out.split() == ["0", "1747146",
                           "ef20c028acc71f956ac5c190f5f367f12ed43e4be50198e2f6b63af7d3cc2b68"]
    assert peak <= 100 * 1024  # KiB


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
        return 1 if len(calls) % 2 else 1000  # the pad's guess, then k

    monkeypatch.setattr(zeros, "_turing_blocks", blocks)
    with pytest.raises(DomainError, match=f"validated for t <= {zeta.Z_TOP}"):
        isolate_zeros(999990.0, 1e6)
    chunks = []
    with pytest.raises(DomainError, match=f"validated for t <= {zeta.Z_TOP}"):
        chunks.extend(zeros._gram_chunks(999990.0, 1e6))
    assert chunks == [] and len(calls) == 4


def test_audit_below_168_pi_uses_no_turing_bound(table100, monkeypatch):
    # Turing's bounds are proven only for Gram blocks from 168 pi up: the
    # audit at 100 anchors its count at N(g_-1) = 0 and scans up to Gram
    # points past 168 pi
    seen = []
    original = zeta.hardy_z_many

    def recording(ts):
        seen.extend(np.atleast_1d(ts).tolist())
        return original(ts)

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
    # the first guess of one Turing block sizes a pad of 8 Gram points; ten
    # blocks below 7000 do not fit in it, so the scan doubles the pad, and k
    # stays the ten it was computed as once
    want = isolate_zeros(7000.0, 7010.0)
    calls, lows = [], []

    def blocks(t):
        calls.append(t)
        return 1 if len(calls) == 1 else 10

    z = zeta.hardy_z_many
    monkeypatch.setattr(zeta, "hardy_z_many",
                        lambda ts: (lows.append(np.min(ts)), z(ts))[1])
    monkeypatch.setattr(zeros, "_turing_blocks", blocks)
    assert isolate_zeros(7000.0, 7010.0) == want
    assert len(want) == 11
    assert len(calls) == 2  # one for the pad, one for k
    first = int(zeta.rs_theta(7000.0) // np.pi)
    assert min(lows) < zeros._gram_points(first - 8)


def test_gram_scan_walks_on_past_a_pad_too_short_above_the_top(monkeypatch):
    # from 2 the count anchors at g_-1, so the pad of 8 Gram points never
    # doubles, and ten good blocks above the first good point past 168 pi do
    # not fit in it: the walk samples on past it, and the rows stay
    n, rows, _ = zeros._gram_scan(2.0, 20.0)
    calls, highs = [], []

    def blocks(t):
        calls.append(t)
        return 1 if len(calls) == 1 else 10

    z = zeta.hardy_z_many
    monkeypatch.setattr(zeta, "hardy_z_many",
                        lambda ts: (highs.append(np.max(ts)), z(ts))[1])
    monkeypatch.setattr(zeros, "_turing_blocks", blocks)
    got = zeros._gram_scan(2.0, 20.0)
    assert (got[0], got[2]) == (n, 10) and np.array_equal(got[1], rows)
    last = int(zeta.rs_theta(zeros.TURING_MIN) // np.pi) + 1
    assert max(highs) > zeros._gram_points(last + 8)


def _per_block_descent(a, b, want, n):
    # each short Gram block on its own, from the count its Gram points show,
    # one _scan_window call a halving step
    out = []
    for lo, hi, m, shown in zip(a, b, want, n):
        got, step = np.empty((0, 4)), (hi - lo) / m
        while shown < m and step > zeros.REFINE_FLOOR:
            step *= 0.5
            got = _scan_window(lo, hi, step)
            shown = len(got)
        out.append(got)
    n = list(map(len, out))
    return np.concatenate([np.empty((0, 4)), *out]), np.repeat(np.arange(len(out)), n)


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
    (args, (rows, owner)), = blocks
    want_rows, want_owner = _per_block_descent(*args)
    assert len(args[0]) > 1
    assert np.array_equal(rows, want_rows) and np.array_equal(owner, want_owner)
    # the window has short Turing blocks below t_lo; the range from 2 starts at g_-1
    assert any(b <= lo for b in args[1]) == (lo > 1e5)


def test_gram_scan_makes_one_z_call_per_rescan_round(monkeypatch):
    # the 817 short Gram blocks below 1e4 take five halving rounds: one Z call
    # for the Gram points and one a round, on the 16,906 points that a call per
    # block and step spends in 1,064 calls; hardy_z_err takes one call a round
    # too, where it took one a block and step
    sizes, errs, blocks = [], [], []
    z, err, rescan = zeta.hardy_z_many, zeta.hardy_z_err, zeros._rescan

    def counting(ts):
        sizes.append(ts.size)
        return z(ts)

    def counting_err(t):
        errs.append(np.size(t))
        return err(t)

    def recording(*args):
        blocks.append(args)
        return rescan(*args)

    monkeypatch.setattr(zeta, "hardy_z_many", counting)
    monkeypatch.setattr(zeta, "hardy_z_err", counting_err)
    monkeypatch.setattr(zeros, "_rescan", recording)
    zeros._gram_scan(2.0, 1e4)
    assert len(sizes) == 6 and sum(sizes) == 16906
    assert len(errs) <= 8
    (args,) = blocks
    assert len(args[0]) == 817
    # the per-block descent on the same blocks: one Z call a block and round,
    # on the points the rounds spent
    rescanned = sum(sizes[1:])
    del sizes[:]
    _per_block_descent(*args)
    assert len(sizes) == 1064 and sum(sizes) == rescanned


def test_no_rescanned_bracket_spans_two_blocks(monkeypatch):
    # two short blocks share the point g just above the first zero, whose
    # sample is dropped: the last sample kept below g and the first above it
    # differ in sign, and a bracket across g would count for the lower block
    g = 14.145
    err = zeta.hardy_z_err
    monkeypatch.setattr(zeta, "hardy_z_err",
                        lambda t: np.where(t == g, np.inf, err(t)))
    args = (np.array([12.0, g]), np.array([g, 21.5]), np.array([1, 1]), np.array([0, 0]))
    rows, owner = zeros._rescan(*args)
    assert owner.tolist() == [0, 1]
    assert rows[0, 0] < GAMMA1 < rows[0, 1] <= g <= rows[1, 0] < GAMMA2 < rows[1, 1]
    want_rows, want_owner = _per_block_descent(*args)
    assert np.array_equal(rows, want_rows) and np.array_equal(owner, want_owner)


def test_grids_laid_together_match_each_grid_alone():
    # a rescan round lays many blocks' grids in one array: each must get the
    # bits it gets alone, np.linspace's, wherever it sits and whatever its
    # neighbours, near 1e6 too
    a = np.array([12.0, 7003.607093067, 7005.0, 999990.0, 999999.9])
    b = np.array([14.145, 7005.0, 7005.2, 999999.9, 1e6])
    step = np.array([0.3, 0.2239, 1e-3, 0.1779, 1.1])
    grid, block = zeros._grids(a, b, step)
    back, back_block = zeros._grids(a[::-1], b[::-1], step[::-1])
    assert np.array_equal(block, np.sort(block)) and block[-1] == a.size - 1
    for i in range(a.size):
        alone, own = zeros._grids(a[i:i + 1], b[i:i + 1], step[i:i + 1])
        npts = max(3, int(np.ceil((b[i] - a[i]) / step[i])) + 1)
        assert not own.any() and np.array_equal(alone, np.linspace(a[i], b[i], npts))
        assert np.array_equal(grid[block == i], alone)
        assert np.array_equal(back[back_block == a.size - 1 - i], alone)


def test_a_sample_within_its_error_of_zero_has_no_sign():
    # Z = 1e-12 at 1000.1 is far inside hardy_z_err there (about 1.8e-8), so
    # the sample is dropped and the one sign change spans the whole grid
    grid = np.array([1000.0, 1000.1, 1000.2])
    rows, blk = zeros._brackets_from_grid(grid, np.array([1.0, 1e-12, -1.0]))
    assert blk is None
    assert rows.tolist() == [[1000.0, 1000.2, 1.0, -1.0]]


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
    # there, where |Z| is within its error: that end is the zero's place; so
    # is the left end of a bracket from the ordinate up to the next zero's
    # bracket (less than 10 above), though a regula falsi point rounds onto it
    mpmath = pytest.importorskip("mpmath")
    gamma = mpmath.zetazero(n).imag
    bracket = isolate_zeros(2.0, float(gamma))[-1]
    assert bracket[1] == float(gamma)
    following = isolate_zeros(2.0, float(gamma) + 10.0)[n]
    for z in refine_zero(bracket), refine_zero((float(gamma), following[0])):
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


def test_refine_spends_few_z_points_per_zero(z_counts):
    # Anderson-Bjorck steps plus a secant polish from the last two iterates,
    # on rows that carry Z at both ends, take 5.90 Z points per zero to 1e3
    # (3832 for 649 zeros; 6.64 when the last iterate was evaluated again on
    # an EM polish path up to 1500, 7.23 when a polish step of a few ulps was
    # evaluated too, 8.78 with Illinois steps and both iterates evaluated
    # again); the bound leaves 10 % headroom
    rows = zeros._gram_scan(2.0, 1e3)[1]
    z_counts.clear()
    refined = zeros._refine_many(rows)
    assert len(refined) == 649
    assert z_counts.points() / len(refined) <= 6.5
    assert max(e for _, e in refined) <= 1e-8


def test_refine_zero_spends_few_z_calls_per_bracket_near_1e6(z_counts):
    # a lone bracket near 1e6 costs about one point a Z kernel call, so its
    # refinement is bound by the calls' overhead: 6.54 calls a bracket on
    # these 95 (7.66 when a polish step of a few ulps was evaluated); every
    # one of them misses 1e-9, the known refine-no-convergence failure, but
    # only after its Z calls; the bound leaves 10 % headroom
    brackets = isolate_zeros(950000.0, 950050.0)
    z_counts.clear()
    for bracket in brackets:
        with contextlib.suppress(ConvergenceError):
            refine_zero(bracket)
    assert len(brackets) == 95
    assert z_counts.calls() / len(brackets) <= 7.2


def test_refine_evaluates_no_polish_point_a_few_ulps_from_a_known_one(monkeypatch):
    # a polish step of at most 8 ulps is taken without Z at its end, since a
    # step from there is rounding noise: so no polish point lies within 8
    # ulps of a height already evaluated or a bracket end, nor on one of
    # them.  The polish's calls are those made once _refine_many has bound
    # its secant iterate x2
    rows = zeros._gram_scan(2.0, 1e3)[1]
    calls = []
    real = zeta.hardy_z_many

    def recording(ts):
        calls.append((ts.copy(), "x2" in sys._getframe(1).f_locals))
        return real(ts)

    monkeypatch.setattr(zeta, "hardy_z_many", recording)
    zeros._refine_many(rows)
    seen = np.unique(rows[:, :2])
    polished = 0
    for ts, polish in calls:
        if polish:
            i = np.clip(np.searchsorted(seen, ts), 1, seen.size - 1)
            near = np.where(ts - seen[i - 1] < seen[i] - ts, seen[i - 1], seen[i])
            assert np.all(np.abs(ts - near) > 8.0 * np.spacing(near))
            polished += ts.size
        seen = np.union1d(seen, ts)
    assert polished  # the polish evaluated steps


def test_refine_evaluates_no_bracket_end(z_counts):
    # each row carries Z at both of its ends, so the refinement spends no
    # point on them
    rows = zeros._gram_scan(2.0, 1e3)[1]
    z_counts.clear()
    assert len(zeros._refine_many(rows)) == 649
    heights = np.concatenate([ts for _, ts in z_counts.batches()])
    assert heights.size
    assert not set(rows[:, :2].ravel().tolist()) & set(heights.tolist())


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


def test_refine_zero_converges_on_every_bracket_just_above_1500():
    # RS's truncation term was some 6e-9 from 1500 up, where EM stopped
    # polishing, and 57 of these 88 brackets missed 1e-9; with C0..C6 its
    # rounding term, about 3e-11 there, decides, and all converge
    brackets = isolate_zeros(1500.0, 1600.0)
    assert len(brackets) == 88
    assert max(refine_zero(b).abs_err for b in brackets) <= 1e-10


def test_build_table_up_to_a_zero_ordinate():
    # the 600th ordinate (mpmath zetazero) as a double: Z there is within its
    # error, and the refinement puts the zero on it
    t_max = 939.0243008992184
    table = build_table(t_max)
    assert table.audited and len(table) == 600
    assert t_max - table.abs_err[-1] <= table.gammas[-1] <= t_max


@pytest.mark.parametrize("t_max, count, digest", [
    (1e3, 649, "03b7a4673fbc9e0e09a000d55e882ec27845e4f7fe2fe35f7625684e299bd4be"),
    pytest.param(1e4, 10142, "20f45919e3cf12cc9a2ea3aebd4f89b5cdd898a960ad144aaa878ce5af683d89",
                 marks=pytest.mark.slow),
    pytest.param(1e5, 138069, "4f8b457ca13e4f04db5959e31643d023ff223b4e1dd2fe78d4247dd9e8a8b4a1",
                 marks=pytest.mark.slow),
], ids=["1e3", "1e4", "1e5"])
def test_saved_tables_are_pinned(tmp_path, t_max, count, digest):
    # a change to the Z kernels, the scan, the refinement or the writer must
    # leave every printed ordinate as it is; the 1e3 build takes 0.05 s and
    # runs in every test run, the 1e5 build about 10 s
    table = build_table(t_max)
    assert table.audited and len(table) == count
    path = tmp_path / "zeros.txt"
    save_table(table, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_build_table_refines_chunk_by_chunk_to_the_pinned_bytes(tmp_path, monkeypatch):
    # each chunk's rows are refined as they come, and each row alone, so the
    # 1e3 table in chunks of 64 Gram points prints the bytes of one chunk
    refine, sizes = zeros._refine_many, []
    monkeypatch.setattr(zeros, "_refine_many",
                        lambda rows: (sizes.append(len(rows)), refine(rows))[1])
    monkeypatch.setattr(zeros, "_SCAN_CHUNK", 64)
    table = build_table(1e3)
    assert len(sizes) > 1 and sum(sizes) == 649
    save_table(table, tmp_path / "zeros.txt")
    assert hashlib.sha256((tmp_path / "zeros.txt").read_bytes()).hexdigest() == (
        "03b7a4673fbc9e0e09a000d55e882ec27845e4f7fe2fe35f7625684e299bd4be")


def test_build_table_spends_few_em_main_sum_terms(z_counts):
    # below RS_SWITCH the EM main sum is most of the build's Z work; its term
    # count repeats exactly (155,189 here with Anderson-Bjorck steps and a
    # last polish step of a few ulps taken unconfirmed; 299,153 with EM
    # polishing up to 1500, 357,049 with that step evaluated too, 451,996
    # with Illinois steps and two polish-path points), so a change that
    # spends more of them shows; the bound leaves 10 % headroom
    assert len(build_table(1e3)) == 649
    assert z_counts.terms("em") <= 171_000


def _against_zetazero(n):
    # mpmath's own locator of the n-th zero against zgb's certified count and
    # refinement: the index the Gram scan gives the zero nearest it, and the
    # distance to it within abs_err; returns distance / abs_err
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        ref = mpmath.zetazero(n).imag
    t = float(ref)
    count, rows, _ = zeros._gram_scan(t - 0.5, t + 0.5)
    found = zeros._refine_many(rows)
    i = int(np.argmin(np.abs(found[:, 0] - t)))
    gamma, abs_err = found[i].tolist()
    with mpmath.workdps(20):
        distance = float(abs(mpmath.mpf(gamma) - ref))
    assert count + i + 1 == n
    assert distance <= abs_err, (n, distance, abs_err)
    return distance / abs_err


@pytest.mark.parametrize("n", [100, 1000])
def test_zero_index_and_ordinate_against_zetazero(n):
    # n = 100 (236.52) refines on the EM path, n = 1000 (1419.42) on RS
    # where EM once polished
    _against_zetazero(n)


@pytest.mark.slow
def test_seeded_zero_indices_against_zetazero():
    # eight seeded indices a band, up to N(1e6) = 1,747,146: about 1 s each
    rng = np.random.default_rng(26)
    ratios = {}
    for lo, hi in ((1, 1000), (1000, 10_000), (10_000, 100_000), (100_000, 1_747_147)):
        for n in rng.integers(lo, hi, 8).tolist():
            ratios[n] = _against_zetazero(n)
    worst = max(ratios, key=ratios.get)
    print(f"worst distance / abs_err {ratios[worst]:.3g}, at n = {worst}")


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


def test_a_table_built_just_above_an_ordinate_passes_its_audit_as_saved(table100, tmp_path):
    # gamma_5 = 32.9350615877... lies below t_max, 1e-10 above it, and prints
    # as 32.935061588, above t_max but within its printed abs_err of 1e-9:
    # as saved the table counts 4 up to t_max where Turing's method
    # certifies 5, and the one count rule lets either count hold
    t_max = float(table100.gammas[4]) + 1e-10
    table = build_table(t_max)
    path = tmp_path / "zeros.txt"
    save_table(table, path)
    for saved in (zeros._as_saved(table), load_table(path)):
        assert saved.t_max == t_max and saved.gammas[4] == 32.935061588 > t_max
        assert (saved.count_at(t_max), saved.audit.certified_count) == (4, 5)
        assert saved.audited


def test_audit_refuses_a_count_that_no_ordinate_within_its_error_explains(table100):
    # a table short of its top ordinate has no ordinate to excuse the count
    # Turing's method certifies, and a spurious one 0.1 below t_max lies far
    # beyond its abs_err: either count fails the one count rule
    for gammas in (table100.gammas[:28], np.append(table100.gammas, 99.9)):
        table = ZeroTable(gammas, np.full(len(gammas), 1e-9), 100.0)
        assert table.audit.envelope_ok and table.audit.certified_count == 29
        assert not table.audited, len(gammas)


def test_checked_count_gates_then_holds_the_table_to_turings_count(table100, monkeypatch):
    g5 = float(table100.gammas[4])
    assert checked_count(table100, g5) == 5
    with pytest.raises(CoverageError):
        checked_count(table100, 101.0)
    moved = table100.gammas.copy()
    moved[4] += 1e-6  # beyond its abs_err of g5: the table counts 4 there
    with pytest.raises(CountMismatch, match="counts 4 ordinates up to T=.*certifies 5") as exc:
        checked_count(ZeroTable(moved, table100.abs_err, 100.0), g5)
    assert (exc.value.T, exc.value.N, exc.value.table_N) == (g5, 5, 4)
    # at t_max the audit has counted by the same rule: no scan runs again
    assert table100.audited
    monkeypatch.setattr(zeros, "_gram_scan", None)
    assert checked_count(table100, 100.0) == 29


def test_audit_takes_its_count_from_the_certificate(table100, monkeypatch):
    # certified_count is the one route from a count to the local scan
    monkeypatch.setattr(zeros, "certified_count", lambda T: (28, 5))
    report = audit_completeness(table100)
    assert (report.certified_count, report.turing_blocks) == (28, 5)
    assert not report.passed


def test_certified_count_equals_the_built_tables_at_seeded_heights(table1000, table10000):
    # uniform heights, heights within 1e-6 of an ordinate on either side, and
    # the ordinates themselves: the built ordinates lie well within 1e-6 of
    # their zeros, so each table's count is N(T) at every one of them
    rng = np.random.default_rng(20070)
    for table, top in ((table1000, 1000.0), (table10000, 1e4)):
        near = table.gammas[rng.choice(len(table), 40, replace=False)]
        heights = np.concatenate((rng.uniform(2.0, top, 40), near,
                                  near + rng.uniform(-1e-6, 1e-6, 40)))
        for T in heights.tolist():
            assert certified_count(T)[0] == table.count_at(T), T


def test_certified_count_domain():
    # the scan alone answers past 1e6, while its Turing blocks fit below
    # zeta.Z_TOP, but no table reaches there
    assert certified_count(2.0) == (0, 1)
    assert certified_count(1e6)[0] == 1747146
    assert zeros._gram_scan(1e6 + 1.0, 1e6 + 1.0)[0] == 1747148
    for T in (1.999, 1e6 + 0.5, float("nan")):
        with pytest.raises(DomainError, match="certified_count requires 2 <= T <= 1e6"):
            certified_count(T)


@pytest.mark.parametrize("T", [100.0, 300.0, 500.0])
def test_certified_count_below_168_pi_samples_few_z_points(z_counts, T):
    # once the lowest sample lies below 168 pi no wider pad gives Turing's
    # blocks, so the scan anchors at g_-1 at once and keeps its top pad:
    # 649, 541 and 409 Z points here, where doubling both pads until the
    # lower one reached g_-1 took 967, 1,885 and 2,015
    certified_count(T)
    assert z_counts.points() <= 700


# ---------------------------------------------------------------- persistence


def test_as_saved_is_the_table_load_table_reads(table1000, tmp_path, monkeypatch):
    # one printer and one parser: in slices of 64 lines, the table a query
    # answers from after a build is the one load_table reads from its files
    monkeypatch.setattr(zeros, "_SCAN_CHUNK", 64)
    path = tmp_path / "zeros.txt"
    save_table(table1000, path)
    saved, loaded = zeros._as_saved(table1000), load_table(path)
    assert saved.gammas.tobytes() == loaded.gammas.tobytes()
    assert saved.abs_err.tobytes() == loaded.abs_err.tobytes()
    assert saved.t_max == loaded.t_max == 1000.0


@pytest.mark.slow
def test_saving_and_loading_a_1e6_sized_table_stay_within_their_memory(child, tmp_path):
    # 1,747,146 rows, as many as the 1e6 table, written and read a slice at
    # a time: save_table adds about 5 MB to the table's resident set, where
    # printing the whole file at once added 90 MB, and load_table peaks at
    # about 140 MB, where parsing the whole file at once took 690 MB.  A
    # file whose last line is bad stays within that bound too: only its
    # failing block is walked line by line, where walking the whole text
    # peaked at about 270 MB.  The audit of this synthetic table fails, and
    # no call here needs it to pass
    path = tmp_path / "zeros.txt"
    rss = ("[int(line.split()[1]) for line in open('/proc/self/status') "
           "if line.startswith('VmRSS:')][0]")
    out, peak = child(
        "import numpy as np; from zgb import zeros\n"
        "table = zeros.ZeroTable(14.134725142 + 0.5 * np.arange(1747146), np.zeros(1747146), 9e5)\n"
        f"before = {rss}\n"
        f"zeros.save_table(table, {str(path)!r})\n"
        "print(before)")
    assert peak - int(out) <= 20 * 1024  # KiB
    out, peak = child(f"from zgb import zeros\nprint(len(zeros.load_table({str(path)!r})))")
    assert out == "1747146"
    assert peak < 200 * 1024  # KiB
    bad = tmp_path / "bad.txt"  # no sidecar: the parse alone decides
    bad.write_bytes(path.read_bytes().rstrip(b"\n").rpartition(b"\n")[0] + b"\n14.0\n")
    out, peak = child("from zgb import zeros\n"
                      "try:\n"
                      f"    zeros.load_table({str(bad)!r})\n"
                      "except zeros.TableFormatError as exc:\n"
                      "    print(exc.line)")
    assert out == "1747146"
    assert peak < 200 * 1024  # KiB


def test_load_table_peaks_in_its_parse(tmp_path):
    # the file's bytes go once they are hashed, and the table shares the
    # parsed column and its abs_err column instead of copying them, so
    # load_table peaks where its parse does: 77.4 MB on a 1,747,146-row
    # table, where building the table with the bytes alive took 104.9 MB
    n = 50_000
    path = tmp_path / "zeros.txt"
    save_table(ZeroTable(14.134725142 + 0.5 * np.arange(n), np.zeros(n), 5e4), path)
    peaks = []
    for read in (lambda: zeros._read_ordinates(path, digest=True), lambda: load_table(path)):
        tracemalloc.start()
        try:
            got = read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 64 * 1024
    assert got.gammas.base is None and got.abs_err.base is None
    assert not (got.gammas.flags.writeable or got.abs_err.flags.writeable)


def test_table_shares_read_only_owned_columns_and_copies_others():
    g = np.array([14.134725142, 21.022039639])
    e = np.full(2, 1e-9)
    copied = ZeroTable(g, e, 25.0)
    assert not np.shares_memory(copied.gammas, g) and not np.shares_memory(copied.abs_err, e)
    g[0] = 15.0  # the caller's writeable column is not the table's
    assert copied.gammas[0] == 14.134725142
    shared = ZeroTable(copied.gammas, copied.abs_err, 25.0)
    assert shared.gammas is copied.gammas and shared.abs_err is copied.abs_err
    view = copied.gammas[:]  # read-only, but a view: copied
    assert ZeroTable(view, copied.abs_err, 25.0).gammas is not view


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


@pytest.mark.parametrize("gammas", [
    None,  # the 1e3 table
    [14.1347251415, 14.5000000005, 21.0220396385, 99999.9999999995, 123456.1234567895],
    [],
], ids=["1e3", "ties", "empty"])
def test_saved_bytes_are_the_per_line_format(table1000, tmp_path, gammas):
    table = table1000 if gammas is None else ZeroTable(gammas, [0.0] * len(gammas), 2e5)
    path = tmp_path / "zeros.txt"
    save_table(table, path)
    assert path.read_bytes() == "".join(f"{g:.9f}\n" for g in table.gammas.tolist()).encode()


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

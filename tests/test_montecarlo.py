"""Tests of the Monte Carlo harness: pairing, reductions, CSV output."""
import concurrent.futures
import copy
import functools
import math
import pickle
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from oracles import reference_pair, theory_dynamic_h0, theory_oracle, theory_static
import specsense
import specsense.harness as harness
from specsense import cli
from specsense.detector import (
    ThresholdMode,
    Verdict,
    closed_form_pd,
    decide,
    dynamic_threshold,
    energy_statistic,
    static_threshold,
)
from specsense.harness import (
    PointResult,
    SweepResult,
    TrialPlan,
    power_at_db,
    run_point,
    sweep_pfa,
    sweep_snr,
    sweep_threshold_factor,
    synthesize_pair,
    write_results,
)
from specsense.noise_estimator import EstimationFailure, estimate_noise
from specsense.signal_model import frame


def _static_plan(**overrides) -> TrialPlan:
    base = dict(
        n_trials=1000,
        n=128,
        l=8,
        target_pfa=0.1,
        mode=ThresholdMode.STATIC,
        sigma_s2=0.5,
        mismatch_db=0.0,
        master_seed=1234,
    )
    base.update(overrides)
    return TrialPlan(**base)


def test_trial_plan_validation():
    with pytest.raises(ValueError):
        _static_plan(n_trials=0)
    with pytest.raises(ValueError):
        _static_plan(target_pfa=1.0)
    with pytest.raises(ValueError):
        _static_plan(l=1)
    with pytest.raises(ValueError):
        _static_plan(n=4, l=8)
    with pytest.raises(ValueError, match="n: must exceed l=8"):
        _static_plan(n=8, l=8, mode=ThresholdMode.DYNAMIC)
    _static_plan(n=8, l=8)
    with pytest.raises(ValueError):
        _static_plan(sigma_w2_true=0.0)
    with pytest.raises(ValueError):
        _static_plan(sigma_s2=-1.0)
    with pytest.raises(ValueError):
        _static_plan(mismatch_db=-0.5)
    # A wander to a power that is not finite: an OverflowError from
    # 10 ** (offset / 10) in synthesis, or noise rows of infinite power.  A
    # noise power of 1e307 now breaks its own rule before the wander's.
    for sigma_w2_true, mismatch_db, field in ((1.0, 4000.0, "mismatch_db"),
                                              (1e307, 20.0, "sigma_w2_true")):
        with pytest.raises(ValueError, match=f"{field}: too large"):
            _static_plan(sigma_w2_true=sigma_w2_true, mismatch_db=mismatch_db)
    _static_plan(mismatch_db=3000.0)
    with pytest.raises(ValueError, match="master_seed"):
        _static_plan(master_seed=-1)
    _static_plan(master_seed=0)


def test_a_plan_keeps_the_integers_it_is_given():
    # Any value operator.index takes is an integer field's value, as given.
    given = {"n_trials": 300, "n": 64, "l": 4, "m_grid": 20, "master_seed": 7,
             "samples_per_symbol": 2}
    plan = _static_plan(**{field: np.int64(value) for field, value in given.items()})
    for field in given:
        assert type(getattr(plan, field)) is np.int64, field
    assert run_point(plan) == run_point(_static_plan(**given))


def test_an_int64_trial_count_writes_the_int_plans_csv(tmp_path):
    # A point's counts are Python ints, so its rates are Python floats whose
    # repr the CSV writes, not np.float64(...).
    given = dict(n=64, l=4, m_grid=20, master_seed=7, sigma_s2=0.3)
    written = []
    for n_trials in (300, np.int64(300)):
        curves = sweep_snr(TrialPlan(n_trials=n_trials, **given), [-3.0])
        for index, curve in enumerate(curves.values()):
            for field in ("h1_detections", "h0_detections", "failed_trials", "n_effective"):
                assert type(getattr(curve.points[0], field)) is int, field
            path = tmp_path / f"{index}.csv"
            write_results(curve, str(path))
            written.append(path.read_bytes())
    assert written[2:] == written[:2]


def test_a_plan_refuses_a_numpy_integer_whose_arithmetic_wraps():
    # n=200 and l=8 as uint8 once passed every rule with l * n wrapped to 64,
    # then overflowed in synthesis; an unsigned sps overflowed its ceil division.
    with pytest.raises(harness.PlanError, match="^n: must be a Python int or an int64"):
        TrialPlan(n_trials=10, n=np.uint8(200), l=np.uint8(8), mode=ThresholdMode.STATIC)
    for field in ("n_trials", "n", "l", "m_grid", "master_seed", "samples_per_symbol"):
        for kind in (np.int8, np.int32, np.uint8, np.uint64):
            with pytest.raises(harness.PlanError) as refused:
                _static_plan(**{"n": 8, field: kind(8)})
            assert refused.value.field == field, (field, kind)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["sigma_w2_true", "sigma_nominal2", "sigma_s2", "mismatch_db"])
def test_trial_plan_rejects_non_finite_floats(field, value):
    with pytest.raises(ValueError, match="finite"):
        _static_plan(**{field: value})


def test_sps_defaults_to_snapshot_length():
    assert _static_plan().sps == 8
    assert _static_plan(samples_per_symbol=2).sps == 2


def test_zero_signal_gives_identical_pd_and_pfa():
    r = run_point(_static_plan(sigma_s2=0.0, n_trials=600))
    assert r.pd == r.pfa  # the two hypotheses share the same stream


def test_static_point_tracks_closed_forms():
    plan = _static_plan(n_trials=4000)
    r = run_point(plan)
    lam = static_threshold(1.0, 0.1, 128)
    pd_closed = closed_form_pd(lam, 128, 1.0, 0.5)
    assert abs(r.pfa - 0.1) < 0.02
    assert abs(r.pd - pd_closed) < 0.02
    assert r.mean_sigma_hat2 is None
    assert r.failed_trials == 0
    assert r.n_effective == 4000


def test_a_static_point_stores_only_counts():
    # A sweep's results are kept whole; a static point's record holds no float.
    curves = sweep_threshold_factor(_static_plan(n_trials=300), (1.0, 1.5), [-4.0, 0.0])
    for curve in curves.values():
        for point in curve.points:
            assert [type(getattr(point, f.name)) for f in fields(point)] == [
                int, int, type(None), int, int]


def test_ci_halfwidth_formula():
    r = run_point(_static_plan(n_trials=500))
    expected = 2.576 * math.sqrt(r.pfa * (1.0 - r.pfa) / r.n_effective)
    np.testing.assert_allclose(r.pfa_ci, expected, rtol=1e-12)


def test_run_point_deterministic():
    plan = _static_plan(n_trials=700)  # not a multiple of the chunk size
    assert run_point(plan) == run_point(plan)


def test_dynamic_point_reports_noise_estimate():
    plan = _static_plan(
        mode=ThresholdMode.DYNAMIC, n=64, n_trials=150, sigma_s2=0.0
    )
    r = run_point(plan)
    assert r.mean_sigma_hat2 is not None
    assert abs(r.mean_sigma_hat2 - 1.0) < 0.1
    assert r.pd == r.pfa


def test_mismatch_wander_changes_results_only_when_enabled():
    quiet = run_point(_static_plan(n_trials=400))
    wander = run_point(_static_plan(n_trials=400, mismatch_db=3.0))
    again = run_point(_static_plan(n_trials=400, mismatch_db=3.0))
    assert wander == again
    assert wander != quiet


def test_excessive_estimation_failures_abort(monkeypatch):
    def always_fails(frames, m_grid):
        return np.full(len(frames), np.nan)  # NaN: this frame's estimate failed

    monkeypatch.setattr(harness, "estimate_noise_batch", always_fails)
    plan = _static_plan(mode=ThresholdMode.DYNAMIC, n_trials=200)
    with pytest.raises(RuntimeError, match="failed"):
        run_point(plan)


def _block_layout(n_trials: int, size: int) -> list[int]:
    """The trials of each block, in run order, of a plan of ``n_trials`` whose
    chunks run in blocks of ``size`` trials (``harness._block_trials``)."""
    return [min(size, stop - first)
            for start in range(0, n_trials, harness._CHUNK)
            for stop in [min(start + harness._CHUNK, n_trials)]
            for first in range(start, stop, size)]


def test_failed_rows_fail_exactly_their_trials(monkeypatch):
    plan = _static_plan(mode=ThresholdMode.DYNAMIC, n_trials=600, mismatch_db=3.0)
    size = harness._block_trials(plan.l * plan.n, np.complex128)
    blocks_per_chunk = -(-harness._CHUNK // size)
    blocks = _block_layout(plan.n_trials, size)
    n_calls, last_block = len(blocks), blocks[-1]
    # block call -> rows whose estimate fails; rows 2i and 2i + 1 hold the
    # H1 and H0 frames of the block's trial i.  The last two calls fail the
    # last row of a full block and of the short last block.
    plan_of_failures = {0: (1,), 3: (2, 3), 9: (0, 7),
                        n_calls - 2: (2 * size - 1,), n_calls - 1: (2 * last_block - 1,)}
    real = harness.estimate_noise_batch
    calls = []

    def fails_some_rows(frames, m_grid):
        sigma = real(frames, m_grid)
        sigma[list(plan_of_failures.get(len(calls), ()))] = np.nan
        calls.append(len(frames))
        return sigma

    def trial_of(call, row):
        chunk, block = divmod(call, blocks_per_chunk)
        return chunk * harness._CHUNK + block * size + row // 2

    monkeypatch.setattr(harness, "estimate_noise_batch", fails_some_rows)
    r = run_point(plan)
    failing_trials = {trial_of(call, row) for call, rows in plan_of_failures.items() for row in rows}
    assert calls == [2 * trials for trials in blocks]
    assert blocks == [size] * (n_calls - 1) + [last_block]
    assert max(failing_trials) == plan.n_trials - 1
    assert r.failed_trials == len(failing_trials) == 6  # 1% of 600: the guard's limit
    assert r.n_effective == plan.n_trials - 6
    # Beside its static plan, on the same streams, the dynamic plan fails the
    # same trials and the static plan none.
    calls.clear()
    static_plan = replace(plan, mode=ThresholdMode.STATIC)
    assert harness._run_points([static_plan, plan], workers=1) == ([run_point(static_plan), r],
                                                                   None)
    assert len(calls) == n_calls


def test_a_point_does_not_depend_on_the_block_size(monkeypatch):
    # Ragged chunks (300 = 2 * 128 + 44 trials) at blocks of one trial, of a
    # size that divides no chunk, of 16 and 32 trials, and of a whole chunk,
    # with _BLOCK_BYTES at 0 so that _BLOCK alone sets them; then under the
    # rule itself, which runs the plans at n=32 as one block a chunk and the
    # static plan at n=1024 in 64-trial blocks.
    wander = dict(n_trials=300, n=32, mismatch_db=3.0)
    static = _static_plan(**wander)
    long = replace(static, n=1024)
    dynamic = _static_plan(mode=ThresholdMode.DYNAMIC, **wander)
    silent = replace(dynamic, sigma_s2=0.0)
    # Frames 2t and 2t + 1 are trial t's H1 and H0 frames, counted across
    # calls: trials 0, 97 and 299 fail, 1% of 300, the guard's limit.
    failing_frames = (1, 194, 195, 599)
    real = harness.estimate_noise_batch
    seen = [0]

    def fails_some_rows(frames, m_grid):
        sigma = real(frames, m_grid)
        sigma[[f - seen[0] for f in failing_frames if 0 <= f - seen[0] < len(frames)]] = np.nan
        seen[0] += len(frames)
        return sigma

    synthesize = harness._synthesize
    blocks = {}  # (samples a stream, dtype) -> the trials of each block

    def recording(plan, states, out):
        blocks.setdefault((out.shape[-1], out.dtype.type), []).append(len(states))
        return synthesize(plan, states, out)

    def results():
        seen[0] = 0
        blocks.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "estimate_noise_batch", fails_some_rows)
            failing = run_point(dynamic)
        assert failing.failed_trials == 3 and seen[0] == 2 * dynamic.n_trials
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_synthesize", recording)
            return (run_point(static), run_point(long), run_point(dynamic), run_point(silent),
                    failing, sweep_snr(replace(dynamic, n_trials=200), [-4.0, 0.0]))

    expected = results()
    assert expected[3].pd == expected[3].pfa
    assert {key: max(sizes) for key, sizes in blocks.items()} == {
        (32, np.float64): 128, (1024, np.float64): 64, (256, np.complex128): 128}
    monkeypatch.setattr(harness, "_BLOCK_BYTES", 0)
    for block in (1, 7, 16, 32, harness._CHUNK):
        monkeypatch.setattr(harness, "_BLOCK", block)
        assert results() == expected, block
        assert {max(sizes) for sizes in blocks.values()} == {block}


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    master_seed=st.integers(0, 2**64),
    shape=st.sampled_from([(2, 3), (3, 8), (4, 16)]),
    sigma_s2=st.sampled_from([0.0, 0.5, 4.0]),
    mismatch_db=st.sampled_from([0.0, 3.0]),
    n_trials=st.integers(1, harness._CHUNK + 40),
    nominals=st.lists(st.floats(0.25, 4.0), max_size=3),
    targets=st.lists(st.floats(0.01, 0.5), max_size=3),
    cut=st.floats(0.0, 3.0),
)
@example(master_seed=7, shape=(3, 8), sigma_s2=0.5, mismatch_db=3.0, n_trials=harness._CHUNK + 5,
         nominals=[0.5, 2.0], targets=[], cut=3.0)  # static receivers alone: no estimate
def test_each_receiver_of_a_chunk_is_a_reduction_of_its_trials(
        master_seed, shape, sigma_s2, mismatch_db, n_trials, nominals, targets, cut):
    # One unit with static receivers at several nominal powers and dynamic
    # ones at several targets.  An estimate fails where its frame's first
    # sample has a real part above cut, as well as where it fails by itself.
    assume(nominals or targets)
    l, n = shape
    plan = TrialPlan(n_trials=n_trials, n=n, l=l, sigma_s2=sigma_s2, mismatch_db=mismatch_db,
                     master_seed=master_seed)
    receivers = [harness._receiver(p) for p in
                 [replace(plan, mode=ThresholdMode.STATIC, sigma_nominal2=s) for s in nominals]
                 + [replace(plan, target_pfa=t) for t in targets]]
    trials = []  # per trial: its H1 and H0 energies, and noise estimates (NaN: failed)
    for trial in range(n_trials):
        streams = synthesize_pair(plan, trial)[:2]
        try:
            sigma = [math.nan if y[0].real > cut
                     else estimate_noise(frame(y, l, n), plan.m_grid).sigma_hat2 for y in streams]
        except EstimationFailure:
            sigma = [math.nan, math.nan]
        trials.append(([energy_statistic(y[:n]) for y in streams], sigma))

    def reference(scale, unit, chunk):
        h1 = h0 = failed = 0
        sigma_sum = 0.0
        for (e1, e0), (s1, s0) in chunk:
            if scale is not None:
                h1, h0 = h1 + (e1 > scale * unit), h0 + (e0 > scale * unit)
            elif math.isnan(s1 + s0):  # a trial fails when either estimate fails
                failed += 1
            else:
                h1, h0 = h1 + (e1 > s1 * unit), h0 + (e0 > s0 * unit)
                sigma_sum += s1 + s0
        return h1, h0, failed, sigma_sum

    real = harness.estimate_noise_batch

    def fails_some_rows(frames, m_grid):
        sigma = real(frames, m_grid)
        sigma[frames[:, 0, 0].real > cut] = np.nan
        return sigma

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "estimate_noise_batch", fails_some_rows)
        for start in range(0, n_trials, harness._CHUNK):
            chunk = trials[start : start + harness._CHUNK]
            assert harness._run_chunk(plan, receivers, start) == [
                reference(scale, unit, chunk) for scale, unit in receivers]


def test_mean_noise_estimate_is_finite_when_its_sum_overflows():
    # 800 000 dynamic trials at a noise power of 1.5e302 pass every plan rule,
    # which bounds one trial's sums, but their 1.6e6 estimates sum past the
    # float range: the point once reported mean_sigma_hat2 = inf.
    plan = _static_plan(mode=ThresholdMode.DYNAMIC, n_trials=800_000)
    chunks = plan.n_trials // harness._CHUNK
    r = harness._point_result(plan, harness._receiver(plan),
                              [(1, 0, 0, 2 * harness._CHUNK * 1.5e302)] * chunks)
    assert r.mean_sigma_hat2 == pytest.approx(1.5e302, rel=1e-12)
    # Summed at an exact power-of-two scale, the mean rounds once, as an
    # unbounded sum would.
    plan = replace(plan, n_trials=3 * harness._CHUNK)
    tallies = [(0, 0, 0, 2.0**1023), (0, 0, 0, 2.0**1023), (0, 0, 0, 2.0**1022)]
    point = harness._point_result(plan, harness._receiver(plan), tallies)
    assert point.mean_sigma_hat2 == 1.25 * 2.0**1023 / 384


def _reference_point(plan: TrialPlan) -> PointResult:
    """run_point rebuilt from single-frame calls, one trial at a time.

    Streams come from ``oracles.reference_pair``, which seeds and draws
    every substream through numpy directly; the rest uses the package's
    public single-frame calls.

    Noise estimates are summed per chunk of ``harness._CHUNK`` trials and
    the chunk sums added in chunk order, as the harness reduces them.
    """
    dynamic = plan.mode is ThresholdMode.DYNAMIC
    det_h1 = det_h0 = failed = 0
    sigma_total = 0.0
    for first in range(0, plan.n_trials, harness._CHUNK):
        chunk_sum = 0.0
        for trial in range(first, min(first + harness._CHUNK, plan.n_trials)):
            y1, y0, _ = reference_pair(plan, trial)
            if dynamic:
                try:
                    est1 = estimate_noise(frame(y1, plan.l, plan.n), plan.m_grid)
                    est0 = estimate_noise(frame(y0, plan.l, plan.n), plan.m_grid)
                except EstimationFailure:
                    failed += 1
                    continue
                lam1 = dynamic_threshold(est1.sigma_hat2, plan.target_pfa, plan.n)
                lam0 = dynamic_threshold(est0.sigma_hat2, plan.target_pfa, plan.n)
                chunk_sum += est1.sigma_hat2 + est0.sigma_hat2
            else:
                lam1 = lam0 = static_threshold(plan.sigma_nominal2, plan.target_pfa, plan.n)
            det_h1 += decide(energy_statistic(y1[: plan.n]), lam1).verdict is Verdict.PRESENT_H1
            det_h0 += decide(energy_statistic(y0[: plan.n]), lam0).verdict is Verdict.PRESENT_H1
        sigma_total += chunk_sum
    completed = plan.n_trials - failed
    return PointResult(
        h1_detections=det_h1,
        h0_detections=det_h0,
        mean_sigma_hat2=sigma_total / (2.0 * completed) if dynamic else None,
        failed_trials=failed,
        n_effective=completed,
    )


def _assert_equals_reference(mode, l, **overrides):
    # 1: one trial; 7, 8, 9 and block - 1, block, block + 1: around one
    # block; 37: a ragged last block; 130: two chunks
    dynamic = mode is ThresholdMode.DYNAMIC
    block = harness._block_trials(16 * l * (l if dynamic else 1),
                                  np.complex128 if dynamic else np.float64)
    for n_trials in sorted({1, 7, 8, 9, block - 1, block, block + 1, 37, 130}):
        plan = _static_plan(
            n_trials=n_trials, n=16 * l, l=l, mode=mode, mismatch_db=3.0,
            sigma_s2=10.0 ** (-0.2), master_seed=2024 + n_trials,
        )
        plan = replace(plan, **overrides)
        assert run_point(plan) == _reference_point(plan), n_trials


@pytest.mark.parametrize("l", [6, 8, 16])
@pytest.mark.parametrize("mode", [ThresholdMode.STATIC, ThresholdMode.DYNAMIC])
def test_run_point_equals_single_frame_reference(mode, l):
    _assert_equals_reference(mode, l)


@pytest.mark.parametrize(
    "overrides",
    [{"samples_per_symbol": 3}, {"sigma_s2": 0.0}],
    ids=["sps_3_not_dividing_n", "no_signal"],
)
@pytest.mark.parametrize("mode", [ThresholdMode.STATIC, ThresholdMode.DYNAMIC])
def test_run_point_equals_single_frame_reference_for_other_signals(mode, overrides):
    _assert_equals_reference(mode, 8, **overrides)


@pytest.mark.parametrize("mismatch_db", [0.0, 3.0])
@pytest.mark.parametrize("sigma_s2", [0.0, 0.4])
def test_synthesize_pair_equals_reference(sigma_s2, mismatch_db):
    for sps in (None, 1, 3):
        plan = _static_plan(n_trials=5, n=40, l=8, sigma_s2=sigma_s2, mismatch_db=mismatch_db,
                            samples_per_symbol=sps, master_seed=2**70 + 1)
        for trial in (0, 4, 2**32 - 1):
            got, want = synthesize_pair(plan, trial), reference_pair(plan, trial)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    master_seed=st.integers(0, 2**80),
    n=st.integers(8, 60),
    sps=st.integers(1, 9),
    sigma_s2=st.sampled_from([0.0, 0.3, 1.5]),
    mismatch_db=st.sampled_from([0.0, 3.0]),
)
def test_static_streams_are_real_prefixes_of_full_streams(master_seed, n, sps, sigma_s2,
                                                          mismatch_db):
    plan = _static_plan(n_trials=9, n=n, l=4, sigma_s2=sigma_s2, mismatch_db=mismatch_db,
                        samples_per_symbol=sps, master_seed=master_seed)
    short = np.empty((9, 2, n))
    states = harness._seeded_states(plan.master_seed, 0, 9)
    sigma = harness._synthesize(plan, states, short)
    for trial in range(9):
        y1, y0, sigma_true = synthesize_pair(plan, trial)
        np.testing.assert_array_equal(short[trial, 0], y1[:n].real)
        np.testing.assert_array_equal(short[trial, 1], y0[:n].real)
        assert sigma[trial] == sigma_true


@pytest.mark.parametrize(
    "overrides",
    [{}, {"samples_per_symbol": 3}, {"sigma_s2": 0.0}],
    ids=["sps_dividing_n", "sps_3_not_dividing_n", "no_signal"],
)
@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["static", "dynamic"])
def test_synthesize_overwrites_a_stale_workspace(dtype, overrides):
    # A chunk writes every block into one workspace, and its last block into
    # a leading slice of it: nothing an earlier block left may show through.
    plan = _static_plan(n_trials=harness._BLOCK + 5, n=40, l=8, mismatch_db=3.0, **overrides)
    n_samples = plan.n if dtype is np.float64 else plan.l * plan.n
    states = harness._seeded_states(plan.master_seed, harness._BLOCK, plan.n_trials)
    stale = np.full((harness._BLOCK, 2, n_samples), np.nan, dtype)
    fresh = np.zeros((len(states), 2, n_samples), dtype)
    sigma = harness._synthesize(plan, states, stale[: len(states)])
    assert sigma == harness._synthesize(plan, states, fresh)
    assert not np.isnan(stale[: len(states)]).any()
    assert stale[: len(states)].tobytes() == fresh.tobytes()


def _record_stacks(monkeypatch, barrier=None) -> dict[int, list[int]]:
    """Make ``harness._synthesize`` record, per thread, the address of each
    stack it fills, and then, given a ``barrier``, wait at it."""
    addresses: dict[int, list[int]] = {}
    synthesize = harness._synthesize

    def recording(plan, states, out):
        sigma = synthesize(plan, states, out)
        addresses.setdefault(threading.get_ident(), []).append(
            out.__array_interface__["data"][0])
        if barrier is not None:
            barrier.wait()
        return sigma

    monkeypatch.setattr(harness, "_synthesize", recording)
    return addresses


def test_a_thread_keeps_its_stream_workspace_between_calls(monkeypatch):
    # The array held between the calls takes the memory that a workspace
    # freed after the first call would hand back.
    addresses = _record_stacks(monkeypatch)
    plan = _static_plan(n_trials=harness._BLOCK, mode=ThresholdMode.DYNAMIC)
    run_point(plan)
    held = np.empty((harness._BLOCK, 2, plan.l * plan.n), np.complex128)
    run_point(plan)
    [(first, second)] = addresses.values()
    assert first == second
    assert held.size  # held until the second call has run


def test_threads_get_their_own_stream_workspaces(monkeypatch):
    # Both threads hold their workspace at the barrier at once.
    addresses = _record_stacks(monkeypatch, threading.Barrier(2, timeout=60))
    plan = _static_plan(n_trials=harness._BLOCK, mode=ThresholdMode.DYNAMIC)
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        list(pool.map(run_point, [plan, plan], timeout=120))
    [(first,), (second,)] = addresses.values()
    assert first != second


def test_threads_running_dynamic_plans_at_once_get_their_sequential_results(monkeypatch):
    # After each block a thread waits until the others have synthesized
    # theirs: in a buffer they shared, all but one would then measure another
    # plan's streams.  More threads than most runners have cores, switching often.
    plans = [_static_plan(n_trials=2 * harness._BLOCK + 5, n=64, mismatch_db=3.0,
                          mode=ThresholdMode.DYNAMIC, master_seed=seed) for seed in range(4)]
    sequential = [run_point(plan) for plan in plans]
    _record_stacks(monkeypatch, threading.Barrier(len(plans), timeout=60))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(plans)) as pool:
            assert list(pool.map(run_point, plans, timeout=120)) == sequential
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(("mode", "l", "n", "rows"), [
    (ThresholdMode.STATIC, 8, 128, 128), (ThresholdMode.STATIC, 8, 1024, 64),
    (ThresholdMode.STATIC, 8, 2048, 32), (ThresholdMode.DYNAMIC, 6, 32, 128),
    (ThresholdMode.DYNAMIC, 8, 128, 32), (ThresholdMode.DYNAMIC, 8, 2048, 32)],
    ids=["static-128", "static-1024", "static-2048", "complex-192", "complex-1024",
         "complex-16384"])
def test_a_chunk_asks_for_a_bounded_workspace(mode, l, n, rows, monkeypatch):
    # A block holds as many trials as fill 1 MiB with their streams, at least
    # 32 and at most a chunk: a static chunk at n=128 is one block, and a
    # dynamic point at L=8, N=128 keeps its 32-trial stack of 1 MiB.
    requests = []
    workspace = harness._workspace

    def recording(shape, dtype):
        requests.append((shape, dtype))
        return workspace(shape, dtype)

    monkeypatch.setattr(harness, "_workspace", recording)
    plan = _static_plan(n_trials=harness._CHUNK, n=n, l=l, mode=mode)
    harness._run_chunk(plan, [harness._receiver(plan)], 0)
    dynamic = mode is ThresholdMode.DYNAMIC
    n_samples, itemsize = (l * n, 16) if dynamic else (n, 8)
    [(shape, dtype)] = requests
    assert shape == (rows, 2, n_samples)
    assert dtype is (np.complex128 if dynamic else np.float64)
    assert rows == harness._block_trials(n_samples, dtype)
    assert rows * 2 * n_samples * itemsize <= max(2**20, 32 * 2 * n_samples * itemsize)


def test_a_thread_runs_each_plan_as_it_runs_alone():
    # One thread runs three plans, and after each fills its workspace with
    # all-ones bytes, NaN as a float: a stream that a block left unwritten
    # would carry it into the next plan.  The dynamic plan's larger stack of
    # another dtype grows the workspace, and the static plan then runs on
    # its prefix.
    static = _static_plan(n_trials=harness._BLOCK + 5, n=40, mismatch_db=3.0)
    dynamic = replace(static, n=72, mode=ThresholdMode.DYNAMIC)

    def run_then_poison(plan):
        result = run_point(plan)
        harness._THREAD.buffer.fill(0xFF)
        return result

    def alone(plan):  # on a fresh thread, with a fresh workspace
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            return pool.submit(run_point, plan).result(timeout=120)

    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        in_turn = list(pool.map(run_then_poison, [static, dynamic, static], timeout=120))
    assert in_turn == [alone(static), alone(dynamic), alone(static)]


def test_sweep_snr_produces_both_modes():
    plan = _static_plan(n_trials=200, n=64)
    curves = sweep_snr(plan, [-4.0, 0.0], workers=1)
    assert set(curves) == {ThresholdMode.STATIC, ThresholdMode.DYNAMIC}
    for result in curves.values():
        assert result.values == (-4.0, 0.0)
        assert len(result.points) == 2


def test_sweep_snr_pd_increases():
    plan = _static_plan(n_trials=400)
    curves = sweep_snr(plan, [-10.0, -2.0, 3.0], modes=(ThresholdMode.STATIC,))
    pds = [pt.pd for pt in curves[ThresholdMode.STATIC].points]
    assert pds[0] < pds[1] <= pds[2]
    assert pds[2] > 0.99


def test_sweep_pfa_tracks_targets():
    plan = _static_plan(n_trials=2000, sigma_s2=0.0)
    curves = sweep_pfa(plan, [0.05, 0.2], modes=(ThresholdMode.STATIC,))
    points = curves[ThresholdMode.STATIC].points
    assert abs(points[0].pfa - 0.05) < 0.02
    assert abs(points[1].pfa - 0.2) < 0.03
    assert points[0].pfa < points[1].pfa


def test_sweep_factor_orders_pd_exactly_under_pairing():
    plan = _static_plan(n_trials=300)
    curves = sweep_threshold_factor(plan, [1.0, 1.5, 2.0, 2.5], [-6.0, -2.0, 0.0])
    for idx in range(3):
        pds = [curves[f].points[idx].pd for f in (1.0, 1.5, 2.0, 2.5)]
        # same streams, rising thresholds: detection can only shrink
        assert pds[0] >= pds[1] >= pds[2] >= pds[3]


def test_factor_scales_the_plans_nominal_noise_power():
    # A factor once replaced sigma_nominal2, so factor 1 ignored the plan's
    # nominal and a sweep-factor run ignored --nominal.
    plan = _static_plan(n_trials=300)
    grid = [-4.0, 0.0]
    doubled = sweep_threshold_factor(replace(plan, sigma_nominal2=2.0), [1.0], grid)
    assert doubled[1.0] == sweep_threshold_factor(plan, [2.0], grid)[2.0]
    assert doubled[1.0] == sweep_snr(replace(plan, sigma_nominal2=2.0), grid,
                                     modes=(ThresholdMode.STATIC,))[ThresholdMode.STATIC]


def test_sweep_snr_rejects_an_snr_whose_signal_power_overflows():
    plan = _static_plan(n_trials=10)
    with pytest.raises(ValueError, match="4000.0 dB"):
        sweep_snr(plan, [0.0, 4000.0])
    with pytest.raises(ValueError, match="sigma_w2_true: too large"):
        sweep_snr(replace(plan, sigma_w2_true=1e307), [20.0], modes=(ThresholdMode.STATIC,))


def _quick_static_points() -> list[tuple[TrialPlan, PointResult]]:
    """Each static point of the default ``--quick`` sweep-snr, sweep-pfa and
    sweep-factor, with the plan it ran, from the plan the CLI builds."""
    o, _ = cli._merge_options(cli._build_parser().parse_args(["sweep-snr", "--quick"]))
    plan, snrs = cli._build_plan(o), cli._snr_grid(o)
    static = ThresholdMode.STATIC

    def at(snr, **fields):
        return replace(plan, mode=static, sigma_s2=power_at_db(plan.sigma_w2_true, snr), **fields)

    pairs = list(zip([at(snr) for snr in snrs],
                     sweep_snr(plan, snrs, modes=(static,))[static].points))
    pfas = cli._pfa_grid(o)
    pairs += zip([replace(plan, mode=static, target_pfa=pfa) for pfa in pfas],
                 sweep_pfa(plan, pfas, modes=(static,))[static].points)
    for factor, curve in sweep_threshold_factor(plan, cli._FACTOR_LADDER, snrs).items():
        pairs += zip([at(snr, sigma_nominal2=plan.sigma_nominal2 * factor) for snr in snrs],
                     curve.points)
    return pairs


def test_quick_sweeps_static_points_match_exact_theory():
    # Every static rate is an exact chi-square tail averaged over the noise
    # wander, so each count must pass a two-sided binomial test against it.
    # Bonferroni over the Pd and Pfa of all 62 points, fixed before the run.
    alpha = 0.01 / 124
    pairs = _quick_static_points()
    assert len(pairs) == 62 and all(point.n_effective == 1000 for _, point in pairs)
    misses = []
    for plan, point in pairs:
        pd, pfa = theory_static(plan)
        for name, count, theory in (("pd", point.h1_detections, pd),
                                    ("pfa", point.h0_detections, pfa)):
            p_value = binomtest(count, point.n_effective, theory).pvalue
            if p_value < alpha:
                misses.append((plan, name, count, theory, p_value))
    assert misses == []


_ACCEPTANCE_SEED = 20260825  # the master seed of tests/test_acceptance.py


def _acceptance_static_plans() -> list[TrialPlan]:
    """The static plans of criteria 8 and 9, as the acceptance suite builds them:
    criterion 8's 44 factor plans, then per target criterion 9's 7 reach plans
    and its Pfa plan."""
    common = dict(n_trials=1000, mode=ThresholdMode.STATIC, master_seed=_ACCEPTANCE_SEED)
    plans = [TrialPlan(sigma_nominal2=factor, sigma_s2=10.0 ** (snr / 10.0), target_pfa=0.1,
                       mismatch_db=0.0, **common)
             for factor in (1.0, 1.5, 2.0, 2.5) for snr in range(-10, 11, 2)]
    for target in (0.1, 0.2):
        plans += [TrialPlan(target_pfa=target, sigma_w2_true=10.0 ** (-0.3), sigma_nominal2=1.0,
                            sigma_s2=10.0 ** (-0.3) * 10.0 ** (snr / 10.0), mismatch_db=3.0,
                            **common)
                  for snr in range(-6, 7, 2)]
        plans.append(TrialPlan(target_pfa=target, sigma_s2=0.0, sigma_w2_true=10.0 ** 0.3,
                               sigma_nominal2=1.0, mismatch_db=3.0, **common))
    return plans


def test_acceptance_static_points_match_exact_theory():
    # Criteria 8 and 9 compare static curves with each other; here each of
    # their points also passes a two-sided binomial test against exact
    # theory.  Bonferroni over the Pd and Pfa of all 60 plans, fixed before
    # the run.
    plans = _acceptance_static_plans()
    assert len(plans) == 60
    alpha = 0.01 / (2 * len(plans))
    misses = []
    for plan in plans:
        point = run_point(plan)
        for name, count, theory in zip(("pd", "pfa"), (point.h1_detections, point.h0_detections),
                                       theory_static(plan)):
            p_value = binomtest(count, point.n_effective, theory).pvalue
            if p_value < alpha:
                misses.append((plan, name, count, theory, p_value))
    assert misses == []


@pytest.mark.parametrize(
    ("sps", "snr_db", "low_rank"),
    [(8, -6.0, True), (8, -3.0, True), (2, 0.0, False), (1, 5.0, False)],
    ids=["sps8-minus6dB", "sps8-minus3dB", "sps2-0dB", "sps1-plus5dB"],
)
def test_blind_threshold_needs_a_low_rank_signal(sps, snr_db, low_rank):
    # The blind estimate takes the signal out of the noise eigenvalues only
    # when each snapshot holds few symbols (sps = L: rank 1).  A white
    # signal adds to every eigenvalue, the estimate counts it as noise, and
    # the dynamic threshold rises with it.  Against a receiver that knows
    # each trial's noise power, dynamic Pd is not below the oracle's at
    # sps = L, and far below it at sps 2 and 1; Pfa holds at every point,
    # since H0 frames hold no signal.  alpha is fixed before the run.
    alpha = 0.01
    plan = TrialPlan(n_trials=2048, n=128, l=8, target_pfa=0.1, mode=ThresholdMode.DYNAMIC,
                     sigma_s2=power_at_db(1.0, snr_db), mismatch_db=3.0, master_seed=7,
                     samples_per_symbol=sps)
    point = run_point(plan)
    pd, pfa = theory_oracle(plan)
    trials = point.n_effective
    below = binomtest(point.h1_detections, trials, pd, alternative="less").pvalue
    assert (below >= alpha) if low_rank else (below < alpha), (point.pd, pd, below)
    assert binomtest(point.h0_detections, trials, pfa).pvalue >= alpha, (point.pfa, pfa)


def test_a_missed_signal_masks_itself():
    # Where MDL finds no signal (k_hat = 0), the fit counts the signal as
    # noise and the threshold rises with it: H1 detections among those
    # trials fall below the target false-alarm rate.  One-sided exact
    # binomial test, alpha fixed before the run.
    alpha = 1e-3
    plan = TrialPlan(n_trials=4000, n=128, l=8, target_pfa=0.1, mode=ThresholdMode.DYNAMIC,
                     sigma_s2=power_at_db(1.0, -9.0), mismatch_db=0.0, master_seed=7,
                     samples_per_symbol=8)
    missed = detected = 0
    for trial in range(plan.n_trials):
        y1, _, _ = synthesize_pair(plan, trial)
        estimate = estimate_noise(frame(y1, plan.l, plan.n), plan.m_grid)
        if estimate.k_hat == 0:
            missed += 1
            threshold = dynamic_threshold(estimate.sigma_hat2, plan.target_pfa, plan.n)
            detected += energy_statistic(y1[: plan.n]) > threshold
    p_value = binomtest(detected, missed, plan.target_pfa, alternative="less").pvalue
    assert p_value < alpha, (detected, missed, p_value)


def test_blind_false_alarm_rate_is_a_beta_tail():
    # The statistic's N samples lie inside the L*N-sample frame the noise is
    # estimated from, so dynamic Pfa is a Beta tail (oracles.theory_dynamic_h0),
    # not the known-noise chi-square tail.  Each of the 8 counts must pass a
    # two-sided exact binomial test; Bonferroni alpha, fixed before the run.
    alpha = 0.01 / 8
    misses = []
    for l, n in ((4, 64), (8, 32), (8, 128), (16, 64)):
        for target in (0.01, 0.1):
            plan = TrialPlan(n_trials=4096, n=n, l=l, target_pfa=target,
                             mode=ThresholdMode.DYNAMIC, sigma_s2=0.0, mismatch_db=3.0,
                             master_seed=11)
            point = run_point(plan, workers=2)
            count, theory = point.h0_detections, theory_dynamic_h0(plan)
            p_value = binomtest(count, point.n_effective, theory).pvalue
            if p_value < alpha:
                misses.append((l, n, target, count, point.n_effective, theory, p_value))
            if (l, n, target) == (4, 64, 0.1):  # the chi-square tail, 0.105, misses it
                contrast = binomtest(count, point.n_effective, theory_oracle(plan)[1]).pvalue
    assert misses == []
    assert contrast < alpha


def test_a_dynamic_plan_runs_whatever_its_static_threshold():
    # Only a STATIC plan needs a finite static threshold; work units once
    # grouped plans by their STATIC twin, which that rule would refuse.
    dynamic = _static_plan(n_trials=16, sigma_nominal2=1e307, mode=ThresholdMode.DYNAMIC)
    assert run_point(dynamic) == run_point(replace(dynamic, sigma_nominal2=1.0))


def _scaled(plan: TrialPlan, k: int) -> TrialPlan:
    """``plan`` with its noise, nominal and signal powers scaled by 4^k."""
    scale = 4.0**k
    return replace(plan, sigma_w2_true=plan.sigma_w2_true * scale,
                   sigma_nominal2=plan.sigma_nominal2 * scale, sigma_s2=plan.sigma_s2 * scale)


@functools.lru_cache(maxsize=None)
def _unit_point(l: int, n: int, mode: ThresholdMode) -> tuple[TrialPlan, PointResult, range]:
    """A unit-scale plan, its result and the k whose 4^k scaling the plan rules allow."""
    plan = _static_plan(n_trials=100, n=n, l=l, mode=mode, sigma_s2=power_at_db(1.0, -3.0),
                        mismatch_db=3.0)

    def allowed(k):
        try:
            _scaled(plan, k)
        except harness.PlanError:
            return False
        return True

    ks = [k for k in range(-511, 512) if allowed(k)]  # 4^+-511: 2^+-1022, still normal
    assert ks == list(range(ks[0], ks[-1] + 1))
    return plan, run_point(plan), range(ks[0], ks[-1] + 1)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(shape=st.sampled_from([(8, 128), (8, 12)]), mode=st.sampled_from(list(ThresholdMode)),
       k=st.integers(-520, 520))
@example(shape=(8, 128), mode=ThresholdMode.DYNAMIC, k=-500)
def test_run_point_is_scale_equivariant(shape, mode, k):
    # Scaling every power by 4^k, exactly, must leave every decision and
    # failure as it was and scale the mean noise estimate, across the whole
    # range the plan rules allow; a k beyond it is clamped, so both ends are
    # drawn often.  The square-ish 8 x 12 frame has the smallest
    # eigenvalues.  Below 1e-300 the MDL split once floored them and moved
    # Pd, and near the top of the range a trial's sums overflowed.
    plan, unit, ks = _unit_point(*shape, mode)
    k = min(max(k, ks.start), ks.stop - 1)
    got = run_point(_scaled(plan, k))
    assert (got.pd, got.pfa, got.failed_trials) == (unit.pd, unit.pfa, unit.failed_trials)
    if mode is ThresholdMode.DYNAMIC:
        want = unit.mean_sigma_hat2 * 4.0**k
        assert abs(got.mean_sigma_hat2 - want) <= 4 * math.ulp(want)  # LAPACK's own scaling


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize(("l", "n"), [(8, 128), (8, 32), (4, 64)])
def test_blind_detector_is_cfar_chunk_by_chunk(l, n, seed):
    # A trial's noise draws do not depend on the wander and the blind
    # estimate is scale-equivariant, so a dynamic H0 decision does not
    # depend on the noise power: an identity, not a rate within a CI.
    h0_counts = {}
    for db in (0.0, 3.0, 10.0):
        plan = _static_plan(n_trials=1024, n=n, l=l, mode=ThresholdMode.DYNAMIC,
                            mismatch_db=db, master_seed=seed)
        receivers = [harness._receiver(plan)]
        tallies = [harness._run_chunk(plan, receivers, start)[0]
                   for start in range(0, plan.n_trials, harness._CHUNK)]
        assert [failed for _, _, failed, _ in tallies] == [0] * len(tallies), db
        h0_counts[db] = [h0 for _, h0, _, _ in tallies]
    assert h0_counts[3.0] == h0_counts[0.0] and h0_counts[10.0] == h0_counts[0.0]


def test_sweep_derives_each_chunks_states_once(monkeypatch):
    # Every plan of a factor sweep reads the same (master_seed, trial, role)
    # substreams, so each chunk's generator states are derived once for all
    # twelve plans, not once per plan.
    real = harness._column_states
    calls = []

    def counting(master_seed, trials, roles):
        calls.append(len(trials))
        return real(master_seed, trials, roles)

    monkeypatch.setattr(harness, "_column_states", counting)
    factors, snrs = [1.0, 1.5, 2.0, 2.5], [-6.0, -2.0, 0.0]
    for n_trials, chunks in ((harness._CHUNK, 1), (300, 3)):
        plan = _static_plan(n_trials=n_trials)
        harness._seeded_states.cache_clear()
        calls.clear()
        curves = sweep_threshold_factor(plan, factors, snrs)
        assert len(calls) == chunks, n_trials
        assert not harness._seeded_states(plan.master_seed, 0, 1).flags.writeable
        for factor, curve in curves.items():
            assert list(curve.points) == [
                run_point(replace(plan, sigma_nominal2=factor,
                                  sigma_s2=harness._snr_to_sigma_s2(plan, snr)))
                for snr in snrs
            ]
    for workers in (2, 3):  # the 300-trial sweep, its chunks spread over a pool
        assert sweep_threshold_factor(plan, factors, snrs, workers=workers) == curves


def test_plans_of_one_seed_share_each_chunks_states_whatever_they_draw(monkeypatch):
    # Every trial derives its signal, noise and wander states, whether or not
    # its plan reads them: a plan with no signal, one with no wander and one
    # with both are three groups, and they read the same states of each chunk.
    real = harness._column_states
    calls = []

    def counting(master_seed, trials, roles):
        calls.append(len(trials))
        return real(master_seed, trials, roles)

    plans = [_static_plan(n_trials=300, sigma_s2=0.0), _static_plan(n_trials=300),
             _static_plan(n_trials=300, mismatch_db=3.0)]
    monkeypatch.setattr(harness, "_column_states", counting)
    harness._seeded_states.cache_clear()
    points, failure = harness._run_points(plans, 1)
    assert calls == [3 * 128, 3 * 128, 3 * 44] and failure is None
    monkeypatch.undo()
    assert points == [run_point(plan) for plan in plans]
    for trial in (0, 1, 299):  # the signal's absence leaves the noise draws as they were
        no_signal, signal = (synthesize_pair(plan, trial) for plan in plans[:2])
        np.testing.assert_array_equal(no_signal[1], signal[1])
        np.testing.assert_array_equal(no_signal[0], no_signal[1])


def test_sweep_pfa_synthesizes_each_block_once_for_all_targets(monkeypatch):
    # Plans that differ only in mode and target_pfa share their work units,
    # so a both-modes sweep over three targets synthesizes (and estimates)
    # each block once, not once per target.
    real = harness._synthesize
    blocks = []

    def counting(plan, states, out):
        blocks.append(len(states))
        return real(plan, states, out)

    monkeypatch.setattr(harness, "_synthesize", counting)
    plan = _static_plan(n_trials=harness._CHUNK + harness._BLOCK + 1, n=32, l=6,
                        mismatch_db=3.0)
    targets = [0.05, 0.1, 0.2]
    curves = sweep_pfa(plan, targets)
    # Both modes: each block holds the complex streams the estimate reads.
    assert blocks == _block_layout(plan.n_trials,
                                   harness._block_trials(plan.l * plan.n, np.complex128))
    for mode, curve in curves.items():
        assert list(curve.points) == [run_point(replace(plan, mode=mode, target_pfa=target))
                                      for target in targets]


def test_import_leaves_the_pool_module_unloaded():
    # Only a call that starts a process pool imports concurrent.futures, only
    # a call that sets a threshold imports statistics, and only a call that
    # seeds or draws imports numpy.random, where numpy itself loads it lazily.
    code = ("import sys, numpy; print('numpy.random' in sys.modules); import specsense; "
            "print('concurrent.futures' in sys.modules, 'statistics' in sys.modules, "
            "'numpy.random' in sys.modules)")
    source = Path(specsense.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(source), "PYTHONDONTWRITEBYTECODE": "1"},
                          timeout=120, check=True)
    numpy_loads_random, after_import = done.stdout.split("\n", 1)
    assert after_import.strip() == f"False False {numpy_loads_random}"


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every process pool built while the test runs."""
    sizes = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return sizes


def test_sweep_runs_every_point_on_one_pool(pool_sizes):
    plan = _static_plan(n_trials=200, n=64)
    # 2 SNRs x 2 chunks: 4 units, each running both modes of its point
    curves = sweep_snr(plan, [-4.0, 0.0], workers=2)
    assert pool_sizes == [2]
    assert curves == sweep_snr(plan, [-4.0, 0.0], workers=1)
    assert pool_sizes == [2]  # one worker runs in-process


def test_pool_has_no_more_processes_than_chunks(pool_sizes):
    plan = _static_plan(n_trials=harness._CHUNK, n=64)
    assert run_point(plan, workers=2) == run_point(plan)
    assert pool_sizes == []  # one chunk runs in-process
    curves = sweep_snr(plan, [0.0], workers=2)
    assert pool_sizes == []  # both modes of one point share its one chunk
    assert curves == sweep_snr(plan, [0.0])
    curves = sweep_snr(plan, [-4.0, 0.0, 4.0], modes=(ThresholdMode.STATIC,), workers=8)
    assert pool_sizes == [3]
    assert curves == sweep_snr(plan, [-4.0, 0.0, 4.0], modes=(ThresholdMode.STATIC,))
    factors = sweep_threshold_factor(plan, [1.0, 2.0], [0.0], workers=8)
    assert pool_sizes == [3, 2]  # one unit per factor: their thresholds differ
    assert factors == sweep_threshold_factor(plan, [1.0, 2.0], [0.0])


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_trials", [1, harness._BLOCK + 1, harness._CHUNK + 1])
def test_both_mode_sweeps_equal_single_mode_sweeps(n_trials, workers):
    # A both-modes sweep runs each point's static and dynamic plans on one
    # synthesis of its trials; each curve must be what its mode gives alone.
    plan = _static_plan(n_trials=n_trials, n=32, l=6, mismatch_db=3.0, samples_per_symbol=3)
    for sweep, grid, swept in ((sweep_snr, [-3.0, 1.0], plan),
                               (sweep_pfa, [0.05, 0.2], replace(plan, sigma_s2=0.0))):
        both = sweep(swept, grid, workers=workers)
        assert list(both) == [ThresholdMode.STATIC, ThresholdMode.DYNAMIC]
        for mode, curve in both.items():
            assert curve == sweep(swept, grid, modes=(mode,), workers=workers)[mode]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_raises_for_its_first_failing_point(workers):
    # l=3 at 2 samples per symbol: the signal fills all but one eigenvalue,
    # so estimation fails in most high-SNR trials; -20 dB stays clear
    plan = _static_plan(mode=ThresholdMode.DYNAMIC, n_trials=200, n=32, l=3,
                        samples_per_symbol=2, sigma_s2=0.01)
    clear = run_point(plan)
    assert clear.failed_trials <= 2
    with pytest.raises(RuntimeError) as second:
        run_point(replace(plan, sigma_s2=100.0))
    with pytest.raises(RuntimeError) as third:
        run_point(replace(plan, sigma_s2=1.0))
    assert str(second.value) != str(third.value)
    assert str(second.value) == "noise estimation failed in 200/200 trials"
    # Beside the static curve, whose plans never fail, the same dynamic point raises.
    for modes in ((ThresholdMode.DYNAMIC,), (ThresholdMode.STATIC, ThresholdMode.DYNAMIC)):
        with pytest.raises(harness.FailureGuardError) as swept:
            sweep_snr(plan, [-20.0, 20.0, 0.0], modes=modes, workers=workers)
        assert str(swept.value) == str(second.value), modes
        # The error keeps the points that finished: -20 dB and every static one.
        assert swept.value.points[-3:] == (clear, None, None)
        assert swept.value.curves[ThresholdMode.DYNAMIC].values == (-20.0,)
        if ThresholdMode.STATIC in modes:
            assert swept.value.curves[ThresholdMode.STATIC] == sweep_snr(
                plan, [-20.0, 20.0, 0.0], modes=(ThresholdMode.STATIC,))[ThresholdMode.STATIC]


def test_results_round_trip_through_pickle_deepcopy_and_replace():
    point = run_point(_static_plan(n_trials=50, n=64, mode=ThresholdMode.DYNAMIC))
    result = SweepResult((-2.0,), (point,))
    for value in (point, result):
        assert not hasattr(value, "__dict__")  # slots: a kept result holds no dict
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
    changed = replace(point, failed_trials=point.failed_trials + 3)
    assert changed.failed_trials == point.failed_trials + 3
    assert replace(changed, failed_trials=point.failed_trials) == point
    assert replace(result, values=(1.0,)) == SweepResult((1.0,), (point,))


@pytest.mark.parametrize("kind, name", [
    ("point", "h1_detections"), ("point", "pd"), ("point", "extra"),  # field, property, unknown
    ("sweep", "points"), ("sweep", "extra"),
])
def test_every_assignment_to_a_result_raises_frozen_instance_error(kind, name):
    point = PointResult(1, 2, None, 0, 10)
    value = point if kind == "point" else SweepResult((-2.0,), (point,))
    before = replace(value)
    with pytest.raises(FrozenInstanceError, match=repr(name)):
        setattr(value, name, 0.5)
    with pytest.raises(FrozenInstanceError, match=repr(name)):
        delattr(value, name)
    assert value == before


def test_write_results_csv_layout(tmp_path):
    result = SweepResult(
        values=(-2.0,),
        points=(
            PointResult(
                h1_detections=4,
                h0_detections=1,
                mean_sigma_hat2=None,
                failed_trials=0,
                n_effective=8,
            ),
        ),
    )
    path = tmp_path / "layout.csv"
    write_results(result, str(path))
    text = path.read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "sweep_value,pd,pfa,pd_ci,pfa_ci,mean_sigma_hat2,failed_trials"
    # 4 and 1 of 8: pd 0.5 and pfa 0.125, with the half-widths 2.576 * sqrt(p (1 - p) / 8)
    assert lines[1] == "-2.0,0.5,0.125,0.45537676708413666,0.3012034196353023,,0"
    assert lines[1].split(",")[3:5] == [repr(2.576 * math.sqrt(0.5 * 0.5 / 8)),
                                        repr(2.576 * math.sqrt(0.125 * 0.875 / 8))]
    assert text.endswith("\n")
    assert "\r" not in text


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(1, 2**32).flatmap(lambda n: st.tuples(st.integers(0, n), st.integers(0, n),
                                                      st.just(n))),
    st.none() | st.floats(min_value=2.0**-1001, max_value=1e300),
    st.integers(0, 2**32),
)
@example((0, 0, 1), None, 0)
@example((1, 1, 1), 1.0, 0)
@example((2**32, 0, 2**32), None, 2**32)
@example((3, 2**31, 2**32), 0.5, 7)
def test_rates_and_half_widths_derive_from_the_counts(tmp_path, counts, mean, failed):
    h1, h0, n = counts
    point = PointResult(h1_detections=h1, h0_detections=h0, mean_sigma_hat2=mean,
                        failed_trials=failed, n_effective=n)
    pd, pfa = h1 / n, h0 / n
    expected = (pd, pfa, 2.576 * math.sqrt(pd * (1.0 - pd) / n),
                2.576 * math.sqrt(pfa * (1.0 - pfa) / n))
    derived = (point.pd, point.pfa, point.pd_ci, point.pfa_ci)
    assert [repr(v) for v in derived] == [repr(v) for v in expected]
    path = tmp_path / "row.csv"
    write_results(SweepResult((-2.0,), (point,)), str(path))
    row = path.read_text(encoding="utf-8").split("\n")[1]
    assert row == ",".join(["-2.0", *map(repr, expected), "" if mean is None else repr(mean),
                            str(failed)])


def test_write_results_floats_round_trip(tmp_path):
    plan = _static_plan(n_trials=300, n=64, mode=ThresholdMode.DYNAMIC)
    curves = sweep_snr(plan, [-3.0], modes=(ThresholdMode.DYNAMIC,))
    path = tmp_path / "round-trip.csv"
    write_results(curves[ThresholdMode.DYNAMIC], str(path))
    header, row = path.read_text(encoding="utf-8").strip().split("\n")
    fields = row.split(",")
    point = curves[ThresholdMode.DYNAMIC].points[0]
    assert float(fields[1]) == point.pd
    assert float(fields[5]) == point.mean_sigma_hat2
    assert int(fields[6]) == point.failed_trials


def test_write_results_to_file_and_worker_independence(tmp_path):
    plan = _static_plan(
        mode=ThresholdMode.DYNAMIC, n=64, n_trials=320, sigma_s2=0.25
    )
    paths = []
    for workers in (1, 2):
        curves = sweep_snr(plan, [-2.0, 1.0], modes=(ThresholdMode.DYNAMIC,),
                           workers=workers)
        path = tmp_path / f"w{workers}.csv"
        write_results(curves[ThresholdMode.DYNAMIC], str(path))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]

"""Monte Carlo harness: paired-hypothesis trials, sweeps, CSV output.

Every trial derives its own signal/noise/mismatch substreams from a single
master seed, so results are bit-for-bit reproducible for any worker count
and any subset of sweep points.  Detection counts are integers and the
per-chunk diagnostics are reduced in fixed chunk order, which keeps CSV
output byte-identical across reruns.

Trials run in chunks of ``_CHUNK`` and, inside a chunk, in blocks of
``_BLOCK``.  The unit of work a worker process takes is one chunk of a
group of plans that differ only in ``mode``, such as the static and the
dynamic plan of one point of a both-modes sweep: the group shares the
chunk's trials.  A sweep hands all its units to one process pool, chunk by
chunk: every group's unit for chunk 0, then every group's unit for chunk
1, and so on.  The generator states of a chunk's substreams depend only on
the master seed, the roles and the chunk, so every plan of a call shares
them: they are derived in one vectorised seed computation and the last
result is kept, which a process's next unit of the same chunk reuses.  A
chunk allocates one stream workspace, a stack of ``2 * _BLOCK`` streams.
A block writes the H1 and H0 streams of its trials into a leading slice
of it, holding only what the group reads: with a DYNAMIC plan ``l * n``
complex samples, with STATIC plans alone the real parts of the first
``n`` samples, as float64 (``n`` normals per noise row), bit for bit the
real parts of the full streams' prefixes.
Synthesis makes no temporary the size of the stack, so blocks do not
hand such memory back to the system and fault it in again.  A block then
runs each pipeline stage once over the stack for all the group's plans:
the energy statistics, then for DYNAMIC plans one stacked blind noise
estimate (covariance, eigenvalues, MDL split, Marchenko-Pastur fit).
Each row of a stacked stage is bit-for-bit the single-frame result, and
the noise estimates are summed trial by trial in trial order, so a
point's result depends neither on the block size nor on the plans beside
it.  A sweep's pool has no more processes than units; with one process
the units run in-process.  A call runs all its units before it reduces
any plan, so a call whose plan trips the failure guard finishes its
other units first and then raises for the first such plan.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import IO, Sequence

import numpy as np

from .detector import (
    SensingDecision,
    ThresholdMode,
    _energies,
    decide,
    dynamic_threshold,
    energy_statistic,
    static_threshold,
)
from .noise_estimator import NoiseEstimate, estimate_noise, estimate_noise_batch
from .signal_model import (
    Hypothesis,
    _fill_awgn,
    _fill_qpsk,
    _pcg64_states,
    _uniforms,
    derive_seed,
    frame,
)

__all__ = [
    "PointResult",
    "SweepResult",
    "TrialPlan",
    "power_at_db",
    "run_point",
    "sense_once",
    "sweep_pfa",
    "sweep_snr",
    "sweep_threshold_factor",
    "synthesize_pair",
    "write_results",
]

_CI_Z = 2.576  # two-sided 99% normal quantile
_CHUNK = 128  # trials per work unit; fixed so reductions never reorder
# Trials per stacked block, written into one workspace per chunk.  A block
# saves per-call overhead.  On a dynamic point at N=128, L=8 (32 streams of
# 1 024 samples, 512 KiB a block), 16-trial blocks on the workspace ran
# about 1.28x faster than 8-trial blocks that allocated their own stacks,
# with peak memory 1% higher; 32-trial blocks took twice the page faults
# per trial and ran no faster.
_BLOCK = 16

# A plan's tally of one chunk: (h1 detections, h0 detections, failed
# trials, sum of noise estimates, completed trials).
_Tally = tuple[int, int, int, float, int]

_ROLE_SIGNAL = 0
_ROLE_NOISE = 1
_ROLE_MISMATCH = 2


@dataclass(frozen=True)
class TrialPlan:
    """Everything one Monte Carlo point needs to be reproducible.

    Attributes:
        n_trials: number of trials.
        n: detector window length; also the snapshot count (columns) of the
            covariance frame, so each trial consumes l*n samples.  At least
            l, and in DYNAMIC mode more than l.
        l: snapshot length (covariance dimension).
        target_pfa: false-alarm probability the threshold is set for.
        mode: STATIC (threshold from sigma_nominal2, fixed) or DYNAMIC
            (threshold from the per-trial blind noise estimate).
        sigma_w2_true: true noise power before any per-trial mismatch.
        sigma_nominal2: noise power the static threshold assumes.
        sigma_s2: primary-user transmit power under H1 (0 disables it).
        hypothesis: which hypothesis single-shot sensing simulates.
        master_seed: root of all per-trial substreams.
        m_grid: grid resolution of the blind noise estimator.
        mismatch_db: half-width of the uniform per-trial wander of the true
            noise power, in dB (0 disables the wander).
        samples_per_symbol: oversampling of the H1 waveform; None means l,
            which keeps each snapshot inside one symbol (rank-1 signal).
    """

    n_trials: int
    n: int = 128
    l: int = 8
    target_pfa: float = 0.1
    mode: ThresholdMode = ThresholdMode.DYNAMIC
    sigma_w2_true: float = 1.0
    sigma_nominal2: float = 1.0
    sigma_s2: float = 1.0
    hypothesis: Hypothesis = Hypothesis.H1
    master_seed: int = 42
    m_grid: int = 100
    mismatch_db: float = 0.0
    samples_per_symbol: int | None = None

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")
        if self.l < 2 or self.n < self.l:
            raise ValueError("need l >= 2 and n >= l")
        if self.mode is ThresholdMode.DYNAMIC and self.n <= self.l:
            raise ValueError("dynamic mode needs n > l: the noise estimate needs "
                             "more snapshots than rows")
        if not 0.0 < self.target_pfa < 1.0:
            raise ValueError("target_pfa must lie strictly between 0 and 1")
        floats = (self.sigma_w2_true, self.sigma_nominal2, self.sigma_s2, self.mismatch_db)
        if not all(math.isfinite(value) for value in floats):
            raise ValueError("noise powers, sigma_s2 and mismatch_db must be finite")
        if self.sigma_w2_true <= 0.0 or self.sigma_nominal2 <= 0.0:
            raise ValueError("noise powers must be positive")
        if self.sigma_s2 < 0.0:
            raise ValueError("sigma_s2 must be non-negative")
        if self.m_grid < 2:
            raise ValueError("m_grid must be at least 2")
        if self.mismatch_db < 0.0:
            raise ValueError("mismatch_db must be non-negative")
        if not math.isfinite(power_at_db(self.sigma_w2_true, self.mismatch_db)):
            raise ValueError("mismatch_db too large: the noise power it can wander to, "
                             "sigma_w2_true * 10^(mismatch_db/10), is not finite")
        if self.samples_per_symbol is not None and self.samples_per_symbol < 1:
            raise ValueError("samples_per_symbol must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")

    @property
    def sps(self) -> int:
        return self.l if self.samples_per_symbol is None else self.samples_per_symbol


@dataclass(frozen=True)
class PointResult:
    """Empirical detection/false-alarm rates for one parameter point."""

    pd: float
    pfa: float
    pd_ci: float
    pfa_ci: float
    mean_sigma_hat2: float | None
    failed_trials: int
    n_effective: int


@dataclass(frozen=True)
class SweepResult:
    """Rows of (sweep value, point result) for one curve."""

    sweep_name: str
    values: tuple[float, ...]
    points: tuple[PointResult, ...]


def synthesize_pair(plan: TrialPlan, trial: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Generate the (H1 stream, H0 stream, true noise power) of one trial.

    Each stream holds ``plan.l * plan.n`` samples.  The H0 stream is the H1
    stream's own noise realization, so comparisons between hypotheses are
    paired sample-for-sample.
    """
    streams = np.empty((1, 2, plan.l * plan.n), np.complex128)
    sigma_true = _synthesize(plan, _trial_states(plan, trial, trial + 1), streams)
    return streams[0, 0], streams[0, 1], sigma_true[0]


def _roles(plan: TrialPlan) -> tuple[int, ...]:
    """The substreams a trial of ``plan`` draws from, in state column order."""
    roles = (_ROLE_SIGNAL,) if plan.sigma_s2 > 0.0 else ()
    roles += (_ROLE_NOISE,)
    if plan.mismatch_db > 0.0:
        roles += (_ROLE_MISMATCH,)
    return roles


def _trial_states(plan: TrialPlan, start: int, stop: int) -> np.ndarray:
    """PCG64 state words of every substream of trials [start, stop).

    Returns a read-only ``(stop - start, len(_roles(plan)), 4)`` array: the
    state ``default_rng(derive_seed(plan.master_seed, trial, role))`` starts
    in, for every (trial, role).  Plans with the same master seed and roles
    share these states, so the last result is kept and handed to the next
    call that asks for the same trials.
    """
    return _seeded_states(plan.master_seed, _roles(plan), start, stop)


@functools.lru_cache(maxsize=1)
def _seeded_states(master_seed: int, roles: tuple[int, ...], start: int,
                   stop: int) -> np.ndarray:
    """:func:`_trial_states` from one array call of ``derive_seed`` and one of
    ``_pcg64_states``."""
    trials, column = np.divmod(np.arange(start * len(roles), stop * len(roles)), len(roles))
    seeds = derive_seed(master_seed, trials, np.array(roles)[column])
    states = _pcg64_states(seeds).reshape(stop - start, len(roles), 4)
    states.flags.writeable = False  # every caller shares this one array
    return states


def _synthesize(plan: TrialPlan, states: np.ndarray, out: np.ndarray) -> list[float]:
    """Write the streams of a block of trials into ``out``; returns each
    trial's true noise power.

    ``states`` holds the block's rows of :func:`_trial_states`, and ``out``
    is a ``(len(states), 2, n_samples)`` stack: ``out[i, 0]`` and
    ``out[i, 1]`` become the first ``n_samples`` samples of the H1 and H0
    streams of the block's trial i, whatever ``out`` held before.  A
    complex128 stack gets full streams, of ``plan.l * plan.n`` samples.  A
    float64 stack gets what static mode reads, the real parts, and draws no
    imaginary parts: bit for bit the real parts of the full stream's prefix.
    """
    roles = _roles(plan)
    column = {role: states[:, c] for c, role in enumerate(roles)}
    sigma_true = [plan.sigma_w2_true] * len(states)
    if plan.mismatch_db > 0.0:
        offsets = _uniforms(column[_ROLE_MISMATCH], plan.mismatch_db)
        sigma_true = [power_at_db(plan.sigma_w2_true, offset) for offset in offsets]
    h1, h0 = out[:, 0], out[:, 1]
    _fill_awgn(column[_ROLE_NOISE], sigma_true, h0)
    if plan.sigma_s2 > 0.0:
        _fill_qpsk(column[_ROLE_SIGNAL], plan.sigma_s2, plan.sps, h1)
        h1 += h0
    else:
        h1[...] = h0
    return sigma_true


def sense_once(plan: TrialPlan) -> tuple[SensingDecision, NoiseEstimate | None]:
    """One sensing decision on trial 0 of ``plan``, as a receiver makes it.

    Synthesizes the trial-0 stream of ``plan.hypothesis``, takes the energy
    statistic of its first ``plan.n`` samples and compares it with the
    static threshold or, in dynamic mode, with the threshold set from a
    blind noise estimate of the stream's first frame.  Returns the decision
    and that estimate (None in static mode).

    Raises:
        EstimationFailure: in dynamic mode, when the frame yields no estimate.
    """
    y1, y0, _ = synthesize_pair(plan, 0)
    stream = y1 if plan.hypothesis is Hypothesis.H1 else y0
    statistic = energy_statistic(stream[: plan.n])
    estimate = None
    if plan.mode is ThresholdMode.DYNAMIC:
        estimate = estimate_noise(frame(stream, plan.l, plan.n), plan.m_grid)
        threshold = dynamic_threshold(estimate.sigma_hat2, plan.target_pfa, plan.n)
    else:
        threshold = static_threshold(plan.sigma_nominal2, plan.target_pfa, plan.n)
    return decide(statistic, threshold), estimate


def _run_chunk(plans: Sequence[TrialPlan], start: int) -> list[_Tally]:
    """Run the chunk of trials from ``start`` for plans that differ only in
    ``mode``, block by block; returns one tally per plan.

    Each block synthesizes its trials once for every plan, at the width
    their readers need, and takes the energy statistics once.  STATIC plans
    compare them with the static threshold; DYNAMIC plans share one stacked
    noise estimate.  A DYNAMIC plan's trial fails, and counts in neither
    rate, when the noise estimate of its H1 or its H0 frame fails.
    """
    plan = plans[0]
    stop = min(start + _CHUNK, plan.n_trials)
    dynamic = [p.mode is ThresholdMode.DYNAMIC for p in plans]
    # dynamic_threshold is linear in the noise power: sigma * this is
    # bit-for-bit dynamic_threshold(sigma, ...).
    thresholds = [
        dynamic_threshold(1.0, p.target_pfa, p.n) if d
        else static_threshold(p.sigma_nominal2, p.target_pfa, p.n)
        for p, d in zip(plans, dynamic)
    ]
    detections = [[0, 0] for _ in plans]  # per plan: h1 and h0 detections
    sigma_sum = 0.0
    estimated = 0  # trials whose two noise estimates both succeeded

    # A static plan reads only the first n real parts of each stream: bit
    # for bit the real parts of a full stream's prefix.
    any_dynamic = any(dynamic)
    n_samples = plan.l * plan.n if any_dynamic else plan.n
    states = _trial_states(plan, start, stop)
    workspace = np.empty((min(_BLOCK, stop - start), 2, n_samples),
                         np.complex128 if any_dynamic else np.float64)
    for first in range(0, stop - start, _BLOCK):
        block = states[first : first + _BLOCK]
        stack = workspace[: len(block)]
        _synthesize(plan, block, stack)
        # Rows 2i and 2i + 1 are the H1 and H0 streams of the block's trial i.
        streams = stack.reshape(-1, n_samples)
        energies = _energies(streams[:, : plan.n]).reshape(-1, 2)
        if any_dynamic:
            frames = streams.reshape(-1, plan.n, plan.l).transpose(0, 2, 1)
            sigma = estimate_noise_batch(frames, plan.m_grid).reshape(-1, 2)
            ok = ~np.isnan(sigma).any(axis=1)
            for s1, s0 in sigma[ok].tolist():
                sigma_sum += s1 + s0
            estimated += int(np.count_nonzero(ok))
        for counts, d, threshold in zip(detections, dynamic, thresholds):
            detected = energies[ok] > sigma[ok] * threshold if d else energies > threshold
            counts[0] += int(np.count_nonzero(detected[:, 0]))
            counts[1] += int(np.count_nonzero(detected[:, 1]))
    trials = stop - start
    return [
        (h1, h0, trials - estimated, sigma_sum, estimated) if d else (h1, h0, 0, 0.0, trials)
        for (h1, h0), d in zip(detections, dynamic)
    ]


def _ci_halfwidth(p: float, n: int) -> float:
    if n <= 0:
        return math.nan
    return _CI_Z * math.sqrt(p * (1.0 - p) / n)


def _point_result(plan: TrialPlan, tallies: Sequence[_Tally]) -> PointResult:
    """Reduce one plan's chunk tallies, in chunk order, to its point result."""
    det_h1, det_h0, failed, completed = (sum(t[i] for t in tallies) for i in (0, 1, 2, 4))
    sigma_sum = 0.0
    for t in tallies:  # fixed chunk order: float reduction is reproducible
        sigma_sum += t[3]

    if failed > 0.01 * plan.n_trials:
        raise RuntimeError(f"noise estimation failed in {failed}/{plan.n_trials} trials")
    if completed == 0:
        raise RuntimeError("no trial completed")

    pd = det_h1 / completed
    pfa = det_h0 / completed
    mean_sigma = None
    if plan.mode is ThresholdMode.DYNAMIC:
        mean_sigma = sigma_sum / (2.0 * completed)
    return PointResult(pd=pd, pfa=pfa, pd_ci=_ci_halfwidth(pd, completed),
                       pfa_ci=_ci_halfwidth(pfa, completed), mean_sigma_hat2=mean_sigma,
                       failed_trials=failed, n_effective=completed)


def _run_points(plans: Sequence[TrialPlan], workers: int) -> list[PointResult]:
    """Run every plan; one point result per plan, in plan order.

    A work unit is one chunk of trials of a group of plans that differ only
    in ``mode``: the group synthesizes each trial once for all its plans.
    Units run chunk-major: every group's unit for chunk 0, in the order of
    the groups' first plans, then every group's unit for chunk 1, and so
    on.  A chunk's generator states depend only on the master seed, the
    roles and the chunk, so consecutive units of one chunk share them
    (:func:`_trial_states` keeps its last result): in-process they are
    derived once for all groups, and a pool worker derives them again only
    when its next unit starts a new chunk.  The units run on one process
    pool of at most ``workers`` processes and no more than there are units;
    with one process, in-process.

    Tallies come back in unit order whatever the worker count, and each
    plan's are reduced in chunk order.  Every unit runs before any plan is
    reduced; then the first plan, in plan order, that trips the failure
    guard raises.
    """
    # The key is the plan with its mode set aside (as STATIC); the value, the
    # indices of the plans it stands for.
    groups: dict[TrialPlan, list[int]] = {}
    for index, plan in enumerate(plans):
        groups.setdefault(replace(plan, mode=ThresholdMode.STATIC), []).append(index)
    units = [  # (indices of the group's plans, first trial of the chunk)
        (members, start)
        for start in range(0, max((plan.n_trials for plan in plans), default=0), _CHUNK)
        for key, members in groups.items() if start < key.n_trials
    ]
    workers = min(workers, len(units))
    pool = None
    if workers > 1:
        import concurrent.futures  # only here: most calls never start a pool

        pool = concurrent.futures.ProcessPoolExecutor(workers)
    try:
        run = map if pool is None else pool.map
        unit_tallies = run(_run_chunk, [tuple(plans[index] for index in members)
                                        for members, _ in units], [start for _, start in units])
        tallies: list[list[_Tally]] = [[] for _ in plans]  # per plan, in chunk order
        for (members, _), unit in zip(units, unit_tallies):
            for index, tally in zip(members, unit):
                tallies[index].append(tally)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return [_point_result(plan, plan_tallies) for plan, plan_tallies in zip(plans, tallies)]


def run_point(plan: TrialPlan, workers: int = 1) -> PointResult:
    """Estimate (Pd, Pfa) for one plan by paired Monte Carlo trials.

    Trials whose blind noise estimation fails are excluded from both the
    numerator and denominator and reported in ``failed_trials``; more than
    1% failures aborts, because the estimate would no longer be comparable
    across points.

    Args:
        plan: the point description.
        workers: process count; results are identical for any value.
    """
    return _run_points([plan], workers)[0]


def _sweep(curves: dict, sweep_name: str, values: Sequence[float], workers: int) -> dict:
    """Run the plans of every curve as one batch; one SweepResult per curve."""
    points = iter(_run_points([p for plans in curves.values() for p in plans], workers))
    values = tuple(float(v) for v in values)
    return {
        key: SweepResult(sweep_name, values, tuple(itertools.islice(points, len(plans))))
        for key, plans in curves.items()
    }


def power_at_db(power: float, db: float) -> float:
    """``power * 10^(db/10)``, the power ``db`` dB above ``power``; inf where
    that overflows."""
    try:
        return power * 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _snr_to_sigma_s2(plan: TrialPlan, snr_db_value: float) -> float:
    """The signal power at ``snr_db_value`` dB above the plan's true noise.

    Raises:
        ValueError: when that power is not a finite float.
    """
    sigma_s2 = power_at_db(plan.sigma_w2_true, snr_db_value)
    if not math.isfinite(sigma_s2):
        raise ValueError(f"an SNR of {snr_db_value} dB gives a signal power that is not finite")
    return sigma_s2


def sweep_snr(
    plan: TrialPlan,
    snr_grid_db: Sequence[float],
    modes: Sequence[ThresholdMode] = (ThresholdMode.STATIC, ThresholdMode.DYNAMIC),
    workers: int = 1,
) -> dict[ThresholdMode, SweepResult]:
    """Pd/Pfa versus SNR for each threshold mode.

    All modes and points share the master seed, so curves are paired
    trial-for-trial and differences reflect thresholds, not sampling noise.
    """
    curves = {
        mode: [replace(plan, mode=mode, sigma_s2=_snr_to_sigma_s2(plan, snr))
               for snr in snr_grid_db]
        for mode in modes
    }
    return _sweep(curves, "snr_db", snr_grid_db, workers)


def sweep_pfa(
    plan: TrialPlan,
    pfa_grid: Sequence[float],
    modes: Sequence[ThresholdMode] = (ThresholdMode.STATIC, ThresholdMode.DYNAMIC),
    workers: int = 1,
) -> dict[ThresholdMode, SweepResult]:
    """Pd/Pfa versus the target false-alarm setting at fixed SNR."""
    curves = {
        mode: [replace(plan, mode=mode, target_pfa=float(pfa)) for pfa in pfa_grid]
        for mode in modes
    }
    return _sweep(curves, "target_pfa", pfa_grid, workers)


def sweep_threshold_factor(
    plan: TrialPlan,
    factors: Sequence[float],
    snr_grid_db: Sequence[float],
    workers: int = 1,
) -> dict[float, SweepResult]:
    """Static-mode Pd versus SNR for a family of threshold scale factors.

    Factor f runs the static detector with threshold f times the unit-
    nominal value, i.e. an assumed noise power of f.
    """
    curves = {
        float(factor): [
            replace(plan, mode=ThresholdMode.STATIC, sigma_nominal2=float(factor),
                    sigma_s2=_snr_to_sigma_s2(plan, snr))
            for snr in snr_grid_db
        ]
        for factor in factors
    }
    return _sweep(curves, "snr_db", snr_grid_db, workers)


_CSV_HEADER = "sweep_value,pd,pfa,pd_ci,pfa_ci,mean_sigma_hat2,failed_trials"


def write_results(result: SweepResult, destination: str | IO[str]) -> None:
    """Write one sweep curve as CSV.

    UTF-8, LF line endings, '.' decimal separator, full-precision floats
    (shortest round-trip form); mean_sigma_hat2 is empty for static-mode
    rows.  Identical results always produce identical bytes.
    """
    lines = [_CSV_HEADER]
    for value, point in zip(result.values, result.points):
        mean = "" if point.mean_sigma_hat2 is None else repr(point.mean_sigma_hat2)
        lines.append(
            ",".join(
                (
                    repr(float(value)),
                    repr(point.pd),
                    repr(point.pfa),
                    repr(point.pd_ci),
                    repr(point.pfa_ci),
                    mean,
                    str(point.failed_trials),
                )
            )
        )
    payload = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)

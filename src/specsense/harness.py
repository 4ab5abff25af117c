"""Monte Carlo harness: paired-hypothesis trials, sweeps, CSV output.

Every trial derives its own signal/noise/mismatch substreams from a single
master seed, so results are bit-for-bit reproducible for any worker count
and any subset of sweep points.  Detection counts are integers and the
per-chunk diagnostics are reduced in fixed chunk order, which keeps CSV
output byte-identical across reruns.

Trials run in chunks of ``_CHUNK`` and, inside a chunk, in blocks of
``_BLOCK``.  A plan is a scenario, what its trials draw, and a receiver,
which decides a trial against ``scale * unit`` (:func:`_receiver`).  The
unit of work a worker process takes is one chunk of one scenario with the
receivers of every plan that shares it, such as the static and the dynamic
plan of one point of a both-modes sweep, or every plan of a ``sweep_pfa``;
every plan of a call shares each chunk's generator states
(:func:`_run_points` says how units are ordered and pooled).  A block
measures and a chunk decides.  Each thread keeps one stream workspace
across chunks and calls (:func:`_workspace`), a stack of up to ``2 *
_BLOCK`` streams that only grows.  A block writes the H1 and H0 streams
of its trials into a leading slice of it, holding only what the receivers
read (:func:`_synthesize`).  Neither a chunk nor synthesis allocates
memory the size of the stack, so none is handed back to the system and
faulted in again: a dynamic stack allocated per chunk cost about 224
minor page faults a chunk (512 KiB, at 16-trial blocks, N=128 and L=8).
The block then runs each pipeline stage once over the stack, for all the
receivers: the energy statistics, then, if a receiver scales by it, one
stacked blind noise estimate (covariance, eigenvalues, MDL split,
Marchenko-Pastur fit).  Each row is bit-for-bit
the single-frame result.  After its last block, the chunk counts its failed trials and sums
its noise estimates in trial order, and decides each receiver in one
comparison over all its trials, so a point's result depends neither on the
block size nor on the plans beside it.  A call runs all its units before
it reduces any plan, so a call whose plan trips the failure guard finishes
its other units first; the caller then raises for the first such plan an
error that carries every other plan's result.
"""
from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import FrozenInstanceError, dataclass, replace
from typing import Sequence

import numpy as np

from .detector import (
    SensingDecision,
    ThresholdMode,
    _energies,
    decide,
    dynamic_threshold,
    energy_statistic,
)
from .noise_estimator import NoiseEstimate, estimate_noise, estimate_noise_batch
from .signal_model import (
    Hypothesis,
    _column_states,
    _fill_awgn,
    _fill_qpsk,
    _snapshots,
    _uniforms,
    frame,
)
# Not called here: perfbench's tracer rebinds harness.derive_seed, and its tests read it.
from .signal_model import derive_seed  # noqa: F401

__all__ = [
    "FailureGuardError",
    "PlanError",
    "PointResult",
    "SweepResult",
    "TrialPlan",
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
# Trials per stacked block, written into the thread's workspace.  A block
# saves per-call overhead.  On a dynamic point at N=128, L=8 (64 streams of
# 1 024 samples, 1 MiB a block), a 32-trial work unit is one block: one
# synthesis and one stacked estimate.  In 10 alternated 25 s benchmark pairs
# on a 2-CPU x86-64 VM, 32-trial blocks (with the in-place fit sum) ran
# dynamic points at 7 156 trials/s against 6 337 at 16, winning all 10, with
# peak memory 2.5% higher.
_BLOCK = 32

# A plan's tally of one chunk: (h1 detections, h0 detections, failed
# trials, sum of noise estimates).
_Tally = tuple[int, int, int, float]

# A trial's sums stay finite when this times l * n times the power of its
# samples (the top of the noise wander plus the signal) is finite.  A frame
# of l * n samples at power p has energy E of mean l * n * p, and every sum
# a trial forms is at most 33 E.  The covariance products before the / n
# and the energy statistic are at most 2 E (Cauchy-Schwarz); their
# Hermitian average, of products divided by n, at most 2 E / n.  The noise
# estimate is at most the covariance's largest eigenvalue, so at most its
# trace E / n; the dynamic threshold, that times Q^-1(pfa) sqrt(2 n) + n, is
# at most E (1 + 38.5 sqrt(2 / 3)) < 33 E, since Q^-1 is below 38.5 at the
# smallest target, 5e-324, and a noise estimate needs n >= 3.  The lower
# support bound lambda_min / (1 - sqrt(l / n))^2 is at most 6 E.  2^10 / 33
# leaves E a factor 31 above its mean.
_HEADROOM = 2.0**10
# The smallest noise power a plan may have, at the bottom of its wander.
# Below about 2^-1020 a trial's smallest eigenvalues lose bits as
# subnormals, and they sit further below the noise power the squarer the
# frame: at L=8 and a 3 dB wander, scaling a point's powers left its rates
# and noise estimate unchanged down to 2^-1020 at N=128 or 16, 2^-1018 at
# N=12 and 2^-1014 at N=11.  The bound keeps 13 binades from the last.
_POWER_MIN = 2.0**-1001

_ROLE_SIGNAL = 0
_ROLE_NOISE = 1
_ROLE_MISMATCH = 2


class PlanError(ValueError):
    """A :class:`TrialPlan` field breaks a plan rule; the text is
    ``"<field>: <message>"``."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field, self.message = field, message


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
        sigma_nominal2: noise power the static threshold assumes; in STATIC
            mode the threshold it sets must be finite.
        sigma_s2: primary-user transmit power under H1.  At 0, H1 carries a
            zero-amplitude signal and equals H0.
        master_seed: root of all per-trial substreams.
        m_grid: grid resolution of the blind noise estimator.
        mismatch_db: half-width of the uniform per-trial wander of the true
            noise power, in dB (0 disables the wander).
        samples_per_symbol: oversampling of the H1 waveform; None means l,
            which keeps each snapshot inside one symbol (rank-1 signal).

    A trial runs both hypotheses on paired streams; the one a single
    decision senses is an argument of :func:`sense_once`.  An integer field
    keeps the Python int or numpy int64 it is given; a narrower or unsigned
    numpy integer is refused, since the engine's arithmetic would wrap in
    it.  A field that breaks a rule raises :class:`PlanError` naming that
    field.
    """

    n_trials: int
    n: int = 128
    l: int = 8
    target_pfa: float = 0.1
    mode: ThresholdMode = ThresholdMode.DYNAMIC
    sigma_w2_true: float = 1.0
    sigma_nominal2: float = 1.0
    sigma_s2: float = 1.0
    master_seed: int = 42
    m_grid: int = 100
    mismatch_db: float = 0.0
    samples_per_symbol: int | None = None

    def __post_init__(self) -> None:
        def check(field: str, ok: bool, message: str) -> None:
            if not ok:
                raise PlanError(field, f"{message} (got {getattr(self, field)})")

        def integral(value) -> bool:
            try:
                operator.index(value)
            except TypeError:
                return False
            return True

        check("mode", isinstance(self.mode, ThresholdMode), "must be a ThresholdMode")
        for field in ("n_trials", "n", "l", "m_grid", "master_seed"):
            check(field, integral(getattr(self, field)), "must be an integer")
        check("samples_per_symbol",
              self.samples_per_symbol is None or integral(self.samples_per_symbol),
              "must be an integer or None")
        for field in ("n_trials", "n", "l", "m_grid", "master_seed", "samples_per_symbol"):
            value = getattr(self, field)
            check(field, not isinstance(value, np.integer) or value.dtype == np.int64,
                  "must be a Python int or an int64: the engine's arithmetic wraps in "
                  "narrower and unsigned numpy integers")
        check("n_trials", self.n_trials >= 1, "must be positive")
        check("n_trials", self.n_trials <= 2**32,
              "must be at most 2**32, a trial's index is one 32-bit seed word")
        check("l", self.l >= 2, "must be at least 2")
        check("n", self.n >= self.l, f"must be at least l={self.l}")
        check("target_pfa", 0.0 < self.target_pfa < 1.0, "must be strictly between 0 and 1")
        for field in ("sigma_w2_true", "sigma_nominal2", "sigma_s2", "mismatch_db"):
            check(field, math.isfinite(getattr(self, field)), "must be finite")
        # Python floats: numpy scalars would warn where these overflow.
        sigma_w2, nominal, sigma_s2, db = map(float, (
            self.sigma_w2_true, self.sigma_nominal2, self.sigma_s2, self.mismatch_db))
        sums = f"too large, a trial's sums over l * n = {self.l * self.n} samples would overflow"

        def summable(power: float) -> bool:  # see _HEADROOM
            return math.isfinite(_HEADROOM * self.l * self.n * power)

        check("sigma_w2_true", sigma_w2 > 0.0, "must be positive")
        check("sigma_w2_true", summable(sigma_w2), sums)
        check("sigma_w2_true", sigma_w2 >= _POWER_MIN,
              f"too small, a noise power below {_POWER_MIN:.4g} is not estimated exactly")
        check("sigma_nominal2", nominal > 0.0, "must be positive")
        scale, unit = _receiver(self)
        check("n", scale is not None or self.n > self.l,
              f"must exceed l={self.l} for a noise estimate")
        check("target_pfa", unit > 0.0,
              f"too large for n={self.n}, the threshold it sets is not positive")
        check("sigma_nominal2", scale is None or math.isfinite(scale * unit),
              "too large, the static threshold it sets is not finite")
        check("sigma_s2", sigma_s2 >= 0.0, "must be non-negative")
        check("master_seed", self.master_seed >= 0, "must be non-negative")
        check("m_grid", self.m_grid >= 2, "must be at least 2")
        check("mismatch_db", db >= 0.0, "must be non-negative")
        top = power_at_db(sigma_w2, db)
        check("mismatch_db", summable(top), f"{sums} at the noise power it can wander to")
        check("mismatch_db", power_at_db(sigma_w2, -db) >= _POWER_MIN,
              f"too large, the noise power it can wander down to is below {_POWER_MIN:.4g}")
        check("sigma_s2", summable(top + sigma_s2),
              f"{sums} at this signal power plus the top of the noise wander")
        check("samples_per_symbol",
              self.samples_per_symbol is None or self.samples_per_symbol >= 1,
              "must be at least 1")

    @property
    def sps(self) -> int:
        return self.l if self.samples_per_symbol is None else self.samples_per_symbol


def _refuse_assignment(cls: type) -> type:
    """Make every assignment to or deletion of an attribute of ``cls`` raise
    FrozenInstanceError.  With ``slots=True``, the frozen methods that
    dataclass writes raise TypeError on Python 3.10 and 3.11 for a name that
    is no field, such as a property: they refer to the class slots replaced."""
    def refuse(self, name: str, *value) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete {name!r} of a frozen result")

    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


@_refuse_assignment
@dataclass(frozen=True, slots=True)
class PointResult:
    """What the completed trials of one parameter point counted.

    Attributes:
        h1_detections / h0_detections: trials that detected under H1 / H0.
        mean_sigma_hat2: mean noise estimate of the completed trials' H1
            and H0 frames; None where the receiver estimates no noise.
        failed_trials: trials whose noise estimate failed.
        n_effective: completed trials, the denominator of both rates.

    The rates ``pd`` and ``pfa`` and their 99% Wald half-widths ``pd_ci`` and
    ``pfa_ci`` derive from the counts, so no record holds an interval that
    disagrees with its rate.
    """

    h1_detections: int
    h0_detections: int
    mean_sigma_hat2: float | None
    failed_trials: int
    n_effective: int

    @property
    def pd(self) -> float:
        return self.h1_detections / self.n_effective

    @property
    def pfa(self) -> float:
        return self.h0_detections / self.n_effective

    @property
    def pd_ci(self) -> float:
        return _CI_Z * math.sqrt(self.pd * (1.0 - self.pd) / self.n_effective)

    @property
    def pfa_ci(self) -> float:
        return _CI_Z * math.sqrt(self.pfa * (1.0 - self.pfa) / self.n_effective)


@_refuse_assignment
@dataclass(frozen=True, slots=True)
class SweepResult:
    """Rows of (sweep value, point result) for one curve."""

    values: tuple[float, ...]
    points: tuple[PointResult, ...]


class FailureGuardError(RuntimeError):
    """More than 1% of a plan's trials failed their noise estimate.

    ``points`` holds every plan's result, None where the guard tripped; a
    sweep's error also holds ``curves``, each curve's completed rows.
    """

    def __init__(self, message: str, points: Sequence[PointResult | None],
                 curves: dict | None = None) -> None:
        super().__init__(message)
        self.points, self.curves = tuple(points), curves or {}


def synthesize_pair(plan: TrialPlan, trial: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Generate the (H1 stream, H0 stream, true noise power) of one trial.

    Each stream holds ``plan.l * plan.n`` samples.  The H0 stream is the H1
    stream's own noise realization, so comparisons between hypotheses are
    paired sample-for-sample.
    """
    streams = np.empty((1, 2, plan.l * plan.n), np.complex128)
    states = _seeded_states(plan.master_seed, trial, trial + 1)
    sigma_true = _synthesize(plan, states, streams)
    return streams[0, 0], streams[0, 1], sigma_true[0]


@functools.lru_cache(maxsize=1)
def _seeded_states(master_seed: int, start: int, stop: int) -> np.ndarray:
    """PCG64 state words of the signal, noise and wander substreams of trials
    [start, stop), from one seed kernel call (:func:`~specsense.signal_model._column_states`).

    Returns a read-only ``(stop - start, 3, 4)`` array, indexed by role: the
    state ``default_rng(derive_seed(master_seed, trial, role))`` starts in,
    for every (trial, role).  Every plan of the master seed shares these
    states, so the last result is kept for the next call.
    """
    trials = np.repeat(np.arange(start, stop, dtype=np.uint32), 3)
    roles = np.tile(np.arange(3, dtype=np.uint32), stop - start)  # signal, noise, wander
    states = _column_states(master_seed, trials, roles).reshape(stop - start, 3, 4)
    states.flags.writeable = False  # every caller shares this one array
    return states


def _synthesize(plan: TrialPlan, states: np.ndarray, out: np.ndarray) -> list[float]:
    """Write the streams of a block of trials into ``out``; returns each
    trial's true noise power.

    ``states`` holds the block's rows of :func:`_seeded_states`, and ``out``
    is a ``(len(states), 2, n_samples)`` stack: ``out[i, 0]`` and
    ``out[i, 1]`` become the first ``n_samples`` samples of the H1 and H0
    streams of the block's trial i, whatever ``out`` held before.  A
    complex128 stack gets full streams, of ``plan.l * plan.n`` samples.  A
    float64 stack gets what static mode reads, the real parts, and draws no
    imaginary parts: bit for bit the real parts of the full stream's prefix.
    A plan with no signal gets a zero-amplitude one, so its H1 stream
    equals its H0 stream.
    """
    sigma_true = [plan.sigma_w2_true] * len(states)
    if plan.mismatch_db > 0.0:
        offsets = _uniforms(states[:, _ROLE_MISMATCH], plan.mismatch_db)
        sigma_true = [power_at_db(plan.sigma_w2_true, offset) for offset in offsets]
    h1, h0 = out[:, 0], out[:, 1]
    _fill_awgn(states[:, _ROLE_NOISE], sigma_true, h0)
    _fill_qpsk(states[:, _ROLE_SIGNAL], plan.sigma_s2, plan.sps, h1)
    h1 += h0
    return sigma_true


# Per thread: the one buffer :func:`_workspace` views.  numpy drops the GIL
# inside a block's ufuncs, so a buffer shared between threads would mix
# their streams.
_THREAD = threading.local()


def _workspace(shape: tuple[int, ...], dtype: type) -> np.ndarray:
    """An uninitialised ``shape`` array of ``dtype`` on the calling thread's
    buffer, which grows to the largest request and is kept between calls.

    Every call of one thread returns the same memory, so a caller writes
    everything it reads (:func:`_synthesize` does) and is done with one
    view before it asks for the next.
    """
    size = math.prod(shape) * np.dtype(dtype).itemsize
    buffer = getattr(_THREAD, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _THREAD.buffer = np.empty(size, np.uint8)
    return buffer[:size].view(dtype).reshape(shape)


def _receiver(plan: TrialPlan) -> tuple[float | None, float]:
    """``(scale, unit)``: ``plan`` detects where the energy statistic exceeds
    ``scale * unit``, bit for bit ``dynamic_threshold(scale, ...)`` since the
    law is linear in the noise power.  ``scale`` is the nominal power in
    STATIC mode, and None, the trial's noise estimate, in DYNAMIC mode."""
    scale = float(plan.sigma_nominal2) if plan.mode is ThresholdMode.STATIC else None
    return scale, dynamic_threshold(1.0, plan.target_pfa, plan.n)


def sense_once(
    plan: TrialPlan, hypothesis: Hypothesis = Hypothesis.H1
) -> tuple[SensingDecision, NoiseEstimate | None]:
    """One sensing decision on trial 0 of ``plan``, as a receiver makes it.

    Synthesizes the trial-0 stream of ``hypothesis``, takes the energy
    statistic of its first ``plan.n`` samples and compares it with the
    static threshold or, in dynamic mode, with the threshold set from a
    blind noise estimate of the stream's first frame.  Returns the decision
    and that estimate (None in static mode).

    Raises:
        ValueError: when ``hypothesis`` is not a :class:`Hypothesis`.
        EstimationFailure: in dynamic mode, when the frame yields no estimate.
    """
    if not isinstance(hypothesis, Hypothesis):
        raise ValueError(f"hypothesis must be a Hypothesis (got {hypothesis!r})")
    y1, y0, _ = synthesize_pair(plan, 0)
    stream = y1 if hypothesis is Hypothesis.H1 else y0
    statistic = energy_statistic(stream[: plan.n])
    scale, unit = _receiver(plan)
    estimate = None
    if scale is None:
        estimate = estimate_noise(frame(stream, plan.l, plan.n), plan.m_grid)
        scale = estimate.sigma_hat2
    return decide(statistic, scale * unit), estimate


def _run_chunk(plan: TrialPlan, receivers: Sequence[tuple[float | None, float]],
               start: int) -> list[_Tally]:
    """Run the chunk of trials from ``start`` of ``plan``'s scenario for each
    of ``receivers`` (:func:`_receiver`): its blocks measure, and the chunk
    decides, one tally per receiver.  A trial fails, and counts in neither
    rate of a receiver whose scale is None, the noise estimate, when the
    estimate of its H1 or its H0 frame fails.
    """
    stop = min(start + _CHUNK, plan.n_trials)
    # A receiver with a fixed scale reads only the first n real parts of each stream.
    estimates = any(scale is None for scale, _ in receivers)
    n_samples = plan.l * plan.n if estimates else plan.n
    states = _seeded_states(plan.master_seed, start, stop)
    workspace = _workspace((min(_BLOCK, stop - start), 2, n_samples),
                           np.complex128 if estimates else np.float64)
    energies = np.empty((stop - start, 2))  # row i: trial start + i's H1 and H0 values
    sigma = np.empty((stop - start, 2)) if estimates else None
    for first in range(0, stop - start, _BLOCK):
        block = states[first : first + _BLOCK]
        stack = workspace[: len(block)]
        _synthesize(plan, block, stack)
        # Rows 2i and 2i + 1 are the H1 and H0 streams of the block's trial i.
        streams = stack.reshape(-1, n_samples)
        energies[first : first + _BLOCK] = _energies(streams[:, : plan.n]).reshape(-1, 2)
        if estimates:
            sigma[first : first + _BLOCK] = estimate_noise_batch(
                _snapshots(streams, plan.l, plan.n), plan.m_grid).reshape(-1, 2)
    failed, sigma_sum = 0, 0.0
    if estimates:
        lost = np.isnan(sigma).any(axis=1)
        sigma[lost] = np.inf  # an infinite threshold: a failed trial detects in neither column
        failed = int(np.count_nonzero(lost))
        for s1, s0 in sigma[~lost].tolist():  # in trial order, one add at a time
            sigma_sum += s1 + s0
    detections = [np.count_nonzero(energies > (sigma if scale is None else scale) * unit,
                                   axis=0).tolist() for scale, unit in receivers]
    return [(h1, h0, failed, sigma_sum) if scale is None else (h1, h0, 0, 0.0)
            for (h1, h0), (scale, _) in zip(detections, receivers)]


def _point_result(plan: TrialPlan, receiver: tuple[float | None, float],
                  tallies: Sequence[_Tally]) -> PointResult | None:
    """Reduce the chunk tallies of ``plan`` and its ``receiver``, in chunk order,
    to its point result; None when more than 1% of its trials failed."""
    det_h1, det_h0, failed = (sum(t[i] for t in tallies) for i in range(3))
    if failed > 0.01 * plan.n_trials:
        return None
    completed = int(plan.n_trials) - failed  # a Python int, whatever integer the plan holds
    mean_sigma = None
    if receiver[0] is None:  # it scales by the noise estimate: report their mean
        # A sum that overflows is taken again at 2^-64 scale: exact powers of
        # two, so every mean the first sum gives keeps its bits.
        for scale in (1.0, 2.0**-64):
            sigma_sum = 0.0
            for t in tallies:  # in chunk order, one add at a time: 3.12's sum() would compensate
                sigma_sum += t[3] * scale
            if math.isfinite(sigma_sum):
                break
        mean_sigma = sigma_sum / (2.0 * completed) / scale
    return PointResult(h1_detections=det_h1, h0_detections=det_h0, mean_sigma_hat2=mean_sigma,
                       failed_trials=failed, n_effective=completed)


def _run_points(plans: Sequence[TrialPlan],
                workers: int) -> tuple[list[PointResult | None], str | None]:
    """Run every plan: one point result per plan, in plan order, None where the
    failure guard tripped; and the first such plan's failure message, or None.

    Units run chunk-major: every group's unit for chunk 0, in the order of
    the groups' first plans, then every group's unit for chunk 1, and so
    on.  Every trial derives its signal, noise and wander states, whether
    or not its plan reads them, so a chunk's generator states depend only
    on the master seed and the chunk.  Consecutive units of one chunk share
    them (:func:`_seeded_states` keeps its last result): in-process they
    are derived once for all groups, and a pool worker derives them again
    only when its next unit starts a new chunk.  A plan whose ``sigma_s2``
    is 0 reads its signal states too: its H1 streams carry a zero-amplitude
    signal and equal its H0 streams.  The units run on one process
    pool of at most ``workers`` processes and no more than there are units;
    with one process, in-process.
    """
    # Key: every field but mode and target_pfa; value: the indices of its plans.  It keeps
    # sigma_nominal2, which no scenario reads, until perfbench keeps a digest per unit, not
    # each unit's output: dropping the field raised static_sweep's peak_rss_mb 16.6%.
    groups: dict[tuple, list[int]] = {}
    for index, plan in enumerate(plans):
        key = tuple(getattr(plan, f) for f in TrialPlan.__dataclass_fields__
                    if f not in ("mode", "target_pfa"))
        groups.setdefault(key, []).append(index)
    units = [  # (indices of the group's plans, first trial of the chunk)
        (members, start)
        for start in range(0, max((plan.n_trials for plan in plans), default=0), _CHUNK)
        for members in groups.values() if start < plans[members[0]].n_trials
    ]
    receivers = [_receiver(plan) for plan in plans]
    workers = min(workers, len(units))
    pool = None
    if workers > 1:
        import concurrent.futures  # only here: most calls never start a pool

        pool = concurrent.futures.ProcessPoolExecutor(workers)
    try:
        run = map if pool is None else pool.map
        unit_tallies = run(_run_chunk, [plans[members[0]] for members, _ in units],
                           [[receivers[index] for index in members] for members, _ in units],
                           [start for _, start in units])
        tallies: list[list[_Tally]] = [[] for _ in plans]  # per plan, in chunk order
        for (members, _), unit in zip(units, unit_tallies):
            for index, tally in zip(members, unit):
                tallies[index].append(tally)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    points = [_point_result(p, r, t) for p, r, t in zip(plans, receivers, tallies)]
    if None not in points:
        return points, None
    first = points.index(None)
    failed = sum(t[2] for t in tallies[first])
    return points, f"noise estimation failed in {failed}/{plans[first].n_trials} trials"


def run_point(plan: TrialPlan, workers: int = 1) -> PointResult:
    """Estimate (Pd, Pfa) for one plan by paired Monte Carlo trials.

    Trials whose blind noise estimation fails are excluded from both the
    numerator and denominator and reported in ``failed_trials``; more than
    1% failures raises :class:`FailureGuardError`, because the estimate
    would no longer be comparable across points.

    Args:
        plan: the point description.
        workers: process count; results are identical for any value.
    """
    points, failure = _run_points([plan], workers)
    if failure is not None:
        raise FailureGuardError(failure, points)
    return points[0]


def _sweep(plan: TrialPlan, curves: dict, field: str, values: Sequence, labels: Sequence[float],
           workers: int) -> dict:
    """Run ``replace(plan, **curves[key], **{field: values[i]})`` for every
    curve and i as one batch; one SweepResult per curve, of the rows that
    completed, row i labelled ``labels[i]``, which a
    :class:`FailureGuardError` carries too."""
    plans = [replace(plan, **changes, **{field: value})
             for changes in curves.values() for value in values]
    points, failure = _run_points(plans, workers)
    results = {}
    for index, key in enumerate(curves):
        rows = [(float(label), point) for label, point
                in zip(labels, points[index * len(values) :]) if point is not None]
        results[key] = SweepResult(tuple(v for v, _ in rows), tuple(p for _, p in rows))
    if failure is not None:
        raise FailureGuardError(failure, points, results)
    return results


def power_at_db(power: float, db: float) -> float:
    """``power * 10^(db/10)``, the power ``db`` dB above ``power``; inf where
    that overflows."""
    try:
        return power * 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _snr_to_sigma_s2(plan: TrialPlan, snr_db_value: float) -> float:
    """The signal power at ``snr_db_value`` dB above the plan's true noise;
    ValueError where that is not finite."""
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
    powers = [_snr_to_sigma_s2(plan, snr) for snr in snr_grid_db]
    return _sweep(plan, {mode: {"mode": mode} for mode in modes}, "sigma_s2", powers,
                  snr_grid_db, workers)


def sweep_pfa(
    plan: TrialPlan,
    pfa_grid: Sequence[float],
    modes: Sequence[ThresholdMode] = (ThresholdMode.STATIC, ThresholdMode.DYNAMIC),
    workers: int = 1,
) -> dict[ThresholdMode, SweepResult]:
    """Pd/Pfa versus the target false-alarm setting at fixed SNR."""
    return _sweep(plan, {mode: {"mode": mode} for mode in modes}, "target_pfa",
                  [float(pfa) for pfa in pfa_grid], pfa_grid, workers)


def sweep_threshold_factor(
    plan: TrialPlan,
    factors: Sequence[float],
    snr_grid_db: Sequence[float],
    workers: int = 1,
) -> dict[float, SweepResult]:
    """Static-mode Pd versus SNR for a family of threshold scale factors.

    Factor f scales the plan's nominal noise power: it runs the static
    detector with an assumed noise power of ``f * plan.sigma_nominal2``, so
    factor 1 is the plan's own static threshold.
    """
    nominal = plan.sigma_nominal2
    curves = {float(f): {"mode": ThresholdMode.STATIC, "sigma_nominal2": nominal * float(f)}
              for f in factors}
    powers = [_snr_to_sigma_s2(plan, snr) for snr in snr_grid_db]
    return _sweep(plan, curves, "sigma_s2", powers, snr_grid_db, workers)


_CSV_HEADER = "sweep_value,pd,pfa,pd_ci,pfa_ci,mean_sigma_hat2,failed_trials"


def write_results(result: SweepResult, destination: str) -> None:
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
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

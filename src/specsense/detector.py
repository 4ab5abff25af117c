"""Energy detection: test statistic, Gaussian tail machinery, thresholds.

The detector sums the energy of the in-phase rail over an observation window
and compares the total against a threshold calibrated for a target false-alarm
probability.  The threshold can be *static* (computed once from an assumed
nominal noise power) or *dynamic* (recomputed from a blind noise-variance
estimate each sensing interval).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SensingDecision",
    "ThresholdMode",
    "Verdict",
    "closed_form_pd",
    "closed_form_pfa",
    "decide",
    "dynamic_threshold",
    "energy_statistic",
    "q_function",
    "q_inverse",
    "static_threshold",
]


class Verdict(enum.Enum):
    """Sensing outcome: primary user present (H1) or absent (H0)."""

    PRESENT_H1 = "present"
    ABSENT_H0 = "absent"


class ThresholdMode(enum.Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class SensingDecision:
    statistic: float
    threshold: float

    @property
    def verdict(self) -> Verdict:
        """PRESENT_H1 where the statistic exceeds the threshold; ties are ABSENT_H0."""
        return Verdict.PRESENT_H1 if self.statistic > self.threshold else Verdict.ABSENT_H0


def energy_statistic(samples: np.ndarray) -> float:
    """Energy of the window at the real-sample convention the thresholds assume.

    ``2 Re(x)^T Re(x)``: under H0 each term is a real Gaussian square with
    mean sigma_w2 and variance 2 sigma_w2^2, so the total has the mean
    ``N sigma_w2`` and variance ``2 N sigma_w2^2`` that
    :func:`dynamic_threshold` and the closed forms are calibrated for.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a non-empty 1-D array")
    return float(_energies(samples))


def _energies(windows: np.ndarray) -> np.ndarray:
    """The statistic of every window of a stack by one stacked ``matmul``;
    :func:`energy_statistic` is its stack of one."""
    block = windows.real
    return 2.0 * (block[..., None, :] @ block[..., :, None])[..., 0, 0]


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(Z > x) for standard normal Z."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_inverse(p: float) -> float:
    """Inverse Gaussian tail function: minus the standard normal quantile
    of p, by ``statistics.NormalDist`` (Wichura's AS 241), finite on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    from statistics import NormalDist  # only here: importing specsense stays lean

    return -NormalDist().inv_cdf(p)


def dynamic_threshold(sigma_hat2: float, target_pfa: float, n: int) -> float:
    """Detection threshold for a target false-alarm rate at noise power
    ``sigma_hat2``: ``sigma_hat2 * (Q^-1(pfa) * sqrt(2N) + N)``."""
    if not 0.0 < sigma_hat2 < math.inf:
        raise ValueError("sigma_hat2 must be " + ("positive" if sigma_hat2 <= 0.0 else "finite"))
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie strictly between 0 and 1")
    return sigma_hat2 * (q_inverse(target_pfa) * math.sqrt(2.0 * n) + n)


def static_threshold(nominal_factor: float, target_pfa: float, n: int) -> float:
    """Fixed threshold computed from an assumed nominal noise power.

    Identical in form to :func:`dynamic_threshold`; the factor plays the
    role of the assumed noise variance and is never updated at runtime.
    """
    if not 0.0 < nominal_factor < math.inf:
        raise ValueError("nominal_factor must be "
                         + ("positive" if nominal_factor <= 0.0 else "finite"))
    return dynamic_threshold(nominal_factor, target_pfa, n)


def decide(statistic: float, threshold: float) -> SensingDecision:
    """Compare statistic against threshold; ties resolve to ABSENT_H0."""
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    if math.isnan(statistic):
        raise ValueError("statistic must not be NaN")
    return SensingDecision(statistic=statistic, threshold=threshold)


def closed_form_pd(
    threshold: float, n: int, sigma_w2: float, sigma_s2: float
) -> float:
    """Gaussian-approximation detection probability of the energy detector.

    ``Q((threshold - N*(sigma_w2 + sigma_s2)) / ((sigma_w2 + sigma_s2) * sqrt(2N)))``;
    with ``sigma_s2 = 0`` this reduces to the false-alarm expression.
    """
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    if not 0.0 < sigma_w2 < math.inf:
        raise ValueError("sigma_w2 must be " + ("positive" if sigma_w2 <= 0.0 else "finite"))
    if not 0.0 <= sigma_s2 < math.inf:
        raise ValueError("sigma_s2 must be " + ("non-negative" if sigma_s2 < 0.0 else "finite"))
    if n < 1:
        raise ValueError("n must be positive")
    total = sigma_w2 + sigma_s2
    return q_function((threshold - n * total) / (total * math.sqrt(2.0 * n)))


def closed_form_pfa(threshold: float, n: int, sigma_w2: float) -> float:
    """Gaussian-approximation false-alarm probability (no signal present)."""
    return closed_form_pd(threshold, n, sigma_w2, 0.0)

"""Blind noise-variance estimation from sample-covariance eigenvalues.

Pipeline: frame the received stream into L x N snapshots, form the sample
covariance, take its eigenvalues with LAPACK (``numpy.linalg.eigvalsh``),
split signal from noise eigenvalues with the minimum-description-length
(MDL) rule, bound the noise variance from the spectrum edges, then pick the
candidate variance whose Marchenko-Pastur distribution best matches the
empirical distribution of the noise eigenvalues.  The Marchenko-Pastur CDF
is evaluated in closed form from the analytic antiderivative of its
density, so the fit needs no numerical integration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal_model import SampleFrame

__all__ = [
    "CovarianceMatrix",
    "EigenSpectrum",
    "EstimationFailure",
    "NoiseEstimate",
    "eigenvalues_hermitian",
    "estimate_noise",
    "goodness_of_fit",
    "mdl_signal_count",
    "mp_cdf",
    "sample_covariance",
    "sigma_bounds",
]

# Floor applied inside logarithms so an exactly-zero eigenvalue cannot
# produce -inf in the MDL criterion.
_LOG_FLOOR = 1e-300


class EstimationFailure(RuntimeError):
    """Raised when the blind estimator cannot isolate a noise subspace."""


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian sample covariance with its snapshot count."""

    entries: np.ndarray
    n_snapshots: int

    def __post_init__(self) -> None:
        a = self.entries
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("covariance must be square")
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be positive")
        if np.max(np.abs(a - a.conj().T)) > 1e-12 * max(1.0, float(np.abs(a).max())):
            raise ValueError("covariance must be Hermitian")

    @property
    def l(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class EigenSpectrum:
    """Real eigenvalues sorted in descending order."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        v = self.values
        if len(v) < 1:
            raise ValueError("spectrum is empty")
        if any(b > a for a, b in zip(v, v[1:])):
            raise ValueError("spectrum must be sorted descending")
        if any(x < 0.0 for x in v):
            raise ValueError("spectrum must be non-negative")


@dataclass(frozen=True)
class NoiseEstimate:
    """Result of the blind noise-power estimation.

    Attributes:
        sigma_hat2: estimated total complex noise variance.
        k_hat: estimated number of signal eigenvalues.
        beta_hat: k_hat / L, fraction of the spectrum attributed to signal.
        sigma_lo2 / sigma_hi2: search interval implied by the extreme
            noise eigenvalues and the Marchenko-Pastur support edges.
        fit_scores: goodness-of-fit value at every grid candidate.
        p_ratio: snapshot shape ratio L / N of the input frame.
        degenerate_grid: True when the interval collapsed to one point.
    """

    sigma_hat2: float
    k_hat: int
    beta_hat: float
    sigma_lo2: float
    sigma_hi2: float
    fit_scores: tuple[float, ...]
    p_ratio: float
    degenerate_grid: bool = False


def sample_covariance(frm: SampleFrame) -> CovarianceMatrix:
    """Sample covariance ``(1/N) Y Y^H`` of an L x N snapshot frame."""
    y = frm.data
    cov = (y @ y.conj().T) / frm.n
    cov = 0.5 * (cov + cov.conj().T)  # remove rounding asymmetry
    return CovarianceMatrix(entries=cov, n_snapshots=frm.n)


def eigenvalues_hermitian(cov: CovarianceMatrix) -> EigenSpectrum:
    """Eigenvalues of a Hermitian positive semidefinite matrix, descending.

    Tiny negative eigenvalues produced by rounding are clamped to zero;
    anything more negative than ``-1e-10 * trace`` is rejected because the
    input was supposed to be positive semidefinite.
    """
    eigs = np.linalg.eigvalsh(cov.entries)[::-1]
    trace = float(np.trace(cov.entries).real)
    if eigs[-1] < -1e-10 * max(trace, 1e-300):
        raise ValueError("matrix is not positive semidefinite")
    return EigenSpectrum(values=tuple(float(max(x, 0.0)) for x in eigs))


def mdl_signal_count(spectrum: EigenSpectrum, n_snapshots: int) -> int:
    """Number of signal eigenvalues by minimum description length.

    For every split K the criterion charges the data for the mismatch
    between geometric and arithmetic means of the trailing L - K
    eigenvalues, plus a model-complexity penalty; the reported K is the
    minimizer (smallest K on ties).
    """
    if n_snapshots < 1:
        raise ValueError("n_snapshots must be positive")
    lam = np.array(spectrum.values, dtype=np.float64)
    size = lam.size
    logs = np.log(np.maximum(lam, _LOG_FLOOR))
    log_n = math.log(n_snapshots)

    best_k = 0
    best_score = math.inf
    for k in range(size):
        tail = lam[k:]
        geo = float(np.mean(logs[k:]))  # log of geometric mean
        ari = float(np.mean(tail))
        data_term = -(size - k) * n_snapshots * (geo - math.log(max(ari, _LOG_FLOOR)))
        penalty = 0.5 * k * (2 * size - k) * log_n
        score = data_term + penalty
        if score < best_score:
            best_score = score
            best_k = k
    return best_k


def sigma_bounds(
    lambda_min: float, lambda_k1: float, k_hat: int, l: int, n_snapshots: int
) -> tuple[float, float]:
    """Noise-variance search interval from the extreme noise eigenvalues.

    Maps the smallest eigenvalue through the lower Marchenko-Pastur
    support edge and the largest noise eigenvalue through the upper edge:
    ``lo = lambda_min / (1 - sqrt(p))**2``, ``hi = lambda_k1 / (1 + sqrt(p))**2``
    with ``p = L / N``.  Returns the pair sorted ascending.

    Raises:
        EstimationFailure: if ``k_hat`` leaves fewer than two noise
            eigenvalues' worth of structure (``k_hat > L - 2``).
    """
    if k_hat < 0:
        raise ValueError("k_hat must be non-negative")
    if k_hat > l - 2:
        raise EstimationFailure(
            f"k_hat={k_hat} leaves no usable noise subspace for L={l}"
        )
    p = l / n_snapshots
    if not 0.0 < p < 1.0:
        raise ValueError("need more snapshots than rows (L < N)")
    if lambda_min < 0.0 or lambda_k1 < 0.0:
        raise ValueError("eigenvalues must be non-negative")
    root = math.sqrt(p)
    lo = lambda_min / (1.0 - root) ** 2
    hi = lambda_k1 / (1.0 + root) ** 2
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi


# --- Marchenko-Pastur distribution ---------------------------------------

def _mp_cdf_unit(z: np.ndarray, p: float) -> np.ndarray:
    """Marchenko-Pastur CDF at unit variance, vectorized over ``z``.

    The density ``sqrt((b-z)(z-a)) / (2 pi p z)`` on ``[a, b]`` with
    ``a = (1-sqrt(p))^2`` and ``b = (1+sqrt(p))^2`` has the elementary
    antiderivative (Marchenko & Pastur 1967; Bai & Silverstein 2010, ch. 3)

        F(z) = 1/2 + [R + (1+p) atan2(z-(1+p), R)
                      - (1-p) atan2((1+p) z - (1-p)^2, (1-p) R)] / (2 pi p)

    with ``R = sqrt((b-z)(z-a))``.  The ``atan2`` form stays well
    conditioned at both edges, where ``R`` vanishes and the arcsine form
    loses digits; F is 0 for ``z <= a`` and 1 for ``z >= b``.
    """
    root = math.sqrt(p)
    a = (1.0 - root) ** 2
    b = (1.0 + root) ** 2
    z = np.asarray(z, dtype=np.float64)
    r = np.sqrt(np.maximum((b - z) * (z - a), 0.0))
    q = 1.0 - p
    total = (
        r
        + (1.0 + p) * np.arctan2(z - (1.0 + p), r)
        - q * np.arctan2((1.0 + p) * z - q * q, q * r)
    )
    out = np.clip(0.5 + total / (2.0 * math.pi * p), 0.0, 1.0)
    out = np.where(z <= a, 0.0, out)
    out = np.where(z >= b, 1.0, out)
    return out


def mp_cdf(z: float, p: float, sigma2: float) -> float:
    """Marchenko-Pastur CDF of eigenvalue level ``z``.

    ``p`` is the dimension-to-sample ratio in (0, 1) and ``sigma2`` the
    underlying variance; support is ``sigma2 * [(1-sqrt(p))^2, (1+sqrt(p))^2]``
    (0 below, 1 above).  Scaling both ``z`` and ``sigma2`` by the same
    factor leaves the value unchanged.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    return float(_mp_cdf_unit(np.array([z / sigma2]), p)[0])


def _plotting_positions(eigs: np.ndarray) -> np.ndarray:
    """Midpoint (Hazen) empirical CDF values ``(rank - 0.5) / n``.

    Evaluating the step ECDF exactly at its own jump points would sit half
    a step high on average and drag the fitted variance low by about
    ``1/(2n)`` in CDF units -- enough to inflate the detector's false-alarm
    rate well past its target.  The midpoint convention is the standard
    unbiased plotting position for fitting a continuous distribution to a
    small sample.
    """
    sorted_eigs = np.sort(eigs)
    ranks = np.searchsorted(sorted_eigs, eigs, side="right")
    return (ranks - 0.5) / eigs.size


def goodness_of_fit(noise_eigs: np.ndarray, p_eff: float, sigma2: float) -> float:
    """Euclidean distance between the empirical distribution of the noise
    eigenvalues (midpoint plotting positions) and the Marchenko-Pastur CDF
    with variance ``sigma2``."""
    if np.size(noise_eigs) == 0:
        raise ValueError("need at least one noise eigenvalue")
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    return float(_fit_scores(noise_eigs, p_eff, np.array([sigma2]))[0])


def _fit_scores(noise_eigs: np.ndarray, p_eff: float, grid: np.ndarray) -> np.ndarray:
    """Goodness-of-fit against every candidate variance in one pass.

    Vectorizes the Marchenko-Pastur evaluation over (candidate, eigenvalue)
    pairs; row ``i`` is the fit score of candidate ``grid[i]``.
    """
    eigs = np.asarray(noise_eigs, dtype=np.float64)
    empirical = _plotting_positions(eigs)
    scaled = eigs[None, :] / grid[:, None]
    model = _mp_cdf_unit(scaled, p_eff)
    return np.sqrt(np.sum((empirical[None, :] - model) ** 2, axis=1))


def estimate_noise(frm: SampleFrame, m_grid: int = 100) -> NoiseEstimate:
    """Blindly estimate the noise variance from one snapshot frame.

    Runs the covariance -> eigenvalues -> MDL split -> support bounds ->
    Marchenko-Pastur fit pipeline and returns the candidate variance with
    the best fit (smallest grid value on ties).  When the bounds coincide
    the grid is that one point and ``degenerate_grid`` is set.

    Raises:
        EstimationFailure: when MDL attributes all but one eigenvalue to
            signal, leaving nothing to fit the noise model against, or when
            the smallest eigenvalue is zero, leaving no noise floor.
        ValueError: if the frame is not strictly wider than tall or the
            grid has fewer than two candidates.
    """
    if m_grid < 2:
        raise ValueError("m_grid must be at least 2")
    l, n = frm.l, frm.n
    if n <= l:
        raise ValueError("need strictly more snapshots than rows (N > L)")

    cov = sample_covariance(frm)
    spectrum = eigenvalues_hermitian(cov)
    k_hat = mdl_signal_count(spectrum, n)
    if k_hat > l - 2:
        raise EstimationFailure(
            f"MDL attributed {k_hat} of {l} eigenvalues to signal"
        )

    lam = np.array(spectrum.values)
    lo, hi = sigma_bounds(float(lam[-1]), float(lam[k_hat]), k_hat, l, n)
    if lo == 0.0:
        raise EstimationFailure("smallest eigenvalue is zero: no noise floor to fit")
    beta_hat = k_hat / l
    p_ratio = l / n
    grid = np.linspace(lo, hi, m_grid if hi > lo else 1)
    scores = _fit_scores(lam[k_hat:], (1.0 - beta_hat) * p_ratio, grid)
    best = int(np.argmin(scores))
    return NoiseEstimate(
        sigma_hat2=float(grid[best]),
        k_hat=k_hat,
        beta_hat=beta_hat,
        sigma_lo2=lo,
        sigma_hi2=hi,
        fit_scores=tuple(float(s) for s in scores),
        p_ratio=p_ratio,
        degenerate_grid=lo == hi,
    )

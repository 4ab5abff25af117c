"""Blind noise-variance estimation from sample-covariance eigenvalues.

Pipeline: frame the received stream into L x N snapshots, form the sample
covariance, take its eigenvalues with LAPACK (``numpy.linalg.eigvalsh``),
split signal from noise eigenvalues with the minimum-description-length
(MDL) rule, bound the noise variance from the spectrum edges, then pick the
candidate variance whose Marchenko-Pastur distribution best matches the
empirical distribution of the noise eigenvalues.  The Marchenko-Pastur CDF
is evaluated in closed form from the analytic antiderivative of its
density, so the fit needs no numerical integration.

The fit scores every candidate of a row's grid at once.  Its cells are laid
out (rows, noise eigenvalues, candidates), so the division, the CDF and the
residuals run along contiguous grid rows of ``m_grid`` values rather than
along the few noise eigenvalues.  Only the sum of each candidate's squared
residuals goes through a transposed (rows, candidates, eigenvalues) copy,
which keeps numpy's summation order.  Each row's grid is ``np.linspace`` of
that row's bounds alone, written out, and ``m_grid`` copies of ``lo`` when
``lo == hi``.  Every score thus has the bits of the plain broadcast form that
the test suite keeps as its reference, and depends on its own row only.

Every stage works on a stack of frames at once; :func:`estimate_noise_batch`
runs the whole pipeline over a stack, and :func:`estimate_noise` is the
batch of one with a full diagnostic record.  Rows of a stack never mix:
each row's estimate is bit-for-bit the single-frame estimate of that frame.
"""
from __future__ import annotations

import functools
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
    "estimate_noise_batch",
    "mdl_signal_count",
    "mp_cdf",
    "sample_covariance",
    "sigma_bounds",
]

# Floor applied inside logarithms so an exactly-zero eigenvalue cannot
# produce -inf in the MDL criterion: the smallest normal float, so that no
# eigenvalue of a normal noise floor is misread.
_LOG_FLOOR = float(np.finfo(np.float64).tiny)

# Why an estimate fails, by the cause code of :func:`_fit_spectra` (0: fitted).
_FAILURES = (None, "MDL attributed {k_hat} of {l} eigenvalues to signal",
             "smallest eigenvalue is zero: no noise floor to fit")


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
        if not np.isfinite(a).all():
            raise ValueError("covariance entries must be finite")
        h = a.conj().T
        # Exact symmetry first: the tolerance is needed only when it fails.
        if not (a == h).all() and np.max(np.abs(a - h)) > 1e-12 * max(1.0, float(np.abs(a).max())):
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
        if not all(math.isfinite(x) for x in v):
            raise ValueError("spectrum must be finite")
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


def _covariances(y: np.ndarray, n: int) -> np.ndarray:
    """Hermitian sample covariances ``(1/N) Y Y^H`` of a (B, L, N) stack."""
    cov = (y @ y.conj().swapaxes(-1, -2)) / n
    return 0.5 * (cov + cov.conj().swapaxes(-1, -2))  # remove rounding asymmetry


def sample_covariance(frm: SampleFrame) -> CovarianceMatrix:
    """Sample covariance ``(1/N) Y Y^H`` of an L x N snapshot frame."""
    return CovarianceMatrix(entries=_covariances(frm.data[None], frm.n)[0], n_snapshots=frm.n)


def _spectra(cov: np.ndarray) -> np.ndarray:
    """Descending, clamped eigenvalues of a (B, L, L) stack; see eigenvalues_hermitian."""
    eigs = np.linalg.eigvalsh(cov)[:, ::-1]
    # The bound is below zero, so only a negative eigenvalue can break it.
    if (eigs[:, -1] < 0.0).any():
        trace = np.trace(cov, axis1=1, axis2=2).real
        if (eigs[:, -1] < -1e-10 * np.maximum(trace, 1e-300)).any():
            raise ValueError("matrix is not positive semidefinite")
    return np.maximum(eigs, 0.0)


def eigenvalues_hermitian(cov: CovarianceMatrix) -> EigenSpectrum:
    """Eigenvalues of a Hermitian positive semidefinite matrix, descending.

    Tiny negative eigenvalues produced by rounding are clamped to zero;
    anything more negative than ``-1e-10 * trace`` is rejected because the
    input was supposed to be positive semidefinite.
    """
    return EigenSpectrum(values=tuple(_spectra(cov.entries[None])[0].tolist()))


@functools.lru_cache(maxsize=16)
def _mdl_constants(size: int, n_snapshots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The data-free vectors of the MDL criterion over splits k = 0 .. size-1.

    Returns ``(size - k, -(size - k) * n_snapshots, penalty)`` as read-only
    float64 arrays, each value as the criterion's own integer or float
    arithmetic gives it.
    """
    k = np.arange(size)
    vectors = [np.asarray(v, np.float64) for v in (
        size - k,
        -(size - k) * n_snapshots,
        0.5 * k * (2 * size - k) * math.log(n_snapshots),
    )]
    for v in vectors:
        v.flags.writeable = False
    return tuple(vectors)


def _mdl_counts(lam: np.ndarray, n_snapshots: int) -> np.ndarray:
    """MDL signal count of every row of a (B, L) stack of descending spectra.

    The tail sums of every split come from a reversed cumulative sum along
    each row, which adds a row's own entries only, so each row scores
    exactly as it would alone.
    """
    counts, scale, penalty = _mdl_constants(lam.shape[1], n_snapshots)
    # log of the geometric mean and arithmetic mean of lam[:, k:]
    geo = np.cumsum(np.log(np.maximum(lam, _LOG_FLOOR))[:, ::-1], axis=1)[:, ::-1] / counts
    ari = np.cumsum(lam[:, ::-1], axis=1)[:, ::-1] / counts
    data_term = scale * (geo - np.log(np.maximum(ari, _LOG_FLOOR)))
    return np.argmin(data_term + penalty, axis=1)  # first minimum: smallest K wins ties


def mdl_signal_count(spectrum: EigenSpectrum, n_snapshots: int) -> int:
    """Number of signal eigenvalues by minimum description length.

    For every split K the criterion charges the data for the mismatch
    between geometric and arithmetic means of the trailing L - K
    eigenvalues, plus a model-complexity penalty; the reported K is the
    minimizer (smallest K on ties).
    """
    if n_snapshots < 1:
        raise ValueError("n_snapshots must be positive")
    return int(_mdl_counts(np.array(spectrum.values)[None], n_snapshots)[0])


def _support_bounds(lambda_min, lambda_k1, p: float):
    """Edge-mapped noise-variance interval, elementwise; see sigma_bounds."""
    root = math.sqrt(p)
    lo = lambda_min / (1.0 - root) ** 2
    hi = lambda_k1 / (1.0 + root) ** 2
    return np.minimum(lo, hi), np.maximum(lo, hi)


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
    if not (0.0 <= lambda_min < math.inf and 0.0 <= lambda_k1 < math.inf):
        negative = lambda_min < 0.0 or lambda_k1 < 0.0
        raise ValueError("eigenvalues must be " + ("non-negative" if negative else "finite"))
    lo, hi = _support_bounds(lambda_min, lambda_k1, p)
    return float(lo), float(hi)


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
    q = 1.0 - p
    z = np.asarray(z, dtype=np.float64)
    # Three buffers beside z, written in place one operation at a time in
    # the formula's left-to-right order, so every value rounds as the plain
    # expression does.
    r = np.subtract(b, z)
    t = np.subtract(z, a)
    np.multiply(r, t, out=r)
    np.maximum(r, 0.0, out=r)
    np.sqrt(r, out=r)
    np.subtract(z, 1.0 + p, out=t)
    np.arctan2(t, r, out=t)
    np.multiply(t, 1.0 + p, out=t)
    np.add(r, t, out=t)
    u = np.multiply(z, 1.0 + p)
    np.subtract(u, q * q, out=u)
    np.multiply(r, q, out=r)
    np.arctan2(u, r, out=u)
    np.multiply(u, q, out=u)
    np.subtract(t, u, out=t)
    np.divide(t, 2.0 * math.pi * p, out=t)
    np.add(t, 0.5, out=t)  # never -0.0, the one value clip keeps and maximum does not
    np.clip(t, 0.0, 1.0, out=t)
    np.copyto(t, 0.0, where=z <= a)
    np.copyto(t, 1.0, where=z >= b)
    return t


def mp_cdf(z: float, p: float, sigma2: float) -> float:
    """Marchenko-Pastur CDF of eigenvalue level ``z``.

    ``p`` is the dimension-to-sample ratio in (0, 1) and ``sigma2`` the
    underlying variance; support is ``sigma2 * [(1-sqrt(p))^2, (1+sqrt(p))^2]``
    (0 below, 1 above).  Scaling both ``z`` and ``sigma2`` by the same
    factor leaves the value unchanged.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if not 0.0 < sigma2 < math.inf:
        raise ValueError("sigma2 must be " + ("positive" if sigma2 <= 0.0 else "finite"))
    if math.isnan(z):  # z = +-inf is a level, below or above the support
        raise ValueError("z must not be NaN")
    return float(_mp_cdf_unit(np.array([z / sigma2]), p)[0])


def _plotting_positions(eigs: np.ndarray) -> np.ndarray:
    """Midpoint (Hazen) empirical CDF values ``(rank - 0.5) / n`` of each row.

    Evaluating the step ECDF exactly at its own jump points would sit half
    a step high on average and drag the fitted variance low by about
    ``1/(2n)`` in CDF units -- enough to inflate the detector's false-alarm
    rate well past its target.  The midpoint convention is the standard
    unbiased plotting position for fitting a continuous distribution to a
    small sample.  The rank of a value is the count of row entries at or
    below it, so tied values share the highest rank of their group.
    """
    ranks = np.sum(eigs[:, None, :] <= eigs[:, :, None], axis=2)
    return (ranks - 0.5) / eigs.shape[1]


def _fit_scores(noise_eigs: np.ndarray, p_eff: float, grid: np.ndarray) -> np.ndarray:
    """Goodness-of-fit of every row against each of its candidate variances.

    ``noise_eigs`` is (R, M) and ``grid`` is (R, G); entry ``[r, i]`` is the
    fit score of candidate ``grid[r, i]``.  The Marchenko-Pastur CDF is
    evaluated over all cells in one pass, laid out (R, M, G) so that the
    division, the CDF and the residuals run along each row's contiguous
    grid rather than along the short eigenvalue axis.  The squared
    residuals then go through one transposed copy to (R, G, M), so each
    score is numpy's own sum of a contiguous run of M values.
    """
    empirical = _plotting_positions(noise_eigs)
    residual = _mp_cdf_unit(noise_eigs[:, :, None] / grid[:, None, :], p_eff)
    np.subtract(empirical[:, :, None], residual, out=residual)
    np.square(residual, out=residual)
    return np.sqrt(np.sum(residual.transpose(0, 2, 1).copy(), axis=-1))


def _linear_grid(lo: np.ndarray, hi: np.ndarray, m: int) -> np.ndarray:
    """Row ``r`` is ``np.linspace(lo[r], hi[r], m)``, m >= 2, by its own arithmetic.

    Column ``i`` is ``lo + i * ((hi - lo) / (m - 1))``, or, in a row whose own
    step underflows to 0, ``lo + (i / (m - 1)) * (hi - lo)``; the last is ``hi``.
    """
    delta = (hi - lo)[:, None]
    step = delta / (m - 1)
    ramp = np.arange(m, dtype=np.float64)
    grid = ramp * step
    zero = step[:, 0] == 0.0
    if zero.any():
        grid[zero] = (ramp / (m - 1)) * delta[zero]
    grid += lo[:, None]
    grid[:, -1] = hi
    return grid


def _fit_spectra(
    lam: np.ndarray, n: int, m_grid: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """MDL split, support bounds and Marchenko-Pastur fit of each spectrum.

    ``lam`` is a (B, L) stack of descending eigenvalues of covariances over
    ``n`` snapshots.  Rows are fitted in groups that share ``k_hat`` (and so
    the shape ratio and the noise eigenvalue count); no row affects another.

    Returns:
        (k_hat, lo, hi, sigma_hat2, scores, cause): ``cause`` indexes
        ``_FAILURES``: 0 where the row is fitted, 1 where MDL leaves fewer than
        two noise eigenvalues, else 2 where the lower bound is zero.
        ``sigma_hat2`` is NaN where a row failed; row ``r`` of the (B, m_grid)
        ``scores`` holds that row's fit scores (all equal for a degenerate grid
        ``lo == hi``), NaN elsewhere.
    """
    b, l = lam.shape
    k_hat = _mdl_counts(lam, n)
    rows = np.arange(b)
    lo, hi = _support_bounds(lam[:, -1], lam[rows, np.minimum(k_hat, l - 2)], l / n)
    cause = 2 * (lo == 0.0)
    cause[k_hat > l - 2] = 1
    usable = cause == 0
    sigma = np.full(b, np.nan)
    scores = np.full((b, m_grid), np.nan)
    # Groups from a set of Python ints: the first np.unique call in a
    # process raises peak memory by about 0.9 MB.
    for k in set(k_hat[usable].tolist()):
        idx = np.flatnonzero(usable & (k_hat == k))
        grid = _linear_grid(lo[idx], hi[idx], m_grid)
        fits = _fit_scores(lam[idx, k:], (1.0 - k / l) * (l / n), grid)
        sigma[idx] = grid[np.arange(idx.size), np.argmin(fits, axis=1)]
        scores[idx] = fits
    return k_hat, lo, hi, sigma, scores, cause


def _check_shape(l: int, n: int, m_grid: int) -> None:
    if m_grid < 2:
        raise ValueError("m_grid must be at least 2")
    if n <= l:
        raise ValueError("need strictly more snapshots than rows (N > L)")


def estimate_noise(frm: SampleFrame, m_grid: int = 100) -> NoiseEstimate:
    """Blindly estimate the noise variance from one snapshot frame.

    Runs the covariance -> eigenvalues -> MDL split -> support bounds ->
    Marchenko-Pastur fit pipeline and returns the candidate variance with
    the best fit (smallest grid value on ties).  When the bounds coincide,
    every candidate is that point, one score is reported and
    ``degenerate_grid`` is set.

    Raises:
        EstimationFailure: when MDL attributes all but one eigenvalue to
            signal, leaving nothing to fit the noise model against, or when
            the smallest eigenvalue is zero, leaving no noise floor.
        ValueError: if the frame is not strictly wider than tall or the
            grid has fewer than two candidates.
    """
    l, n = frm.l, frm.n
    _check_shape(l, n, m_grid)
    spectrum = eigenvalues_hermitian(sample_covariance(frm))
    fit = _fit_spectra(np.array(spectrum.values)[None], n, m_grid)
    k_hat, lo, hi, sigma, scores, cause = (a[0].tolist() for a in fit)
    if cause:
        raise EstimationFailure(_FAILURES[cause].format(k_hat=k_hat, l=l))
    return NoiseEstimate(
        sigma_hat2=sigma,
        k_hat=k_hat,
        beta_hat=k_hat / l,
        sigma_lo2=lo,
        sigma_hi2=hi,
        fit_scores=tuple(scores[: 1 if lo == hi else m_grid]),
        p_ratio=l / n,
        degenerate_grid=lo == hi,
    )


def estimate_noise_batch(frames: np.ndarray, m_grid: int = 100) -> np.ndarray:
    """Blind noise-variance estimates of a (B, L, N) stack of snapshot frames.

    Row ``r`` is bit-for-bit ``estimate_noise(SampleFrame(frames[r]), m_grid)
    .sigma_hat2``; it is NaN where that call raises :class:`EstimationFailure`.
    Any memory layout works, including the transposed view that frames B
    sample streams without a copy (``signal_model._snapshots``).

    Raises:
        ValueError: on a stack that is not (B, L, N) with L >= 2 and N > L,
            on non-finite samples, or on a grid of fewer than two candidates.
    """
    frames = np.asarray(frames)
    if frames.ndim != 3 or frames.shape[1] < 2:
        raise ValueError("frames must be a (B, L, N) stack with L >= 2")
    _, l, n = frames.shape
    _check_shape(l, n, m_grid)
    # A non-finite sample makes its covariance's diagonal non-finite, so the
    # frames need a scan only when the small covariance stack fails.  An
    # infinite sample makes inf - inf in the product: that is the check's
    # business, not a warning's.
    with np.errstate(invalid="ignore"):
        cov = _covariances(frames, n)
    if not np.all(np.isfinite(cov)) and not np.all(np.isfinite(frames)):
        raise ValueError("frame contains non-finite samples")
    return _fit_spectra(_spectra(cov), n, m_grid)[3]

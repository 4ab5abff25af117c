"""Complex-baseband signal synthesis: QPSK bursts, AWGN, and snapshot framing.

All randomness flows through integer seeds so that every trial of a larger
experiment can be reproduced bit-for-bit from a single master seed.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Hypothesis",
    "SampleFrame",
    "add_awgn",
    "derive_seed",
    "frame",
    "generate_qpsk",
    "snr_db",
]

# Gray-mapped QPSK constellation on the unit circle, scaled later by the
# per-symbol amplitude.  Index order is fixed: it is part of the
# reproducibility contract.
_QPSK_POINTS = np.array(
    [1.0 + 1.0j, 1.0 - 1.0j, -1.0 + 1.0j, -1.0 - 1.0j], dtype=np.complex128
)


class Hypothesis(enum.Enum):
    """Channel occupancy hypothesis: noise only (H0) or signal present (H1)."""

    H0 = "h0"
    H1 = "h1"


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a 64-bit sub-seed from a master seed and an index path.

    Uses numpy's SeedSequence splitting, so substreams for different
    ``path`` tuples (e.g. ``(trial, role)``) are statistically independent
    and stable across platforms and process counts.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def generate_qpsk(
    n_samples: int,
    sigma_s2: float,
    seed: int,
    samples_per_symbol: int = 1,
) -> np.ndarray:
    """Generate a constant-envelope QPSK sample stream.

    Symbols are drawn equiprobably from the four points
    ``(+-sqrt(sigma_s2/2) +- 1j*sqrt(sigma_s2/2))`` and each symbol is held
    for ``samples_per_symbol`` consecutive samples.  Every sample has
    squared magnitude exactly ``sigma_s2``.

    Args:
        n_samples: number of complex samples to produce.
        sigma_s2: mean transmit power (total complex variance per sample).
        seed: integer seed for the symbol stream.
        samples_per_symbol: oversampling factor; values > 1 make the
            waveform piecewise constant, which concentrates its energy in a
            low-rank subspace of consecutive-sample snapshots.

    Returns:
        complex128 array of shape ``(n_samples,)``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if sigma_s2 <= 0.0:
        raise ValueError("sigma_s2 must be positive")
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    rng = np.random.default_rng(seed)
    n_symbols = -(-n_samples // samples_per_symbol)  # ceil division
    idx = rng.integers(0, 4, size=n_symbols)
    amplitude = math.sqrt(sigma_s2 / 2.0)
    symbols = amplitude * _QPSK_POINTS[idx]
    if samples_per_symbol == 1:
        return symbols[:n_samples]
    return np.repeat(symbols, samples_per_symbol)[:n_samples]


def add_awgn(stream: np.ndarray, sigma_w2: float, seed: int) -> np.ndarray:
    """Add circularly symmetric complex white Gaussian noise to a stream.

    ``sigma_w2`` is the *total* complex noise variance per sample; each of
    the real and imaginary components carries ``sigma_w2 / 2``.

    Args:
        stream: complex input samples (use zeros for a noise-only stream).
        sigma_w2: total per-sample noise variance, must be positive.
        seed: integer seed for the noise stream.

    Returns:
        a new complex128 array, ``stream + w``.
    """
    if sigma_w2 <= 0.0:
        raise ValueError("sigma_w2 must be positive")
    stream = np.asarray(stream, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, stream.size))
    w = math.sqrt(sigma_w2 / 2.0) * (parts[0] + 1j * parts[1])
    return stream + w.reshape(stream.shape)


@dataclass(frozen=True)
class SampleFrame:
    """An L x N matrix of snapshots cut from a sample stream.

    Column j holds consecutive samples ``j*L .. j*L + L - 1`` of the
    originating stream, so the flattened column-major frame reproduces the
    stream prefix it consumed.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ValueError("frame data must be 2-D")
        l, n = self.data.shape
        if l < 2:
            raise ValueError("frame needs at least 2 rows")
        if n < l:
            raise ValueError("frame needs at least as many columns as rows")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("frame contains non-finite samples")

    @property
    def l(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def to_stream(self) -> np.ndarray:
        """Undo the framing: concatenate columns back into a stream."""
        return self.data.ravel(order="F")


def frame(stream: np.ndarray, l: int, n: int) -> SampleFrame:
    """Reshape the first ``l * n`` samples of a stream into an L x N frame.

    Raises ValueError if the stream is too short or the shape is invalid.
    """
    stream = np.asarray(stream, dtype=np.complex128)
    if stream.ndim != 1:
        raise ValueError("stream must be 1-D")
    if stream.size < l * n:
        raise ValueError(f"stream has {stream.size} samples, need {l * n}")
    data = stream[: l * n].reshape((n, l)).T.copy()
    return SampleFrame(data)


def snr_db(sigma_s2: float, sigma_w2: float) -> float:
    """Signal-to-noise ratio ``10*log10(sigma_s2 / sigma_w2)`` in dB."""
    if sigma_s2 <= 0.0 or sigma_w2 <= 0.0:
        raise ValueError("variances must be positive")
    return 10.0 * math.log10(sigma_s2 / sigma_w2)


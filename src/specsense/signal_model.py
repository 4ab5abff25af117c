"""Complex-baseband signal synthesis: QPSK bursts, AWGN, and snapshot framing.

All randomness flows through integer seeds so that every trial of a larger
experiment can be reproduced bit-for-bit from a single master seed.  Seeds
and generator states come from numpy's ``SeedSequence`` mixing, computed
over whole columns of seeds at once, and streams are drawn row by row into
stacked buffers; one stream is the stack of one.
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).  The seed
# kernel below is its documented mixing, run in uint32 over columns.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def derive_seed(master_seed: int, *path: int | np.ndarray) -> int | np.ndarray:
    """Derive a 64-bit sub-seed from a master seed and an index path.

    Returns the first ``uint64`` state word of
    ``SeedSequence(entropy=master_seed, spawn_key=path)``, so substreams for
    different ``path`` tuples (e.g. ``(trial, role)``) are statistically
    independent and stable across platforms and process counts.

    A path entry may also be a 1-D integer array with values in
    ``[0, 2**32)``.  Array entries broadcast together, and the result is
    then a ``uint64`` array with one seed per row; with scalar entries only
    it is an ``int``, the batch of one.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    words = _int_words(master_seed)
    # A spawned SeedSequence zero-pads its entropy to the pool size, so the
    # path words always start at word _POOL_SIZE.
    entropy = words + [0] * (_POOL_SIZE - len(words))
    for entry in path:
        if isinstance(entry, np.ndarray) and entry.ndim == 1:
            if entry.dtype.kind not in "iu":
                raise TypeError("array path entries must hold integers")
            if entry.size and (entry.min() < 0 or entry.max() > _MASK32):
                raise ValueError("array path entries must lie in [0, 2**32)")
            entropy.append(entry.astype(np.uint32))
        else:
            entropy.extend(_int_words(entry))
    return _join_words(*_seed_sequence_state(entropy, 2))


def _int_words(value: int) -> list[int]:
    """The 32-bit words SeedSequence makes of a non-negative integer, least
    significant first; 0 is one word."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"seeds and path entries must be integers, not {type(value).__name__}")
    value = int(value)
    if value < 0:
        raise ValueError("seeds and path entries must be non-negative")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix; its multiplier advances on every call."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT

    return hashmix


def _mix(x, y):
    result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return result ^ result >> _XSHIFT


def _seed_sequence_state(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words)``, one 32-bit word per column.

    Each entropy word is an ``int``, the same on every row, or a uint32
    array with one value per row; arrays broadcast together.  The hash
    constants do not depend on the data, so the mixing runs at full width
    only from the first array word on, and the columns come out as ints if
    every word is one.  Words missing below the pool size hash as 0, as in
    numpy.  Python ints are masked to 32 bits; uint32 arrays wrap.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    return [output(pool[i % _POOL_SIZE]) for i in range(n_words)]


def _join_words(lo, hi):
    """64-bit values from their low and high 32-bit words: an ``int`` from
    ints, else a ``uint64`` array.  Built arithmetically, not by viewing
    the words' bytes, so the result does not depend on byte order."""
    if isinstance(lo, int):
        return lo | hi << 32
    return lo.astype(np.uint64) | hi.astype(np.uint64) << np.uint64(32)


def _pcg64_states(seeds) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, uint64)`` of each seed, as rows.

    ``seeds`` is one non-negative ``int`` or a ``uint64`` array.  An array
    seed enters as two words; a zero high word hashes exactly as the
    padding of a seed below 2**32, which SeedSequence makes one word.
    """
    if isinstance(seeds, np.ndarray):
        seeds = seeds.astype(np.uint64)
        entropy = [seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)]
    else:
        entropy = _int_words(seeds)
    words = _seed_sequence_state(entropy, 8)
    states = np.empty((np.size(seeds), 4), np.uint64)
    for k in range(4):
        states[:, k] = _join_words(words[2 * k], words[2 * k + 1])
    return states


_STATE_WORDS: type | None = None


def _generators(states: np.ndarray) -> list:
    """One ``numpy.random.Generator`` per row of :func:`_pcg64_states`, each
    in the state ``default_rng(seed)`` starts in."""
    global _STATE_WORDS
    if _STATE_WORDS is None:
        # Made on first use, not at import: numpy loads numpy.random when
        # something first touches it, and every import would pay for it.
        class StateWords(np.random.bit_generator.ISeedSequence):
            """Hands PCG64 state words that are already made."""

            def __init__(self, words: np.ndarray) -> None:
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                return self.words

        _STATE_WORDS = StateWords
    return [np.random.Generator(np.random.PCG64(_STATE_WORDS(row))) for row in states]


def _qpsk_rows(rngs: list, n_samples: int, sigma_s2: float, samples_per_symbol: int) -> np.ndarray:
    """One QPSK stream of ``n_samples`` samples per generator, as rows."""
    n_symbols = -(-n_samples // samples_per_symbol)  # ceil division
    idx = np.empty((len(rngs), n_symbols), np.int64)
    for rng, row in zip(rngs, idx):
        row[:] = rng.integers(0, 4, size=n_symbols)
    symbols = math.sqrt(sigma_s2 / 2.0) * _QPSK_POINTS[idx]
    if samples_per_symbol == 1:
        return symbols
    return np.repeat(symbols, samples_per_symbol, axis=1)[:, :n_samples]


def _awgn_rows(rngs: list, sigma_w2, out: np.ndarray) -> None:
    """Fill row i of the complex array ``out`` with noise of total power
    ``sigma_w2[i]`` from generator i, which draws every real part first."""
    parts = np.empty((len(rngs), 2, out.shape[1]))
    for rng, row in zip(rngs, parts):
        rng.standard_normal(out=row)
    scale = np.sqrt(np.asarray(sigma_w2, dtype=np.float64) / 2.0)[:, None]
    np.multiply(scale, parts[:, 0] + 1j * parts[:, 1], out=out)


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
    rngs = _generators(_pcg64_states(seed))
    return _qpsk_rows(rngs, n_samples, sigma_s2, samples_per_symbol)[0]


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
    w = np.empty((1, stream.size), dtype=np.complex128)
    _awgn_rows(_generators(_pcg64_states(seed)), [sigma_w2], w)
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


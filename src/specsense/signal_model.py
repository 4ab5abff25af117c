"""Complex-baseband signal synthesis: QPSK bursts, AWGN, and snapshot framing.

All randomness flows through integer seeds so that every trial of a larger
experiment can be reproduced bit-for-bit from a single master seed.  Seeds
and generator states come from numpy's ``SeedSequence``: a single seed or
state from a ``SeedSequence`` object, a column of states from a vectorised
copy of its mixing in two passes, each run at once for every row on one
``(4, rows)`` uint32 pool array; the first pass starts from the master
seed's own pool.  Streams are drawn row by row into stacked buffers; one
stream is the stack of one.  Each row draws only the numbers its reader
uses, bit for bit what ``numpy.random.default_rng(seed)`` would give:

* noise rows draw normals through a ``Generator``: a complex row draws all
  its real parts, then all its imaginary parts; a float64 row, the real
  parts alone;
* QPSK symbol indices and the uniform draws of a noise-power wander are
  taken straight from raw PCG64 output words, with the bit layouts of
  ``Generator.integers(0, 4)`` and ``Generator.uniform``, so those rows
  need a bit generator but no ``Generator``.
"""
from __future__ import annotations

import enum
import functools
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


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a 64-bit sub-seed from a master seed and an index path.

    Returns the first ``uint64`` state word of
    ``SeedSequence(entropy=master_seed, spawn_key=path)``, so substreams for
    different ``path`` tuples (e.g. ``(trial, role)``) are statistically
    independent and stable across platforms and process counts.
    """
    state = np.random.SeedSequence(master_seed, spawn_key=path).generate_state(1, np.uint64)
    return int(state[0])


@functools.lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of the first ``calls`` hashmix calls of one SeedSequence
    hasher, which do not depend on the data: call k xors its value with
    ``xor[k]``, then multiplies it by ``mul[k]``, the next constant.

    Returns ``(xor, mul)`` as read-only ``(calls, 1)`` uint32 columns.
    """
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    columns = [np.array(values, np.uint32)[:, None] for values in (consts[:-1], consts[1:])]
    for column in columns:
        column.flags.writeable = False
    return tuple(columns)


def _hashmix(value, xor, mul):
    """SeedSequence's hashmix of several pool words at once, with a uint32
    column of constants per word.  Here and in :func:`_mix`, uint32 arrays
    wrap modulo 2**32 as SeedSequence's masks do, so no mask is needed."""
    value = (value ^ xor) * mul
    return value ^ value >> _XSHIFT


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> _XSHIFT


# The pool words each pool word is mixed into.
_OTHERS = tuple([dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE))


def _seed_sequence_state(entropy: list, n_words: int, pool: np.ndarray | None = None,
                         mixed: int = 0) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words)``, for every row at once.

    Each entropy word is a uint32 array with one value per row; words
    missing below the pool size hash as 0, as in numpy.  The pool is one
    ``(4, rows)`` uint32 array: a pool word is hashed into its three
    destinations in one step, a further entropy word into all four pool
    words in one step.  The result is an ``(n_words, rows)`` uint32 array.

    ``pool`` may hold the pool a SeedSequence has already made of its first
    ``mixed`` words (at least the pool size); ``entropy`` then holds the
    words after them.
    """
    words = list(entropy) + [0] * (_POOL_SIZE - mixed - len(entropy))
    # 4 initial hashes, 12 cross mixes, then 4 hashes per further word.
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (mixed + len(words)))
    if pool is None:
        head = np.broadcast_arrays(*(np.asarray(word, np.uint32) for word in words[:_POOL_SIZE]))
        pool = _hashmix(np.stack(head), xor[:_POOL_SIZE], mul[:_POOL_SIZE])
        for src in range(_POOL_SIZE):
            calls = slice(_POOL_SIZE + 3 * src, _POOL_SIZE + 3 * src + 3)
            dst = _OTHERS[src]
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[calls], mul[calls]))
        words, mixed = words[_POOL_SIZE:], _POOL_SIZE
    for i, word in enumerate(words, mixed):
        calls = slice(_POOL_SIZE * i, _POOL_SIZE * (i + 1))
        pool = _mix(pool, _hashmix(word, xor[calls], mul[calls]))
    xor, mul = _hash_constants(_INIT_B, _MULT_B, n_words)
    return _hashmix(pool[[i % _POOL_SIZE for i in range(n_words)]], xor, mul)


def _join_words(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``uint64`` values from their low and high 32-bit words.  Built
    arithmetically, not by viewing the words' bytes, so the result does not
    depend on byte order."""
    return lo.astype(np.uint64) | hi.astype(np.uint64) << np.uint64(32)


def _pcg64_states(seed: int) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, uint64)``, as a ``(1, 4)`` row."""
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)[None]


def _column_states(master_seed: int, trials: np.ndarray, roles: np.ndarray) -> np.ndarray:
    """``_pcg64_states(derive_seed(master_seed, trial, role))`` of every row,
    as a ``(rows, 4)`` uint64 array.

    ``trials`` and ``roles`` are uint32 arrays, one (trial, role) a row.
    Pass 1 mixes each row's two path words into the master seed's own
    ``SeedSequence`` pool, after its ``max(4, words)`` words, and makes the
    seed's two 32-bit words.  Pass 2 takes those words as a new
    ``SeedSequence``'s entropy: a zero high word hashes exactly as the
    padding of a seed below 2**32, which SeedSequence makes one word.
    """
    pool = np.random.SeedSequence(master_seed).pool[:, None]
    mixed = max(_POOL_SIZE, -(-int(master_seed).bit_length() // 32))
    seed_words = _seed_sequence_state([trials, roles], 2, pool, mixed)
    words = _seed_sequence_state(list(seed_words), 8)
    return np.ascontiguousarray(_join_words(words[0::2], words[1::2]).T)


_STATE_WORDS: type | None = None


def _bit_generators(states: np.ndarray) -> list:
    """One ``numpy.random.PCG64`` per row of state words, each in
    the state the bit generator of ``default_rng(seed)`` starts in."""
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
    return [np.random.PCG64(_STATE_WORDS(row)) for row in states]


def _qpsk_indices(states: np.ndarray, n_symbols: int) -> np.ndarray:
    """``default_rng(seed).integers(0, 4, size=n_symbols)`` of each row's seed, as rows.

    numpy draws each integer below 4 from one 32-bit half of a PCG64 output
    word, low half first, and keeps the half's top two bits (Lemire's
    method, which never rejects when the range divides 2**32).
    """
    n_words = -(-n_symbols // 2)
    raw = np.empty((len(states), n_words), np.uint64)
    for bit_generator, row in zip(_bit_generators(states), raw):
        row[:] = bit_generator.random_raw(n_words)
    halves = np.stack((raw >> np.uint64(30) & np.uint64(3), raw >> np.uint64(62)), axis=-1)
    return halves.reshape(len(states), -1)[:, :n_symbols]


def _uniforms(states: np.ndarray, half_width: float) -> list[float]:
    """``default_rng(seed).uniform(-half_width, half_width)`` of each row's seed.

    numpy returns ``low + (high - low) * u``, where ``u`` is the top 53 bits
    of one PCG64 output word times 2**-53.
    """
    return [-half_width + 2.0 * half_width * ((bit_generator.random_raw() >> 11) * 2.0**-53)
            for bit_generator in _bit_generators(states)]


def _fill_qpsk(states: np.ndarray, sigma_s2: float, samples_per_symbol: int,
               out: np.ndarray) -> None:
    """Fill row i of ``out`` with a QPSK stream from the bit generator of
    state row i, each symbol held for ``samples_per_symbol`` samples.

    A float64 ``out`` gets only the streams' real parts.  Symbols are
    written through a (rows, symbols, samples per symbol) view of the rows;
    a last symbol cut short by the row length is written on its own.
    """
    rows, n_samples = out.shape
    n_symbols = -(-n_samples // samples_per_symbol)  # ceil division
    points = _QPSK_POINTS if np.iscomplexobj(out) else _QPSK_POINTS.real
    symbols = math.sqrt(sigma_s2 / 2.0) * points[_qpsk_indices(states, n_symbols)]
    whole = n_samples // samples_per_symbol
    # Splitting the contiguous last axis makes a view, never a copy.
    held = out[:, : whole * samples_per_symbol].reshape(rows, whole, samples_per_symbol)
    held[...] = symbols[:, :whole, None]
    out[:, whole * samples_per_symbol :] = symbols[:, whole:]


def _fill_awgn(states: np.ndarray, sigma_w2, out: np.ndarray) -> None:
    """Fill row i of ``out`` with noise of total power ``sigma_w2[i]`` from
    the generator of state row i.

    A complex row draws every real part first, then every imaginary part,
    into one scratch pair of rows (``standard_normal`` writes only
    contiguous arrays), and each part is scaled into place.  A
    float64 row draws only the real parts, so it holds the real parts of
    the complex row of the same length.
    """
    scale = np.sqrt(np.asarray(sigma_w2, dtype=np.float64) / 2.0)
    generators = (np.random.Generator(bg) for bg in _bit_generators(states))
    if not np.iscomplexobj(out):
        for generator, row in zip(generators, out):
            generator.standard_normal(out=row)
        out *= scale[:, None]
        return
    parts = np.empty((2, out.shape[1]))
    for generator, row, s in zip(generators, out, scale):
        generator.standard_normal(out=parts)
        np.multiply(parts[0], s, out=row.real)
        np.multiply(parts[1], s, out=row.imag)


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
    stream = np.empty((1, n_samples), np.complex128)
    _fill_qpsk(_pcg64_states(seed), sigma_s2, samples_per_symbol, stream)
    return stream[0]


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
    _fill_awgn(_pcg64_states(seed), [sigma_w2], w)
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


def _snapshots(streams: np.ndarray, l: int, n: int) -> np.ndarray:
    """The first ``l * n`` samples of each stream (last axis) as L x N snapshots
    laid out as in :class:`SampleFrame`: a view of full contiguous streams."""
    return streams[..., : l * n].reshape(*streams.shape[:-1], n, l).swapaxes(-1, -2)


def frame(stream: np.ndarray, l: int, n: int) -> SampleFrame:
    """Copy the first ``l * n`` samples of a stream into an L x N frame.

    Raises ValueError if the stream is too short or the shape is invalid.
    """
    stream = np.asarray(stream, dtype=np.complex128)
    if stream.ndim != 1:
        raise ValueError("stream must be 1-D")
    if stream.size < l * n:
        raise ValueError(f"stream has {stream.size} samples, need {l * n}")
    return SampleFrame(_snapshots(stream, l, n).copy())

"""Tests of the complex-baseband signal model."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsense.signal_model import (
    SampleFrame,
    _bit_generators,
    _column_states,
    _pcg64_states,
    _qpsk_indices,
    _uniforms,
    add_awgn,
    derive_seed,
    frame,
    generate_qpsk,
)

_SQRT_HALF = np.sqrt(0.5)


def test_qpsk_constellation_points():
    x = generate_qpsk(4096, sigma_s2=2.0, seed=7)
    # amplitude sqrt(sigma_s2/2) per rail: points are (+-1 +-1j) here
    re = np.unique(np.round(x.real, 12))
    im = np.unique(np.round(x.imag, 12))
    np.testing.assert_allclose(re, [-1.0, 1.0])
    np.testing.assert_allclose(im, [-1.0, 1.0])


def test_qpsk_constant_envelope_and_power():
    sigma_s2 = 0.73
    x = generate_qpsk(1000, sigma_s2, seed=3)
    np.testing.assert_allclose(np.abs(x) ** 2, sigma_s2, rtol=1e-12)


def test_qpsk_uses_all_symbols():
    x = generate_qpsk(4000, 2.0, seed=11)
    symbols = {(round(v.real, 6), round(v.imag, 6)) for v in x}
    assert len(symbols) == 4


def test_qpsk_oversampling_holds_symbols():
    x = generate_qpsk(24, 2.0, seed=5, samples_per_symbol=4)
    for k in range(0, 24, 4):
        block = x[k : k + 4]
        assert np.all(block == block[0])
    # consecutive symbols differ somewhere in a long enough run
    y = generate_qpsk(400, 2.0, seed=5, samples_per_symbol=4)
    blocks = y.reshape(100, 4)
    assert len({complex(b[0]) for b in blocks}) > 1


def test_qpsk_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_qpsk(0, 1.0, seed=1)
    with pytest.raises(ValueError):
        generate_qpsk(8, -1.0, seed=1)
    with pytest.raises(ValueError):
        generate_qpsk(8, 1.0, seed=1, samples_per_symbol=0)


def test_awgn_moments():
    rng_seed = 123
    sigma_w2 = 1.7
    y = add_awgn(np.zeros(200_000, dtype=np.complex128), sigma_w2, rng_seed)
    assert abs(np.mean(y.real)) < 0.01
    assert abs(np.mean(y.imag)) < 0.01
    # total complex variance sigma_w2, split evenly between rails
    np.testing.assert_allclose(np.var(y.real), sigma_w2 / 2, rtol=0.02)
    np.testing.assert_allclose(np.var(y.imag), sigma_w2 / 2, rtol=0.02)
    np.testing.assert_allclose(np.mean(np.abs(y) ** 2), sigma_w2, rtol=0.02)


def test_awgn_adds_to_input():
    x = np.full(16, 1 + 1j, dtype=np.complex128)
    y = add_awgn(x, 0.5, 9)
    w = add_awgn(np.zeros(16, dtype=np.complex128), 0.5, 9)
    np.testing.assert_allclose(y, x + w)


def test_awgn_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        add_awgn(np.zeros(4, dtype=np.complex128), 0.0, 1)


def test_derive_seed_is_deterministic_and_distinct():
    a = derive_seed(42, 0, 1)
    assert a == derive_seed(42, 0, 1)
    others = {derive_seed(42, t, r) for t in range(50) for r in range(3)}
    assert len(others) == 150  # no collisions across trials/roles
    assert derive_seed(43, 0, 1) != a


def _seed_sequence_word(master_seed: int, *path: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=path)
    return int(ss.generate_state(1, np.uint64)[0])


def _seed_sequence_states(master_seed: int, trial: int, role: int) -> np.ndarray:
    seed = np.random.SeedSequence(_seed_sequence_word(master_seed, trial, role))
    return seed.generate_state(4, np.uint64)


def _column(master_seed: int, rows: list[tuple[int, int]]) -> np.ndarray:
    trials, roles = (np.array(column, np.uint32) for column in zip(*rows))
    return _column_states(master_seed, trials, roles)


# The word count first, 1 to 5 alike: the kernel mixes a trial's words into
# the pool after max(4, words) words, so five-word seeds take their own path.
_MASTER_SEEDS = st.integers(1, 5).flatmap(
    lambda words: st.integers(2 ** (32 * words - 32) if words > 1 else 0, 2 ** (32 * words) - 1))


@settings(derandomize=True, deadline=None)
@given(
    master_seed=_MASTER_SEEDS,
    rows=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2)), min_size=1,
                  max_size=12),
)
def test_column_states_equal_seed_sequence(master_seed, rows):
    got = _column(master_seed, rows)
    assert got.dtype == np.uint64 and got.shape == (len(rows), 4)
    np.testing.assert_array_equal(got, [_seed_sequence_states(master_seed, t, r) for t, r in rows])
    # the scalar calls as the batch of one
    t, r = rows[0]
    scalar = derive_seed(master_seed, t, r)
    assert type(scalar) is int and scalar == _seed_sequence_word(master_seed, t, r)
    np.testing.assert_array_equal(_pcg64_states(scalar), got[:1])


@pytest.mark.parametrize("master_seed", [7, 2**32 - 1, 2**128 + 1])
def test_column_states_at_the_last_trial_index(master_seed):
    # The plan rules allow 2**32 trials; the last index fills its seed word.
    rows = [(2**32 - 1, role) for role in range(3)] + [(0, 0)]
    np.testing.assert_array_equal(
        _column(master_seed, rows), [_seed_sequence_states(master_seed, t, r) for t, r in rows])


def test_scalar_derive_seed_takes_any_integer_path():
    for path in [(), (7,), (2**32, 1), (2**70 + 3, 0, 5), (np.int64(4), np.uint8(2))]:
        for master_seed in (0, 42, 2**128, 2**200 + 9):
            assert derive_seed(master_seed, *path) == _seed_sequence_word(
                master_seed, *(int(p) for p in path)
            )


def test_derive_seed_rejects_bad_entries():
    with pytest.raises(ValueError):
        derive_seed(-1, 0, 1)
    with pytest.raises(ValueError):
        derive_seed(42, -2, 1)
    with pytest.raises(TypeError):
        derive_seed(42, 1.5)


@settings(derandomize=True, deadline=None)
@given(extra=st.lists(st.integers(0, 2**64 - 1), max_size=10))
def test_pcg64_states_equal_seed_sequence(extra):
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + extra
    states = _states(seeds)
    assert states.dtype == np.uint64 and states.shape == (len(seeds), 4)
    for seed, row in zip(seeds, states):
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        np.testing.assert_array_equal(row, want)
    for seed, bit_generator in zip(seeds, _bit_generators(states)):
        np.testing.assert_array_equal(
            np.random.Generator(bit_generator).standard_normal(5),
            np.random.default_rng(seed).standard_normal(5),
        )


def _states(seeds: list[int]) -> np.ndarray:
    return np.concatenate([_pcg64_states(seed) for seed in seeds])


@settings(derandomize=True, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=4),
       k=st.integers(1, 300))
def test_qpsk_indices_from_raw_words_equal_generator_integers(seeds, k):
    got = _qpsk_indices(_states(seeds), k)
    assert got.shape == (len(seeds), k)
    for seed, row in zip(seeds, got):
        np.testing.assert_array_equal(row, np.random.default_rng(seed).integers(0, 4, size=k))


@settings(derandomize=True, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=4),
       half_width=st.floats(0.0, 30.0, exclude_min=True))
def test_uniforms_from_raw_words_equal_generator_uniform(seeds, half_width):
    want = [np.random.default_rng(s).uniform(-half_width, half_width) for s in seeds]
    assert _uniforms(_states(seeds), half_width) == want


def test_streams_equal_default_rng_draws():
    for seed in (0, 9, 2**40 + 1, 2**64 + 5, 2**130):
        x = np.linspace(-1.0, 1.0, 24) + 0.5j
        parts = np.random.default_rng(seed).standard_normal((2, 24))
        want = x + math.sqrt(0.7 / 2.0) * (parts[0] + 1j * parts[1])
        np.testing.assert_array_equal(add_awgn(x, 0.7, seed), want)
        idx = np.random.default_rng(seed).integers(0, 4, size=9)
        points = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) * math.sqrt(1.3 / 2.0)
        np.testing.assert_array_equal(generate_qpsk(25, 1.3, seed, samples_per_symbol=3),
                                      np.repeat(points[idx], 3)[:25])


def test_streams_with_same_seed_match():
    a = generate_qpsk(64, 1.0, seed=5)
    b = generate_qpsk(64, 1.0, seed=5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, generate_qpsk(64, 1.0, seed=6))


def test_frame_is_column_major_fill():
    stream = np.arange(12, dtype=np.complex128)
    f = frame(stream, l=3, n=4)
    assert f.l == 3 and f.n == 4
    # column k holds samples [3k, 3k+1, 3k+2]
    np.testing.assert_array_equal(f.data[:, 0], [0, 1, 2])
    np.testing.assert_array_equal(f.data[:, 3], [9, 10, 11])


def test_frame_roundtrip_and_truncation():
    stream = np.arange(30, dtype=np.complex128)
    f = frame(stream, l=4, n=6)
    np.testing.assert_array_equal(f.data.ravel(order="F"), stream[:24])


def test_frame_rejects_short_stream():
    with pytest.raises(ValueError):
        frame(np.zeros(7, dtype=np.complex128), l=2, n=4)


def test_sample_frame_validation():
    with pytest.raises(ValueError):
        SampleFrame(data=np.zeros((1, 8), dtype=np.complex128))  # l < 2
    with pytest.raises(ValueError):
        SampleFrame(data=np.zeros((8, 4), dtype=np.complex128))  # n < l
    bad = np.zeros((2, 4), dtype=np.complex128)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        SampleFrame(data=bad)

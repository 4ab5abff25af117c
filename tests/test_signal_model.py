"""Tests of the complex-baseband signal model."""
import numpy as np
import pytest

from specsense.signal_model import (
    SampleFrame,
    add_awgn,
    derive_seed,
    frame,
    generate_qpsk,
    snr_db,
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
    np.testing.assert_array_equal(f.to_stream(), stream[:24])


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


def test_snr_db():
    assert snr_db(1.0, 1.0) == 0.0
    np.testing.assert_allclose(snr_db(10.0, 1.0), 10.0)
    np.testing.assert_allclose(snr_db(0.5, 2.0), -6.020599913279624)
    with pytest.raises(ValueError):
        snr_db(1.0, 0.0)


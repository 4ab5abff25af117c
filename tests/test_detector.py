"""Tests of the energy detector, thresholds, and Q-function machinery."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from specsense.detector import (
    Verdict,
    _energies,
    closed_form_pd,
    closed_form_pfa,
    decide,
    dynamic_threshold,
    energy_statistic,
    q_function,
    q_inverse,
    static_threshold,
)
from specsense.signal_model import add_awgn

# Frozen from an independent statistics library (standard normal isf),
# regenerable with scipy.stats.norm.isf(p).
_QINV_TABLE = {
    0.001: 3.090232306167813,
    0.01: 2.3263478740408408,
    0.1: 1.2815515655446004,
    0.2: 0.8416212335729142,
    0.5: 0.0,
    0.9: -1.2815515655446004,
    0.999: -3.090232306167813,
}

# Frozen thresholds at sigma2=1, N=128: N + sqrt(2N) * isf(pfa).
_THRESHOLD_TABLE = {
    0.01: 165.22156598465347,
    0.1: 148.5048250487136,
    0.2: 141.46593973716662,
}


def test_q_function_known_values():
    assert abs(q_function(0.0) - 0.5) <= 1e-12
    np.testing.assert_allclose(q_function(1.2815515655446004), 0.1, atol=1e-12)
    np.testing.assert_allclose(q_function(-1.2815515655446004), 0.9, atol=1e-12)
    assert q_function(40.0) >= 0.0
    assert q_function(-40.0) <= 1.0


def test_q_function_symmetry():
    for x in (0.1, 0.7, 1.5, 3.0, 6.0):
        np.testing.assert_allclose(q_function(x) + q_function(-x), 1.0, atol=1e-14)


def test_q_inverse_matches_reference_table():
    for p, expected in _QINV_TABLE.items():
        assert abs(q_inverse(p) - expected) < 1e-9


def test_q_roundtrip():
    for p in (0.001, 0.01, 0.1, 0.2, 0.5, 0.9, 0.999):
        assert abs(q_function(q_inverse(p)) - p) <= 1e-9


_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(p=_OPEN_UNIT, gap=st.floats(1e-6, 0.5))
@example(p=5e-324, gap=0.5)
@example(p=1.0 - 2.0**-52, gap=0.5)
def test_q_inverse_finite_and_strictly_decreasing(p, gap):
    # The next point sits a share of the nearer tail above p.  Adjacent
    # floats may round to the same quantile, so the gap is at least 1e-6.
    after = p + gap * min(p, 1.0 - p)
    assume(p < after < 1.0)
    assert math.isfinite(q_inverse(p))
    assert q_inverse(p) > q_inverse(after)


def test_q_inverse_at_the_ends_of_the_open_interval():
    assert 38.0 < q_inverse(5e-324) < 39.0
    assert -8.3 < q_inverse(1.0 - 2.0**-53) < -8.1
    assert q_inverse(5e-324) > q_inverse(1e-323)
    assert q_inverse(1.0 - 2.0**-52) > q_inverse(1.0 - 2.0**-53)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1e-12, 1.0 - 1e-12))
@example(p=0.5)
@example(p=0.5 - 2.0**-54)
def test_q_inverse_matches_scipy_isf(p):
    norm = pytest.importorskip("scipy.stats").norm
    assert math.isclose(q_inverse(p), norm.isf(p), rel_tol=1e-12)


def test_q_inverse_rejects_out_of_range():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            q_inverse(p)


def test_static_threshold_reference_values():
    for pfa, expected in _THRESHOLD_TABLE.items():
        got = static_threshold(1.0, pfa, 128)
        assert abs(got - expected) < 1e-9


@settings(max_examples=300, deadline=None)
@given(scale=st.floats(0.0, exclude_min=True, allow_infinity=False), p=_OPEN_UNIT,
       n=st.integers(1, 2**40))
@example(scale=2.5, p=0.1, n=128)
@example(scale=5e-324, p=5e-324, n=1)
@example(scale=1.7976931348623157e308, p=1.0 - 2.0**-53, n=1)
def test_threshold_scales_linearly_with_noise_power(scale, p, n):
    # Bit for bit: a threshold is its noise power times the unit-power one.
    assert dynamic_threshold(scale, p, n) == scale * dynamic_threshold(1.0, p, n)


def test_static_equals_dynamic_at_same_power():
    # the two modes share one formula; only the power source differs
    assert static_threshold(1.3, 0.05, 64) == dynamic_threshold(1.3, 0.05, 64)


def test_threshold_monotonic_in_pfa():
    lams = [static_threshold(1.0, p, 128) for p in (0.01, 0.05, 0.1, 0.2, 0.4)]
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_threshold_rejects_bad_args():
    with pytest.raises(ValueError):
        static_threshold(0.0, 0.1, 128)
    with pytest.raises(ValueError):
        static_threshold(1.0, 0.0, 128)
    with pytest.raises(ValueError):
        static_threshold(1.0, 1.0, 128)
    with pytest.raises(ValueError):
        static_threshold(1.0, 0.1, 0)


def test_energy_statistic_hand_value():
    samples = np.array([1 + 1j, -2.0, 0.5j], dtype=np.complex128)
    stat = energy_statistic(samples)
    # 2 Re(x)^2 summed: 2 * (1 + 4 + 0)
    assert type(stat) is float
    np.testing.assert_allclose(stat, 10.0, rtol=1e-15)


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 300)),
       is_complex=st.booleans(), stride=st.integers(1, 3), scale_exp=st.integers(-150, 150),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_energies_equal_single_window_bits(shape, is_complex, stride, scale_exp, seed):
    rng = np.random.default_rng(seed)
    *stack, n = shape
    x = rng.standard_normal((*stack, n * stride))
    if is_complex:
        x = x + 1j * rng.standard_normal(x.shape)
    x *= 10.0**scale_exp
    windows = x[..., ::stride]  # strided, and a strided .real view when complex
    for view in (windows, windows.real):
        energies = _energies(view)
        assert energies.shape == tuple(stack)
        for index in np.ndindex(*stack):
            assert energies[index] == energy_statistic(view[index])


def test_public_recipe_hits_target_pfa():
    # add_awgn -> energy_statistic -> dynamic_threshold -> decide at the true
    # noise power, over pure-noise windows: Pfa within 4.5 standard errors
    target, n, trials = 0.1, 128, 4000
    threshold = dynamic_threshold(1.0, target, n)
    alarms = 0
    for seed in range(trials):
        window = add_awgn(np.zeros(n, np.complex128), 1.0, seed)
        alarms += decide(energy_statistic(window), threshold).verdict is Verdict.PRESENT_H1
    assert abs(alarms / trials - target) <= 4.5 * math.sqrt(target * (1 - target) / trials)


def test_energy_statistic_rejects_empty():
    with pytest.raises(ValueError):
        energy_statistic(np.zeros(0, dtype=np.complex128))


def test_decide_tie_resolves_absent():
    stat = 10.0
    assert decide(stat, 10.0).verdict is Verdict.ABSENT_H0
    assert decide(stat, 9.999).verdict is Verdict.PRESENT_H1
    assert decide(stat, 10.001).verdict is Verdict.ABSENT_H0


def test_decide_rejects_nonfinite_threshold():
    with pytest.raises(ValueError):
        decide(1.0, math.inf)


def test_closed_form_pfa_inverts_threshold():
    # threshold built for a target must map back to that target
    for pfa in (0.01, 0.1, 0.2):
        lam = static_threshold(1.0, pfa, 128)
        np.testing.assert_allclose(closed_form_pfa(lam, 128, 1.0), pfa, atol=1e-12)


def test_closed_form_pd_reference_point():
    # z = (148.5048 - 128*1.5)/(1.5*16) => Pd = Q(z); frozen via normal sf
    lam = 148.5048250487136
    pd = closed_form_pd(lam, 128, 1.0, 0.5)
    z = (lam - 128 * 1.5) / (1.5 * math.sqrt(256.0))
    np.testing.assert_allclose(pd, q_function(z), rtol=1e-14)
    np.testing.assert_allclose(pd, 0.9650299921269051, atol=1e-12)


def test_closed_form_pd_monotone_in_snr():
    lam = static_threshold(1.0, 0.1, 128)
    pds = [closed_form_pd(lam, 128, 1.0, s) for s in (0.05, 0.1, 0.3, 1.0, 3.0)]
    assert all(a < b for a, b in zip(pds, pds[1:]))
    assert pds[-1] > 0.999


def test_closed_form_pd_at_zero_signal_equals_pfa():
    lam = static_threshold(1.0, 0.15, 128)
    np.testing.assert_allclose(
        closed_form_pd(lam, 128, 1.0, 0.0), closed_form_pfa(lam, 128, 1.0), rtol=1e-12
    )

"""Tests of the blind noise-power estimation pipeline."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    charpoly_eigs,
    fit_scores_broadcast,
    linspace_grid,
    mdl_brute,
    mp_cdf_quad,
    mp_cdf_unit_broadcast,
    planted_spectrum_matrix,
    power_deflation_eigs,
    random_hermitian_psd,
)
from specsense.noise_estimator import (
    CovarianceMatrix,
    EigenSpectrum,
    EstimationFailure,
    NoiseEstimate,
    _fit_scores,
    _fit_spectra,
    _linear_grid,
    _mdl_constants,
    _mdl_counts,
    _mp_cdf_unit,
    _sum_eigenvalues,
    eigenvalues_hermitian,
    estimate_noise,
    estimate_noise_batch,
    mdl_signal_count,
    mp_cdf,
    sample_covariance,
    sigma_bounds,
)
from specsense.signal_model import SampleFrame, _snapshots, add_awgn, frame, generate_qpsk

# Frozen from the adaptive-quadrature oracle (mp_cdf_quad), regenerable
# with scipy.integrate.quad over the spectral density.
_MP_TABLE = [
    (0.5, 0.125, 1.0, 0.05006873225809052),
    (1.0, 0.25, 1.0, 0.5533900812752863),
    (1.2, 0.0625, 1.0, 0.756585989009992),
    (3.0, 0.5, 2.0, 0.7542448820629977),
    (0.9, 0.0625, 0.5, 1.0),
    (2.0, 0.25, 2.0, 0.5533900812752863),
]


def _noise_frame(l: int, n: int, sigma_w2: float, seed: int) -> SampleFrame:
    stream = add_awgn(np.zeros(l * n, dtype=np.complex128), sigma_w2, seed)
    return frame(stream, l, n)


# ---------------------------------------------------------------- covariance


def test_sample_covariance_hand_value():
    data = np.array([[1.0, 1j], [2.0, -1.0]], dtype=np.complex128)
    cov = sample_covariance(SampleFrame(data=data))
    # (1/2) Y Y^H computed by hand
    expected = 0.5 * np.array([[2.0, 2.0 - 1j], [2.0 + 1j, 5.0]])
    np.testing.assert_allclose(cov.entries, expected, atol=1e-15)
    assert cov.n_snapshots == 2


def test_sample_covariance_is_hermitian_psd():
    f = _noise_frame(6, 64, 1.0, 11)
    cov = sample_covariance(f)
    np.testing.assert_allclose(cov.entries, cov.entries.conj().T, atol=1e-14)
    eigs = eigenvalues_hermitian(cov)
    assert eigs.values[-1] >= 0.0


def test_covariance_matrix_rejects_non_hermitian():
    bad = np.array([[1.0, 2.0], [3.0, 1.0]], dtype=np.complex128)
    with pytest.raises(ValueError):
        CovarianceMatrix(entries=bad, n_snapshots=4)
    with pytest.raises(ValueError, match="square"):
        CovarianceMatrix(entries=np.eye(2, 3, dtype=np.complex128), n_snapshots=4)
    with pytest.raises(ValueError, match="n_snapshots must be positive"):
        CovarianceMatrix(entries=np.eye(2, dtype=np.complex128), n_snapshots=0)
    # The tolerance is 1e-12 of the largest entry's size (at least 1).
    m = np.array([[2.0, 0.5 + 0.25j], [0.5 - 0.25j, 1.0]])
    for off, accepted in ((1e-13, True), (1e-9, False)):
        skewed = m.copy()
        skewed[0, 1] += off
        if accepted:
            assert CovarianceMatrix(entries=skewed, n_snapshots=4).l == 2
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                CovarianceMatrix(entries=skewed, n_snapshots=4)
    # A NaN compares neither equal nor greater, so the symmetry test alone
    # lets it through, and eigvalsh gives diag(1, 1, nan) the spectrum (1, 0, 0).
    off_diagonal = np.eye(3, dtype=np.complex128)
    off_diagonal[0, 1] = off_diagonal[1, 0] = np.nan
    for bad in (np.diag([1.0, 1.0, np.nan]), off_diagonal, np.diag([np.inf, 1.0]),
                np.diag([1.0, complex(1.0, -np.inf)])):
        with pytest.raises(ValueError, match="finite"):
            CovarianceMatrix(entries=np.asarray(bad, np.complex128), n_snapshots=4)


# ---------------------------------------------------------------- eigensolver


def test_eigenvalues_known_3x3():
    m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    cov = CovarianceMatrix(entries=m.astype(np.complex128), n_snapshots=3)
    np.testing.assert_allclose(eigenvalues_hermitian(cov).values, [5.0, 3.0, 1.0],
                               atol=1e-12)


def test_eigenvalues_diagonal_matrix_exact():
    d = np.diag([4.0, 2.5, 1.0, 0.25]).astype(np.complex128)
    cov = CovarianceMatrix(entries=d, n_snapshots=4)
    np.testing.assert_allclose(eigenvalues_hermitian(cov).values,
                               [4.0, 2.5, 1.0, 0.25], atol=0)


def test_eigenvalues_match_charpoly_oracle():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = random_hermitian_psd(rng, 4)
        cov = CovarianceMatrix(entries=m, n_snapshots=8)
        got = np.array(eigenvalues_hermitian(cov).values)
        np.testing.assert_allclose(got, charpoly_eigs(m), atol=1e-10)


def test_eigenvalues_match_power_deflation_oracle():
    rng = np.random.default_rng(22)
    for _ in range(50):
        l = int(rng.integers(2, 11))
        m = random_hermitian_psd(rng, l)
        cov = CovarianceMatrix(entries=m, n_snapshots=l * 2)
        got = np.array(eigenvalues_hermitian(cov).values)
        np.testing.assert_allclose(got, power_deflation_eigs(m), atol=1e-8)


def test_eigenvalues_recover_planted_spectrum():
    rng = np.random.default_rng(23)
    planted = np.array([5.0, 2.0, 2.0, 0.7, 0.1, 0.0])
    m = planted_spectrum_matrix(rng, planted)
    cov = CovarianceMatrix(entries=m, n_snapshots=12)
    np.testing.assert_allclose(eigenvalues_hermitian(cov).values, planted, atol=1e-10)


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    planted=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=16),
)
def test_eigenvalues_recover_planted_spectrum_up_to_l16(seed, planted):
    planted = np.sort(planted)[::-1]
    m = planted_spectrum_matrix(np.random.default_rng(seed), planted)
    cov = CovarianceMatrix(entries=m, n_snapshots=2 * planted.size)
    np.testing.assert_allclose(eigenvalues_hermitian(cov).values, planted,
                               atol=1e-10 * max(1.0, planted[0]))


def test_eigenvalue_trace_identity():
    rng = np.random.default_rng(24)
    for _ in range(20):
        m = random_hermitian_psd(rng, 7)
        cov = CovarianceMatrix(entries=m, n_snapshots=14)
        eigs = eigenvalues_hermitian(cov)
        np.testing.assert_allclose(
            sum(eigs.values), np.trace(m).real, rtol=1e-9
        )


def _rotated(diagonal: list[float], seed: int) -> CovarianceMatrix:
    """An exactly Hermitian Q diag(diagonal) Q^H for a random unitary Q."""
    rng = np.random.default_rng(seed)
    l = len(diagonal)
    q, _ = np.linalg.qr(rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l)))
    m = (q * np.array(diagonal)) @ q.conj().T
    return CovarianceMatrix(entries=0.5 * (m + m.conj().T), n_snapshots=2 * l)


def test_eigenvalues_reject_a_matrix_that_is_not_psd():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        eigenvalues_hermitian(_rotated([3.0, 1.0, 0.5, -0.5], 3))
    # The bound is -1e-10 of the trace: a rounding-size negative eigenvalue,
    # about -1e-12 of it, passes and is clamped to zero.
    values = eigenvalues_hermitian(_rotated([3.0, 1.0, 0.5, -4.5e-12], 4)).values
    assert values[-1] == 0.0
    np.testing.assert_allclose(values[:3], [3.0, 1.0, 0.5], rtol=1e-12)


def test_eigen_spectrum_validation():
    with pytest.raises(ValueError):
        EigenSpectrum(values=(1.0, 2.0))  # ascending
    with pytest.raises(ValueError):
        EigenSpectrum(values=(1.0, -0.5))  # negative
    with pytest.raises(ValueError):
        EigenSpectrum(values=())
    for bad in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            EigenSpectrum(values=bad)


# ------------------------------------------------------------------- MDL


def test_mdl_worked_examples():
    # one dominant eigenvalue over a flat noise floor
    s1 = EigenSpectrum(values=(5.0, 1.1, 1.05, 1.02, 1.0, 0.98, 0.95, 0.9))
    assert mdl_signal_count(s1, 128) == 1
    # two dominant eigenvalues
    s2 = EigenSpectrum(values=(8.0, 4.0, 1.1, 1.05, 1.0, 1.0, 0.95, 0.9))
    assert mdl_signal_count(s2, 256) == 2
    # flat spectrum: pure noise
    s0 = EigenSpectrum(values=(1.08, 1.03, 1.0, 0.99, 0.97, 0.95, 0.92))
    assert mdl_signal_count(s0, 128) == 0


def test_mdl_matches_brute_force_oracle():
    rng = np.random.default_rng(31)
    for _ in range(300):
        l = int(rng.integers(2, 11))
        n = int(rng.integers(l + 1, 2048))
        eigs = np.sort(rng.uniform(0.01, 10.0, size=l))[::-1]
        spectrum = EigenSpectrum(values=tuple(eigs))
        assert mdl_signal_count(spectrum, n) == mdl_brute(eigs, n)


# Levels repeat and include zero, so spectra have exact ties and zero tails.
_MDL_LEVELS = (st.sampled_from([0.0, 0.0, 1e-300, 0.25, 1.0, 1.0, 1.0, 2.5, 40.0])
               | st.floats(0.0, 1e6))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), l=st.integers(2, 32), rows=st.integers(1, 6),
       n=st.integers(1, 4096))
def test_stacked_mdl_counts_equal_each_row_alone(data, l, rows, n):
    lam = np.array([sorted(data.draw(st.lists(_MDL_LEVELS, min_size=l, max_size=l)),
                           reverse=True) for _ in range(rows)])
    counts = _mdl_counts(lam, n)
    for row, count in zip(lam, counts):
        assert count == mdl_signal_count(EigenSpectrum(values=tuple(row)), n)


def test_mdl_constants_are_shared_read_only():
    counts, scale, penalty = _mdl_constants(6, 50)
    assert _mdl_constants(6, 50)[0] is counts  # cached: every caller shares them
    k = np.arange(6)
    np.testing.assert_array_equal(counts, 6 - k)
    np.testing.assert_array_equal(scale, -(6 - k) * 50)
    np.testing.assert_array_equal(penalty, 0.5 * k * (12 - k) * math.log(50))
    for v in (counts, scale, penalty):
        assert v.dtype == np.float64 and not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0


def test_mdl_zero_eigenvalues_do_not_crash():
    s = EigenSpectrum(values=(2.0, 1.0, 0.0, 0.0))
    assert 0 <= mdl_signal_count(s, 64) <= 3
    with pytest.raises(ValueError, match="n_snapshots must be positive"):
        mdl_signal_count(s, 0)


# ------------------------------------------------------------- sigma bounds


def test_sigma_bounds_formulas():
    lo, hi = sigma_bounds(0.81, 1.44, k_hat=1, l=8, n_snapshots=128)
    p = 8 / 128
    # largest noise eigenvalue caps sigma2 from below, smallest from above
    np.testing.assert_allclose(lo, 1.44 / (1 + np.sqrt(p)) ** 2, rtol=1e-14)
    np.testing.assert_allclose(hi, 0.81 / (1 - np.sqrt(p)) ** 2, rtol=1e-14)
    assert lo < hi


def test_sigma_bounds_swaps_inverted_interval():
    # a small enough upper eigenvalue flips the raw interval
    lo, hi = sigma_bounds(1.0, 1.0, k_hat=1, l=8, n_snapshots=128)
    assert lo <= hi


def test_sigma_bounds_rejects_excess_rank():
    with pytest.raises(EstimationFailure):
        sigma_bounds(0.5, 1.0, k_hat=7, l=8, n_snapshots=128)
    with pytest.raises(ValueError, match="k_hat must be non-negative"):
        sigma_bounds(0.5, 1.0, k_hat=-1, l=8, n_snapshots=128)
    with pytest.raises(ValueError, match="need more snapshots than rows"):
        sigma_bounds(0.5, 1.0, k_hat=1, l=8, n_snapshots=8)
    for pair, message in (((-0.5, 1.0), "non-negative"), ((0.5, -1.0), "non-negative"),
                          ((math.nan, 1.0), "finite"), ((0.5, math.nan), "finite"),
                          ((math.inf, 1.0), "finite"), ((0.5, math.inf), "finite")):
        with pytest.raises(ValueError, match=f"eigenvalues must be {message}"):
            sigma_bounds(*pair, k_hat=1, l=8, n_snapshots=128)


# ------------------------------------------------------------------ MP CDF


def test_mp_cdf_matches_quadrature_oracle():
    for z, p, s2, expected in _MP_TABLE:
        np.testing.assert_allclose(mp_cdf(z, p, s2), expected, atol=1e-8)


def test_mp_cdf_support_edges():
    p, s2 = 0.25, 1.0
    a = s2 * (1 - np.sqrt(p)) ** 2
    b = s2 * (1 + np.sqrt(p)) ** 2
    assert mp_cdf(a - 1e-12, p, s2) == 0.0
    assert mp_cdf(0.0, p, s2) == 0.0
    assert abs(mp_cdf(b, p, s2) - 1.0) <= 1e-6
    assert mp_cdf(b + 1.0, p, s2) == 1.0


def test_mp_cdf_total_mass_and_monotonicity():
    for p in (0.1, 0.25, 0.5):
        for s2 in (0.5, 1.0, 2.0):
            b = s2 * (1 + np.sqrt(p)) ** 2
            grid = np.linspace(0.0, b * 1.05, 500)
            vals = np.array([mp_cdf(z, p, s2) for z in grid])
            assert abs(vals[-1] - 1.0) <= 1e-6
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all((vals >= 0.0) & (vals <= 1.0))


@settings(derandomize=True, deadline=None)
@given(p=st.floats(1e-3, 0.99))
def test_mp_cdf_matches_quadrature_next_to_support_edges(p):
    a = (1 - np.sqrt(p)) ** 2
    b = (1 + np.sqrt(p)) ** 2
    for k in range(3, 13):
        for z in (a * (1 + 10.0**-k), b * (1 - 10.0**-k)):
            expected = mp_cdf_quad(z, p, 1.0)
            np.testing.assert_allclose(mp_cdf(z, p, 1.0), expected, atol=1e-8)


@settings(derandomize=True, deadline=None)
@given(p=st.floats(1e-3, 0.99))
def test_mp_cdf_non_decreasing_on_dense_grid(p):
    a = (1 - np.sqrt(p)) ** 2
    b = (1 + np.sqrt(p)) ** 2
    grid = np.linspace(a - 0.01 * (b - a), b + 0.01 * (b - a), 20001)
    vals = _mp_cdf_unit(grid, p)  # the vectorized path the fit evaluates
    assert np.all(np.diff(vals) >= 0.0)


@settings(derandomize=True, deadline=None)
@given(p=st.floats(1e-3, 0.99), u=st.floats(0.05, 0.95))
def test_mp_cdf_central_difference_matches_density(p, u):
    # a quadrature-free oracle: dF/dz must equal the MP density
    a = (1 - np.sqrt(p)) ** 2
    b = (1 + np.sqrt(p)) ** 2
    z = a + u * (b - a)
    h = 1e-4 * (b - a)
    slope = (mp_cdf(z + h, p, 1.0) - mp_cdf(z - h, p, 1.0)) / (2 * h)
    density = np.sqrt((b - z) * (z - a)) / (2 * np.pi * p * z)
    np.testing.assert_allclose(slope, density, rtol=1e-6)


def test_mp_cdf_scale_equivariance():
    for z in (0.7, 1.0, 1.9):
        np.testing.assert_allclose(
            mp_cdf(z * 3.0, 0.25, 3.0), mp_cdf(z, 0.25, 1.0), rtol=1e-12
        )


def test_mp_cdf_rejects_bad_args():
    with pytest.raises(ValueError):
        mp_cdf(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        mp_cdf(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mp_cdf(1.0, 0.25, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            mp_cdf(1.0, 0.25, bad)
    with pytest.raises(ValueError, match="z must not be NaN"):
        mp_cdf(math.nan, 0.25, 1.0)
    # Infinite levels lie below and above the support.
    assert mp_cdf(-math.inf, 0.25, 1.0) == 0.0 and mp_cdf(math.inf, 0.25, 1.0) == 1.0


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ulps=st.lists(st.integers(-6, 6), min_size=1, max_size=40),
)
def test_mp_cdf_unit_equals_broadcast_reference_bit_for_bit(seed, p, ulps):
    # in-place evaluation against the plain expression, a few ulps either
    # side of each support edge, across the support and at non-finite points
    root = math.sqrt(p)
    offsets = np.array(ulps, dtype=float)
    edges = [x + offsets * np.spacing(x) for x in ((1.0 - root) ** 2, (1.0 + root) ** 2)]
    inside = np.random.default_rng(seed).uniform(0.0, 1.2 * (1.0 + root) ** 2, 500)
    z = np.concatenate(edges + [inside, [0.0, -0.0, -1.0, np.inf, -np.inf, np.nan]])
    got = _mp_cdf_unit(z, p)
    assert np.array_equal(got, mp_cdf_unit_broadcast(z, p), equal_nan=True)
    assert np.array_equal(np.isnan(got), np.isnan(z))


# ---------------------------------------------------------- goodness of fit


def _fit_score(eigs: np.ndarray, p_eff: float, sigma2: float) -> float:
    """The fit score of one row of noise eigenvalues against one candidate variance."""
    return float(_fit_scores(eigs[None], p_eff, np.array([[sigma2]]))[0, 0])


def test_goodness_of_fit_frozen_value():
    # midpoint plotting positions + quadrature CDF, computed externally
    eigs = np.array([1.3, 1.1, 0.95, 0.8])
    got = _fit_score(eigs, p_eff=0.05, sigma2=1.0)
    np.testing.assert_allclose(got, 0.13363255455883835, atol=1e-7)


def test_goodness_of_fit_agrees_with_oracle_recomputation():
    rng = np.random.default_rng(41)
    for _ in range(5):
        eigs = np.sort(rng.uniform(0.5, 1.6, size=8))[::-1]
        p_eff = float(rng.uniform(0.03, 0.3))
        positions = (np.arange(1, 9) - 0.5) / 8.0  # ascending midpoints
        resid = [
            positions[i] - mp_cdf_quad(v, p_eff, 1.0)
            for i, v in enumerate(np.sort(eigs))
        ]
        expected = float(np.sqrt(np.sum(np.square(resid))))
        np.testing.assert_allclose(
            _fit_score(eigs, p_eff, 1.0), expected, atol=1e-7
        )


def test_goodness_of_fit_scale_invariance():
    eigs = np.array([1.4, 1.1, 0.9, 0.7])
    a = _fit_score(eigs, 0.1, 1.0)
    b = _fit_score(eigs * 2.0, 0.1, 2.0)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_goodness_of_fit_prefers_true_scale():
    rng = np.random.default_rng(42)
    f = _noise_frame(8, 512, 1.0, 55)
    from specsense.noise_estimator import sample_covariance as cov_of

    eigs = np.array(eigenvalues_hermitian(cov_of(f)).values)
    p_eff = 8 / 512
    right = _fit_score(eigs, p_eff, 1.0)
    assert right < _fit_score(eigs, p_eff, 0.7)
    assert right < _fit_score(eigs, p_eff, 1.4)


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 12),
    m=st.integers(2, 300),
    g=st.integers(1, 80),
    p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    log_scale=st.floats(-300.0, 300.0),
    ties=st.booleans(),
)
@example(seed=3, rows=5, m=7, g=9, p=0.5, log_scale=0.0, ties=False)
@example(seed=4, rows=5, m=8, g=9, p=0.5, log_scale=0.0, ties=True)
@example(seed=5, rows=5, m=128, g=9, p=0.5, log_scale=0.0, ties=False)
@example(seed=6, rows=5, m=129, g=9, p=0.5, log_scale=0.0, ties=False)
@example(seed=7, rows=2, m=300, g=3, p=0.5, log_scale=-300.0, ties=True)
def test_fit_scores_equal_broadcast_reference_bit_for_bit(seed, rows, m, g, p, log_scale, ties):
    # the (R, M, G) layout must give every score the (R, G, M) cube's bits,
    # at noise scales from 1e-300 to 1e300, with tied and zero eigenvalues,
    # across the summation's 8- and 128-term boundaries; a candidate scores
    # alone as it does inside its grid
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    eigs = rng.uniform(0.0, 3.0, (rows, m))
    if ties:
        eigs = np.round(eigs)
    eigs = np.sort(eigs, axis=1)[:, ::-1] * scale
    grid = np.sort(rng.uniform(0.2, 2.0, (rows, g)), axis=1) * scale
    got = _fit_scores(eigs, p, grid)
    assert got.shape == (rows, g)
    assert np.array_equal(got, fit_scores_broadcast(eigs, p, grid), equal_nan=True)
    assert all(
        np.array_equal(_fit_scores(eigs, p, grid[:, [i]]), got[:, [i]], equal_nan=True)
        for i in range(g)
    )


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 6),
    m=st.integers(1, 300),
    g=st.integers(1, 12),
    kinds=st.lists(st.sampled_from(["uniform", "zero", "tied", "subnormal", "huge"]),
                   min_size=1, max_size=5),
)
@example(seed=0, rows=1, m=7, g=1, kinds=["uniform"])
@example(seed=0, rows=1, m=8, g=1, kinds=["uniform"])
@example(seed=0, rows=2, m=128, g=3, kinds=["subnormal", "zero"])
@example(seed=0, rows=2, m=129, g=3, kinds=["huge"])
@example(seed=0, rows=2, m=299, g=3, kinds=["tied", "huge"])
def test_sum_eigenvalues_has_numpys_bits_at_every_length(seed, rows, m, g, kinds):
    # non-negative cells, as squared residuals are, mixed per cell from
    # uniform draws, zeros, ties, subnormals and values whose sums overflow
    rng = np.random.default_rng(seed)
    pools = {
        "uniform": rng.uniform(0.0, 1.0, (rows, m, g)),
        "zero": np.zeros((rows, m, g)),
        "tied": np.full((rows, m, g), 0.1),
        "subnormal": rng.integers(0, 2**40, (rows, m, g)) * 5e-324,
        "huge": rng.uniform(0.5, 1.0, (rows, m, g)) * 1.7e308,
    }
    choice = rng.integers(0, len(kinds), (rows, m, g))
    cells = np.choose(choice, [pools[k] for k in kinds])
    with np.errstate(over="ignore"):
        expected = np.sum(cells.transpose(0, 2, 1).copy(), axis=-1)
        got = _sum_eigenvalues(cells)
    assert got.shape == (rows, g)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
    m=st.integers(2, 300),
    log_scale=st.floats(-300.0, 300.0),
    zero_step=st.integers(0, 39),
)
def test_linear_grid_equals_linspace_bit_for_bit(seed, rows, m, log_scale, zero_step):
    # one row may span a single subnormal step, which (for m > 2)
    # underflows to a zero step and switches that row's rounding alone
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.1, 1.0, rows) * 10.0**log_scale
    hi = lo * rng.uniform(1.0, 20.0, rows)
    if zero_step < rows:
        lo[zero_step] = 5e-324 * float(rng.integers(1, 1000))
        hi[zero_step] = lo[zero_step] + (5e-324 if m > 2 else 0.0)
        assert ((hi - lo) / (m - 1) == 0.0).any()
    assert np.array_equal(_linear_grid(lo, hi, m), linspace_grid(lo, hi, m))


def test_degenerate_grid_scores_as_a_one_point_grid():
    # at N = 128 the edges map 0.5625 and 1.5625 both to exactly 1.0
    lam = np.array([[1.5625, 1.3, 1.2, 1.1, 1.0, 0.9, 0.7, 0.5625]])
    k_hat, lo, hi, sigma, scores, cause = _fit_spectra(lam, 128, 100)
    assert k_hat[0] == 0 and lo[0] == hi[0] == 1.0 and cause[0] == 0
    assert sigma[0] == 1.0
    one_point = _fit_scores(lam, 8 / 128, np.array([[1.0]]))
    assert np.array_equal(scores, np.repeat(one_point, 100, axis=1))


def test_a_record_with_equal_bounds_is_degenerate():
    record = dict(sigma_hat2=1.0, k_hat=0, beta_hat=0.0, sigma_lo2=1.0, fit_scores=(0.5,),
                  p_ratio=8 / 128)
    assert NoiseEstimate(sigma_hi2=1.0, **record).degenerate_grid
    assert not NoiseEstimate(sigma_hi2=np.nextafter(1.0, 2.0), **record).degenerate_grid


# ------------------------------------------------------------ full pipeline


def test_estimate_noise_accuracy_pure_awgn():
    hits = 0
    values = []
    for seed in range(30):
        f = _noise_frame(8, 512, 1.0, 1000 + seed)
        est = estimate_noise(f, m_grid=100)
        values.append(est.sigma_hat2)
        if abs(est.sigma_hat2 - 1.0) <= 0.15:
            hits += 1
    assert hits == 30
    assert abs(np.mean(values) - 1.0) < 0.05


def test_estimate_noise_scale_equivariance_exact():
    f = _noise_frame(8, 256, 1.0, 77)
    est1 = estimate_noise(f, m_grid=100)
    f4 = SampleFrame(data=f.data * 2.0)  # power of two: exact float scaling
    est4 = estimate_noise(f4, m_grid=100)
    assert est4.sigma_hat2 == 4.0 * est1.sigma_hat2
    assert est4.k_hat == est1.k_hat


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    l=st.sampled_from([4, 8, 16]),
    k=st.integers(-40, 40),
    sigma_s2=st.sampled_from([0.0, 4.0]),
)
def test_estimate_noise_power_of_two_scale_equivariance(seed, l, k, sigma_s2):
    f = _noise_frame(l, 16 * l, 1.0, seed)
    if sigma_s2:  # a rank-1 signal makes k_hat > 0
        signal = generate_qpsk(l * f.n, sigma_s2, seed, samples_per_symbol=l)
        f = SampleFrame(data=f.data + frame(signal, l, f.n).data)
    est = estimate_noise(f)
    scaled = estimate_noise(SampleFrame(data=f.data * 2.0**k))
    assert scaled.sigma_hat2 == 4.0**k * est.sigma_hat2
    assert scaled.k_hat == est.k_hat


def test_estimate_noise_flags_single_dominant_signal():
    noise = add_awgn(np.zeros(8 * 256, dtype=np.complex128), 1.0, 91)
    signal = generate_qpsk(8 * 256, 10.0, 92, samples_per_symbol=8)
    est = estimate_noise(frame(signal + noise, 8, 256), m_grid=100)
    assert est.k_hat == 1
    assert abs(est.beta_hat - 1.0 / 8.0) < 1e-12
    assert abs(est.sigma_hat2 - 1.0) < 0.3


def test_estimate_noise_deterministic():
    f = _noise_frame(8, 256, 2.0, 5)
    a = estimate_noise(f, m_grid=100)
    b = estimate_noise(f, m_grid=100)
    assert a.sigma_hat2 == b.sigma_hat2
    assert a.fit_scores == b.fit_scores


def test_estimate_noise_reports_grid_diagnostics():
    f = _noise_frame(8, 512, 1.0, 13)
    est = estimate_noise(f, m_grid=64)
    assert len(est.fit_scores) == 64
    assert est.sigma_lo2 <= est.sigma_hat2 <= est.sigma_hi2
    assert est.p_ratio == 8 / 512
    best = min(est.fit_scores)
    assert est.fit_scores[int(np.argmin(est.fit_scores))] == best


def _saturated_frame() -> SampleFrame:
    """L-1 strong planted components over weak noise, at L=4, N=64."""
    rng = np.random.default_rng(61)
    l, n = 4, 64
    mixing = rng.standard_normal((l, l - 1)) + 1j * rng.standard_normal((l, l - 1))
    symbols = rng.standard_normal((l - 1, n)) + 1j * rng.standard_normal((l - 1, n))
    data = 30.0 * (mixing @ symbols)
    data += add_awgn(np.zeros(l * n, dtype=np.complex128), 1e-4, 62).reshape(l, n)
    return SampleFrame(data=data)


def test_estimate_noise_rejects_saturated_rank():
    # L-1 strong planted components leave too few noise eigenvalues
    with pytest.raises(EstimationFailure):
        estimate_noise(_saturated_frame(), m_grid=50)


def test_estimate_noise_rejects_zero_noise_floor():
    # no noise at all leaves a zero smallest eigenvalue and no noise floor
    silent = SampleFrame(data=np.zeros((8, 128), dtype=np.complex128))
    rank1 = frame(generate_qpsk(8 * 128, 1.0, 5, samples_per_symbol=8), 8, 128)
    for f in (silent, rank1):
        with pytest.raises(EstimationFailure):
            estimate_noise(f, m_grid=100)


def test_each_failure_cause_fails_its_own_row_with_its_own_message():
    # One stack: a fitted frame, a rank-saturated frame and a zero-floor frame.
    frames = [_noise_frame(4, 64, 1.0, 7), _saturated_frame(),
              SampleFrame(data=np.zeros((4, 64), dtype=np.complex128))]
    got = estimate_noise_batch(np.stack([f.data for f in frames]), m_grid=50)
    assert got[0] == estimate_noise(frames[0], m_grid=50).sigma_hat2
    assert np.isnan(got[1:]).all()
    lam = np.array([eigenvalues_hermitian(sample_covariance(f)).values for f in frames])
    assert _fit_spectra(lam, 64, 50)[5].tolist() == [0, 1, 2]
    with pytest.raises(EstimationFailure, match=r"^MDL attributed 3 of 4 eigenvalues to signal$"):
        estimate_noise(frames[1], m_grid=50)
    with pytest.raises(EstimationFailure,
                       match=r"^smallest eigenvalue is zero: no noise floor to fit$"):
        estimate_noise(frames[2], m_grid=50)


def test_estimate_noise_validates_arguments():
    f = _noise_frame(8, 256, 1.0, 3)
    with pytest.raises(ValueError):
        estimate_noise(f, m_grid=1)
    square = SampleFrame(data=f.data[:, :8])
    with pytest.raises(ValueError):
        estimate_noise(square, m_grid=10)  # needs N > L


# ------------------------------------------------------------ stacked frames


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    l=st.sampled_from([4, 6, 8, 16]),
    kinds=st.lists(st.sampled_from(["noise", "signal", "zero"]), min_size=1, max_size=6),
)
def test_batch_rows_equal_single_frame_estimates(seed, l, kinds):
    n = 16 * l
    rng = np.random.default_rng(seed)
    streams = np.zeros((len(kinds), l * n), dtype=np.complex128)
    for r, kind in enumerate(kinds):
        if kind == "zero":  # no noise floor: this row alone must fail
            continue
        sigma2 = 10.0 ** rng.uniform(-1.0, 1.0)
        streams[r] = add_awgn(streams[r], sigma2, seed + r)
        if kind == "signal":
            sps = int(rng.choice([1, 2, l]))
            streams[r] += generate_qpsk(l * n, 4.0 * sigma2, seed + r, samples_per_symbol=sps)
    want = []
    for stream in streams:
        try:
            want.append(estimate_noise(frame(stream, l, n), m_grid=50).sigma_hat2)
        except EstimationFailure:
            want.append(math.nan)
    got = estimate_noise_batch(_snapshots(streams, l, n), m_grid=50)  # the harness's view
    np.testing.assert_array_equal(got, np.array(want))  # bit-equal, NaN where failed
    contiguous = np.stack([frame(stream, l, n).data for stream in streams])
    np.testing.assert_array_equal(estimate_noise_batch(contiguous, m_grid=50), got)


@settings(derandomize=True, deadline=None)
@given(
    l=st.sampled_from([4, 8, 16]),
    rows=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.booleans(), st.floats(-162.0, 150.0)),
        min_size=2,
        max_size=6,
    ),
)
# a frame beside its copy at 1e-161, whose grid step underflows to 0
@example(l=8, rows=[(14, False, 0.0), (14, False, -161.0)])
def test_batch_rows_never_mix_at_any_scale(l, rows):
    n = 16 * l
    frames = []
    for seed, signal, log_scale in rows:
        rng = np.random.default_rng(seed)
        data = (rng.standard_normal((l, n)) + 1j * rng.standard_normal((l, n))) * math.sqrt(0.5)
        if signal:  # rank 1
            symbols = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            data += np.outer(rng.standard_normal(l), symbols)
        frames.append(data * 10.0**log_scale)
    want = []
    for data in frames:
        try:
            want.append(estimate_noise(SampleFrame(data=data), m_grid=100).sigma_hat2)
        except EstimationFailure:
            want.append(math.nan)
    np.testing.assert_array_equal(estimate_noise_batch(np.stack(frames), m_grid=100), want)


def test_batch_zero_frame_fails_only_its_own_row():
    frames = [_noise_frame(8, 128, 1.0, seed).data for seed in (21, 22, 23)]
    frames.insert(1, np.zeros((8, 128), dtype=np.complex128))
    got = estimate_noise_batch(np.stack(frames), m_grid=100)
    assert np.isnan(got[1])
    for r in (0, 2, 3):
        assert got[r] == estimate_noise(SampleFrame(data=frames[r]), m_grid=100).sigma_hat2


def test_batch_validates_arguments():
    frames = np.stack([_noise_frame(8, 64, 1.0, seed).data for seed in (1, 2)])
    with pytest.raises(ValueError):
        estimate_noise_batch(frames, m_grid=1)
    with pytest.raises(ValueError):
        estimate_noise_batch(frames[:, :, :8], m_grid=10)  # needs N > L
    with pytest.raises(ValueError):
        estimate_noise_batch(frames[0], m_grid=10)  # not a stack
    for bad in (np.nan, np.inf, complex(-np.inf, 1.0)):
        stack = frames.copy()
        stack[1, 3, 5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                estimate_noise_batch(stack, m_grid=10)
    # finite samples whose covariance overflows are not non-finite input
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            estimate_noise_batch(frames * 1e200, m_grid=10)


# ------------------------------------------------------- spectra at the edges


def _planted_frame(rng: np.random.Generator, eigenvalues, n: int, mix: bool) -> np.ndarray:
    """An L x N frame whose sample covariance has the given spectrum.

    ``sqrt(N lam)`` on the diagonal gives a diagonal covariance whose
    eigenvalues are ``lam`` to within an ulp or two; ``mix`` rotates the
    rows by a random unitary, which moves them by a few ulps more.
    """
    l = len(eigenvalues)
    data = np.zeros((l, n), dtype=np.complex128)
    data[np.arange(l), np.arange(l)] = np.sqrt(n * np.asarray(eigenvalues))
    if mix:
        g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
        q, _ = np.linalg.qr(g)
        data = q @ data
    return data


def _assert_rows_agree(frames: np.ndarray, m_grid: int) -> list:
    """Each batch row against the single-frame estimate, its MDL count and bounds."""
    got = estimate_noise_batch(frames, m_grid)
    estimates = []
    for row, data in zip(got.tolist(), frames):
        frm = SampleFrame(data=data)
        est = estimate_noise(frm, m_grid)
        assert row == est.sigma_hat2
        assert est.k_hat == mdl_signal_count(eigenvalues_hermitian(sample_covariance(frm)), frm.n)
        assert est.sigma_lo2 <= est.sigma_hat2 <= est.sigma_hi2
        estimates.append(est)
    return estimates


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    l=st.integers(3, 16),
    ratio=st.sampled_from([2, 4, 8, 16]),
    rows=st.integers(1, 4),
    mix=st.booleans(),
)
def test_mdl_split_at_l_minus_2_leaves_two_noise_eigenvalues(seed, l, ratio, rows, mix):
    # L-2 eigenvalues 50-1000x the noise above a pair at most 5% apart
    rng = np.random.default_rng(seed)
    n = ratio * l
    frames = []
    for _ in range(rows):
        sigma2 = 10.0 ** rng.uniform(-3.0, 3.0)
        signal = np.sort(sigma2 * rng.uniform(50.0, 1000.0, l - 2))[::-1]
        noise = sigma2 * np.array([1.0 + rng.uniform(0.0, 0.05), 1.0])
        frames.append(_planted_frame(rng, np.concatenate([signal, noise]), n, mix))
    for est in _assert_rows_agree(np.stack(frames), m_grid=50):
        assert est.k_hat == l - 2


@settings(derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    level=st.floats(1e-3, 1e3),
    ulps=st.lists(st.integers(0, 6), min_size=2, max_size=16),
    upper=st.integers(0, 14),
    gap=st.sampled_from([1.0, 1.0 + 2.0**-40, 3.0, 100.0]),
    ratio=st.sampled_from([2, 8]),
    mix=st.booleans(),
)
def test_clustered_spectra_a_few_ulps_apart(seed, level, ulps, upper, gap, ratio, mix):
    # one or two clusters of eigenvalues a few ulps apart; the lower holds
    # at least two, so MDL leaves a noise subspace to fit
    l = len(ulps)
    upper = min(upper, l - 2)
    eigs = level * (1.0 + np.ldexp(np.array(ulps, dtype=float), -52))
    eigs[:upper] *= gap
    eigs = np.sort(eigs)[::-1]
    rng = np.random.default_rng(seed)
    frames = np.stack([_planted_frame(rng, eigs, ratio * l, mix),
                       _planted_frame(rng, 0.5 * eigs, ratio * l, not mix)])
    estimates = _assert_rows_agree(frames, m_grid=100)
    for est in estimates:
        assert est.k_hat in (0, upper)

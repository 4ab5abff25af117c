"""Independent reference implementations used only by the test suite.

Each oracle reaches the same quantity as the package by a different
algorithmic route, so agreement is evidence of correctness rather than
a tautology.  The Marchenko-Pastur fit references at the end are the
plain broadcast forms of the package's in-place fit: the package must
equal them bit for bit.
"""
import math

import numpy as np
from scipy.integrate import quad
from scipy.stats import beta, chi2, ncx2, norm


def charpoly_eigs(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues via characteristic-polynomial root finding (L <= 4).

    Coefficients come from the Faddeev-LeVerrier recurrence; the roots of
    the resulting polynomial are the eigenvalues.  Hermitian input makes
    every root real.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    l = a.shape[0]
    if l > 4:
        raise ValueError("characteristic-polynomial oracle is limited to L <= 4")
    coeffs = np.zeros(l + 1)
    coeffs[0] = 1.0
    mk = np.zeros_like(a)
    ck = 1.0
    eye = np.eye(l)
    for k in range(1, l + 1):
        mk = a @ (mk + ck * eye)
        ck = -np.trace(mk).real / k
        coeffs[k] = ck
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def _top_eig(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenpair by amplified power iteration.

    Shifts the spectrum into [1, 2], then squares the matrix repeatedly
    (renormalizing each time); any surviving column is the dominant
    eigenvector, up to eigenvalue clusters tighter than double precision.
    """
    l = a.shape[0]
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return 0.0, np.eye(l, dtype=np.complex128)[:, 0]
    b = a / scale + np.eye(l)
    for _ in range(40):
        b = b @ b
        norm = float(np.linalg.norm(b))
        if not np.isfinite(norm) or norm == 0.0:
            break
        b = b / norm
    col = int(np.argmax(np.linalg.norm(b, axis=0)))
    v = b[:, col]
    v = v / np.linalg.norm(v)
    for _ in range(5):  # polish with plain power steps on the original
        w = a @ v + v  # same shift keeps the iteration well conditioned
        v = w / np.linalg.norm(w)
    lam = float(np.real(v.conj() @ (a @ v)))
    return lam, v


def power_deflation_eigs(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian PSD matrix by deflation (L <= 10)."""
    a = np.asarray(matrix, dtype=np.complex128).copy()
    l = a.shape[0]
    if l > 10:
        raise ValueError("power-deflation oracle is limited to L <= 10")
    out = []
    for _ in range(l):
        lam, v = _top_eig(a)
        out.append(lam)
        a = a - lam * np.outer(v, v.conj())
    return np.sort(np.array(out))[::-1]


def mp_cdf_quad(z: float, p: float, sigma2: float) -> float:
    """Marchenko-Pastur CDF by adaptive quadrature of the density."""
    a = sigma2 * (1.0 - np.sqrt(p)) ** 2
    b = sigma2 * (1.0 + np.sqrt(p)) ** 2
    if z <= a:
        return 0.0
    if z >= b:
        return 1.0

    def density(t: float) -> float:
        inside = max((t - a) * (b - t), 0.0)
        return np.sqrt(inside) / (2.0 * np.pi * p * sigma2 * t)

    # tolerances tighter than quad's default 1.5e-8, which leaves up to
    # 7.5e-9 of error next to the upper edge
    value, _ = quad(density, a, z, limit=400, epsabs=1e-12, epsrel=1e-12)
    return float(value)


def mdl_brute(eigs: np.ndarray, n_snapshots: int) -> int:
    """Model-order estimate by direct evaluation of the criterion at all K."""
    lam = np.sort(np.asarray(eigs, dtype=float))[::-1]
    l = lam.size
    best_value = None
    best_k = None
    for k in range(l):
        noise = np.maximum(lam[k:], 1e-300)
        m = l - k
        geometric = float(np.exp(np.mean(np.log(noise))))
        arithmetic = float(np.mean(noise))
        ratio = max(geometric / arithmetic, 1e-300)
        value = -n_snapshots * m * np.log(ratio) + 0.5 * k * (2 * l - k) * np.log(
            n_snapshots
        )
        if best_value is None or value < best_value:
            best_value = value
            best_k = k
    return int(best_k)


def random_hermitian_psd(rng: np.random.Generator, l: int) -> np.ndarray:
    """Random Hermitian PSD matrix (complex Wishart-style)."""
    cols = l + int(rng.integers(0, 3 * l + 1))
    g = rng.standard_normal((l, cols)) + 1j * rng.standard_normal((l, cols))
    a = (g @ g.conj().T) / cols
    return 0.5 * (a + a.conj().T)


def planted_spectrum_matrix(
    rng: np.random.Generator, eigenvalues: np.ndarray
) -> np.ndarray:
    """Hermitian matrix with a chosen spectrum via a random unitary."""
    l = len(eigenvalues)
    g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))  # make Q Haar-like
    a = (q * np.asarray(eigenvalues)) @ q.conj().T
    return 0.5 * (a + a.conj().T)


def reference_pair(plan, trial: int) -> tuple[np.ndarray, np.ndarray, float]:
    """One trial's (H1 stream, H0 stream, true noise power), one substream at a time.

    Each substream is seeded straight through numpy:
    ``default_rng(SeedSequence(master_seed, spawn_key=(trial, role)))``'s
    first uint64 state word, with roles 0 (QPSK symbols), 1 (noise) and 2
    (noise-power wander).  Streams hold ``plan.l * plan.n`` samples.
    """

    def rng(role: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=plan.master_seed, spawn_key=(trial, role))
        return np.random.default_rng(int(ss.generate_state(1, np.uint64)[0]))

    n_samples = plan.l * plan.n
    sigma_true = plan.sigma_w2_true
    if plan.mismatch_db > 0.0:
        offset_db = rng(2).uniform(-plan.mismatch_db, plan.mismatch_db)
        sigma_true = sigma_true * 10.0 ** (offset_db / 10.0)
    parts = rng(1).standard_normal((2, n_samples))
    noise = math.sqrt(sigma_true / 2.0) * (parts[0] + 1j * parts[1])
    if plan.sigma_s2 <= 0.0:
        return noise.copy(), noise, sigma_true
    sps = plan.l if plan.samples_per_symbol is None else plan.samples_per_symbol
    idx = rng(0).integers(0, 4, size=-(-n_samples // sps))
    points = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])  # the package's fixed order
    x = np.repeat(math.sqrt(plan.sigma_s2 / 2.0) * points[idx], sps)[:n_samples]
    return x + noise, noise, sigma_true


def _rates_over_wander(plan, threshold) -> tuple[float, float]:
    """(Pd, Pfa) against ``threshold(sigma)`` over the plan's noise-power wander.

    The statistic is twice the energy of a window's real parts.  Over a
    noise power sigma it is chi-square with ``n`` degrees of freedom under
    H0, and, since a QPSK real part has the constant magnitude
    ``sqrt(sigma_s2 / 2)``, noncentral chi-square with noncentrality
    ``n * sigma_s2 / sigma`` under H1.  The wander is uniform in dB over
    +-``mismatch_db``; a 64-node Gauss-Legendre sum averages over it.
    """
    n = plan.n
    nodes, weights = np.polynomial.legendre.leggauss(64)
    sigma = plan.sigma_w2_true * 10.0 ** (plan.mismatch_db * nodes / 10.0)
    u = threshold(sigma) / sigma
    pd = ncx2.sf(u, n, n * plan.sigma_s2 / sigma)
    pfa = chi2.sf(u, n)
    return float(weights @ pd) / 2.0, float(weights @ pfa) / 2.0


def _unit_threshold(plan) -> float:
    """The Gaussian-approximation threshold at unit noise power, from scipy's
    normal quantile: ``dynamic_threshold(1.0, target_pfa, n)``."""
    return norm.isf(plan.target_pfa) * math.sqrt(2.0 * plan.n) + plan.n


def theory_static(plan) -> tuple[float, float]:
    """Exact (Pd, Pfa) of a static-mode plan, over its noise-power wander:
    the threshold is ``sigma_nominal2`` times the unit threshold."""
    threshold = plan.sigma_nominal2 * _unit_threshold(plan)
    return _rates_over_wander(plan, lambda sigma: threshold)


def theory_oracle(plan) -> tuple[float, float]:
    """Exact (Pd, Pfa) of a receiver that knows each trial's noise power.

    Its threshold is the true noise power times the unit threshold, which is
    what the blind threshold aims at.  Its Pfa is ``chi2.sf(u, n)`` at every
    wander, and its Pd the wander mean of ``ncx2.sf(u, n, n * sigma_s2 / sigma)``.
    """
    unit = _unit_threshold(plan)
    return _rates_over_wander(plan, lambda sigma: sigma * unit)


def theory_dynamic_h0(plan) -> float:
    """The blind receiver's Pfa, a Beta tail.

    Under H0 the noise estimate is close to the mean power of all L*N samples
    of the trial's frame, and the statistic is twice the energy of the real
    parts of its first N samples.  Their ratio is that of N of the frame's
    2*L*N iid squared Gaussian parts to all of them, Beta(N/2, L*N - N/2)
    whatever the noise power, so the threshold ``sigma_hat2 * u`` is crossed
    with probability ``beta.sf(u / (2*L*N), N/2, L*N - N/2)``.
    """
    ln = plan.l * plan.n
    return float(beta.sf(_unit_threshold(plan) / (2.0 * ln), plan.n / 2.0, ln - plan.n / 2.0))


def mp_cdf_unit_broadcast(z: np.ndarray, p: float) -> np.ndarray:
    """Unit-variance Marchenko-Pastur CDF as one broadcast expression."""
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


def fit_scores_broadcast(noise_eigs: np.ndarray, p_eff: float, grid: np.ndarray) -> np.ndarray:
    """Fit scores over an (R, G, M) cube of rows x candidates x eigenvalues."""
    ranks = np.sum(noise_eigs[:, None, :] <= noise_eigs[:, :, None], axis=2)
    empirical = (ranks - 0.5) / noise_eigs.shape[1]
    model = mp_cdf_unit_broadcast(noise_eigs[:, None, :] / grid[:, :, None], p_eff)
    return np.sqrt(np.sum((empirical[:, None, :] - model) ** 2, axis=2))


def linspace_grid(lo: np.ndarray, hi: np.ndarray, m: int) -> np.ndarray:
    """Candidate grid of each row by ``np.linspace`` of that row alone, laid out (R, m)."""
    return np.stack([np.linspace(a, b, m) for a, b in zip(lo, hi)])

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qusync import noise
from qusync.operators import ValidationError
from tests.oracles import batch_sem, stationary_covariance


def test_params_validation():
    with pytest.raises(ValidationError):
        noise.OUParams(xi=1.5)
    with pytest.raises(ValidationError):
        noise.OUParams(a=(0.0, 1.0))
    with pytest.raises(ValidationError):
        noise.OUParams(b=(-0.1, 1.0))


def test_sample_rejects_bad_grid():
    p = noise.OUParams()
    with pytest.raises(ValidationError):
        noise.sample_ou(p, dt=0.0, n_steps=10, seed=1)
    with pytest.raises(ValidationError):
        noise.sample_ou(p, dt=0.01, n_steps=0, seed=1)


def test_trajectory_refuses_times_that_are_not_1d():
    with pytest.raises(ValidationError, match=r"^times must be 1-D, got shape \(3, 1\)$"):
        noise.NoiseTrajectory(np.arange(3.0).reshape(3, 1), np.zeros((3, 2)))


def test_deterministic_for_fixed_seed():
    p = noise.OUParams(xi=0.3)
    t1 = noise.sample_ou(p, 0.01, 500, seed=42)
    t2 = noise.sample_ou(p, 0.01, 500, seed=42)
    assert_allclose(t1.values, t2.values, rtol=0, atol=0)
    assert t1.values[0].tolist() == [0.0, 0.0]


def test_fully_correlated_channels_identical():
    p = noise.OUParams(xi=1.0)
    traj = noise.sample_ou(p, 0.01, 2000, seed=7)
    assert_allclose(traj.e1, traj.e2, rtol=0, atol=0)


def lfilter_values(p, dt, n_steps, seed):
    """sample_ou's increments run through scipy's lfilter, the AR(1) oracle."""
    from scipy.signal import lfilter

    a, b = np.asarray(p.a), np.asarray(p.b)
    asum = a[:, None] + a[None, :]
    cov = np.outer(b, b) * p.correlation_matrix * (1.0 - np.exp(-asum * dt)) / asum
    incr = np.random.default_rng(seed).standard_normal((n_steps, 2)) @ noise._chol2(cov).T
    values = np.zeros((n_steps + 1, 2))
    for ch, decay in enumerate(np.exp(-a * dt)):
        values[1:, ch] = lfilter([1.0], [1.0, -decay], incr[:, ch])
    return values


@pytest.mark.parametrize("decay", [0.5, 0.99, 1.0 - 1e-6, 0.0])
@pytest.mark.parametrize("n_steps", [1, 127, 128, 129, 200_000])
def test_blocked_recursion_matches_lfilter(decay, n_steps):
    # a decay of exactly 0 is what exp(-a dt) gives by underflow for a dt > 745
    a = 800.0 if decay == 0.0 else -np.log(decay)
    p = noise.OUParams(a=(a, a), b=(1.0, 0.7), xi=0.3)
    assert (np.exp(-a) == 0.0) == (decay == 0.0)
    got = noise.sample_ou(p, 1.0, n_steps, seed=29).values
    want = lfilter_values(p, 1.0, n_steps, seed=29)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_uncorrelated_cross_covariance_vanishes():
    p = noise.OUParams(xi=0.0)
    traj = noise.sample_ou(p, 0.01, 1_000_000, seed=11)
    burn = 10_000
    mean, sem = batch_sem(traj.e1[burn:] * traj.e2[burn:])
    assert abs(mean) < 3 * sem


def test_stationary_variance_matches_b2_over_2a():
    p = noise.OUParams()
    traj = noise.sample_ou(p, 0.01, 1_000_000, seed=13)
    burn = 10_000
    mean, sem = batch_sem(traj.e1[burn:] ** 2)
    assert abs(mean - 0.5) < 3 * sem


def test_stationary_covariance_analytic_cases():
    assert_allclose(stationary_covariance((1.0, 1.0), (1.0, 1.0), 0.0), np.diag([0.5, 0.5]))
    assert_allclose(stationary_covariance((1.0, 1.0), (0.0, 0.0), 0.3), np.zeros((2, 2)))
    cov = stationary_covariance((1.0, 1.0), (1.0, 1.0), 0.5)
    assert_allclose(cov, [[0.5, 0.25], [0.25, 0.5]])


def test_stationary_covariance_against_sampler():
    p = noise.OUParams(xi=0.5)
    traj = noise.sample_ou(p, 0.01, 1_000_000, seed=17)
    burn = 10_000
    expected = stationary_covariance(p.a, p.b, p.xi)
    cross, sem_c = batch_sem(traj.e1[burn:] * traj.e2[burn:])
    var1, sem_v = batch_sem(traj.e1[burn:] ** 2)
    assert abs(cross - expected[0, 1]) < 3 * sem_c
    assert abs(var1 - expected[0, 0]) < 3 * sem_v


def test_stationary_covariance_asymmetric_channels():
    # S solves A S + S A = B Xi B^T entrywise for diagonal A
    p = noise.OUParams(a=(1.0, 2.5), b=(0.7, 1.3), xi=-0.4)
    cov = stationary_covariance(p.a, p.b, p.xi)
    a = np.diag(p.a)
    forcing = np.diag(p.b) @ p.correlation_matrix @ np.diag(p.b)
    assert_allclose(a @ cov + cov @ a, forcing, atol=1e-14)


def test_spectral_density_at_zero_frequency():
    p = noise.OUParams(a=(1.3, 1.3), b=(0.8, 0.8), xi=0.6)
    got = noise.spectral_density(p, 0.0)
    expected = (0.8 ** 2 / (2 * np.pi * 1.3 ** 2)) * p.correlation_matrix
    assert_allclose(got, expected, atol=1e-12)


def test_spectral_density_diagonal_when_uncorrelated():
    p = noise.OUParams(xi=0.0)
    for w in (0.0, 0.7, 3.0):
        j = noise.spectral_density(p, w)
        assert abs(j[0, 1]) < 1e-15 and abs(j[1, 0]) < 1e-15


def test_spectral_density_high_frequency_decay():
    p = noise.OUParams(xi=0.4)
    j1 = noise.spectral_density(p, 100.0)
    j2 = noise.spectral_density(p, 200.0)
    ratio = np.abs(j1).max() / np.abs(j2).max()
    assert ratio == pytest.approx(4.0, rel=0.01)  # 1/w^2 falloff


def test_spectral_density_hermitian_psd():
    for xi in (-1.0, -0.5, 0.0, 0.5, 1.0):
        p = noise.OUParams(xi=xi)
        for w in np.linspace(-5.0, 5.0, 11):
            j = noise.spectral_density(p, w)
            assert np.abs(j - j.conj().T).max() < 1e-14
            assert np.linalg.eigvalsh(j).min() > -1e-12


def test_spectral_density_zero_frequency_against_dft():
    # Wiener-Khinchin at w = 0: sum the sampled autocovariance over lags
    p = noise.OUParams()
    dt, n = 0.01, 1_000_000
    traj = noise.sample_ou(p, dt, n, seed=19)
    x = traj.e1[10_000:]
    x = x - x.mean()
    m = x.size
    fft = np.fft.rfft(x, n=2 * m)
    acov = np.fft.irfft(fft * fft.conj())[: m] / m
    lags = int(12.0 / dt)  # ~12 relaxation times
    est = (acov[0] + 2.0 * acov[1:lags].sum()) * dt / (2.0 * np.pi)
    expected = noise.spectral_density(p, 0.0)[0, 0].real
    assert est == pytest.approx(expected, rel=0.2)


def test_autocorrelation_decay_rate():
    p = noise.OUParams(a=(1.0, 1.0))
    dt, n = 0.01, 1_000_000
    traj = noise.sample_ou(p, dt, n, seed=23)
    x = traj.e1[10_000:]
    x = x - x.mean()
    lags = np.arange(10, 210, 20)
    acf = np.array([np.dot(x[:-k], x[k:]) / (x.size - k) for k in lags])
    acf /= np.dot(x, x) / x.size
    slope = np.polyfit(lags * dt, np.log(acf), 1)[0]
    assert -slope == pytest.approx(1.0, rel=0.05)


def test_correlation_transform_diagonalizes():
    for xi in (-1.0, -0.5, -0.3, 0.0, 0.5, 1.0):
        t, (lam_s, lam_a) = noise.correlation_transform(xi)
        assert lam_s == pytest.approx(1.0 + xi)
        assert lam_a == pytest.approx(1.0 - xi)
        xi_mat = np.array([[1.0, xi], [xi, 1.0]])
        diag = t @ xi_mat @ t.T
        assert np.abs(diag - np.diag([1.0 + xi, 1.0 - xi])).max() < 1e-14
        assert_allclose(t @ t.T, np.eye(2), atol=1e-15)


def test_transformed_processes_uncorrelated():
    for xi, seed in ((-0.8, 31), (0.5, 37)):
        p = noise.OUParams(xi=xi)
        traj = noise.sample_ou(p, 0.01, 1_000_000, seed=seed)
        t, _ = noise.correlation_transform(xi)
        transformed = traj.values[10_000:] @ t.T
        mean, sem = batch_sem(transformed[:, 0] * transformed[:, 1])
        assert abs(mean) < 3 * sem


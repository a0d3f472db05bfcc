"""Correlated Ornstein-Uhlenbeck noise pair.

The two driving fields obey dE = -A E dt + B dW with diagonal relaxation A,
diagonal amplitude B, and Wiener increments correlated by
Xi = [[1, xi], [xi, 1]].  This module certifies the noise statistics and the
orthogonal transform that decouples the pair; it does not feed numbers into
the master-equation engine at runtime.

Sampling uses numpy alone, with its PCG64 generator, so trajectories are
reproducible from an integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .operators import ValidationError, require_finite

__all__ = [
    "OUParams",
    "NoiseTrajectory",
    "sample_ou",
    "spectral_density",
    "correlation_transform",
]

BLOCK = 128  # steps per stacked product in sample_ou, as in lindblad.evolve


@dataclass(frozen=True)
class OUParams:
    """Relaxation rates ``a``, noise amplitudes ``b`` (per channel), and the
    cross-correlation ``xi`` of the two Wiener drivers."""

    a: tuple[float, float] = (1.0, 1.0)
    b: tuple[float, float] = (1.0, 1.0)
    xi: float = 0.0

    def __post_init__(self):
        if len(self.a) != 2 or len(self.b) != 2:
            raise ValidationError("a and b must each hold two diagonal entries")
        require_finite(a=self.a, b=self.b, xi=self.xi)
        if min(self.a) <= 0.0:
            raise ValidationError(f"relaxation rates must be positive, got {self.a}")
        if min(self.b) < 0.0:
            raise ValidationError(f"noise amplitudes must be >= 0, got {self.b}")
        if abs(self.xi) > 1.0:
            raise ValidationError(f"|xi| must be <= 1, got {self.xi}")

    @property
    def correlation_matrix(self) -> np.ndarray:
        return np.array([[1.0, self.xi], [self.xi, 1.0]])


@dataclass(frozen=True)
class NoiseTrajectory:
    """Uniformly sampled pair of noise records E1(t), E2(t)."""

    times: np.ndarray
    values: np.ndarray  # shape (n, 2)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.times.size, 2):
            raise ValidationError("values must have shape (len(times), 2)")
        require_finite(times=self.times, values=self.values)
        dt = np.diff(self.times)
        if self.times.size < 2 or not (dt.min() > 0 and np.ptp(dt) <= 1e-9 * dt[0]):
            raise ValidationError("times must be a strictly increasing uniform grid")

    @property
    def e1(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def e2(self) -> np.ndarray:
        return self.values[:, 1]


def _chol2(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a 2x2 PSD matrix, valid on the singular edge.

    The off-diagonal uses the ratio form (m10/m00) * l11 so that fully
    correlated inputs factor into bit-identical rows.
    """
    l11 = np.sqrt(max(m[0, 0], 0.0))
    l21 = (m[1, 0] / m[0, 0]) * l11 if m[0, 0] > 0.0 else 0.0
    l22 = np.sqrt(max(m[1, 1] - l21 * l21, 0.0))
    return np.array([[l11, 0.0], [l21, l22]])


def sample_ou(params: OUParams, dt: float, n_steps: int, seed: int) -> NoiseTrajectory:
    """Sample one trajectory of the correlated OU pair, E(0) = 0.

    Each step is the exact one-step update: exponential decay plus a Gaussian
    increment with the exact step covariance, drawn from two independent
    standard normals through its Cholesky factor.  It is free of
    discretization bias, which is what the statistical self-tests rely on.
    E[n+1] = decay E[n] + incr[n] runs in blocks of ``BLOCK`` steps, as in
    ``lindblad.evolve``: one stacked product with the kernel decay^(j-i) gives
    each block from a zero start, and decay^BLOCK carries the block ends on.
    """
    require_finite(dt=dt)
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    a = np.asarray(params.a, dtype=float)
    b = np.asarray(params.b, dtype=float)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_steps, 2))
    asum = a[:, None] + a[None, :]
    cov = (np.outer(b, b) * params.correlation_matrix
           * (1.0 - np.exp(-asum * dt)) / asum)
    incr = z @ _chol2(cov).T
    # powers[ch, j] = decay^j for j = 0..BLOCK; kernel[ch, i, j] = decay^(j-i), j >= i
    powers = np.exp(-a * dt)[:, None] ** np.arange(BLOCK + 1)
    kernel = np.triu(powers[:, abs(np.arange(BLOCK) - np.arange(BLOCK)[:, None])])
    blocks = np.pad(incr.T, ((0, 0), (0, -n_steps % BLOCK))).reshape(2, -1, BLOCK)
    zero_start = blocks @ kernel
    starts = np.zeros(zero_start.shape[:2])
    ends = zero_start[:, :-1, -1].tolist()
    for start, block_ends, carry in zip(starts, ends, powers[:, BLOCK].tolist()):
        start[1:] = list(accumulate(block_ends, lambda e, x: carry * e + x))
    blocked = zero_start + powers[:, None, 1:] * starts[:, :, None]
    values = np.pad(blocked.reshape(2, -1)[:, :n_steps].T, ((1, 0), (0, 0)))
    times = np.arange(n_steps + 1) * dt
    return NoiseTrajectory(times, values)


def spectral_density(params: OUParams, omega: float) -> np.ndarray:
    """Two-sided spectral density J(w) = (A+iw)^-1 B Xi B^T (A-iw)^-1 / 2pi.

    Hermitian, and positive semidefinite whenever |xi| <= 1.
    """
    require_finite(omega=omega)
    a = np.diag(np.asarray(params.a, dtype=float)).astype(complex)
    b = np.diag(np.asarray(params.b, dtype=float))
    eye = np.eye(2)
    left = np.linalg.inv(a + 1j * omega * eye)
    right = np.linalg.inv(a - 1j * omega * eye)
    return left @ b @ params.correlation_matrix @ b.T @ right / (2.0 * np.pi)


def correlation_transform(xi: float) -> tuple[np.ndarray, tuple[float, float]]:
    """Orthogonal transform diagonalizing the noise correlation matrix.

    Returns ``(T, (1+xi, 1-xi))`` with T = [[1, 1], [1, -1]]/sqrt(2): the
    symmetric combination carries weight 1+xi, the antisymmetric one 1-xi.
    These are the rates inherited by the collective jump operators.
    """
    require_finite(xi=xi)
    if abs(xi) > 1.0:
        raise ValidationError(f"|xi| must be <= 1, got {xi}")
    t = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return t, (1.0 + xi, 1.0 - xi)

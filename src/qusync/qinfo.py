"""Quantum-information measures on two-qubit states.

Entropies, mutual information, measurement-conditioned entropy, quantum
discord minimized over two-element orthogonal measurements on qubit B, the
diagonal-truncation classical mutual information, the quantumness lower bound
built from it, and fixed-rank random density matrices.

Discord is computed in correlation-matrix form: with
rho = sum R[mu, nu] sigma_mu x sigma_nu / 4, measuring B along the Bloch
direction n leaves A with probability (1 +- b.n)/2 in the Bloch vector
(a +- T n)/(1 +- b.n), so the conditional entropy is a closed form in the 15
real numbers a, b and T.  A two-outcome measurement along n is the same as
along -n, so its search covers only the hemisphere theta <= pi/2.
:class:`MeasurementBasis`, :func:`measure_on_b` and
:func:`conditional_entropy` keep the explicit projector path.

Entropies default to bits, so a maximally entangled pure state has discord 1;
nats are selectable everywhere through :class:`EntropyUnit`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .operators import (
    DimensionError,
    ValidationError,
    check_density_matrix,
    clamp_spectrum,
    partial_trace,
    pauli,
    write_csv,
)

__all__ = [
    "EntropyUnit",
    "MeasurementBasis",
    "DiscordResult",
    "von_neumann_entropy",
    "relative_entropy",
    "mutual_information",
    "measure_on_b",
    "conditional_entropy",
    "classical_correlation",
    "discord_min",
    "classical_mutual_information",
    "degree_of_quantumness",
    "random_density_matrix",
    "save_discord_csv",
]

# Outcomes below this probability are dropped; their p log p limit is zero.
PROB_FLOOR = 1e-12

# discord_min: the (theta, phi) grid, of which the theta <= pi/2 hemisphere
# (N_THETA // 2 + 1 rows) is scanned, and the angle tolerance of the local
# refinement that follows it.
N_THETA, N_PHI = 64, 128
ANGLE_TOL = 1e-6


class EntropyUnit(enum.Enum):
    BITS = "bits"
    NATS = "nats"

    @property
    def per_nat(self) -> float:
        return 1.0 / math.log(2.0) if self is EntropyUnit.BITS else 1.0


def _entropy_nats(spectrum: np.ndarray) -> float:
    lam = clamp_spectrum(spectrum)
    lam = lam[lam > PROB_FLOOR]
    return float(-(lam * np.log(lam)).sum())


def von_neumann_entropy(rho: np.ndarray, unit: EntropyUnit = EntropyUnit.BITS) -> float:
    """-tr(rho log rho); zero for pure states, log d for maximally mixed."""
    rho = check_density_matrix(rho)
    return _entropy_nats(np.linalg.eigvalsh(rho)) * unit.per_nat


def relative_entropy(
    rho: np.ndarray,
    sigma: np.ndarray,
    unit: EntropyUnit = EntropyUnit.BITS,
) -> float:
    """tr(rho log rho - rho log sigma), or +inf outside sigma's support.

    Support failure means sigma has an eigenvalue below 1e-12 in a direction
    where rho carries weight above 1e-10.
    """
    rho = check_density_matrix(rho, name="rho")
    sigma = check_density_matrix(sigma, name="sigma")
    if rho.shape != sigma.shape:
        raise DimensionError(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    w_r = np.linalg.eigvalsh(rho)
    w_s, v_s = np.linalg.eigh(sigma)
    w_s = clamp_spectrum(w_s)
    weights = np.einsum("ij,jk,ki->i", v_s.conj().T, rho, v_s).real
    if np.any((w_s < PROB_FLOOR) & (weights > 1e-10)):
        return math.inf
    mask = w_s > PROB_FLOOR
    cross = float(-(weights[mask] * np.log(w_s[mask])).sum())
    return (cross - _entropy_nats(w_r)) * unit.per_nat


def mutual_information(
    rho_ab: np.ndarray,
    dims: tuple[int, int] = (2, 2),
    unit: EntropyUnit = EntropyUnit.BITS,
) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) >= 0, the total correlation content."""
    rho_ab = check_density_matrix(rho_ab)
    if dims[0] < 2 or dims[1] < 2:
        raise DimensionError(f"bipartite split needs dims >= 2, got {dims}")
    s_a = _entropy_nats(np.linalg.eigvalsh(partial_trace(rho_ab, dims, "A")))
    s_b = _entropy_nats(np.linalg.eigvalsh(partial_trace(rho_ab, dims, "B")))
    s_ab = _entropy_nats(np.linalg.eigvalsh(rho_ab))
    return (s_a + s_b - s_ab) * unit.per_nat


@dataclass(frozen=True)
class MeasurementBasis:
    """Bloch angles of a two-element orthogonal projective measurement.

    The projectors are (I +- n.sigma)/2 with
    n = (sin th cos ph, sin th sin ph, cos th).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise ValidationError(f"theta must be in [0, pi], got {self.theta}")
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise ValidationError(f"phi must be in [0, 2 pi), got {self.phi}")

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        n_dot = (
            math.sin(self.theta) * math.cos(self.phi) * pauli("x")
            + math.sin(self.theta) * math.sin(self.phi) * pauli("y")
            + math.cos(self.theta) * pauli("z")
        )
        plus = (pauli("id") + n_dot) / 2.0
        return plus, pauli("id") - plus


@dataclass(frozen=True)
class DiscordResult:
    discord: float
    classical_correlation: float
    optimal_basis: MeasurementBasis
    mutual_information: float


def _require_two_qubits(rho: np.ndarray) -> np.ndarray:
    rho = check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise DimensionError(f"two-qubit state required, got shape {rho.shape}")
    return rho


def measure_on_b(
    rho_ab: np.ndarray, basis: MeasurementBasis
) -> list[tuple[float, np.ndarray]]:
    """Projective measurement on qubit B: outcome probabilities and the
    conditional states of qubit A.

    Outcomes with probability below 1e-12 are dropped; they contribute
    nothing to the conditional entropy.
    """
    rho_ab = _require_two_qubits(rho_ab)
    eye = pauli("id")
    outcomes = []
    for proj in basis.projectors():
        big = np.kron(eye, proj)
        post = big @ rho_ab @ big.conj().T
        p = post.trace().real
        if p < PROB_FLOOR:
            continue
        outcomes.append((float(p), partial_trace(post / p, (2, 2), "A")))
    return outcomes


def conditional_entropy(
    rho_ab: np.ndarray,
    basis: MeasurementBasis,
    unit: EntropyUnit = EntropyUnit.BITS,
) -> float:
    """sum_k p_k S(rho_A|k) for the given measurement on B."""
    total = 0.0
    for p, rho_cond in measure_on_b(rho_ab, basis):
        total += p * _entropy_nats(np.linalg.eigvalsh(rho_cond))
    return total * unit.per_nat


def classical_correlation(
    rho_ab: np.ndarray,
    basis: MeasurementBasis,
    unit: EntropyUnit = EntropyUnit.BITS,
) -> float:
    """J = S(A) - S(A | measurement on B): information gained about A."""
    rho_ab = _require_two_qubits(rho_ab)
    s_a = _entropy_nats(np.linalg.eigvalsh(partial_trace(rho_ab, (2, 2), "A")))
    return s_a * unit.per_nat - conditional_entropy(rho_ab, basis, unit)


# sigma_0 = I and sigma_1..3 = x, y, z: the basis of the correlation matrix.
_SIGMA = np.stack([pauli(k) for k in ("id", "x", "y", "z")])
_SIGMA.setflags(write=False)


def _correlation_matrix(rho_ab: np.ndarray) -> np.ndarray:
    """R[mu, nu] = tr(rho (sigma_mu x sigma_nu)), so that
    rho = sum R[mu, nu] sigma_mu x sigma_nu / 4.

    R[0, 0] = 1, R[1:, 0] is A's Bloch vector a, R[0, 1:] is B's Bloch
    vector b, and R[1:, 1:] is the correlation tensor T.
    """
    return np.einsum("abcd,mca,ndb->mn", rho_ab.reshape(2, 2, 2, 2), _SIGMA, _SIGMA).real


def _conditional_entropy_grid(r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Conditional entropy in nats for measurement directions ``n`` of shape
    (..., 3), from the correlation matrix ``r``.

    Outcome +-1 along n leaves A in sum_mu u_mu sigma_mu / 4 with
    u = R (1, +-n): probability p = u_0 / 2 = (1 +- b.n) / 2 and Bloch vector
    (a +- T n) / u_0, whose length l gives the spectrum (1 +- l) / 2.
    """
    t_n = n @ r[:, 1:].T
    total = 0.0
    for sign in (1.0, -1.0):
        u = r[:, 0] + sign * t_n
        p = u[..., 0] / 2.0
        live = p > PROB_FLOOR
        gap = np.linalg.norm(u[..., 1:], axis=-1) / (2.0 * np.where(live, u[..., 0], 1.0))
        lam = np.clip(np.stack([0.5 - gap, 0.5 + gap], axis=-1), 0.0, None)
        safe = np.where(lam > PROB_FLOOR, lam, 1.0)
        total = total + np.where(live, p * -(safe * np.log(safe)).sum(axis=-1), 0.0)
    return total


def _conditional_entropy_at(rows, theta: float, phi: float) -> float:
    """:func:`_conditional_entropy_grid` at one direction, in plain floats;
    ``rows`` is the correlation matrix as nested lists."""
    sin_t = math.sin(theta)
    nx, ny, nz = sin_t * math.cos(phi), sin_t * math.sin(phi), math.cos(theta)
    total = 0.0
    for sign in (1.0, -1.0):
        u0, u1, u2, u3 = (r0 + sign * (r1 * nx + r2 * ny + r3 * nz) for r0, r1, r2, r3 in rows)
        p = u0 / 2.0
        if p > PROB_FLOOR:
            gap = math.sqrt(u1 * u1 + u2 * u2 + u3 * u3) / (2.0 * u0)
            for lam in (0.5 - gap, 0.5 + gap):
                if lam > PROB_FLOOR:
                    total -= p * lam * math.log(lam)
    return total


# The discord search grid, built once: its angles and the Bloch direction
# at each (theta, phi), shape (N_THETA // 2 + 1, N_PHI, 3).
_GRID_THETAS = np.linspace(0.0, math.pi / 2.0, N_THETA // 2 + 1)
_GRID_PHIS = np.linspace(0.0, 2.0 * math.pi, N_PHI, endpoint=False)
_tt, _pp = np.meshgrid(_GRID_THETAS, _GRID_PHIS, indexing="ij")
_GRID_N = np.stack([np.sin(_tt) * np.cos(_pp), np.sin(_tt) * np.sin(_pp), np.cos(_tt)],
                   axis=-1)
for _m in (_GRID_THETAS, _GRID_PHIS, _GRID_N):
    _m.setflags(write=False)
del _tt, _pp


def discord_min(rho_ab: np.ndarray, unit: EntropyUnit = EntropyUnit.BITS) -> DiscordResult:
    """Quantum discord D(A|B) over two-element orthogonal measurements on B.

    I(A:B) minus the classical correlation maximized over the measurement
    direction n.  The conditional entropy is a closed form in the 15 real
    numbers of the correlation matrix (Luo, PRA 77, 042303 (2008)), so no
    projector is built.  Directions n and -n are the same measurement, so a
    coarse grid over the hemisphere theta <= pi/2 is searched, followed by
    derivative-free local refinement down to ``ANGLE_TOL``.  The grid stage
    is global, so the smooth two-parameter landscape cannot trap the
    refinement in a secondary basin.  The result is clipped below at 0.
    """
    rho_ab = _require_two_qubits(rho_ab)
    r = _correlation_matrix(rho_ab)
    surface = _conditional_entropy_grid(r, _GRID_N)
    i0, j0 = np.unravel_index(np.argmin(surface), surface.shape)
    x0 = np.array([_GRID_THETAS[i0], _GRID_PHIS[j0]])
    rows = r.tolist()

    def objective(angles: np.ndarray) -> float:
        theta, phi = angles.tolist()
        return _conditional_entropy_at(rows, min(max(theta, 0.0), math.pi), phi)

    res = minimize(
        objective,
        x0=x0,
        method="Nelder-Mead",
        options={"xatol": ANGLE_TOL, "fatol": 1e-14, "maxiter": 400},
    )
    best = min(float(res.fun), float(surface[i0, j0]))
    x_best = res.x if float(res.fun) <= float(surface[i0, j0]) else x0
    basis = MeasurementBasis(
        theta=float(np.clip(x_best[0], 0.0, math.pi)),
        phi=float(np.mod(x_best[1], 2.0 * math.pi)),
    )

    s_a = _entropy_nats(np.linalg.eigvalsh(partial_trace(rho_ab, (2, 2), "A")))
    mi = mutual_information(rho_ab, (2, 2), unit)
    classical = (s_a - best) * unit.per_nat
    return DiscordResult(
        discord=max(mi - classical, 0.0),
        classical_correlation=classical,
        optimal_basis=basis,
        mutual_information=mi,
    )


def classical_mutual_information(
    rho_ab: np.ndarray,
    dims: tuple[int, int] = (2, 2),
    unit: EntropyUnit = EntropyUnit.BITS,
) -> float:
    """Mutual information of diag(rho) in the computational product basis.

    Dephasing to the diagonal is a local operation, so the result never
    exceeds I(A:B) (up to round-off).  The truncation basis is pinned to the
    fixed computational product basis.
    """
    rho_ab = check_density_matrix(rho_ab)
    diag = np.diag(np.diag(rho_ab))
    return mutual_information(diag, dims, unit)


def degree_of_quantumness(
    rho_ab: np.ndarray,
    dims: tuple[int, int] = (2, 2),
    unit: EntropyUnit = EntropyUnit.BITS,
) -> float:
    """I(A:B) minus the diagonal-truncation mutual information.

    A quantumness estimate bounded by [0, I(A:B)] up to round-off; it tends
    to sit below the measurement-optimized discord.
    """
    return mutual_information(rho_ab, dims, unit) - classical_mutual_information(
        rho_ab, dims, unit
    )


def random_density_matrix(dim: int, rank: int, seed) -> np.ndarray:
    """Random fixed-rank state G G+ / tr(G G+), G a dim x rank complex
    Gaussian matrix.

    The draw is repeated in the (measure-zero) event that fewer than ``rank``
    eigenvalues exceed 1e-10.  ``seed`` may be an int or a Generator.
    """
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must be in [1, {dim}], got {rank}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    while True:
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = g @ g.conj().T
        rho /= rho.trace().real
        if int((np.linalg.eigvalsh(rho) > 1e-10).sum()) == rank:
            return rho


def save_discord_csv(path, rows) -> None:
    """Write benchmark rows: seed, rank, purity, mutual_info, discord,
    classical_corr, degree_of_quantumness, theta_opt, phi_opt."""
    header = ("seed", "rank", "purity", "mutual_info", "discord", "classical_corr",
              "degree_of_quantumness", "theta_opt", "phi_opt")
    write_csv(path, header, list(zip(*rows)))

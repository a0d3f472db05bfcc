"""Quantum-information measures on two-qubit states.

Entropies, mutual information, quantum discord minimized over two-element
orthogonal measurements on qubit B, the diagonal-truncation classical mutual
information, the quantumness upper bound on the discord built from it, and
fixed-rank random density matrices.

Discord is computed in correlation-matrix form: with
rho = sum R[mu, nu] sigma_mu x sigma_nu / 4, measuring B along the Bloch
direction n leaves A with probability (1 +- b.n)/2 in the Bloch vector
(a +- T n)/(1 +- b.n), so the conditional entropy is a closed form in the 15
real numbers a, b and T.  A two-outcome measurement along n is the same as
along -n, so its grid covers only the hemisphere theta <= pi/2, and an
in-house compass search over the same closed form refines the grid's best
direction.  No projector is built; :class:`MeasurementBasis` only names
the measurement that :func:`discord_min` reports.

Entropies default to bits, so a maximally entangled pure state has discord 1;
nats are selectable everywhere through :class:`EntropyUnit`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    DimensionError,
    ValidationError,
    check_density_matrix,
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
    "discord_min",
    "classical_mutual_information",
    "degree_of_quantumness",
    "random_density_matrix",
    "save_discord_csv",
]

# Outcomes and eigenvalues at or below this probability are dropped; their
# p log p limit is zero.  Round-off negatives of a checked state fall among them.
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


def _entropy_nats(spectrum: np.ndarray):
    """-sum lam log lam over the last axis, skipping lam <= PROB_FLOOR."""
    lam = np.where(spectrum > PROB_FLOOR, spectrum, 1.0)
    return -(lam * np.log(lam)).sum(axis=-1)


def _require_two_qubits(rho: np.ndarray) -> np.ndarray:
    if np.shape(rho) != (4, 4):
        raise DimensionError(f"two-qubit state required, got shape {np.shape(rho)}")
    return check_density_matrix(rho)


def von_neumann_entropy(rho: np.ndarray, unit: EntropyUnit = EntropyUnit.BITS) -> float:
    """-tr(rho log rho); zero for pure states, log d for maximally mixed."""
    rho = check_density_matrix(rho)
    if rho.ndim != 2:
        raise DimensionError(f"rho must be one state, got shape {rho.shape}")
    return float(_entropy_nats(np.linalg.eigvalsh(rho))) * unit.per_nat


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
    if rho.shape != sigma.shape or rho.ndim != 2:
        raise DimensionError(f"need two states of one shape: {rho.shape} vs {sigma.shape}")
    w_r = np.linalg.eigvalsh(rho)
    w_s, v_s = np.linalg.eigh(sigma)
    weights = np.einsum("ij,jk,ki->i", v_s.conj().T, rho, v_s).real
    if np.any((w_s < PROB_FLOOR) & (weights > 1e-10)):
        return math.inf
    mask = w_s > PROB_FLOOR
    cross = float(-(weights[mask] * np.log(w_s[mask])).sum())
    return (cross - float(_entropy_nats(w_r))) * unit.per_nat


def _entropies_nats(rho_ab: np.ndarray) -> tuple[float, float, float]:
    """S(A), S(B) and S(AB) in nats of a two-qubit state that is already checked."""
    states = (partial_trace(rho_ab, (2, 2), "A"), partial_trace(rho_ab, (2, 2), "B"), rho_ab)
    return tuple(float(_entropy_nats(np.linalg.eigvalsh(m))) for m in states)


def _mutual_information_nats(rho_ab: np.ndarray) -> float:
    """I(A:B) in nats of a two-qubit state that is already checked."""
    s_a, s_b, s_ab = _entropies_nats(rho_ab)
    return s_a + s_b - s_ab


def mutual_information(rho_ab: np.ndarray, unit: EntropyUnit = EntropyUnit.BITS) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) >= 0, the total correlation content."""
    return _mutual_information_nats(_require_two_qubits(rho_ab)) * unit.per_nat


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


@dataclass(frozen=True)
class DiscordResult:
    discord: float
    classical_correlation: float
    optimal_basis: MeasurementBasis
    mutual_information: float


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
        s = _entropy_nats(np.stack([0.5 - gap, 0.5 + gap], axis=-1))
        total = total + np.where(live, p * s, 0.0)
    return total


def _directions(theta, phi) -> np.ndarray:
    """Bloch directions (sin th cos ph, sin th sin ph, cos th), shape (..., 3)."""
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=-1)


# The discord search grid, built once: its angles and the Bloch direction
# at each (theta, phi), shape (N_THETA // 2 + 1, N_PHI, 3).  Both angles are
# spaced by pi/64, the first step of the compass search.
_GRID_THETAS = np.linspace(0.0, math.pi / 2.0, N_THETA // 2 + 1)
_GRID_PHIS = np.linspace(0.0, 2.0 * math.pi, N_PHI, endpoint=False)
_GRID_N = _directions(*np.meshgrid(_GRID_THETAS, _GRID_PHIS, indexing="ij"))
# The 8 compass neighbours of a point, in units of the step.
_COMPASS = np.array([(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)],
                    dtype=float)
for _m in (_GRID_THETAS, _GRID_PHIS, _GRID_N, _COMPASS):
    _m.setflags(write=False)


@dataclass(frozen=True)
class SearchResult:
    x: tuple[float, float]  # (theta, phi) of the best direction, theta <= pi/2
    fun: float  # its conditional entropy in nats
    nfev: int  # directions evaluated


def minimize(r: np.ndarray, x0: tuple[float, float], fun0: float) -> SearchResult:
    """Compass search for the conditional entropy of correlation matrix ``r``,
    from the direction at ``x0`` = (theta, phi), whose value is ``fun0``.

    It moves in the (theta, phi) chart of a frame whose x axis is that
    direction (columns n0, e_theta, e_phi), so it starts at (pi/2, 0), far
    from the chart's poles, where a phi step would barely move n.  Each round
    evaluates the 8 neighbours at the current step in one batch and moves to
    the lowest if it beats the current point; otherwise the step is
    quartered.  The step starts at the grid spacing and the search stops
    below ``ANGLE_TOL``, so the result is never above ``fun0``.  The angles
    returned name the direction folded into the hemisphere n_z >= 0.
    """
    theta0, phi0 = x0
    frame = _directions(np.array([theta0, theta0 + math.pi / 2.0, math.pi / 2.0]),
                        np.array([phi0, phi0, phi0 + math.pi / 2.0])).T
    r = np.concatenate([r[:, :1], r[:, 1:] @ frame], axis=1)
    x, fun, step, nfev = np.array([math.pi / 2.0, 0.0]), float(fun0), math.pi / N_THETA, 0
    while step >= ANGLE_TOL:
        points = x + step * _COMPASS
        values = _conditional_entropy_grid(r, _directions(points[:, 0], points[:, 1]))
        nfev += len(points)
        k = int(np.argmin(values))
        if values[k] < fun:
            x, fun = points[k], float(values[k])
        else:
            step /= 4.0
    n = frame @ _directions(*x)
    nx, ny, nz = n if n[2] >= 0.0 else -n
    theta, phi = math.atan2(math.hypot(nx, ny), nz), math.atan2(ny, nx) % (2.0 * math.pi)
    return SearchResult(x=(theta, phi if phi < 2.0 * math.pi else 0.0), fun=fun, nfev=nfev)


def discord_min(rho_ab: np.ndarray, unit: EntropyUnit = EntropyUnit.BITS) -> DiscordResult:
    """Quantum discord D(A|B) over two-element orthogonal measurements on B.

    I(A:B) minus the classical correlation maximized over the measurement
    direction n.  The conditional entropy is a closed form in the 15 real
    numbers of the correlation matrix (Luo, PRA 77, 042303 (2008)), so no
    projector is built.  Directions n and -n are the same measurement, so a
    coarse grid over the hemisphere theta <= pi/2 is searched, and a compass
    search (:func:`minimize`) refines its best point down to ``ANGLE_TOL``.
    The grid stage is global, so the smooth two-parameter landscape cannot
    trap the refinement in a secondary basin.  The reported basis lies in the
    hemisphere, and the discord is clipped below at 0.
    """
    rho_ab = _require_two_qubits(rho_ab)
    r = _correlation_matrix(rho_ab)
    surface = _conditional_entropy_grid(r, _GRID_N)
    i0, j0 = np.unravel_index(np.argmin(surface), surface.shape)
    res = minimize(r, (_GRID_THETAS[i0], _GRID_PHIS[j0]), float(surface[i0, j0]))
    basis = MeasurementBasis(*res.x)

    s_a, s_b, s_ab = _entropies_nats(rho_ab)
    mi = (s_a + s_b - s_ab) * unit.per_nat
    classical = (s_a - res.fun) * unit.per_nat
    return DiscordResult(
        discord=max(mi - classical, 0.0),
        classical_correlation=classical,
        optimal_basis=basis,
        mutual_information=mi,
    )


def classical_mutual_information(
    rho_ab: np.ndarray, unit: EntropyUnit = EntropyUnit.BITS
) -> float:
    """Mutual information of diag(rho) in the computational product basis.

    Dephasing to the diagonal is a local operation, so the result never
    exceeds I(A:B) (up to round-off).  The truncation basis is pinned to the
    fixed computational product basis.  diag(rho) needs no check of its
    own: each diagonal entry is at least the smallest eigenvalue of rho.
    """
    rho_ab = _require_two_qubits(rho_ab)
    return _mutual_information_nats(np.diag(np.diag(rho_ab))) * unit.per_nat


def degree_of_quantumness(rho_ab: np.ndarray, unit: EntropyUnit = EntropyUnit.BITS) -> float:
    """I(A:B) minus the diagonal-truncation mutual information.

    A quantumness estimate bounded by [0, I(A:B)] up to round-off, and an
    upper bound on the measurement-optimized discord: dephasing both qubits
    keeps no more correlation than measuring B along z, which keeps no more
    than the best measurement, so I_diag <= J(z) <= max J.
    """
    rho_ab = _require_two_qubits(rho_ab)
    mi = _mutual_information_nats(rho_ab) * unit.per_nat
    return mi - _mutual_information_nats(np.diag(np.diag(rho_ab))) * unit.per_nat


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

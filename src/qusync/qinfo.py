"""Quantum-information measures on two-qubit states.

Entropies, mutual information, quantum discord minimized over two-element
orthogonal measurements on qubit B, the diagonal-truncation classical mutual
information I_diag, the quantumness upper bound I - I_diag on the discord
built from it, and fixed-rank random density matrices.  I_diag is the
Shannon mutual information of the four computational-basis probabilities
p_ab = Re rho_(ab,ab), so no dephased matrix is built, and I - I_diag is
decided in ``_informations`` alone.

Discord is computed in correlation-matrix form: with
rho = sum R[mu, nu] sigma_mu x sigma_nu / 4, measuring B along the Bloch
direction n leaves A with probability (1 +- b.n)/2 in the Bloch vector
(a +- T n)/(1 +- b.n), so the conditional entropy is a closed form in the 15
real numbers a, b and T.  A two-outcome measurement along n is the same as
along -n, so its grid covers only the hemisphere theta <= pi/2, and an
in-house compass search over the same closed form refines the grid's best
direction.  No projector is built; :class:`MeasurementBasis` only names
the measurement that :func:`discord_min` reports.  The search, the entropies
and the mutual informations also run on a stack of states, with the same
arithmetic as the one-state functions: the stacked functions are
``_discords``, which ``discord-bench`` calls, and ``_informations``, which
``info-sweep`` and the one-state measures call.

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
    pauli,
    write_csv,
)

__all__ = [
    "EntropyUnit",
    "MeasurementBasis",
    "DiscordResult",
    "von_neumann_entropy",
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


def _lam_log_lam(lam: np.ndarray) -> np.ndarray:
    """lam log lam, taken as 0 where lam <= PROB_FLOOR."""
    lam = np.where(lam > PROB_FLOOR, lam, 1.0)
    return lam * np.log(lam)


def _entropy_nats(spectrum: np.ndarray):
    """-sum lam log lam over the last axis, skipping lam <= PROB_FLOOR."""
    return -_lam_log_lam(spectrum).sum(axis=-1)


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


def _reduced_states(rho_ab: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho_A, rho_B and rho_AB of a two-qubit state, or of each state of a stack."""
    r = rho_ab.reshape(*rho_ab.shape[:-2], 2, 2, 2, 2)
    return np.einsum("...abcb->...ac", r), np.einsum("...abad->...bd", r), rho_ab


def _informations(rho_ab: np.ndarray, unit: EntropyUnit):
    """I(A:B), the diagonal-truncation mutual information I_diag and the
    degree of quantumness I - I_diag of a checked two-qubit state, or of each
    state of an (n, 4, 4) stack: the one rule behind :func:`mutual_information`,
    :func:`classical_mutual_information`, :func:`degree_of_quantumness`,
    ``info-sweep`` and ``discord-bench``.

    I_diag is the Shannon mutual information of the four computational-basis
    outcomes p_ab = Re rho_(ab,ab), whose marginals are the diagonals of rho_A
    and rho_B.  Each distribution is sorted ascending, the order in which
    eigvalsh returns the spectrum of the dephased state diag(rho) and of its
    reduced states, so I_diag is that of diag(rho) bit for bit.
    """
    states = _reduced_states(rho_ab)
    s_a, s_b, s_ab = (_entropy_nats(np.linalg.eigvalsh(m)) for m in states)
    h_a, h_b, h_ab = (_entropy_nats(np.sort(np.diagonal(m, axis1=-2, axis2=-1).real, axis=-1))
                      for m in states)
    mi, mi_diag = (s_a + s_b - s_ab) * unit.per_nat, (h_a + h_b - h_ab) * unit.per_nat
    return mi, mi_diag, mi - mi_diag


def mutual_information(rho_ab: np.ndarray, unit: EntropyUnit = EntropyUnit.BITS) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) >= 0, the total correlation content."""
    return float(_informations(_require_two_qubits(rho_ab), unit)[0])


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
    rho = sum R[mu, nu] sigma_mu x sigma_nu / 4, of one state or of each of a stack.

    R[0, 0] = 1, R[1:, 0] is A's Bloch vector a, R[0, 1:] is B's Bloch
    vector b, and R[1:, 1:] is the correlation tensor T.
    """
    return np.einsum("...abcd,mca,ndb->...mn", rho_ab.reshape(*rho_ab.shape[:-2], 2, 2, 2, 2),
                     _SIGMA, _SIGMA).real


def _conditional_entropy_grid(r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Conditional entropy in nats, shape (s, k), of each correlation matrix of
    a stack ``r`` of shape (s, 4, 4), for its measurement directions ``n`` of
    shape (s, k, 3), or for directions of shape (k, 3) shared by all.

    Outcome +-1 along n leaves A in sum_mu u_mu sigma_mu / 4 with
    u = R (1, +-n): probability p = u_0 / 2 = (1 +- b.n) / 2 and Bloch vector
    (a +- T n) / u_0, whose length l gives the spectrum (1 +- l) / 2.
    """
    t_n = n @ r[..., 1:].swapaxes(-1, -2)
    r_0 = r[:, None, :, 0]
    total = 0.0
    for sign in (1.0, -1.0):
        u0, u1, u2, u3 = np.moveaxis(r_0 + sign * t_n, -1, 0)
        p = u0 / 2.0
        live = p > PROB_FLOOR
        gap = np.sqrt(u1 * u1 + u2 * u2 + u3 * u3) / (2.0 * np.where(live, u0, 1.0))
        s = -(_lam_log_lam(0.5 - gap) + _lam_log_lam(0.5 + gap))
        total = total + np.where(live, p * s, 0.0)
    return total


def _directions(theta, phi) -> np.ndarray:
    """Bloch directions (sin th cos ph, sin th sin ph, cos th), shape (..., 3)."""
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=-1)


# The discord search grid, built once: its angles and the Bloch direction
# at each (theta, phi), theta-major, shape ((N_THETA // 2 + 1) * N_PHI, 3).
# Both angles are spaced by pi/64, the first step of the compass search.
_GRID_THETAS = np.linspace(0.0, math.pi / 2.0, N_THETA // 2 + 1)
_GRID_PHIS = np.linspace(0.0, 2.0 * math.pi, N_PHI, endpoint=False)
_GRID_N = _directions(*np.meshgrid(_GRID_THETAS, _GRID_PHIS, indexing="ij")).reshape(-1, 3)
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


def _grid_start(r: np.ndarray) -> tuple[tuple[float, float], float]:
    """The grid point (theta, phi) of least conditional entropy of correlation
    matrix ``r``, and that entropy in nats."""
    surface = _conditional_entropy_grid(r[None], _GRID_N)[0]
    best = int(np.argmin(surface))
    return (_GRID_THETAS[best // N_PHI], _GRID_PHIS[best % N_PHI]), float(surface[best])


def _folded_angles(frame: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """(theta, phi) of the direction at chart point ``x`` of ``frame``, folded
    into the hemisphere n_z >= 0."""
    n = frame @ _directions(*x)
    nx, ny, nz = n if n[2] >= 0.0 else -n
    theta, phi = math.atan2(math.hypot(nx, ny), nz), math.atan2(ny, nx) % (2.0 * math.pi)
    return theta, (phi if phi < 2.0 * math.pi else 0.0)


def _search(r: np.ndarray, x0: np.ndarray,
            fun0: np.ndarray) -> tuple[list[tuple[float, float]], np.ndarray, np.ndarray]:
    """Compass search for the conditional entropy of each correlation matrix
    of an (s, 4, 4) stack, from its direction at ``x0[k]`` = (theta, phi),
    whose value is ``fun0[k]``: :func:`minimize` over a stack.

    Each state keeps its own point, value and step, and a round evaluates
    only the states whose step is still at least ``ANGLE_TOL``, so each
    state's path is the one it takes alone.  Returns each state's folded
    (theta, phi), its value and the directions it evaluated.
    """
    count = len(r)
    theta0, phi0 = x0[:, 0], x0[:, 1]
    frame = _directions(
        np.stack([theta0, theta0 + math.pi / 2.0, np.full(count, math.pi / 2.0)], axis=-1),
        np.stack([phi0, phi0, phi0 + math.pi / 2.0], axis=-1)).swapaxes(1, 2)
    r = np.concatenate([r[..., :1], r[..., 1:] @ frame], axis=-1)
    x = np.tile([math.pi / 2.0, 0.0], (count, 1))
    fun = np.array(fun0, dtype=float)
    step = np.full(count, math.pi / N_THETA)
    nfev = np.zeros(count, dtype=int)
    live = np.arange(count)
    while live.size:
        points = x[live, None] + step[live, None, None] * _COMPASS
        values = _conditional_entropy_grid(r[live], _directions(points[..., 0], points[..., 1]))
        nfev[live] += len(_COMPASS)
        k = np.argmin(values, axis=1)
        best = values[np.arange(len(live)), k]
        moved = best < fun[live]
        x[live[moved]] = points[moved, k[moved]]
        fun[live[moved]] = best[moved]
        step[live[~moved]] /= 4.0
        live = live[step[live] >= ANGLE_TOL]
    return [_folded_angles(f, p) for f, p in zip(frame, x)], fun, nfev


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
    returned name the direction folded into the hemisphere n_z >= 0.  This
    is the one-state case of the stacked search that ``discord-bench`` runs.
    """
    angles, fun, nfev = _search(np.asarray(r)[None], np.array([x0], dtype=float),
                                np.array([fun0], dtype=float))
    return SearchResult(x=angles[0], fun=float(fun[0]), nfev=int(nfev[0]))


def _discord_parts(rho_ab: np.ndarray, fun, unit: EntropyUnit):
    """I(A:B), the classical correlation, the discord (clipped below at 0)
    and I - I_diag of a checked state whose least conditional entropy is
    ``fun`` nats, or of each state of a stack."""
    mi, _, dq = _informations(rho_ab, unit)
    s_a = _entropy_nats(np.linalg.eigvalsh(_reduced_states(rho_ab)[0]))
    classical = (s_a - fun) * unit.per_nat
    discord = mi - classical
    return mi, classical, np.where(discord < 0.0, 0.0, discord), dq


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
    res = minimize(r, *_grid_start(r))
    mi, classical, discord, _ = _discord_parts(rho_ab, res.fun, unit)
    return DiscordResult(
        discord=float(discord),
        classical_correlation=float(classical),
        optimal_basis=MeasurementBasis(*res.x),
        mutual_information=float(mi),
    )


def _discords(rho_ab: np.ndarray, unit: EntropyUnit):
    """:func:`discord_min` over a checked (n, 4, 4) stack, with the same
    arithmetic: each state's grid, then one compass search over the whole
    stack.  Returns I(A:B), the discord, the classical correlation,
    I - I_diag, each state's (theta, phi) and the directions each evaluated."""
    r = _correlation_matrix(rho_ab)
    x0, fun0 = zip(*(_grid_start(m) for m in r))
    angles, fun, nfev = _search(r, np.array(x0), np.array(fun0))
    mi, classical, discord, dq = _discord_parts(rho_ab, fun, unit)
    return mi, discord, classical, dq, angles, nfev


def classical_mutual_information(
    rho_ab: np.ndarray, unit: EntropyUnit = EntropyUnit.BITS
) -> float:
    """Mutual information I_diag of diag(rho) in the computational product basis.

    That is the Shannon mutual information of the four outcome probabilities
    p_ab = Re rho_(ab,ab): H(p_a.) + H(p_.b) - H(p).  Dephasing to the
    diagonal is a local operation, so the result never exceeds I(A:B) (up to
    round-off).  The truncation basis is pinned to the fixed computational
    product basis.  The p_ab need no check of their own: each is at least
    the smallest eigenvalue of rho.
    """
    return float(_informations(_require_two_qubits(rho_ab), unit)[1])


def degree_of_quantumness(rho_ab: np.ndarray, unit: EntropyUnit = EntropyUnit.BITS) -> float:
    """I(A:B) minus the diagonal-truncation mutual information.

    A quantumness estimate bounded by [0, I(A:B)] up to round-off, and an
    upper bound on the measurement-optimized discord: dephasing both qubits
    keeps no more correlation than measuring B along z, which keeps no more
    than the best measurement, so I_diag <= J(z) <= max J.
    """
    return float(_informations(_require_two_qubits(rho_ab), unit)[2])


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


def save_discord_csv(path, columns) -> None:
    """Write the benchmark columns seed, rank, purity, mutual_info, discord,
    classical_corr, degree_of_quantumness, theta_opt and phi_opt."""
    header = ("seed", "rank", "purity", "mutual_info", "discord", "classical_corr",
              "degree_of_quantumness", "theta_opt", "phi_opt")
    write_csv(path, header, columns)

"""Two-qubit master-equation engine with correlated collective dissipation.

The Hamiltonian couples two driven qubits through an exchange term; the
environment enters through a symmetric and an antisymmetric collective jump
operator whose rates gamma*(1+xi) and gamma*(1-xi) inherit the eigenvalues of
the bath correlation matrix.  Propagation uses the matrix exponential of the
16x16 Liouvillian (exact for a time-independent generator); steady states
come from its null space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .operators import (
    DimensionError,
    ValidationError,
    check_density_matrix,
    kron,
    pauli,
    write_csv,
)

__all__ = [
    "Channel",
    "ModelParams",
    "EvolutionResult",
    "DegenerateSteadyStateError",
    "NoSteadyStateError",
    "PropagationError",
    "build_hamiltonian",
    "site_operators",
    "build_collapse_ops",
    "dissipator_apply",
    "cross_dissipator_apply",
    "master_equation_rhs",
    "vectorize",
    "unvectorize",
    "dissipator_superoperator",
    "build_liouvillian",
    "evolve",
    "steady_state",
    "steady_state_from_matrix",
    "long_time_state",
    "save_evolution_csv",
    "save_bloch_csv",
]

OBSERVABLE_NAMES = ("sz1", "sz2", "sx1", "sx2", "purity")

# Numerical tolerances: every recorded state's invariants (``evolve``); the
# null-space eigenvalue and the existence bound (``steady_state_from_matrix``).
STATE_ATOL = 1e-8
NULL_ATOL = 1e-10
EXIST_ATOL = 1e-8


class DegenerateSteadyStateError(RuntimeError):
    """Null space of the Liouvillian has dimension > 1.

    Carries every null-space candidate (Hermitized, trace-normalized when the
    trace is not degenerate to zero) in ``candidates``.
    """

    def __init__(self, candidates: list[np.ndarray]):
        self.candidates = candidates
        super().__init__(
            f"steady state is degenerate: {len(candidates)} null-space candidates"
        )


class NoSteadyStateError(RuntimeError):
    """No Liouvillian eigenvalue small enough to qualify as a fixed point."""


class PropagationError(RuntimeError):
    """A propagated state violated a density-matrix invariant."""


class Channel(enum.Enum):
    """Local operator entering the collective jump operators."""

    RAISE = "raise"
    LOWER = "lower"
    X = "x"
    Z = "z"

    @property
    def operator(self) -> np.ndarray:
        return pauli({"raise": "plus", "lower": "minus", "x": "x", "z": "z"}[self.value])


_I2 = pauli("id")
# Parameter-free two-qubit operators, built once and read-only: the Pauli
# matrices on each qubit, the exchange term s1+ s2- + s1- s2+, and for each
# channel its operator on qubit 1 and on qubit 2.
_OPS = {
    **{f"s{axis}1": kron(pauli(axis), _I2) for axis in "xyz"},
    **{f"s{axis}2": kron(_I2, pauli(axis)) for axis in "xyz"},
    "exchange": kron(pauli("plus"), pauli("minus")) + kron(pauli("minus"), pauli("plus")),
}
_SITE_OPS = {ch: (kron(ch.operator, _I2), kron(_I2, ch.operator)) for ch in Channel}
for _m in [*_OPS.values(), *(m for pair in _SITE_OPS.values() for m in pair)]:
    _m.setflags(write=False)


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: gap ``delta``, local drive ``tau``, exchange
    ``j_xy``, bath rate ``gamma``, bath correlation ``xi``, and the local
    jump channel (default: the incoherent pump |0> -> |1>)."""

    delta: float = 1.0
    tau: float = 1.0
    j_xy: float = 0.25
    gamma: float = 0.05
    xi: float = 0.0
    channel: Channel = Channel.RAISE

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if abs(self.xi) > 1.0:
            raise ValidationError(f"|xi| must be <= 1, got {self.xi}")
        if not isinstance(self.channel, Channel):
            try:
                object.__setattr__(self, "channel", Channel(self.channel))
            except ValueError as exc:
                raise ValidationError(str(exc)) from exc


@dataclass
class EvolutionResult:
    """States and observables recorded at every propagation step."""

    times: np.ndarray
    states: np.ndarray  # shape (n, 4, 4)
    observables: dict[str, np.ndarray] = field(default_factory=dict)


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """H = delta/2 (sz1 + sz2) + tau/2 (sx1 + sx2) + j_xy (s1+ s2- + s2+ s1-)."""
    h = p.delta / 2.0 * (_OPS["sz1"] + _OPS["sz2"])
    h = h + p.tau / 2.0 * (_OPS["sx1"] + _OPS["sx2"])
    return h + p.j_xy * _OPS["exchange"]


def site_operators(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Channel operator embedded on qubit 1 and on qubit 2 (read-only)."""
    return _SITE_OPS[p.channel]


def build_collapse_ops(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric and antisymmetric collective jump operators.

    c_S = sqrt(gamma (1+xi)) (s1 + s2)/sqrt(2) and
    c_A = sqrt(gamma (1-xi)) (s1 - s2)/sqrt(2), where s_i is the channel
    operator on qubit i.  |xi| <= 1 keeps both rates non-negative.
    """
    s1, s2 = site_operators(p)
    c_sym = np.sqrt(p.gamma * (1.0 + p.xi) / 2.0) * (s1 + s2)
    c_asym = np.sqrt(p.gamma * (1.0 - p.xi) / 2.0) * (s1 - s2)
    return c_sym, c_asym


def dissipator_apply(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[c](rho) = c rho c+ - (c+ c rho + rho c+ c)/2; traceless output."""
    c = np.asarray(c, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if c.shape != rho.shape:
        raise DimensionError(f"operator {c.shape} does not match state {rho.shape}")
    cdc = c.conj().T @ c
    return c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)


def cross_dissipator_apply(p: ModelParams, rho: np.ndarray) -> np.ndarray:
    """Cross-site dissipator D12; enters the generator with weight xi.

    D12(rho) = gamma [s1 rho s2+ + s2 rho s1+ - {s1+ s2 + s2+ s1, rho}/2].
    """
    rho = np.asarray(rho, dtype=complex)
    s1, s2 = site_operators(p)
    if rho.shape != s1.shape:
        raise DimensionError(f"state shape {rho.shape}, expected {s1.shape}")
    anti = s1.conj().T @ s2 + s2.conj().T @ s1
    return p.gamma * (
        s1 @ rho @ s2.conj().T
        + s2 @ rho @ s1.conj().T
        - 0.5 * (anti @ rho + rho @ anti)
    )


def master_equation_rhs(p: ModelParams, rho: np.ndarray) -> np.ndarray:
    """Direct evaluation of d rho/dt = -i[H, rho] + D_S(rho) + D_A(rho)."""
    h = build_hamiltonian(p)
    c_sym, c_asym = build_collapse_ops(p)
    out = -1j * (h @ rho - rho @ h)
    out = out + dissipator_apply(c_sym, rho) + dissipator_apply(c_asym, rho)
    return out


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(A rho B) = (B^T kron A) vec(rho)."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvectorize(v: np.ndarray, dim: int = 4) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


def _commutator_superoperator(h: np.ndarray) -> np.ndarray:
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def dissipator_superoperator(c: np.ndarray) -> np.ndarray:
    """Matrix form of D[c] under column-stacking vectorization."""
    c = np.asarray(c, dtype=complex)
    d = c.shape[0]
    eye = np.eye(d, dtype=complex)
    cdc = c.conj().T @ c
    return (np.kron(c.conj(), c)
            - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye)))


def build_liouvillian(p: ModelParams) -> np.ndarray:
    """Assemble the 16x16 generator from the Hamiltonian and both jump ops.

    The generator acts on column-stacked vectorized states.
    """
    h = build_hamiltonian(p)
    mat = _commutator_superoperator(h)
    for c in build_collapse_ops(p):
        mat = mat + dissipator_superoperator(c)
    return mat


def _validate_trajectory(states: np.ndarray, atol: float) -> None:
    """Check every recorded state; report the first offending step."""
    herm = np.abs(states - states.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    if herm.max() > atol:
        step = int(np.argmax(herm > atol))
        raise PropagationError(
            f"hermiticity violated at step {step}: deviation {herm[step]:.3e}"
        )
    trace = np.abs(np.einsum("nii->n", states) - 1.0)
    if trace.max() > atol:
        step = int(np.argmax(trace > atol))
        raise PropagationError(
            f"unit trace violated at step {step}: deviation {trace[step]:.3e}"
        )
    # rho + atol*I has a Cholesky factor exactly when no eigenvalue of rho is
    # below -atol; only a failed factorization pays for the spectra that name
    # the step and the value.  A NaN state yields a NaN factor, not an error,
    # so it takes the spectra path too.
    try:
        if np.isfinite(np.linalg.cholesky(states + atol * np.eye(states.shape[-1]))).all():
            return
    except np.linalg.LinAlgError:
        pass
    eigmin = np.linalg.eigvalsh(states).min(axis=1)
    if eigmin.min() < -atol:
        step = int(np.argmin(eigmin))
        raise PropagationError(
            f"positivity violated at step {step}: min eigenvalue {eigmin[step]:.3e}"
        )


def evolve(
    p: ModelParams,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    method: str = "expm",
) -> EvolutionResult:
    """Propagate rho0 on a uniform grid, recording states and observables.

    The default path applies the one-step propagator exp(L dt) (computed once
    by scaling and squaring, then reused), which is exact for the
    time-independent generator.  ``method="rk4"`` is a fixed-step fourth-order
    Runge-Kutta alternative kept for cross-validation.

    Every recorded state is checked against the density-matrix invariants at
    tolerance ``STATE_ATOL``; a violation raises :class:`PropagationError`
    naming the step and the invariant.  The observables are the Pauli
    expectations ``s{x,y,z}{1,2}`` and the purity.
    """
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t_final < dt:
        raise ValidationError(f"t_final must be >= dt, got {t_final}")
    rho0 = check_density_matrix(rho0, name="rho0")
    lm = build_liouvillian(p)
    n_steps = int(round(t_final / dt))
    vecs = np.empty((n_steps + 1, 16), dtype=complex)
    v = vectorize(rho0)
    vecs[0] = v
    if method == "expm":
        prop = expm(lm * dt)
        for k in range(1, n_steps + 1):
            v = prop @ v
            vecs[k] = v
    elif method == "rk4":
        for k in range(1, n_steps + 1):
            k1 = lm @ v
            k2 = lm @ (v + 0.5 * dt * k1)
            k3 = lm @ (v + 0.5 * dt * k2)
            k4 = lm @ (v + dt * k3)
            v = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            vecs[k] = v
    else:
        raise ValidationError(f"unknown propagation method {method!r}")

    states = vecs.reshape(-1, 4, 4).transpose(0, 2, 1)  # undo column stacking
    _validate_trajectory(states, STATE_ATOL)

    observables = {
        name: np.einsum("nij,ji->n", states, _OPS[name]).real
        for name in ("sz1", "sz2", "sx1", "sx2", "sy1", "sy2")
    }
    observables["purity"] = np.einsum("nij,nji->n", states, states).real
    times = np.arange(n_steps + 1) * dt
    return EvolutionResult(times=times, states=states, observables=observables)


def steady_state_from_matrix(mat: np.ndarray) -> np.ndarray:
    """Steady state from the null space of a generator matrix.

    The null-space eigenvector is Hermitized and trace-normalized.  A null
    space of dimension > 1 at ``NULL_ATOL`` raises
    :class:`DegenerateSteadyStateError` carrying all candidates; no eigenvalue
    below ``EXIST_ATOL`` raises :class:`NoSteadyStateError`.
    """
    evals, evecs = np.linalg.eig(mat)
    order = np.argsort(np.abs(evals))
    dim = int(round(np.sqrt(mat.shape[0])))

    def _to_state(v: np.ndarray) -> np.ndarray:
        m = unvectorize(v, dim)
        m = (m + m.conj().T) / 2.0
        tr = m.trace().real
        return m / tr if abs(tr) > 1e-8 else m

    null_idx = [i for i in order if abs(evals[i]) <= NULL_ATOL]
    if len(null_idx) > 1:
        raise DegenerateSteadyStateError([_to_state(evecs[:, i]) for i in null_idx])
    if abs(evals[order[0]]) >= EXIST_ATOL:
        raise NoSteadyStateError(
            f"smallest |eigenvalue| is {abs(evals[order[0]]):.3e}, no fixed point"
        )
    rho = _to_state(evecs[:, order[0]])
    residual = np.linalg.norm(mat @ vectorize(rho))
    if residual > 1e-10:
        raise NoSteadyStateError(f"null-space residual {residual:.3e} exceeds 1e-10")
    return check_density_matrix(rho, herm_atol=1e-9, trace_atol=1e-9, eig_atol=1e-8,
                                name="rho_ss")


def steady_state(p: ModelParams) -> np.ndarray:
    """Unique dissipative fixed point of the generator, L(rho_ss) = 0.

    A dissipative fixed point is only expected for gamma > 0; at gamma = 0
    the purely unitary generator has a degenerate null space, which surfaces
    through :class:`DegenerateSteadyStateError` like any other degeneracy.
    """
    return steady_state_from_matrix(build_liouvillian(p))


def long_time_state(p: ModelParams, rho0: np.ndarray, t: float) -> np.ndarray:
    """State after propagating rho0 for time t in a single exponential step.

    This is the fallback used when the steady state is degenerate; the result
    then depends on rho0 through the conserved quantities.
    """
    rho0 = check_density_matrix(rho0, name="rho0")
    v = expm(build_liouvillian(p) * t) @ vectorize(rho0)
    rho = unvectorize(v)
    rho = (rho + rho.conj().T) / 2.0
    return rho / rho.trace().real


def save_evolution_csv(path, result: EvolutionResult) -> None:
    obs = result.observables
    write_csv(path, ("t",) + OBSERVABLE_NAMES,
              [result.times] + [obs[n] for n in OBSERVABLE_NAMES])


def save_bloch_csv(path, result: EvolutionResult) -> None:
    """Write per-qubit Bloch vectors (x, y, z components) along a trajectory:
    the ``s{x,y,z}{1,2}`` observables."""
    obs = result.observables
    write_csv(path, ("t", "bx1", "by1", "bz1", "bx2", "by2", "bz2"),
              [result.times] + [obs[f"s{axis}{site}"] for site in (1, 2) for axis in "xyz"])

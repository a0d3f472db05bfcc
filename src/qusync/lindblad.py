"""Two-qubit master-equation engine with correlated collective dissipation.

Two driven qubits couple through an exchange term; the environment enters
through two collective jump operators whose rates gamma (1 +- xi)/2 are the
eigenvalues of the bath correlation matrix, so the 16x16 Liouvillian L is a
weighted sum of five fixed superoperators per channel.  Propagation uses the
matrix exponential of L (exact for a time-independent generator), computed in
numpy by scaling and squaring.  Steady and asymptotic states come from the
null spaces of one SVD of L, where a singular value counts as zero up to
``NULL_ATOL * max(||L||_2, 1)``, in one rule over a stack of generators
(``_steady_states``); every other fixed-point function is its stack of one,
so a stacked sweep gives the same states bit for bit, degenerate ones too.
A trajectory is stored entry-major: one (16, n) array whose row 4 j + i holds
rho_ij at every step, so that its check and its observables read contiguous
entries, and its (n, 4, 4) states are a view of that array.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    ValidationError,
    check_density_matrix,
    kron,
    pauli,
    require_finite,
    write_csv,
)

__all__ = [
    "Channel",
    "ModelParams",
    "EvolutionResult",
    "DegenerateSteadyStateError",
    "NoSteadyStateError",
    "vectorize",
    "dissipator_superoperator",
    "build_liouvillian",
    "evolve",
    "steady_state",
    "steady_state_from_matrix",
    "long_time_state",
    "asymptotic_state",
    "save_evolution_csv",
    "save_bloch_csv",
]

OBSERVABLE_NAMES = ("sz1", "sz2", "sx1", "sx2", "purity")

# Numerical tolerances: every recorded state's invariants (``evolve``); the
# zero of L and the bound on a fixed point's ||L rho||, relative to ||L||.
STATE_ATOL = 1e-8
NULL_ATOL = 1e-12

# States that ``evolve`` fills with one stacked product.
BLOCK = 128

# Padé degrees 3, 5, 7, 9 and 13 of exp (Higham, SIAM J. Matrix Anal. Appl.
# 26, 1179 (2005)): the largest 1-norm theta_m at which the [m/m]
# approximant is accurate to double precision, and its coefficients b_0..b_m.
_PADE = tuple((theta, np.array(b, dtype=float)) for theta, b in (
    (1.495585217958292e-2, (120, 60, 12, 1)),
    (2.539398330063230e-1, (30240, 15120, 3360, 420, 30, 1)),
    (9.504178996162932e-1, (17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1)),
    (2.097847961257068e0, (17643225600, 8821612800, 2075673600, 302702400, 30270240,
                           2162160, 110880, 3960, 90, 1)),
    (5.371920351148152e0, (64764752532480000, 32382376266240000, 7771770303897600,
                           1187353796428800, 129060195264000, 10559470521600,
                           670442572800, 33522128640, 1323241920, 40840800, 960960,
                           16380, 182, 1)),
))


class DegenerateSteadyStateError(RuntimeError):
    """Null space of the Liouvillian has ``dimension`` > 1."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        super().__init__(f"steady state is degenerate: {dimension} null-space candidates")


class NoSteadyStateError(RuntimeError):
    """No singular value of the generator is zero, or a null vector's state is
    no fixed point."""


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
# matrices on each qubit and the exchange term s1+ s2- + s1- s2+.
_OPS = {
    **{f"s{axis}1": kron(pauli(axis), _I2) for axis in "xyz"},
    **{f"s{axis}2": kron(_I2, pauli(axis)) for axis in "xyz"},
    "exchange": kron(pauli("plus"), pauli("minus")) + kron(pauli("minus"), pauli("plus")),
}
# tr(rho O) = vec(rho) . ravel(O) under column stacking.  Each Pauli O here
# has four non-zero weights, each +-1 or +-i, so each of its terms is +- the
# real or the imaginary part of one entry: (k, real part?, sign).
_PAULI_TERMS = {
    name: [(k, w.imag == 0, w.real - w.imag) for k, w in enumerate(_OPS[name].ravel()) if w]
    for name in ("sz1", "sz2", "sx1", "sx2", "sy1", "sy2")
}
for _m in _OPS.values():
    _m.setflags(write=False)


def _expectation(traj: np.ndarray, terms) -> np.ndarray:
    """tr(rho O) at every step of an entry-major (16, n) trajectory, from the
    non-zero ``_PAULI_TERMS`` of O added as 0 + t_1 + t_2 + ...: the order of
    a dense einsum over all 16 weights, whose zero terms change no sum of
    finite entries, so the same bits."""
    total = 0.0
    for k, real, sign in terms:
        x = traj[k].real if real else traj[k].imag
        total = total + x if sign > 0 else total - x
    return total


def _purity(states: np.ndarray) -> np.ndarray:
    """tr(rho^2) of each state of an (n, 4, 4) stack, as the sum over j of
    the sums over i of Re(rho_ij rho_ji): the order of a dense einsum, so the
    same bits."""
    purity = 0.0
    for j in range(4):
        column = 0.0
        for i in range(4):
            a, b = states[:, i, j], states[:, j, i]
            column = column + (a.real * b.real - a.imag * b.imag)
        purity = purity + column
    return purity


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
        require_finite(delta=self.delta, tau=self.tau, j_xy=self.j_xy, gamma=self.gamma,
                       xi=self.xi)
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
    states: np.ndarray  # shape (n, 4, 4), from evolve a view of its entry-major array
    observables: dict[str, np.ndarray] = field(default_factory=dict)


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(A rho B) = (B^T kron A) vec(rho)."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


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


def _generator_terms(channel: Channel) -> np.ndarray:
    """Read-only superoperators of -i[sz1 + sz2, .], -i[sx1 + sx2, .],
    -i[s1+ s2- + s1- s2+, .], D[s1 + s2] and D[s1 - s2], where s_i is the
    channel operator on qubit i."""
    s1, s2 = kron(channel.operator, _I2), kron(_I2, channel.operator)
    terms = np.stack([
        _commutator_superoperator(_OPS["sz1"] + _OPS["sz2"]),
        _commutator_superoperator(_OPS["sx1"] + _OPS["sx2"]),
        _commutator_superoperator(_OPS["exchange"]),
        dissipator_superoperator(s1 + s2),
        dissipator_superoperator(s1 - s2),
    ])
    terms.setflags(write=False)
    return terms


_GENERATOR_TERMS = {ch: _generator_terms(ch) for ch in Channel}


def _liouvillians(p: ModelParams, xi, gamma, j_xy) -> np.ndarray:
    """:func:`build_liouvillian` of ``p`` at each point of equal-shape arrays xi, gamma, j_xy."""
    with np.errstate(over="ignore", invalid="ignore"):
        rates = gamma * (1.0 + xi) / 2.0, gamma * (1.0 - xi) / 2.0
        weights = np.stack(np.broadcast_arrays(p.delta / 2.0, p.tau / 2.0, j_xy, *rates), axis=-1)
        mats = np.einsum("...k,kij->...ij", weights, _GENERATOR_TERMS[p.channel])
    require_finite(generator=mats)
    return mats


def build_liouvillian(p: ModelParams) -> np.ndarray:
    """The 16x16 generator: the five terms of the channel weighted by
    delta/2, tau/2, j_xy, gamma (1+xi)/2 and gamma (1-xi)/2.

    It acts on column-stacked vectorized states.  Finite inputs can overflow
    it (a rate of 1e308); that raises :class:`ValidationError` naming the
    generator.  It is the one-point case of the stacked rule of ``info-sweep``.
    """
    return _liouvillians(p, p.xi, p.gamma, p.j_xy)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring (Higham 2005, Algorithm 2.3).

    The lowest Padé degree whose theta_m bounds ||a||_1 is used; above
    theta_13, a is scaled by 2^-s into it and the approximant squared s times.
    """
    norm = np.abs(a).sum(axis=0).max()
    theta, b = next((pade for pade in _PADE if norm <= pade[0]), _PADE[-1])
    s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    a = a / 2.0**s
    # even powers I, a^2, ..., a^(m-1); U holds the odd terms, V the even ones
    powers = [np.eye(len(a), dtype=a.dtype), a @ a]
    while len(powers) < len(b) // 2:
        powers.append(powers[-1] @ powers[1])
    powers = np.array(powers)
    u = a @ np.tensordot(b[1::2], powers, 1)
    v = np.tensordot(b[0::2], powers, 1)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def evolve(p: ModelParams, rho0: np.ndarray, t_final: float, dt: float) -> EvolutionResult:
    """Propagate rho0 on a uniform grid, recording states and observables.

    Each step applies the one-step propagator P = exp(L dt), which is exact
    for the time-independent generator.  P is computed once by scaling and
    squaring with a Padé approximant (Higham, SIAM J. Matrix Anal. Appl. 26,
    1179 (2005)).  It precomputes P^1..P^BLOCK and fills each block of
    ``BLOCK`` states with one stacked product from the state before the
    block, transposed into a (16, n_steps + 1) entry-major array;
    ``states`` is an (n_steps + 1, 4, 4) view of it, so ``states[:, i, j]``
    is contiguous.

    The recorded states are checked as one stack by ``check_density_matrix``
    at ``atol=STATE_ATOL``; a violation raises its ``ValidationError``,
    which names the first offending step, e.g. ``step 7 is not Hermitian (max
    deviation nan)``.  The observables are ``s{x,y,z}{1,2}``, each from the
    four entries where its Pauli matrix is non-zero, and the purity, with
    the bits of dense einsums over all 16 entries.
    A step count whose states numpy cannot size raises ``ValidationError``
    naming it, ``t_final`` and ``dt``, before anything is allocated.
    """
    require_finite(dt=dt, t_final=t_final)
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t_final < dt:
        raise ValidationError(f"t_final must be >= dt, got {t_final}")
    rho0 = check_density_matrix(rho0, name="rho0")
    lm = build_liouvillian(p)
    try:
        n_steps = int(round(t_final / dt))
        traj = np.empty((16, n_steps + 1), dtype=complex)
    except (OverflowError, ValueError) as exc:  # inf steps, or an array numpy cannot size
        raise ValidationError(f"{t_final / dt:.3g} steps (t_final = {t_final}, dt = {dt}) "
                              f"are too many to store") from exc
    v = vectorize(rho0)
    traj[:, 0] = v
    # powers[j] = P^(j+1) for the one-step propagator P = exp(L dt)
    powers = np.empty((BLOCK, 16, 16), dtype=complex)
    powers[0] = _expm(lm * dt)
    for j in range(1, BLOCK):
        powers[j] = powers[0] @ powers[j - 1]
    for start in range(0, n_steps, BLOCK):
        # a stack of matrix-vector products: one (16 m, 16) @ v product gives
        # the same bits, but through BLAS it took 30 times longer
        rows = powers[:min(BLOCK, n_steps - start)] @ v
        traj[:, start + 1:start + 1 + len(rows)] = rows.T
        v = rows[-1]

    # traj[4 j + i] holds rho_ij of every step (column stacking)
    states = traj.reshape(4, 4, -1).transpose(2, 1, 0)
    check_density_matrix(states, atol=STATE_ATOL, name="step")

    observables = {name: _expectation(traj, terms) for name, terms in _PAULI_TERMS.items()}
    observables["purity"] = _purity(states)
    times = np.arange(n_steps + 1) * dt
    return EvolutionResult(times=times, states=states, observables=observables)


def _null_spaces(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One SVD of each generator of an (n, d, d) stack: U, V+, the zero bound
    and the null-space dimension of each.  The one place that decides what a
    zero of a generator is; the first generator with none raises
    :class:`NoSteadyStateError`.  Singular values are sorted, so the null
    vectors are the last ``dims`` rows of V+ and columns of U."""
    u, s, vh = np.linalg.svd(mats)
    zero = NULL_ATOL * np.maximum(s[:, 0], 1.0)
    dims = (s <= zero[:, None]).sum(axis=1)
    if not dims.all():
        k = int(np.argmin(dims))
        raise NoSteadyStateError(
            f"smallest singular value {s[k, -1]:.3e} exceeds {zero[k]:.3e}, no fixed point")
    return u, vh, zero, dims


def _to_states(vecs: np.ndarray) -> np.ndarray:
    """Unvectorize each row of an (n, d*d) stack, Hermitize, and divide by the
    trace unless it is about zero."""
    d = math.isqrt(vecs.shape[-1])
    m = vecs.reshape(-1, d, d).swapaxes(1, 2)  # undo column stacking
    m = (m + m.conj().swapaxes(1, 2)) / 2.0
    tr = np.trace(m, axis1=1, axis2=2).real
    return m / np.where(abs(tr) > 1e-8, tr, 1.0)[:, None, None]


def _fixed_points(mats: np.ndarray, vecs: np.ndarray, zero: np.ndarray,
                  name: str) -> np.ndarray:
    """The states of null vectors ``vecs``, one per generator of the stack
    ``mats``, each checked as a fixed point: the first residual ||L rho|| above
    its generator's zero bound raises :class:`NoSteadyStateError`.  Whether
    they are density matrices is the caller's one check."""
    rho = _to_states(vecs)
    residual = np.linalg.norm(mats @ rho.swapaxes(1, 2).reshape(*mats.shape[:2], 1), axis=(1, 2))
    bad = np.flatnonzero(residual > zero)
    if bad.size:
        raise NoSteadyStateError(
            f"{name} residual {residual[bad[0]]:.3e} exceeds {zero[bad[0]]:.3e}")
    return rho


def _steady_states(mats: np.ndarray, rho0: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The null-space dimension and the fixed point of each generator of an
    (n, d*d, d*d) stack, from one SVD.

    A null space of one vector gives its state, ``rho_ss``; a larger one the
    limit of exp(L t) rho0, ``rho_inf`` (zero without ``rho0``): R (J+ R)^-1
    J+ vec(rho0), with the fixed points R and the conserved quantities J the
    null columns of V and U (Albert & Jiang, PRA 89, 022118 (2014)), or the
    trajectory's time average where L has imaginary eigenvalues (gamma = 0).
    The first generator with no zero singular value, or whose state is no
    fixed point, raises :class:`NoSteadyStateError`; whether the states are
    density matrices is the caller's one check.
    """
    u, vh, zero, dims = _null_spaces(mats)
    d = math.isqrt(mats.shape[-1])
    rho = np.zeros((len(mats), d, d), dtype=complex)
    for k in sorted(set(dims.tolist())):  # np.unique would import numpy.ma
        at = dims == k
        if k == 1:
            # turn the arbitrary phase of each SVD null vector to a positive
            # trace, so that Hermitizing cannot cancel it
            v = vh[at, -1].conj()
            v = v * np.exp(-1j * np.angle(v[:, ::d + 1].sum(axis=1)))[:, None]
            rho[at] = _fixed_points(mats[at], v, zero[at], "rho_ss")
        elif rho0 is not None:
            right, left_h = vh[at, -k:].conj().swapaxes(1, 2), u[at, :, -k:].conj().swapaxes(1, 2)
            x = np.linalg.solve(left_h @ right, (left_h @ vectorize(rho0))[..., None])
            rho[at] = _fixed_points(mats[at], (right @ x)[..., 0], zero[at], "rho_inf")
    return rho, dims


def steady_state_from_matrix(mat: np.ndarray) -> np.ndarray:
    """Steady state from the null space of a generator matrix: the one-matrix
    case of the stacked rule that ``info-sweep`` applies to its grid.

    A null space of dimension > 1 raises :class:`DegenerateSteadyStateError`
    carrying that dimension; none, or a residual ``||L rho||`` above the zero
    bound, raises :class:`NoSteadyStateError`.
    """
    rho, dims = _steady_states(np.asarray(mat)[None])
    if dims[0] > 1:
        raise DegenerateSteadyStateError(int(dims[0]))
    return check_density_matrix(rho[0], name="rho_ss")


def steady_state(p: ModelParams) -> np.ndarray:
    """Unique dissipative fixed point of the generator, L(rho_ss) = 0.

    A dissipative fixed point is only expected for gamma > 0; at gamma = 0
    the purely unitary generator has a degenerate null space, which surfaces
    through :class:`DegenerateSteadyStateError` like any other degeneracy.
    """
    return steady_state_from_matrix(build_liouvillian(p))


def long_time_state(p: ModelParams, rho0: np.ndarray, t: float) -> np.ndarray:
    """State after propagating rho0 for time t in a single exponential step.

    With a degenerate steady state the result depends on rho0 through the
    conserved quantities, and it is a fixed point only once t is long
    against the slowest decay; :func:`asymptotic_state` gives the limit.
    The result is checked as a density matrix, named ``rho_t``.
    """
    rho0 = check_density_matrix(rho0, name="rho0")
    v = _expm(build_liouvillian(p) * t) @ vectorize(rho0)
    return check_density_matrix(_to_states(v[None])[0], name="rho_t")


def asymptotic_state(p: ModelParams, rho0: np.ndarray) -> np.ndarray:
    """Limit of exp(L t) rho0 as t -> infinity, exact for a degenerate L: the
    one-generator case of :func:`_steady_states`, so a unique fixed point is
    :func:`steady_state`'s, bit for bit, named ``rho_ss``, and a degenerate
    one the Albert-Jiang limit, named ``rho_inf``."""
    rho0 = check_density_matrix(rho0, name="rho0")
    rho, dims = _steady_states(build_liouvillian(p)[None], rho0)
    return check_density_matrix(rho[0], name="rho_ss" if dims[0] == 1 else "rho_inf")


def save_evolution_csv(path, result: EvolutionResult) -> None:
    """Write the trajectory's ``OBSERVABLE_NAMES`` against t.  Here and in
    :func:`save_bloch_csv`, the times and observables may be
    :class:`~qusync.operators.FloatCells`, formatted once for both tables."""
    obs = result.observables
    write_csv(path, ("t",) + OBSERVABLE_NAMES,
              [result.times] + [obs[n] for n in OBSERVABLE_NAMES])


def save_bloch_csv(path, result: EvolutionResult) -> None:
    """Write per-qubit Bloch vectors (x, y, z components) along a trajectory:
    the ``s{x,y,z}{1,2}`` observables."""
    obs = result.observables
    write_csv(path, ("t", "bx1", "by1", "bz1", "bx2", "by2", "bz2"),
              [result.times] + [obs[f"s{axis}{site}"] for site in (1, 2) for axis in "xyz"])

"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the library's own code paths, and no
``qusync`` module is imported (a test parses this file to hold that):

* the master equation in direct form, rebuilt from the Pauli matrices below,
  with its dissipators, the cross-site term and an RK4 integrator;
* column-stacked vectors turned back into matrices, the Pauli expectations
  and purity of a trajectory as dense einsums, and the locked phase that a
  generator's least-damped oscillating mode predicts;
* the stationary covariance of the correlated Ornstein-Uhlenbeck pair;
* one projector path for measurements on qubit B, which both the
  single-basis functions and the dense-grid discord scan use;
* the exact rank-2 discord of Koashi & Winter with Wootters' concurrence;
* the relative entropy from the eigenbases of both states;
* partial traces as explicit index sums, the 3-outcome POVM oracle with
  Bloch vectors from explicit traces, and batch-means standard errors.

Model parameters ``p`` are read by attribute (``delta``, ``tau``, ``j_xy``,
``gamma``, ``xi`` and ``channel``, whose ``value`` names the local operator).
"""

from __future__ import annotations

import functools

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|, raises |0> -> |1>
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
CHANNEL_OPS = {"raise": SP, "lower": SM, "x": SX, "z": SZ}


def site_operators(p):
    """The channel operator on qubit 1 and on qubit 2."""
    op = CHANNEL_OPS[p.channel.value]
    return np.kron(op, I2), np.kron(I2, op)


def hamiltonian(p) -> np.ndarray:
    """delta/2 (sz1 + sz2) + tau/2 (sx1 + sx2) + j_xy (s1+ s2- + s1- s2+)."""
    return (p.delta / 2.0 * (np.kron(SZ, I2) + np.kron(I2, SZ))
            + p.tau / 2.0 * (np.kron(SX, I2) + np.kron(I2, SX))
            + p.j_xy * (np.kron(SP, SM) + np.kron(SM, SP)))


def collapse_ops(p):
    """c_S = sqrt(gamma (1+xi)/2) (s1 + s2) and c_A = sqrt(gamma (1-xi)/2) (s1 - s2)."""
    s1, s2 = site_operators(p)
    return (np.sqrt(p.gamma * (1.0 + p.xi) / 2.0) * (s1 + s2),
            np.sqrt(p.gamma * (1.0 - p.xi) / 2.0) * (s1 - s2))


def dissipator_apply(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[c](rho) = c rho c+ - (c+ c rho + rho c+ c)/2."""
    c = np.asarray(c, dtype=complex)
    cdc = c.conj().T @ c
    return c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)


def cross_dissipator_apply(p, rho: np.ndarray) -> np.ndarray:
    """Cross-site dissipator D12, which enters the generator with weight xi:
    gamma [s1 rho s2+ + s2 rho s1+ - {s1+ s2 + s2+ s1, rho}/2]."""
    rho = np.asarray(rho, dtype=complex)
    s1, s2 = site_operators(p)
    anti = s1.conj().T @ s2 + s2.conj().T @ s1
    return p.gamma * (
        s1 @ rho @ s2.conj().T
        + s2 @ rho @ s1.conj().T
        - 0.5 * (anti @ rho + rho @ anti)
    )


def _rhs(h, collapse, rho):
    out = -1j * (h @ rho - rho @ h)
    for c in collapse:
        out = out + dissipator_apply(c, rho)
    return out


def master_equation_rhs(p, rho: np.ndarray) -> np.ndarray:
    """d rho/dt = -i[H, rho] + D[c_S](rho) + D[c_A](rho), in direct form."""
    return _rhs(hamiltonian(p), collapse_ops(p), np.asarray(rho, dtype=complex))


def rk4_final_state(p, rho0: np.ndarray, t_final: float, dt: float) -> np.ndarray:
    """The state at t_final from fixed-step fourth-order Runge-Kutta on
    :func:`master_equation_rhs`."""
    h, collapse = hamiltonian(p), collapse_ops(p)
    rho = np.asarray(rho0, dtype=complex)
    for _ in range(int(round(t_final / dt))):
        k1 = _rhs(h, collapse, rho)
        k2 = _rhs(h, collapse, rho + 0.5 * dt * k1)
        k3 = _rhs(h, collapse, rho + 0.5 * dt * k2)
        k4 = _rhs(h, collapse, rho + dt * k3)
        rho = rho + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def unvectorize(v: np.ndarray, dim: int = 4) -> np.ndarray:
    """The matrix whose columns, stacked, are v: v[i + dim j] = m[i, j]."""
    return np.asarray(v, dtype=complex).reshape(dim, dim).T


def einsum_observables(states: np.ndarray) -> dict[str, np.ndarray]:
    """The expectations of sz, sx and sy on each qubit, and the purity, of an
    (n, 4, 4) stack, as dense einsums over all 16 entries of its
    column-stacked (n, 16) vectors: the reference that the propagation's
    observables must equal bit for bit.  An einsum adds in an order that
    depends on its operands' strides, so the vectors are made contiguous."""
    states = np.asarray(states, dtype=complex)
    vecs = np.ascontiguousarray(states.transpose(0, 2, 1)).reshape(len(states), 16)
    ops = {}
    for axis, m in (("z", SZ), ("x", SX), ("y", SY)):
        ops[f"s{axis}1"], ops[f"s{axis}2"] = np.kron(m, I2), np.kron(I2, m)
    weights = np.stack([op.ravel() for op in ops.values()])
    out = dict(zip(ops, np.einsum("nk,qk->qn", vecs, weights).real))
    rho = vecs.reshape(-1, 4, 4).transpose(0, 2, 1)
    out["purity"] = np.einsum("nij,nji->n", rho, rho).real
    return out


def locked_phase(liouvillian: np.ndarray) -> tuple[float, tuple[float, float]]:
    """The phase shift of sz1 against sz2 that a 16x16 generator's spectrum
    predicts, and the (kappa, omega) of the mode that carries it.

    The mode is the right eigenvector R of the eigenvalue -kappa + i omega,
    omega > 1e-9 (of a conjugate pair, the positive frequency that a Hilbert
    phase follows), with the smallest kappa among those that reach both
    qubits (|tr(sz_i R)| > 1e-9).  At long times sz_i oscillates as
    Re(c tr(sz_i R) exp((-kappa + i omega) t)), so the locked phase is
    arg(tr(sz1 R) / tr(sz2 R)).
    """
    lam, vecs = np.linalg.eig(np.asarray(liouvillian, dtype=complex))
    sz1, sz2 = np.kron(SZ, I2), np.kron(I2, SZ)
    for k in np.argsort(-lam.real):
        if lam[k].imag > 1e-9:
            r = unvectorize(vecs[:, k])
            t1, t2 = np.trace(sz1 @ r), np.trace(sz2 @ r)
            if abs(t1) > 1e-9 and abs(t2) > 1e-9:
                return float(np.angle(t1 / t2)), (float(-lam[k].real), float(lam[k].imag))
    raise ValueError("no oscillating mode of the generator reaches both qubits")


def stationary_covariance(a, b, xi) -> np.ndarray:
    """Equal-time covariance S of the stationary pair dE = -A E dt + B dW, for
    diagonal A = diag(a), B = diag(b) and Wiener increments correlated by
    Xi = [[1, xi], [xi, 1]]: A S + S A = B Xi B gives
    S_ij = b_i b_j Xi_ij / (a_i + a_j)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    xi_matrix = np.array([[1.0, xi], [xi, 1.0]])
    return np.outer(b, b) * xi_matrix / (a[:, None] + a[None, :])


def loop_partial_trace(rho: np.ndarray, dims, keep: str) -> np.ndarray:
    """Partial trace via explicit nested loops over basis labels."""
    d_a, d_b = dims
    rho = np.asarray(rho, dtype=complex)
    if keep.upper() == "A":
        out = np.zeros((d_a, d_a), dtype=complex)
        for a in range(d_a):
            for c in range(d_a):
                for b in range(d_b):
                    out[a, c] += rho[a * d_b + b, c * d_b + b]
    else:
        out = np.zeros((d_b, d_b), dtype=complex)
        for b in range(d_b):
            for d in range(d_b):
                for a in range(d_a):
                    out[b, d] += rho[a * d_b + b, a * d_b + d]
    return out


def entropy_bits(spectrum: np.ndarray) -> float:
    lam = np.clip(np.asarray(spectrum, dtype=float), 0.0, None)
    lam = lam[lam > 1e-14]
    return float(-(lam * np.log2(lam)).sum())


def relative_entropy_bits(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho||sigma) = sum_ij p_i |<r_i|s_j>|^2 (log2 p_i - log2 q_j) in bits, or
    +inf when sigma's eigenvalues at or below 1e-12 hold weight of rho above 1e-10."""
    p, r = np.linalg.eigh(np.asarray(rho, dtype=complex))
    q, s = np.linalg.eigh(np.asarray(sigma, dtype=complex))
    weight = np.clip(p, 0.0, None) @ np.abs(r.conj().T @ s) ** 2  # rho's weight on |s_j>
    support = q > 1e-12
    if weight[~support].sum() > 1e-10:
        return np.inf
    return float(-(weight[support] * np.log2(q[support])).sum()) - entropy_bits(p)


def bell_state() -> np.ndarray:
    v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(v, v.conj())


def projectors(theta, phi):
    """(I + n.sigma)/2 and (I - n.sigma)/2 for n = (sin th cos ph,
    sin th sin ph, cos th); array angles give (..., 2, 2) stacks."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    nx = (np.sin(theta) * np.cos(phi))[..., None, None]
    ny = (np.sin(theta) * np.sin(phi))[..., None, None]
    nz = np.cos(theta)[..., None, None]
    plus = 0.5 * (I2 + nx * SX + ny * SY + nz * SZ)
    return plus, I2 - plus


def conditioned_a(rho: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """tr_B[(I x P) rho (I x P)] for projectors P of shape (..., 2, 2): A's
    state after outcome P, times its probability.

    With P^2 = P the sandwich reduces to sum_bd rho[ab, cd] P[d, b].
    """
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    # rows (a, c), columns (d, b): one product over every projector
    m = r.transpose(0, 2, 3, 1).reshape(4, 4)
    return (proj.reshape(-1, 4) @ m.T).reshape(proj.shape)


def _spectrum_2x2(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of Hermitian 2x2 matrices (..., 2, 2), in closed form."""
    mean = (m[..., 0, 0].real + m[..., 1, 1].real) / 2.0
    radius = np.hypot((m[..., 0, 0].real - m[..., 1, 1].real) / 2.0, np.abs(m[..., 0, 1]))
    return np.stack([mean - radius, mean + radius], axis=-1)


def measure_on_b(rho: np.ndarray, theta: float, phi: float):
    """Projective measurement of qubit B along (theta, phi): a list of the
    outcome probabilities and A's conditional states, without outcomes below
    probability 1e-12."""
    outcomes = []
    for proj in projectors(theta, phi):
        cond = conditioned_a(rho, proj)
        p = cond.trace().real
        if p >= 1e-12:
            outcomes.append((float(p), cond / p))
    return outcomes


def conditional_entropy(rho: np.ndarray, theta: float, phi: float) -> float:
    """sum_k p_k S(rho_A|k) in bits for the measurement along (theta, phi)."""
    return sum(p * entropy_bits(np.linalg.eigvalsh(cond))
               for p, cond in measure_on_b(rho, theta, phi))


def classical_correlation(rho: np.ndarray, theta: float, phi: float) -> float:
    """J = S(A) - S(A | measurement of B along (theta, phi)), in bits."""
    s_a = entropy_bits(np.linalg.eigvalsh(loop_partial_trace(rho, (2, 2), "A")))
    return s_a - conditional_entropy(rho, theta, phi)


@functools.lru_cache(maxsize=2)
def _grid_projectors(n_theta: int, n_phi: int) -> np.ndarray:
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    plus, _ = projectors(*np.meshgrid(thetas, phis, indexing="ij"))
    plus.setflags(write=False)
    return plus


def dense_grid_discord(rho: np.ndarray, n_theta: int = 256, n_phi: int = 512) -> float:
    """Discord (bits) from a brute-force dense grid of orthogonal measurements.

    For every Bloch direction A's conditional state comes from the explicit
    projector (:func:`conditioned_a`), and its spectrum from the 2x2 closed
    form; the two-element measurement pairs each direction with its antipode.
    """
    cond = conditioned_a(rho, _grid_projectors(n_theta, n_phi))
    p = cond[..., 0, 0].real + cond[..., 1, 1].real
    live = p > 1e-12
    lam = np.clip(_spectrum_2x2(cond) / np.where(live, p, 1.0)[..., None], 0.0, None)
    safe = np.where(lam > 1e-14, lam, 1.0)
    surface = np.where(live, p * -(safe * np.log2(safe)).sum(axis=-1), 0.0)
    # the complementary outcome lives at the antipodal direction
    antipode = np.roll(surface[::-1, :], n_phi // 2, axis=1)
    s_cond = (surface + antipode).min()
    s_a = entropy_bits(np.linalg.eigvalsh(loop_partial_trace(rho, (2, 2), "A")))
    s_b = entropy_bits(np.linalg.eigvalsh(loop_partial_trace(rho, (2, 2), "B")))
    mi = s_a + s_b - entropy_bits(np.linalg.eigvalsh(rho))
    return max(mi - (s_a - s_cond), 0.0)


def koashi_winter_discord(rho: np.ndarray) -> float:
    """Exact discord D(A|B) in bits of a state of rank at most 2, with no
    search: D = S(B) - S(AB) + E_f(rho_AC), where C purifies rho_AB
    (Koashi & Winter, PRA 69, 022309 (2004)), and E_f of the two-qubit
    rho_AC is Wootters' closed form (PRL 80, 2245 (1998)).

    This is the minimum over all POVMs on B; on rank-2 states the best
    two-element orthogonal measurement attains it.  The concurrence is
    |s1 - s2| for the singular values s of X^T (sy x sy) X, where
    rho_AC = X X+ with X of size 4x2; it needs no square roots of the two
    vanishing eigenvalues of rho_AC times its spin flip.
    """
    rho = np.asarray(rho, dtype=complex)
    lam, vecs = np.linalg.eigh(rho)
    lam, vecs = np.clip(lam[-2:], 0.0, None), vecs[:, -2:]
    # |Psi> = sum_k sqrt(lam_k) |psi_k>_AB |k>_C, as psi[a, b, k]
    psi = (vecs * np.sqrt(lam)).reshape(2, 2, 2)
    x = psi.transpose(0, 2, 1).reshape(4, 2)  # rows (a, k), columns b
    s = np.linalg.svd(x.T @ np.kron(SY, SY) @ x, compute_uv=False)
    conc = min(s[0] - s[1], 1.0)  # s is sorted descending
    root = np.sqrt(1.0 - conc**2)
    e_f = entropy_bits(np.array([1.0 + root, 1.0 - root]) / 2.0)
    s_b = entropy_bits(np.linalg.eigvalsh(loop_partial_trace(rho, (2, 2), "B")))
    return s_b - entropy_bits(lam) + e_f


def bell_diagonal_discord(c) -> float:
    """Discord (bits) of (I + sum_i c_i sigma_i x sigma_i)/4 in Luo's closed
    form (PRA 77, 042303 (2008)): I(A:B) = 2 - S(rho), and the classical
    correlation is that of a binary channel with bias max |c_i|."""
    c1, c2, c3 = c
    lam = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3,
                    1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4.0
    mi = 2.0 - entropy_bits(lam)
    cmax = max(abs(c1), abs(c2), abs(c3))
    classical = 1.0 - entropy_bits(np.array([(1 - cmax) / 2, (1 + cmax) / 2]))
    return mi - classical


def bloch_correlations(rho: np.ndarray):
    """A's and B's Bloch vectors a, b and the correlation tensor T of a
    two-qubit state, T[i, j] = tr(rho sigma_i x sigma_j), by explicit traces."""
    paulis = (SX, SY, SZ)
    a = np.array([np.trace(rho @ np.kron(s, I2)).real for s in paulis])
    b = np.array([np.trace(rho @ np.kron(I2, s)).real for s in paulis])
    t = np.array([[np.trace(rho @ np.kron(s, u)).real for u in paulis] for s in paulis])
    return a, b, t


def povm3(params: np.ndarray):
    """3-outcome qubit POVMs from 5 angles each: params of shape (..., 5).

    Elements w_k (I + n_k.sigma)/2 with sum w_k = 2 and sum w_k n_k = 0 need
    coplanar n_k: (theta, phi) give the plane's normal, and alpha_1..3 the
    directions within it.  The weights are the 2-D cross products
    w_1 ~ n_2 x n_3 (and cyclic), a POVM when all share one sign.  Returns
    the weights (..., 3), the directions (..., 3, 3) and that validity mask.
    """
    params = np.asarray(params, dtype=float)
    theta, phi, alpha = params[..., 0], params[..., 1], params[..., 2:]
    # e_theta and e_phi of the normal (theta, phi) span its plane
    e1 = np.stack([np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi),
                   -np.sin(theta)], axis=-1)
    e2 = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
    dirs = (np.cos(alpha)[..., None] * e1[..., None, :]
            + np.sin(alpha)[..., None] * e2[..., None, :])
    a1, a2, a3 = alpha[..., 0], alpha[..., 1], alpha[..., 2]
    w = np.sin(np.stack([a3 - a2, a1 - a3, a2 - a1], axis=-1))
    valid = np.all(w > 0, axis=-1) | np.all(w < 0, axis=-1)
    total = np.where(valid, w.sum(axis=-1), 1.0)
    return 2.0 * w / total[..., None], dirs, valid


def povm3_conditional_entropy(corr, weights: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Conditional entropy (nats) of A after POVMs on B, from (a, b, T):
    weights (..., K) and directions (..., K, 3).

    Outcome k, with weight w_k and direction n_k, has probability
    w_k (1 + b.n_k)/2 and leaves A with Bloch vector (a + T n_k)/(1 + b.n_k).
    """
    a, b, t = corr
    u0 = 1.0 + dirs @ b
    p = weights * u0 / 2.0
    live = p > 1e-15
    length = np.linalg.norm(a + dirs @ t.T, axis=-1) / np.where(live, u0, 1.0)
    lam = np.clip(np.stack([(1.0 - length) / 2.0, (1.0 + length) / 2.0], axis=-1), 0.0, 1.0)
    safe = np.where(lam > 0.0, lam, 1.0)
    entropy = -(safe * np.log(safe)).sum(axis=-1)
    return np.where(live, p * entropy, 0.0).sum(axis=-1)


def load_matrix_csv(path) -> np.ndarray:
    """A complex matrix from CSV, one matrix row per line."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [[complex(cell) for cell in line.strip().split(",")]
                for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path} contains no matrix rows")
    return np.array(rows, dtype=complex)


def batch_sem(samples: np.ndarray, n_batches: int = 100) -> tuple[float, float]:
    """Mean and batch-means standard error of a (possibly correlated) record."""
    samples = np.asarray(samples, dtype=float)
    usable = (samples.size // n_batches) * n_batches
    batches = samples[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.mean()), float(batches.std(ddof=1) / np.sqrt(n_batches))


def haar_reduced_purity(dim: int, rank: int, n_samples: int, seed: int) -> np.ndarray:
    """Purities of reduced states of Haar-random pure states on dim x rank.

    Independent sampling route (Philox bit generator, purification picture)
    for cross-checking the package's fixed-rank state generator.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    out = np.empty(n_samples)
    for k in range(n_samples):
        psi = rng.standard_normal(dim * rank) + 1j * rng.standard_normal(dim * rank)
        psi /= np.linalg.norm(psi)
        m = psi.reshape(dim, rank)
        rho = m @ m.conj().T
        out[k] = np.trace(rho @ rho).real
    return out

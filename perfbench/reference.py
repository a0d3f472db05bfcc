"""Reference computations for checking qusync's outputs, written apart from it.

Nothing here imports qusync.  The model is rebuilt from the formulas in the
project README:

    H   = delta/2 (sz1 + sz2) + tau/2 (sx1 + sx2) + j_xy (s1+ s2- + s1- s2+)
    c_S = sqrt(gamma (1+xi)) (s1 + s2)/sqrt(2)
    c_A = sqrt(gamma (1-xi)) (s1 - s2)/sqrt(2)

with sigma_z = diag(-1, +1), sigma_+ = |1><0|, qubit 1 on the slow index.
The 16x16 generator is assembled column by column by applying the master
equation to each matrix unit, not from Kronecker superoperator identities.
Null spaces come from an SVD, propagation from ``scipy.linalg.expm``,
analytic signals from a numpy FFT, and discord from a dense measurement grid.
Entropies are in bits.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SZ = np.array([[-1, 0], [0, 1]], dtype=complex)
SP = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|, pumps |0> -> |1>
SM = SP.T.copy()
CHANNELS = {"raise": SP, "lower": SM, "x": SX, "z": SZ}

# Singular values at or below this are counted as null directions.  The
# degenerate points of the default grid sit near 1e-16 and the smallest
# non-null singular value on it is orders of magnitude above.
NULL_TOL = 1e-9


def on_qubit(op: np.ndarray, which: int) -> np.ndarray:
    return np.kron(op, I2) if which == 1 else np.kron(I2, op)


def model_operators(model: dict, xi: float, gamma: float, j_xy: float):
    """Hamiltonian and the two collective jump operators at one grid point."""
    s = CHANNELS[model["channel"]]
    s1, s2 = on_qubit(s, 1), on_qubit(s, 2)
    h = (model["delta"] / 2 * (on_qubit(SZ, 1) + on_qubit(SZ, 2))
         + model["tau"] / 2 * (on_qubit(SX, 1) + on_qubit(SX, 2))
         + j_xy * (np.kron(SP, SM) + np.kron(SM, SP)))
    c_s = math.sqrt(gamma * (1 + xi)) * (s1 + s2) / math.sqrt(2)
    c_a = math.sqrt(gamma * (1 - xi)) * (s1 - s2) / math.sqrt(2)
    return h, (c_s, c_a)


def master_rhs(h: np.ndarray, jumps, rho: np.ndarray) -> np.ndarray:
    """d rho/dt for a stack of matrices rho (..., 4, 4)."""
    out = -1j * (h @ rho - rho @ h)
    for c in jumps:
        cd = c.conj().T
        out = out + c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c)
    return out


def vec(rho: np.ndarray) -> np.ndarray:
    """Column stacking of the last two axes."""
    rho = np.asarray(rho)
    return np.swapaxes(rho, -1, -2).reshape(rho.shape[:-2] + (-1,))


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    return np.swapaxes(v.reshape(v.shape[:-1] + (4, 4)), -1, -2)


_UNITS = unvec(np.eye(16, dtype=complex))  # matrix units E_k with vec(E_k) = e_k


def generator(model: dict, xi: float, gamma: float, j_xy: float) -> np.ndarray:
    """16x16 generator L with vec(d rho/dt) = L vec(rho)."""
    h, jumps = model_operators(model, xi, gamma, j_xy)
    return vec(master_rhs(h, jumps, _UNITS)).T


def null_space(mat: np.ndarray) -> tuple[int, np.ndarray]:
    """Null-space dimension and the Hermitized, trace-one state of the
    smallest singular direction."""
    _, s, vh = np.linalg.svd(mat)
    rho = unvec(vh[-1].conj())
    rho = (rho + rho.conj().T) / 2
    return int((s <= NULL_TOL).sum()), rho / np.trace(rho).real


def residual(mat: np.ndarray, rho: np.ndarray) -> float:
    return float(np.linalg.norm(mat @ vec(rho)))


def basis_state(label: str) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    k = int(label, 2)
    rho[k, k] = 1
    return rho


def states_at(mat: np.ndarray, rho0: np.ndarray, times) -> np.ndarray:
    """exp(L t) rho0 for each t, one exponential per time."""
    return np.array([unvec(expm(mat * t) @ vec(rho0)) for t in times])


def trajectory(mat: np.ndarray, rho0: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """States on the grid k*dt, k = 0..n_steps, by repeated exp(L dt)."""
    prop = expm(mat * dt)
    vecs = np.empty((n_steps + 1, 16), dtype=complex)
    vecs[0] = vec(rho0)
    for k in range(n_steps):
        vecs[k + 1] = prop @ vecs[k]
    return unvec(vecs)


def expectation(states: np.ndarray, op: np.ndarray) -> np.ndarray:
    return np.einsum("nij,ji->n", states, op).real


def bloch(states: np.ndarray, which: int) -> np.ndarray:
    """Bloch vectors (n, 3) of one qubit."""
    return np.stack([expectation(states, on_qubit(p, which)) for p in (SX, SY, SZ)],
                    axis=1)


def purity(states: np.ndarray) -> np.ndarray:
    return np.einsum("nij,nji->n", states, states).real


def state_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """Hermiticity deviation, trace deviation and most negative eigenvalue."""
    herm = float(np.abs(rho - rho.conj().T).max())
    trace = float(abs(np.trace(rho) - 1))
    eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    return herm, trace, eig


# --- phase analysis ---------------------------------------------------------

def analytic(x: np.ndarray) -> np.ndarray:
    """Analytic signal: negative frequencies dropped, positive ones doubled."""
    n = x.size
    weights = np.zeros(n)
    weights[0] = 1
    if n % 2 == 0:
        weights[n // 2] = 1
        weights[1:n // 2] = 2
    else:
        weights[1:(n + 1) // 2] = 2
    return np.fft.ifft(np.fft.fft(x) * weights)


def phase_lock(x1: np.ndarray, x2: np.ndarray, window_fraction: float = 0.25,
               edge_trim: float = 0.05) -> tuple[float, float]:
    """Circular mean phase difference and its modulus over the trailing
    window, after mean removal and dropping ``edge_trim`` at both ends."""
    n_win = max(int(round(x1.size * window_fraction)), 16)
    phases = [np.unwrap(np.angle(analytic(x[-n_win:] - x[-n_win:].mean())))
              for x in (x1, x2)]
    trim = int(round(edge_trim * n_win))
    z = np.exp(1j * (phases[0] - phases[1])[trim:n_win - trim]).mean()
    return float(np.angle(z)), float(abs(z))


# --- entropies and discord --------------------------------------------------

def entropy(rho: np.ndarray) -> float:
    lam = np.clip(np.linalg.eigvalsh(rho), 0, None)
    lam = lam[lam > 1e-14]
    return float(-(lam * np.log2(lam)).sum())


def reduced(rho: np.ndarray, keep: int) -> np.ndarray:
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r) if keep == 1 else np.einsum("abad->bd", r)


def mutual_information(rho: np.ndarray) -> float:
    return entropy(reduced(rho, 1)) + entropy(reduced(rho, 2)) - entropy(rho)


def classical_mutual_information(rho: np.ndarray) -> float:
    """Mutual information of the state dephased in the product basis."""
    return mutual_information(np.diag(np.diag(rho)))


def conditional_entropy(rho: np.ndarray, theta: float, phi: float) -> float:
    """sum_k p_k S(rho_A|k) for the measurement on B along (theta, phi)."""
    n_sigma = (math.sin(theta) * math.cos(phi) * SX
               + math.sin(theta) * math.sin(phi) * SY + math.cos(theta) * SZ)
    total = 0.0
    for sign in (1, -1):
        big = np.kron(I2, (I2 + sign * n_sigma) / 2)
        post = big @ rho @ big
        p = np.trace(post).real
        if p > 1e-12:
            total += p * entropy(reduced(post / p, 1))
    return total


def random_state(rank: int, seed: int) -> np.ndarray:
    """G G+ / tr(G G+) with G a 4 x rank complex Gaussian from
    ``default_rng(seed)``, real parts drawn before imaginary parts, redrawn
    until the rank is full."""
    rng = np.random.default_rng(seed)
    while True:
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        if int((np.linalg.eigvalsh(rho) > 1e-10).sum()) == rank:
            return rho


def dense_grid_discord(rho: np.ndarray, n_theta: int = 256, n_phi: int = 512) -> float:
    """Discord (bits) minimized over a dense grid of measurement directions
    on B, each outcome pair formed with explicit 4x4 projector sandwiches."""
    phis = np.linspace(0, 2 * np.pi, n_phi, endpoint=False)
    best = np.inf
    for theta in np.linspace(0, np.pi, n_theta):
        n_sigma = (np.sin(theta) * (np.cos(phis)[:, None, None] * SX
                                    + np.sin(phis)[:, None, None] * SY)
                   + np.cos(theta) * SZ)
        s_cond = np.zeros(n_phi)
        for sign in (1, -1):
            big = np.einsum("ij,nkl->nikjl", I2,
                            (I2 + sign * n_sigma) / 2).reshape(-1, 4, 4)
            post = big @ rho @ big
            p = np.einsum("nii->n", post).real
            live = p > 1e-12
            cond = np.einsum("nabcb->nac", post[live].reshape(-1, 2, 2, 2, 2))
            lam = np.clip(np.linalg.eigvalsh(cond / p[live, None, None]), 1e-300, None)
            s_cond[live] += p[live] * -(lam * np.log2(lam)).sum(axis=1)
        best = min(best, s_cond.min())
    s_a = entropy(reduced(rho, 1))
    return max(mutual_information(rho) - (s_a - best), 0.0)

"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the library's own code paths: partial
traces are explicit index sums, the discord oracle scans a dense measurement
grid with full 4x4 projector algebra and eigvalsh spectra, and statistical
standard errors come from batch means.
"""

from __future__ import annotations

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


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


def bell_state() -> np.ndarray:
    v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(v, v.conj())


def dense_grid_discord(rho: np.ndarray, n_theta: int = 256, n_phi: int = 512) -> float:
    """Discord (bits) from a brute-force dense grid of orthogonal measurements.

    For every Bloch direction the full post-measurement 4x4 states are formed
    with explicit projector sandwiches, reduced by index contraction, and fed
    to eigvalsh; the two-element measurement pairs each direction with its
    antipode.
    """
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    nx = (np.sin(tt) * np.cos(pp)).ravel()
    ny = (np.sin(tt) * np.sin(pp)).ravel()
    nz = np.cos(tt).ravel()
    proj = 0.5 * (I2[None, :, :] + nx[:, None, None] * SX
                  + ny[:, None, None] * SY + nz[:, None, None] * SZ)
    big = np.einsum("ij,nkl->nikjl", I2, proj).reshape(-1, 4, 4)
    post = big @ rho[None, :, :] @ big
    p = np.einsum("naa->n", post).real
    cond = np.einsum("nabcb->nac", post.reshape(-1, 2, 2, 2, 2))
    live = p > 1e-12
    weighted = np.zeros(p.shape)
    lam = np.linalg.eigvalsh(cond[live] / p[live, None, None])
    lam = np.clip(lam, 0.0, None)
    safe = np.where(lam > 1e-14, lam, 1.0)
    weighted[live] = p[live] * (-(safe * np.log2(safe)).sum(axis=-1))
    surface = weighted.reshape(n_theta, n_phi)
    # the complementary outcome lives at the antipodal direction
    antipode = np.roll(surface[::-1, :], n_phi // 2, axis=1)
    s_cond = (surface + antipode).min()
    rho_a = loop_partial_trace(rho, (2, 2), "A")
    rho_b = loop_partial_trace(rho, (2, 2), "B")
    mi = (entropy_bits(np.linalg.eigvalsh(rho_a))
          + entropy_bits(np.linalg.eigvalsh(rho_b))
          - entropy_bits(np.linalg.eigvalsh(rho)))
    s_a = entropy_bits(np.linalg.eigvalsh(rho_a))
    return max(mi - (s_a - s_cond), 0.0)


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

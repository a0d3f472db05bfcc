"""End-to-end acceptance checks, one test (and one pass/fail line) each.

Each check pins its thresholds explicitly and prints the measured numbers.
Three of them (phase-shift sign mapping at full correlation, the quantumness
ratio at the degenerate fully-correlated point, and the rank-2 discord
distribution window) encode target values that the implemented equations
provably do not produce; they are kept exactly as stated and fail with full
diagnostics rather than being loosened to pass.
"""

import math
import time

import numpy as np
import pytest

from qusync import lindblad as lb
from qusync import noise, qinfo
from qusync.lindblad import ModelParams
from qusync.operators import basis_ket
from qusync.phaselock import TimeSeries, sync_metrics
from tests.oracles import (
    SX,
    SY,
    SZ,
    batch_sem,
    bell_diagonal_discord,
    bell_state,
    collapse_ops,
    cross_dissipator_apply,
    dense_grid_discord,
    koashi_winter_discord,
    site_operators,
)

RHO0 = np.outer(basis_ket("10"), basis_ket("10").conj())


def fig_params(xi, gamma=0.05, j_xy=0.25):
    return ModelParams(delta=1.0, tau=1.0, j_xy=j_xy, gamma=gamma, xi=xi)


def circular_distance(a, b):
    return abs(float(np.angle(np.exp(1j * (a - b)))))


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


@pytest.fixture(scope="module")
def reference_trajectories():
    out = {}
    for xi in (-1.0, 0.0, 1.0):
        start = time.perf_counter()
        res = lb.evolve(fig_params(xi), RHO0, t_final=200.0, dt=0.01)
        out[xi] = (res, time.perf_counter() - start)
    return out


def test_c1_synchronization_reference_scenario(reference_trajectories):
    """Locked phases at |xi| = 1 (PLV > 0.9), unlocked at xi = 0 (PLV < 0.5);
    phase shift expected at 0 for xi = +1 and at pi for xi = -1."""
    measured = {}
    for xi, (res, elapsed) in reference_trajectories.items():
        s1 = TimeSeries(res.times, res.observables["sz1"])
        s2 = TimeSeries(res.times, res.observables["sz2"])
        m = sync_metrics(s1, s2, window_fraction=0.25)
        measured[xi] = (m.plv, m.delta_phi, elapsed)
        print(f"[criterion 1] xi={xi:+.0f}: plv={m.plv:.4f} "
              f"dphi={m.delta_phi:+.4f} rad ({elapsed:.2f}s)")
        assert elapsed < 10.0, f"trajectory at xi={xi:+.0f} took {elapsed:.1f}s"

    plv_p, dphi_p, _ = measured[1.0]
    plv_m, dphi_m, _ = measured[-1.0]
    plv_0, _, _ = measured[0.0]
    checks = {
        "xi=+1 PLV > 0.9": plv_p > 0.9,
        "xi=+1 |dphi| < 0.15": circular_distance(dphi_p, 0.0) < 0.15,
        "xi=-1 PLV > 0.9": plv_m > 0.9,
        "xi=-1 |dphi - pi| < 0.15": circular_distance(dphi_m, math.pi) < 0.15,
        "xi=0 PLV < 0.5": plv_0 < 0.5,
    }
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, (
        f"failed clauses: {failed}; measured dphi(+1)={dphi_p:+.4f}, "
        f"dphi(-1)={dphi_m:+.4f}, plv(0)={plv_0:.3f}. The symmetric collective "
        "pump at xi=+1 annihilates the two-qubit singlet, so the longest-lived "
        "coherences drive the exchange-antisymmetric observable and lock the "
        "pair in antiphase (dphi=pi), with the mirror-image mapping at xi=-1; "
        "the locked-phase targets above have the two cases swapped."
    )


def test_c2_dissipator_decomposition_identity():
    """Collective-jump generator equals site terms plus xi times the cross
    term, as 16x16 superoperators, to Frobenius norm 1e-12."""
    start = time.perf_counter()
    worst = 0.0
    eye = np.eye(4, dtype=complex)
    for xi in (-1.0, -0.4, 0.0, 0.4, 1.0):
        p = fig_params(xi)
        c_s, c_a = collapse_ops(p)
        left = lb.dissipator_superoperator(c_s) + lb.dissipator_superoperator(c_a)
        s1, s2 = site_operators(p)
        right = (lb.dissipator_superoperator(np.sqrt(p.gamma) * s1)
                 + lb.dissipator_superoperator(np.sqrt(p.gamma) * s2))
        cross = np.zeros((16, 16), dtype=complex)
        for col in range(16):
            unit = np.zeros(16, dtype=complex)
            unit[col] = 1.0
            cross[:, col] = lb.vectorize(
                cross_dissipator_apply(p, lb.unvectorize(unit)))
        worst = max(worst, float(np.linalg.norm(left - (right + xi * cross))))
    elapsed = time.perf_counter() - start
    print(f"[criterion 2] worst Frobenius discrepancy {worst:.3e} ({elapsed:.2f}s)")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_c3_steady_state_cross_validation():
    """Null-space fixed point matches the t=500 propagated state in trace
    distance < 1e-6 over a 5x5 (xi, gamma) grid; residual < 1e-10.

    The grid stays inside |xi| < 1 (the extremes are degenerate by
    construction) and uses gamma large enough that the slowest mode, with
    decay rate about gamma (1 - |xi|), has fully relaxed by t = 500.
    """
    start = time.perf_counter()
    worst_dist, worst_resid = 0.0, 0.0
    for xi in (-0.8, -0.4, 0.0, 0.4, 0.8):
        for gamma in (0.2, 0.3, 0.45, 0.7, 1.0):
            p = fig_params(xi, gamma=gamma)
            rho_ss = lb.steady_state(p)
            resid = float(np.linalg.norm(
                lb.build_liouvillian(p) @ lb.vectorize(rho_ss)))
            final = lb.evolve(p, RHO0, t_final=500.0, dt=0.5).states[-1]
            worst_dist = max(worst_dist, trace_distance(final, rho_ss))
            worst_resid = max(worst_resid, resid)
    elapsed = time.perf_counter() - start
    print(f"[criterion 3] worst trace distance {worst_dist:.3e}, worst residual "
          f"{worst_resid:.3e} ({elapsed:.1f}s)")
    assert worst_dist < 1e-6
    assert worst_resid < 1e-10
    assert elapsed < 60.0


def test_c4_decoupled_uncorrelated_null_result():
    """No mutual information without exchange coupling or bath correlation."""
    rho_ss = lb.steady_state(fig_params(0.0, j_xy=0.0))
    mi = qinfo.mutual_information(rho_ss)
    print(f"[criterion 4] I(A:B) = {mi:.3e} at j_xy=0, xi=0")
    assert mi < 1e-8


def test_c5_quantumness_dominance():
    """Quantumness fraction D/I > 0.9 at j_xy=0, xi=+1, gamma=0.05, and a
    strictly smaller fraction at xi=-1.

    xi=+1 is degenerate (dark singlet), so its state comes from the
    documented fallback: long-time propagation from the reference |1 0>
    start.
    """
    p_plus = fig_params(1.0, j_xy=0.0)
    with pytest.raises(lb.DegenerateSteadyStateError):
        lb.steady_state(p_plus)
    rho_plus = lb.long_time_state(p_plus, RHO0, 4000.0)
    mi_p = qinfo.mutual_information(rho_plus)
    dq_p = qinfo.degree_of_quantumness(rho_plus)
    ratio_p = dq_p / mi_p

    rho_minus = lb.steady_state(fig_params(-1.0, j_xy=0.0))
    mi_m = qinfo.mutual_information(rho_minus)
    dq_m = qinfo.degree_of_quantumness(rho_minus)
    ratio_m = dq_m / mi_m

    print(f"[criterion 5] xi=+1: I={mi_p:.6f}, D={dq_p:.6f}, D/I={ratio_p:.4f}")
    print(f"[criterion 5] xi=-1: I={mi_m:.6f}, D={dq_m:.6f}, D/I={ratio_m:.4f}")
    assert ratio_p > 0.9 and ratio_m < ratio_p, (
        f"measured D/I: {ratio_p:.4f} at xi=+1 (fallback state, conserved "
        f"singlet weight 1/2) and {ratio_m:.4f} at xi=-1 (unique fixed point, "
        f"I={mi_m:.2e}). The dark-singlet admixture at xi=+1 creates large "
        "diagonal (classical) correlations that cap D/I near 0.71, while the "
        "xi=-1 fixed point is almost a product state whose tiny residual "
        "correlation is nearly all off-diagonal, so its ratio stays near 1; "
        "both directions of this check are therefore inverted."
    )


@pytest.fixture(scope="module")
def rank2_discords():
    rng = np.random.default_rng(615)
    states = [qinfo.random_density_matrix(4, 2, rng) for _ in range(1000)]
    discords = np.array([qinfo.discord_min(s).discord for s in states])
    return states, discords


def test_c6_discord_exactness_rank2(rank2_discords):
    """Orthogonal-measurement discord within 1e-3 of a 256x512 dense-grid
    scan on 200 rank-2 states; exact anchors at the maximally entangled and
    maximally mixed states."""
    start = time.perf_counter()
    states, discords = rank2_discords
    worst = 0.0
    for rho, mine in zip(states[:200], discords[:200]):
        worst = max(worst, abs(mine - dense_grid_discord(rho)))
    bell_d = qinfo.discord_min(bell_state()).discord
    mixed_d = qinfo.discord_min(np.eye(4, dtype=complex) / 4.0).discord
    elapsed = time.perf_counter() - start
    print(f"[criterion 6] worst |discord - oracle| = {worst:.2e} over 200 states; "
          f"bell={bell_d:.8f}, mixed={mixed_d:.2e} ({elapsed:.0f}s)")
    assert worst <= 1e-3
    assert abs(bell_d - 1.0) <= 1e-6
    assert mixed_d < 1e-8
    assert elapsed < 300.0


@pytest.mark.parametrize("c", [(0.3, -0.2, 0.1), (0.0, 0.0, 0.8), (-0.9, 0.05, 0.0),
                               (0.4, 0.4, -0.1), (0.5, -0.5, 0.5), (-0.6, -0.6, -0.6)])
def test_discord_bell_diagonal_exact(c):
    """Closed-form anchor beside criterion 6: Luo's exact discord of the
    Bell-diagonal state (I + sum c_i sigma_i x sigma_i)/4 within 1e-8,
    including triples whose largest |c_i| is shared by two or three axes."""
    rho = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, (SX, SY, SZ)))) / 4.0
    assert abs(qinfo.discord_min(rho).discord - bell_diagonal_discord(c)) <= 1e-8


def test_discord_rank2_koashi_winter(rank2_discords):
    """Exactness beside criterion 6, with no search in the oracle: discord
    within 1e-9 of the Koashi-Winter/Wootters closed form on the 1000 rank-2
    states."""
    states, discords = rank2_discords
    worst = max(abs(mine - koashi_winter_discord(rho))
                for rho, mine in zip(states, discords))
    print(f"[discord vs Koashi-Winter] worst difference {worst:.2e} over "
          f"{len(states)} rank-2 states")
    assert worst <= 1e-9


def test_c7_discord_distribution(rank2_discords):
    """Distribution checks on random states: discord window for rank 2,
    hard 0 <= D_quantumness <= I bounds for all ranks, and the reported
    fraction of states where the quantumness bound sits below the discord."""
    _, discords = rank2_discords
    frac_window = float(np.mean((discords >= 0.75) & (discords <= 1.0)))

    rng = np.random.default_rng(715)
    bound_ok = 0
    under = 0
    total = 0
    for rank in (2, 3, 4):
        for _ in range(300):
            rho = qinfo.random_density_matrix(4, rank, rng)
            mi = qinfo.mutual_information(rho)
            dq = qinfo.degree_of_quantumness(rho)
            if -1e-10 <= dq <= mi + 1e-10:
                bound_ok += 1
            if dq <= qinfo.discord_min(rho).discord + 1e-6:
                under += 1
            total += 1
    print(f"[criterion 7] rank-2 discord in [0.75, 1]: {frac_window:.1%} "
          f"(median {np.median(discords):.3f}, mean {discords.mean():.3f}); "
          f"bounds hold {bound_ok}/{total}; quantumness <= discord for "
          f"{under / total:.1%}")
    assert bound_ok == total, "hard bounds 0 <= D_q <= I violated"
    assert frac_window >= 0.60, (
        f"only {frac_window:.1%} of rank-2 discords fall in [0.75, 1]: the "
        f"fixed-rank Gaussian construction yields mean mutual information "
        f"near 0.73 bits (its marginal and joint spectra share one average "
        f"entropy), and discord is bounded by mutual information, so the bulk "
        f"of the distribution (median {np.median(discords):.2f}) sits far "
        "below the stated window and no sampling realization can reach 60%."
    )


def test_c8_conservation_suite(reference_trajectories):
    """Trace, hermiticity, and positivity hold along every trajectory;
    unitary propagation conserves purity over 1e4 steps."""
    worst_tr, worst_herm, worst_eig = 0.0, 0.0, 0.0
    for xi, (res, _) in reference_trajectories.items():
        states = res.states
        worst_tr = max(worst_tr, float(np.abs(np.einsum("nii->n", states) - 1.0).max()))
        worst_herm = max(worst_herm, float(
            np.abs(states - states.conj().transpose(0, 2, 1)).max()))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(states).min()))
    unitary = lb.evolve(ModelParams(gamma=0.0), RHO0, t_final=100.0, dt=0.01)
    drift = float(np.abs(unitary.observables["purity"] - 1.0).max())
    print(f"[criterion 8] trace dev {worst_tr:.2e}, herm dev {worst_herm:.2e}, "
          f"min eig {worst_eig:+.2e}, unitary purity drift {drift:.2e}")
    assert worst_tr < 1e-10
    assert worst_herm < 1e-10
    assert worst_eig > -1e-8
    assert drift < 1e-10


def test_c9_noise_model_statistics():
    """Sampler reproduces the stationary variance, the decoupling transform
    kills cross-covariance, and the zero-frequency spectral density matches
    its closed form."""
    p = noise.OUParams()
    traj = noise.sample_ou(p, 0.01, 1_000_000, seed=901)
    var, sem = batch_sem(traj.e1[10_000:] ** 2)
    print(f"[criterion 9] stationary variance {var:.4f} +- {sem:.4f} (target 0.5)")
    assert abs(var - 0.5) < 3.0 * sem

    for xi, seed in ((-0.8, 903), (0.5, 907)):
        pc = noise.OUParams(xi=xi)
        tr = noise.sample_ou(pc, 0.01, 1_000_000, seed=seed)
        t_mat, _ = noise.correlation_transform(xi)
        decoupled = tr.values[10_000:] @ t_mat.T
        cross, sem_c = batch_sem(decoupled[:, 0] * decoupled[:, 1])
        print(f"[criterion 9] xi={xi:+.1f}: transformed cross-cov "
              f"{cross:+.5f} +- {sem_c:.5f}")
        assert abs(cross) < 3.0 * sem_c

    for a, b, xi in ((1.0, 1.0, 0.6), (1.3, 0.8, -0.4)):
        pj = noise.OUParams(a=(a, a), b=(b, b), xi=xi)
        got = noise.spectral_density(pj, 0.0)
        expected = (b * b / (2.0 * np.pi * a * a)) * pj.correlation_matrix
        dev = float(np.abs(got - expected).max())
        print(f"[criterion 9] J(0) deviation {dev:.2e} for a={a}, b={b}, xi={xi}")
        assert dev < 1e-12

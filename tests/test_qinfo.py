import math
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qusync import experiments, qinfo
from qusync.config import ExperimentConfig
from qusync.lindblad import Channel, ModelParams
from qusync.operators import (
    DimensionError,
    ValidationError,
    check_density_matrix,
    kron,
    pauli,
)
from qusync.qinfo import EntropyUnit, MeasurementBasis
from tests.oracles import (
    batch_sem,
    bell_diagonal_discord,
    bell_state,
    bloch_correlations,
    classical_correlation,
    conditional_entropy,
    dense_grid_discord,
    dephased_mutual_information_nats,
    haar_reduced_purity,
    loop_partial_trace,
    measure_on_b,
    povm3,
    povm3_conditional_entropy,
    projectors,
    relative_entropy_bits,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def classical_mixture():
    return np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)


def product_state(seed=0):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(2):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        parts.append(rho / rho.trace())
    return kron(*parts)


def test_entropy_pure_state():
    assert qinfo.von_neumann_entropy(bell_state()) < 1e-10


def test_entropy_maximally_mixed():
    rho = np.eye(4, dtype=complex) / 4.0
    assert qinfo.von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)
    assert qinfo.von_neumann_entropy(rho, EntropyUnit.NATS) == pytest.approx(
        math.log(4.0), abs=1e-12)


def test_entropy_frozen_scalar_value():
    rho = np.diag([0.25, 0.75]).astype(complex)
    # -0.25 log2 0.25 - 0.75 log2 0.75
    assert qinfo.von_neumann_entropy(rho) == pytest.approx(
        0.8112781244591328, abs=1e-12)


def test_entropy_invalid_state():
    with pytest.raises(ValidationError):
        qinfo.von_neumann_entropy(np.diag([1.2, -0.2]).astype(complex))


def test_relative_entropy_identical_states():
    rho = product_state(1)
    assert relative_entropy_bits(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_pure_vs_mixed():
    rho = bell_state()
    sigma = np.eye(4, dtype=complex) / 4.0
    assert relative_entropy_bits(rho, sigma) == pytest.approx(2.0, abs=1e-10)


def test_relative_entropy_disjoint_support():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert relative_entropy_bits(rho, sigma) == math.inf


def test_mutual_information_product_state():
    assert qinfo.mutual_information(product_state(2)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("measure", [qinfo.mutual_information,
                                     qinfo.classical_mutual_information,
                                     qinfo.degree_of_quantumness])
@pytest.mark.parametrize("dim", [2, 3, 8])
def test_two_qubit_measures_reject_other_dimensions(measure, dim):
    with pytest.raises(DimensionError, match="two-qubit state required"):
        measure(np.eye(dim, dtype=complex) / dim)


@pytest.mark.parametrize("measure", [
    qinfo.von_neumann_entropy,
    qinfo.mutual_information,
    qinfo.classical_mutual_information,
    qinfo.degree_of_quantumness,
    qinfo.discord_min,
], ids=["von_neumann_entropy", "mutual_information", "classical_mutual_information",
        "degree_of_quantumness", "discord_min"])
def test_single_state_measures_reject_a_stack(measure):
    # a stack of valid states passes check_density_matrix, not the measures
    with pytest.raises(DimensionError):
        measure(np.stack([np.eye(4, dtype=complex) / 4, bell_state()]))


@pytest.mark.parametrize("measure", [
    qinfo.mutual_information,
    qinfo.classical_mutual_information,
    qinfo.degree_of_quantumness,
    lambda rho: qinfo.discord_min(rho).discord,
], ids=["mutual_information", "classical_mutual_information", "degree_of_quantumness",
        "discord_min"])
def test_two_qubit_measures_accept_every_checked_state(measure):
    # |1><1| x I/2 with round-off negatives: rho passes check_density_matrix,
    # and rho_A's eigenvalue -1.8e-10 is round-off of that state, not a
    # second verdict on it
    rho = np.diag([-0.9e-10, -0.9e-10, 0.5 + 0.9e-10, 0.5 + 0.9e-10]).astype(complex)
    check_density_matrix(rho)
    assert measure(rho) == pytest.approx(0.0, abs=1e-9)


def test_mutual_information_bell():
    rho = bell_state()
    mi = qinfo.mutual_information(rho)
    assert mi == pytest.approx(2.0, abs=1e-10)
    s_a = qinfo.von_neumann_entropy(loop_partial_trace(rho, (2, 2), "A"))
    assert mi == pytest.approx(2.0 * s_a, abs=1e-10)


def test_mutual_information_classical_mixture():
    assert qinfo.mutual_information(classical_mixture()) == pytest.approx(1.0, abs=1e-10)


def test_mutual_information_equals_relative_entropy():
    rng = np.random.default_rng(41)
    for _ in range(5):
        rho = qinfo.random_density_matrix(4, 4, rng)
        prod = kron(loop_partial_trace(rho, (2, 2), "A"), loop_partial_trace(rho, (2, 2), "B"))
        assert qinfo.mutual_information(rho) == pytest.approx(
            relative_entropy_bits(rho, prod), abs=1e-8)


def test_pure_state_mutual_information_identity():
    rng = np.random.default_rng(43)
    for _ in range(5):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        s_a = qinfo.von_neumann_entropy(loop_partial_trace(rho, (2, 2), "A"))
        assert qinfo.mutual_information(rho) == pytest.approx(2.0 * s_a, abs=1e-8)


def test_measurement_basis_projectors():
    rng = np.random.default_rng(47)
    for _ in range(10):
        p_plus, p_minus = projectors(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert_allclose(p_plus + p_minus, np.eye(2), atol=1e-12)
        assert_allclose(p_plus @ p_plus, p_plus, atol=1e-12)
        assert_allclose(p_minus @ p_minus, p_minus, atol=1e-12)
    with pytest.raises(ValidationError):
        MeasurementBasis(-0.1, 0.0)
    with pytest.raises(ValidationError):
        MeasurementBasis(0.1, 7.0)


def test_measure_on_b_bell_z_basis():
    outcomes = measure_on_b(bell_state(), 0.0, 0.0)
    assert len(outcomes) == 2
    for p, rho_cond in outcomes:
        assert p == pytest.approx(0.5, abs=1e-12)
        assert qinfo.von_neumann_entropy(rho_cond) < 1e-10  # conditionals pure


def test_measure_on_b_product_state():
    rho = product_state(5)
    rho_a = loop_partial_trace(rho, (2, 2), "A")
    for p, rho_cond in measure_on_b(rho, 1.1, 2.2):
        assert_allclose(rho_cond, rho_a, atol=1e-10)


def test_measure_on_b_maximally_mixed():
    rho = np.eye(4, dtype=complex) / 4.0
    outcomes = measure_on_b(rho, 2.0, 1.0)
    probs = [p for p, _ in outcomes]
    assert_allclose(probs, [0.5, 0.5], atol=1e-12)
    for _, rho_cond in outcomes:
        assert_allclose(rho_cond, np.eye(2) / 2, atol=1e-12)


def test_measurement_probabilities_sum_to_one():
    rng = np.random.default_rng(53)
    for _ in range(5):
        rho = qinfo.random_density_matrix(4, 3, rng)
        outcomes = measure_on_b(rho, 0.7, 4.0)
        assert sum(p for p, _ in outcomes) == pytest.approx(1.0, abs=1e-12)


def test_conditional_entropy_bell_any_basis():
    rng = np.random.default_rng(59)
    for _ in range(8):
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        assert conditional_entropy(bell_state(), theta, phi) < 1e-9


def test_conditional_entropy_product_and_mixed():
    rho = product_state(6)
    s_a = qinfo.von_neumann_entropy(loop_partial_trace(rho, (2, 2), "A"))
    for theta in (0.0, 1.0, 2.5):
        assert conditional_entropy(rho, theta, 0.5) == pytest.approx(s_a, abs=1e-9)
    mixed = np.eye(4, dtype=complex) / 4.0
    assert conditional_entropy(mixed, 0.3, 0.3) == pytest.approx(
        1.0, abs=1e-12)


def test_classical_correlation_reference_values():
    assert classical_correlation(bell_state(), 0.0, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert classical_correlation(product_state(7), 0.0, 0.0) == pytest.approx(0.0, abs=1e-10)
    assert classical_correlation(classical_mixture(), 0.0, 0.0) == pytest.approx(
        1.0, abs=1e-10)


def test_bloch_form_conditional_entropy_matches_projectors():
    # the correlation-matrix closed form against the projector path, on random states of every rank and on a product of
    # pure states measured along z, where one outcome has probability 0
    rng = np.random.default_rng(89)
    states = [qinfo.random_density_matrix(4, rank, rng) for rank in (1, 2, 3, 4)
              for _ in range(10)]
    cases = [(rho, rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)) for rho in states]
    ket00 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    cases += [(ket00, 0.0, 0.0), (ket00, math.pi, 1.0)]
    for rho, theta, phi in cases:
        want = conditional_entropy(rho, theta, phi) * math.log(2.0)
        r = qinfo._correlation_matrix(rho)
        n = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                      math.cos(theta)])
        assert abs(qinfo._conditional_entropy_grid(r[None], n[None])[0, 0] - want) <= 1e-12


def test_discord_bell_state():
    result = qinfo.discord_min(bell_state())
    assert result.discord == pytest.approx(1.0, abs=1e-6)
    assert result.mutual_information == pytest.approx(2.0, abs=1e-8)
    assert result.classical_correlation == pytest.approx(1.0, abs=1e-6)


def test_discord_maximally_mixed():
    assert qinfo.discord_min(np.eye(4, dtype=complex) / 4.0).discord < 1e-8


def test_discord_product_states_vanish():
    for seed in range(4):
        assert qinfo.discord_min(product_state(seed)).discord < 1e-7


def test_discord_identity_and_bounds():
    rng = np.random.default_rng(61)
    for rank in (1, 2, 3, 4):
        rho = qinfo.random_density_matrix(4, rank, rng)
        res = qinfo.discord_min(rho)
        assert res.discord + res.classical_correlation == pytest.approx(
            res.mutual_information, abs=1e-8)
        assert -1e-8 <= res.discord <= res.mutual_information + 1e-8


def test_discord_reported_basis():
    # the reported measurement attains the reported classical correlation,
    # and it is folded into the searched hemisphere.  The last state is real
    # and its best axis lies in the xz-plane: folded, the axis has a y
    # component of about -1e-16, whose angle mod 2 pi rounds to 2 pi
    rng = np.random.default_rng(97)
    states = [qinfo.random_density_matrix(4, rank, rng) for rank in (1, 2, 3, 4)
              for _ in range(10)]
    states.append((np.eye(4) - 0.4987528340803177 * kron(pauli("x"), pauli("x"))
                   + 0.21087787911698802 * kron(pauli("y"), pauli("y"))
                   - 0.04851931071688975 * kron(pauli("z"), pauli("z"))
                   - 0.06907423858127522 * kron(pauli("x"), pauli("id"))
                   - 0.030512760023303748 * kron(pauli("z"), pauli("id"))) / 4.0)
    for rho in states:
        res = qinfo.discord_min(rho)
        basis = res.optimal_basis
        assert abs(classical_correlation(rho, basis.theta, basis.phi)
                   - res.classical_correlation) <= 1e-9
        assert res.optimal_basis.theta <= math.pi / 2


def test_discord_optimum_near_pole(monkeypatch):
    # Bell-diagonal states turned on B by a small angle, so that the best
    # measurement axis lies just off the grid's pole; local unitaries keep
    # Luo's closed-form discord.  Near a pole of the search's own chart a
    # phi step barely moves the axis, and the search would take thousands of
    # rounds to get there.
    search, evals = qinfo.minimize, []

    def counted(*args):
        res = search(*args)
        evals.append(res.nfev)
        return res

    monkeypatch.setattr(qinfo, "minimize", counted)
    for c in [(0.1, 0.2, 0.6), (0.3, -0.2, -0.5), (0.2, 0.1, -0.4)]:
        rho = (np.eye(4) + sum(ci * kron(pauli(k), pauli(k))
                               for ci, k in zip(c, ("x", "y", "z")))) / 4.0
        for angle in (0.003, 0.02):
            for axis in ("x", "y"):
                u = kron(pauli("id"), math.cos(angle / 2) * pauli("id")
                         - 1j * math.sin(angle / 2) * pauli(axis))
                d = qinfo.discord_min(u @ rho @ u.conj().T).discord
                assert abs(d - bell_diagonal_discord(c)) <= 1e-9
                assert evals[-1] <= 1000


def test_stacked_discord_matches_discord_min():
    # discord-bench's one compass search over a stack takes each state's own
    # path: the same values, angles and direction counts as discord_min and
    # minimize state by state, on every rank and a state whose best axis
    # lies just off the grid's pole
    rng = np.random.default_rng(103)
    states = [qinfo.random_density_matrix(4, rank, rng) for rank in (1, 2, 3, 4)
              for _ in range(5)]
    rho = (np.eye(4) + sum(ci * kron(pauli(k), pauli(k))
                           for ci, k in zip((0.1, 0.2, 0.6), ("x", "y", "z")))) / 4.0
    u = kron(pauli("id"), math.cos(0.0015) * pauli("id") - 1j * math.sin(0.0015) * pauli("x"))
    states.append(u @ rho @ u.conj().T)
    for unit in EntropyUnit:
        mi, discord, classical, dq, angles, nfev = qinfo._discords(np.stack(states), unit)
        assert len(set(nfev)) > 1
        for k, rho in enumerate(states):
            res = qinfo.discord_min(rho, unit)
            r = qinfo._correlation_matrix(rho)
            search = qinfo.minimize(r, *qinfo._grid_start(r))
            assert np.array_equal(
                [mi[k], discord[k], classical[k], dq[k], *angles[k], nfev[k]],
                [res.mutual_information, res.discord, res.classical_correlation,
                 qinfo.degree_of_quantumness(rho, unit), res.optimal_basis.theta,
                 res.optimal_basis.phi, search.nfev])


def test_discord_matches_dense_grid_oracle():
    rng = np.random.default_rng(67)
    for _ in range(6):
        rho = qinfo.random_density_matrix(4, 2, rng)
        mine = qinfo.discord_min(rho).discord
        assert abs(mine - dense_grid_discord(rho)) < 1e-3


def test_discord_is_asymmetric():
    # classical on A but quantum on B: measuring each side differs
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = 0.5 * (kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
                 + kron(np.diag([0.0, 1.0]), np.outer(plus, plus.conj())))
    d_ab = qinfo.discord_min(rho).discord          # measure on B
    d_ba = qinfo.discord_min(SWAP @ rho @ SWAP).discord  # measure on A
    assert d_ba < 1e-6
    assert d_ab > 0.05


def test_discord_requires_two_qubits():
    with pytest.raises(DimensionError):
        qinfo.discord_min(np.eye(2, dtype=complex) / 2.0)


def test_classical_mutual_information_diagonal_state():
    rho = classical_mixture()
    assert qinfo.classical_mutual_information(rho) == pytest.approx(
        qinfo.mutual_information(rho), abs=1e-12)


def test_classical_mutual_information_bell_and_product():
    assert qinfo.classical_mutual_information(bell_state()) == pytest.approx(
        1.0, abs=1e-10)
    assert qinfo.classical_mutual_information(product_state(8)) == pytest.approx(
        0.0, abs=1e-10)


def test_classical_mutual_information_bounded_by_total():
    # dephasing to the diagonal is local, so it can only destroy correlation
    rng = np.random.default_rng(71)
    for _ in range(1000):
        rho = qinfo.random_density_matrix(4, int(rng.integers(1, 5)), rng)
        assert (qinfo.classical_mutual_information(rho)
                <= qinfo.mutual_information(rho) + 1e-10)


def _info_sweep_states(channel):
    """The states of the default info-sweep grid with gamma = 0 added."""
    cfg = ExperimentConfig(model=ModelParams(channel=channel),
                           gamma_values=(0.0, *ExperimentConfig().gamma_values)).validate()
    points = list(product(cfg.xi_values, cfg.gamma_values, cfg.jxy_values))
    return experiments._info_states(cfg, points)[0]


def test_diagonal_information_matches_the_dephased_state():
    # I_diag from the sorted computational-basis probabilities is the mutual
    # information of the dephased matrix diag(rho) bit for bit, one state at
    # a time and on stacks
    rng = np.random.default_rng(131)
    drawn = [qinfo.random_density_matrix(4, rank, rng) for rank in (1, 2, 3, 4)
             for _ in range(500)]
    states = [bell_state(), product_state(3), classical_mixture(), np.eye(4, dtype=complex) / 4]
    for _ in range(100):
        # X states: a diagonal, and the two anti-diagonal coherences it allows
        p = rng.dirichlet(np.ones(4))
        x = np.diag(p).astype(complex)
        for i, j in ((0, 3), (1, 2)):
            x[i, j] = rng.uniform() * np.sqrt(p[i] * p[j]) * np.exp(2j * np.pi * rng.uniform())
            x[j, i] = x[i, j].conjugate()
        states.append(x)
    # diagonal states with exact zeros, -0.0 and round-off-sized entries
    for diag in ([0.5, -0.0, 0.0, 0.5], [1.0, 0.0, -0.0, -0.0], [0.25] * 4,
                 [0.5, 1e-17, -1e-17, 0.5], [-1e-17, 0.3, 0.7, 1e-17], [0.0, 0.6, -0.0, 0.4]):
        states.append(np.diag(diag).astype(complex))
    stack = check_density_matrix(np.stack(states + drawn))
    for unit in EntropyUnit:
        want = (dephased_mutual_information_nats(stack) * unit.per_nat).view(np.int64)
        assert np.array_equal(qinfo._informations(stack, unit)[1].view(np.int64), want)
        one = np.array([qinfo.classical_mutual_information(rho, unit) for rho in states])
        assert np.array_equal(one.view(np.int64), want[:len(states)])
    for channel in Channel:
        stack = _info_sweep_states(channel)
        for unit in EntropyUnit:
            assert np.array_equal(
                qinfo._informations(stack, unit)[1].view(np.int64),
                (dephased_mutual_information_nats(stack) * unit.per_nat).view(np.int64))


def test_stacked_measures_take_one_spectrum_per_reduced_state(monkeypatch):
    # I_diag takes no spectrum: _informations takes those of rho_A, rho_B and
    # rho_AB, and _discords one more, rho_A's, for the classical correlation
    stack = np.stack([qinfo.random_density_matrix(4, 2, seed) for seed in range(3)])
    shapes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or eigvalsh(m))
    qinfo._informations(stack, EntropyUnit.BITS)
    assert shapes == [(3, 2, 2), (3, 2, 2), (3, 4, 4)]
    shapes.clear()
    qinfo._discords(stack, EntropyUnit.BITS)
    assert shapes == [(3, 2, 2), (3, 2, 2), (3, 4, 4), (3, 2, 2)]


def test_degree_of_quantumness_reference_states():
    assert qinfo.degree_of_quantumness(bell_state()) == pytest.approx(1.0, abs=1e-10)
    assert qinfo.degree_of_quantumness(classical_mixture()) == pytest.approx(
        0.0, abs=1e-10)
    psi = kron(np.array([1.0, 1j]) / np.sqrt(2), np.array([0.6, 0.8]))
    rho = np.outer(psi, psi.conj())
    assert qinfo.degree_of_quantumness(rho) == pytest.approx(0.0, abs=1e-10)


def test_degree_of_quantumness_bounds_discord_above():
    # I_diag <= J(z) <= max J, so I - I_diag >= I - max J = D
    rng = np.random.default_rng(101)
    ranks = (1, 2, 3, 4)
    states = [(rank, qinfo.random_density_matrix(4, rank, rng))
              for rank in ranks for _ in range(100)]
    # and the info-sweep states of a small grid, whose xi = +1 points are
    # degenerate and hold the asymptotic state from |1 0>
    points = list(product((-1.0, 0.0, 1.0), (0.01, 0.1, 1.0), (-1.0, 0.0, 1.0)))
    rho_ss, degenerate = experiments._info_states(ExperimentConfig().validate(), points)
    assert degenerate.sum() == 9
    states += [(None, rho) for rho in rho_ss]
    gaps = {rank: [] for rank in ranks}
    for rank, rho in states:
        bound = qinfo.degree_of_quantumness(rho)
        discord = qinfo.discord_min(rho).discord
        assert bound >= discord - 1e-9
        if rank is not None:
            gaps[rank].append((bound - discord) / bound)
    # how far the bound lies above the discord, relative to the bound
    print("\n[quantumness gap] (I - I_diag - D) / (I - I_diag), median / max: " + ", ".join(
        f"rank {rank} {np.median(g):.3f} / {np.max(g):.3f}" for rank, g in gaps.items()))


def povm_gain(rho, rng, n_samples=4000, n_refine=2):
    """How far the best 3-outcome POVM found lowers the conditional entropy
    (nats) below the projective optimum of discord_min: a random search over
    the 5 POVM angles, then Nelder-Mead from its best points."""
    from scipy.optimize import minimize as nelder_mead

    corr = bloch_correlations(rho)
    s_a = qinfo.von_neumann_entropy(loop_partial_trace(rho, (2, 2), "A"), EntropyUnit.NATS)
    best_projective = s_a - qinfo.discord_min(rho, EntropyUnit.NATS).classical_correlation

    def entropies(params):
        weights, dirs, valid = povm3(params)
        return np.where(valid, povm3_conditional_entropy(corr, weights, dirs), np.inf)

    samples = rng.uniform(0.0, 2.0 * math.pi, (n_samples, 5))
    values = entropies(samples)
    best = values.min()
    for i in np.argsort(values)[:n_refine]:
        res = nelder_mead(lambda x: float(entropies(x)), samples[i], method="Nelder-Mead",
                          options={"xatol": 1e-9, "fatol": 1e-14, "maxiter": 800})
        best = min(best, res.fun)
    return best_projective - best


def test_three_outcome_povm_does_not_beat_projective_discord():
    # Rank-2 states: projective measurements are optimal (Galve, Giorgi &
    # Zambrini, EPL 96, 40005 (2011)), so no 3-outcome POVM may beat them.
    # Ranks 3 and 4 are only reported: there the projective discord is an
    # upper bound.
    rng = np.random.default_rng(211)
    gains = {}
    for rank, n_states in ((2, 6), (3, 3), (4, 3)):
        gains[rank] = max(povm_gain(qinfo.random_density_matrix(4, rank, rng), rng)
                          for _ in range(n_states))
    print("[povm] largest 3-outcome gain over the projective optimum (nats): "
          + ", ".join(f"rank {r}: {g:.2e}" for r, g in gains.items()))
    assert gains[2] <= 1e-9


def test_degree_of_quantumness_relabeling_invariance():
    rng = np.random.default_rng(73)
    flip = kron(pauli("x"), pauli("x"))
    for _ in range(5):
        rho = qinfo.random_density_matrix(4, 3, rng)
        relabeled = flip @ rho @ flip
        assert qinfo.degree_of_quantumness(relabeled) == pytest.approx(
            qinfo.degree_of_quantumness(rho), abs=1e-10)


def test_random_density_matrix_ranks():
    for rank in (1, 2, 3, 4):
        rho = qinfo.random_density_matrix(4, rank, seed=rank * 11)
        evals = np.linalg.eigvalsh(rho)
        assert int((evals > 1e-10).sum()) == rank
        assert abs(rho.trace() - 1.0) < 1e-12
    assert qinfo.von_neumann_entropy(qinfo.random_density_matrix(4, 1, 5)) < 1e-10


def test_random_density_matrix_rank_range():
    with pytest.raises(ValidationError):
        qinfo.random_density_matrix(4, 0, 1)
    with pytest.raises(ValidationError):
        qinfo.random_density_matrix(4, 5, 1)


def test_random_density_matrix_deterministic():
    a = qinfo.random_density_matrix(4, 2, seed=99)
    b = qinfo.random_density_matrix(4, 2, seed=99)
    assert_allclose(a, b, rtol=0, atol=0)


def test_random_density_matrix_purity_ensemble():
    n = 10_000
    rng = np.random.default_rng(77)
    purities = np.empty(n)
    for k in range(n):
        rho = qinfo.random_density_matrix(4, 4, rng)
        purities[k] = np.trace(rho @ rho).real
    oracle = haar_reduced_purity(4, 4, n, seed=78)
    mean1, sem1 = batch_sem(purities)
    mean2, sem2 = batch_sem(oracle)
    assert abs(mean1 - mean2) < 3.0 * math.hypot(sem1, sem2)


def test_discord_csv(tmp_path):
    columns = [(1, 2**60 + 1), (2, 2), *[(v, v) for v in (0.8, 1.0, 0.9, 0.1, 0.85, 0.3, 1.2)]]
    path = tmp_path / "bench.csv"
    qinfo.save_discord_csv(path, columns)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("seed,rank,purity,mutual_info,discord,")
    assert lines[1].startswith("1,2,0.8")
    assert lines[2].startswith("1152921504606846977,2,")  # integers are not cast to float

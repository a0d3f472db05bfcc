import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qusync import qinfo
from qusync.operators import DimensionError, ValidationError, kron, pauli
from qusync.qinfo import EntropyUnit, MeasurementBasis
from tests.oracles import batch_sem, bell_state, dense_grid_discord, haar_reduced_purity

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
    assert qinfo.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_pure_vs_mixed():
    rho = bell_state()
    sigma = np.eye(4, dtype=complex) / 4.0
    assert qinfo.relative_entropy(rho, sigma) == pytest.approx(2.0, abs=1e-10)


def test_relative_entropy_disjoint_support():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert qinfo.relative_entropy(rho, sigma) == math.inf


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(DimensionError):
        qinfo.relative_entropy(np.eye(2) / 2, np.eye(4) / 4)


def test_mutual_information_product_state():
    assert qinfo.mutual_information(product_state(2)) == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_rejects_trivial_split():
    with pytest.raises(DimensionError):
        qinfo.mutual_information(np.eye(4, dtype=complex) / 4.0, dims=(1, 4))


def test_mutual_information_bell():
    from qusync.operators import partial_trace

    rho = bell_state()
    mi = qinfo.mutual_information(rho)
    assert mi == pytest.approx(2.0, abs=1e-10)
    s_a = qinfo.von_neumann_entropy(partial_trace(rho, (2, 2), "A"))
    assert mi == pytest.approx(2.0 * s_a, abs=1e-10)


def test_mutual_information_classical_mixture():
    assert qinfo.mutual_information(classical_mixture()) == pytest.approx(1.0, abs=1e-10)


def test_mutual_information_equals_relative_entropy():
    rng = np.random.default_rng(41)
    for _ in range(5):
        rho = qinfo.random_density_matrix(4, 4, rng)
        from qusync.operators import partial_trace

        prod = kron(partial_trace(rho, (2, 2), "A"), partial_trace(rho, (2, 2), "B"))
        assert qinfo.mutual_information(rho) == pytest.approx(
            qinfo.relative_entropy(rho, prod), abs=1e-8)


def test_pure_state_mutual_information_identity():
    rng = np.random.default_rng(43)
    from qusync.operators import partial_trace

    for _ in range(5):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        s_a = qinfo.von_neumann_entropy(partial_trace(rho, (2, 2), "A"))
        assert qinfo.mutual_information(rho) == pytest.approx(2.0 * s_a, abs=1e-8)


def test_measurement_basis_projectors():
    rng = np.random.default_rng(47)
    for _ in range(10):
        basis = MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        p_plus, p_minus = basis.projectors()
        assert_allclose(p_plus + p_minus, np.eye(2), atol=1e-12)
        assert_allclose(p_plus @ p_plus, p_plus, atol=1e-12)
        assert_allclose(p_minus @ p_minus, p_minus, atol=1e-12)
    with pytest.raises(ValidationError):
        MeasurementBasis(-0.1, 0.0)
    with pytest.raises(ValidationError):
        MeasurementBasis(0.1, 7.0)


def test_measure_on_b_bell_z_basis():
    outcomes = qinfo.measure_on_b(bell_state(), MeasurementBasis(0.0, 0.0))
    assert len(outcomes) == 2
    for p, rho_cond in outcomes:
        assert p == pytest.approx(0.5, abs=1e-12)
        assert qinfo.von_neumann_entropy(rho_cond) < 1e-10  # conditionals pure


def test_measure_on_b_product_state():
    rho = product_state(5)
    from qusync.operators import partial_trace

    rho_a = partial_trace(rho, (2, 2), "A")
    for p, rho_cond in qinfo.measure_on_b(rho, MeasurementBasis(1.1, 2.2)):
        assert_allclose(rho_cond, rho_a, atol=1e-10)


def test_measure_on_b_maximally_mixed():
    rho = np.eye(4, dtype=complex) / 4.0
    outcomes = qinfo.measure_on_b(rho, MeasurementBasis(2.0, 1.0))
    probs = [p for p, _ in outcomes]
    assert_allclose(probs, [0.5, 0.5], atol=1e-12)
    for _, rho_cond in outcomes:
        assert_allclose(rho_cond, np.eye(2) / 2, atol=1e-12)


def test_measurement_probabilities_sum_to_one():
    rng = np.random.default_rng(53)
    for _ in range(5):
        rho = qinfo.random_density_matrix(4, 3, rng)
        outcomes = qinfo.measure_on_b(rho, MeasurementBasis(0.7, 4.0))
        assert sum(p for p, _ in outcomes) == pytest.approx(1.0, abs=1e-12)


def test_conditional_entropy_bell_any_basis():
    rng = np.random.default_rng(59)
    for _ in range(8):
        basis = MeasurementBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert qinfo.conditional_entropy(bell_state(), basis) < 1e-9


def test_conditional_entropy_product_and_mixed():
    rho = product_state(6)
    from qusync.operators import partial_trace

    s_a = qinfo.von_neumann_entropy(partial_trace(rho, (2, 2), "A"))
    for theta in (0.0, 1.0, 2.5):
        basis = MeasurementBasis(theta, 0.5)
        assert qinfo.conditional_entropy(rho, basis) == pytest.approx(s_a, abs=1e-9)
    mixed = np.eye(4, dtype=complex) / 4.0
    assert qinfo.conditional_entropy(mixed, MeasurementBasis(0.3, 0.3)) == pytest.approx(
        1.0, abs=1e-12)


def test_classical_correlation_reference_values():
    z_basis = MeasurementBasis(0.0, 0.0)
    assert qinfo.classical_correlation(bell_state(), z_basis) == pytest.approx(
        1.0, abs=1e-10)
    assert qinfo.classical_correlation(product_state(7), z_basis) == pytest.approx(
        0.0, abs=1e-10)
    assert qinfo.classical_correlation(classical_mixture(), z_basis) == pytest.approx(
        1.0, abs=1e-10)


def test_bloch_form_conditional_entropy_matches_projectors():
    # the correlation-matrix closed form (grid and scalar) against the
    # projector path, on random states of every rank and on a product of
    # pure states measured along z, where one outcome has probability 0
    rng = np.random.default_rng(89)
    states = [qinfo.random_density_matrix(4, rank, rng) for rank in (1, 2, 3, 4)
              for _ in range(10)]
    cases = [(rho, rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)) for rho in states]
    ket00 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    cases += [(ket00, 0.0, 0.0), (ket00, math.pi, 1.0)]
    for rho, theta, phi in cases:
        want = qinfo.conditional_entropy(rho, MeasurementBasis(theta, phi), EntropyUnit.NATS)
        r = qinfo._correlation_matrix(rho)
        n = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                      math.cos(theta)])
        assert abs(qinfo._conditional_entropy_at(r.tolist(), theta, phi) - want) <= 1e-12
        assert abs(float(qinfo._conditional_entropy_grid(r, n)) - want) <= 1e-12


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


def test_degree_of_quantumness_reference_states():
    assert qinfo.degree_of_quantumness(bell_state()) == pytest.approx(1.0, abs=1e-10)
    assert qinfo.degree_of_quantumness(classical_mixture()) == pytest.approx(
        0.0, abs=1e-10)
    psi = kron(np.array([1.0, 1j]) / np.sqrt(2), np.array([0.6, 0.8]))
    rho = np.outer(psi, psi.conj())
    assert qinfo.degree_of_quantumness(rho) == pytest.approx(0.0, abs=1e-10)


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
    rows = [(1, 2, 0.8, 1.0, 0.9, 0.1, 0.85, 0.3, 1.2),
            (2**60 + 1, 2, 0.8, 1.0, 0.9, 0.1, 0.85, 0.3, 1.2)]
    path = tmp_path / "bench.csv"
    qinfo.save_discord_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("seed,rank,purity,mutual_info,discord,")
    assert lines[1].startswith("1,2,0.8")
    assert lines[2].startswith("1152921504606846977,2,")  # integers are not cast to float

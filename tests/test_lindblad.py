import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qusync import lindblad as lb
from qusync.operators import ValidationError, basis_ket, check_density_matrix, kron, pauli
from tests.oracles import (
    bell_state,
    collapse_ops,
    cross_dissipator_apply,
    dissipator_apply,
    einsum_observables,
    hamiltonian,
    load_matrix_csv,
    master_equation_rhs,
    rk4_final_state,
    site_operators,
    unvectorize,
)

FIG_PARAMS = lb.ModelParams(delta=1.0, tau=1.0, j_xy=0.25, gamma=0.05, xi=0.0)


def random_state(seed, dim=4):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace()


def ket_density(label):
    k = basis_ket(label)
    return np.outer(k, k.conj())


def commutator_superoperator(h):
    """-i[h, .] under column stacking, written out."""
    eye = np.eye(4, dtype=complex)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def test_params_validation():
    with pytest.raises(ValidationError):
        lb.ModelParams(gamma=-0.1)
    with pytest.raises(ValidationError):
        lb.ModelParams(xi=1.2)
    assert lb.ModelParams(channel="lower").channel is lb.Channel.LOWER


def test_hamiltonian_reference_matrix():
    # H at delta = tau = 1, j_xy = 0.25, written out by hand; it pins both the
    # oracle's H and the generator's commutator part on every channel
    h = np.array(
        [[-1.0, 0.5, 0.5, 0.0],
         [0.5, 0.0, 0.25, 0.5],
         [0.5, 0.25, 0.0, 0.5],
         [0.0, 0.5, 0.5, 1.0]]
    )
    assert_allclose(hamiltonian(lb.ModelParams(delta=1.0, tau=1.0, j_xy=0.25)), h, atol=1e-15)
    for channel in lb.Channel:
        p = lb.ModelParams(delta=1.0, tau=1.0, j_xy=0.25, gamma=0.0, channel=channel)
        assert np.abs(lb.build_liouvillian(p) - commutator_superoperator(h)).max() < 1e-15


def test_hamiltonian_degenerate_cases():
    # the gap alone: H = diag(-2, 0, 0, 2) on every channel, and with no
    # parameter at all the generator vanishes (test_liouvillian_zero_params)
    for channel in lb.Channel:
        p = lb.ModelParams(delta=2.0, tau=0.0, j_xy=0.0, gamma=0.0, channel=channel)
        assert_allclose(lb.build_liouvillian(p),
                        commutator_superoperator(np.diag([-2.0, 0.0, 0.0, 2.0])), atol=1e-15)


def test_collapse_ops_silent_channels():
    # the oracle's jump operators; the generator meets them at xi = +-1 in
    # test_liouvillian_matches_direct_rhs
    c_s, c_a = collapse_ops(lb.ModelParams(gamma=0.05, xi=1.0))
    assert np.abs(c_a).max() == 0.0
    c_s, c_a = collapse_ops(lb.ModelParams(gamma=0.05, xi=-1.0))
    assert np.abs(c_s).max() == 0.0


def test_collapse_ops_frobenius_norm():
    p = lb.ModelParams(gamma=0.05, xi=0.0)
    c_s, c_a = collapse_ops(p)
    s1, s2 = site_operators(p)
    for c, sign in ((c_s, 1.0), (c_a, -1.0)):
        combo = s1 + sign * s2
        expected = p.gamma * np.trace(combo.conj().T @ combo).real / 2.0
        assert np.linalg.norm(c) ** 2 == pytest.approx(expected, abs=1e-14)
        assert np.linalg.norm(c) ** 2 == pytest.approx(0.1, abs=1e-14)


def test_dissipator_zero_operator():
    out = dissipator_apply(np.zeros((4, 4)), np.eye(4) / 4)
    assert np.abs(out).max() == 0.0


def test_dissipator_amplitude_damping():
    c = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # lowering on one qubit
    rho = np.diag([0.0, 1.0]).astype(complex)
    out = dissipator_apply(c, rho)
    assert_allclose(out, np.diag([1.0, -1.0]), atol=1e-15)


def test_dissipator_traceless():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = dissipator_apply(c, random_state(8))
    assert abs(out.trace()) < 1e-12


def test_cross_dissipator_identity():
    # D_S + D_A decomposes into site terms plus xi times the cross term
    for xi in (-1.0, -0.4, 0.0, 0.4, 1.0):
        p = lb.ModelParams(gamma=0.3, xi=xi)
        rho = random_state(int(10 * xi) + 50)
        c_s, c_a = collapse_ops(p)
        lhs = dissipator_apply(c_s, rho) + dissipator_apply(c_a, rho)
        s1, s2 = site_operators(p)
        d1 = dissipator_apply(np.sqrt(p.gamma) * s1, rho)
        d2 = dissipator_apply(np.sqrt(p.gamma) * s2, rho)
        rhs = d1 + d2 + xi * cross_dissipator_apply(p, rho)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_cross_dissipator_trivial_cases():
    p = lb.ModelParams(gamma=0.0)
    assert np.abs(cross_dissipator_apply(p, random_state(3))).max() == 0.0
    p0 = lb.ModelParams(gamma=0.2, xi=0.0)
    rho = random_state(4)
    c_s, c_a = collapse_ops(p0)
    combined = dissipator_apply(c_s, rho) + dissipator_apply(c_a, rho)
    s1, s2 = site_operators(p0)
    site_only = (dissipator_apply(np.sqrt(p0.gamma) * s1, rho)
                 + dissipator_apply(np.sqrt(p0.gamma) * s2, rho))
    assert np.abs(combined - site_only).max() < 1e-12


def test_vectorization_round_trip():
    rho = random_state(11)
    assert_allclose(unvectorize(lb.vectorize(rho)), rho, atol=0)


@pytest.mark.parametrize("xi", [-1.0, -0.4, 0.0, 0.7, 1.0])
@pytest.mark.parametrize("channel", list(lb.Channel))
def test_liouvillian_matches_direct_rhs(channel, xi):
    # each channel has its own table: every weight away from its default
    for seed, gamma in ((1, 0.0), (2, 0.05), (3, 0.3)):
        p = lb.ModelParams(delta=-1.3, tau=0.7, j_xy=-0.6, gamma=gamma, xi=xi, channel=channel)
        liou = lb.build_liouvillian(p)
        rho = random_state(seed)
        via_matrix = unvectorize(liou @ lb.vectorize(rho))
        direct = master_equation_rhs(p, rho)
        assert np.abs(via_matrix - direct).max() < 1e-12


def test_liouvillian_pure_commutator_at_gamma_zero():
    for channel in lb.Channel:
        p = lb.ModelParams(gamma=0.0, xi=0.3, channel=channel)
        liou = lb.build_liouvillian(p)
        assert np.abs(liou - commutator_superoperator(hamiltonian(p))).max() < 1e-15


def test_liouvillian_zero_params():
    p = lb.ModelParams(delta=0.0, tau=0.0, j_xy=0.0, gamma=0.0)
    assert np.abs(lb.build_liouvillian(p)).max() == 0.0


def test_liouvillian_trace_generator():
    p = lb.ModelParams(xi=0.5, gamma=0.2)
    liou = lb.build_liouvillian(p)
    for seed in range(3):
        out = unvectorize(liou @ lb.vectorize(random_state(seed + 60)))
        assert abs(out.trace()) < 1e-12


def test_liouvillian_has_steady_eigenvalue():
    liou = lb.build_liouvillian(FIG_PARAMS)
    evals = np.linalg.eigvals(liou)
    assert np.abs(evals).min() < 1e-10


def test_liouvillian_spectrum_contractive():
    for xi in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for gamma in (0.01, 0.05, 0.5):
            p = lb.ModelParams(xi=xi, gamma=gamma)
            evals = np.linalg.eigvals(lb.build_liouvillian(p))
            assert evals.real.max() <= 1e-12


@pytest.mark.parametrize("channel", list(lb.Channel))
def test_stacked_generators_equal_the_one_point_rule_bit_for_bit(channel):
    # a (xi, gamma, j_xy) grid with xi = +-1 and gamma = 0, kept in its 3-D
    # shape: each generator of the stack is build_liouvillian's, every bit
    # and every signed zero
    p = lb.ModelParams(delta=-1.3, tau=0.7, channel=channel)
    xi, gamma, j_xy = np.meshgrid([-1.0, -0.4, 0.0, 0.7, 1.0], [0.0, 0.05, 3.0],
                                  [-0.6, 0.0, 0.25], indexing="ij")
    stack = lb._liouvillians(p, xi, gamma, j_xy)
    assert stack.shape == xi.shape + (16, 16)
    for k in np.ndindex(xi.shape):
        one = lb.build_liouvillian(lb.ModelParams(
            delta=-1.3, tau=0.7, xi=float(xi[k]), gamma=float(gamma[k]), j_xy=float(j_xy[k]),
            channel=channel))
        assert stack[k].tobytes() == one.tobytes()


@pytest.mark.filterwarnings("error")
def test_stacked_generators_refuse_an_overflowing_point():
    # one rate of 1e308 among finite ones: the stack is refused, naming the
    # generator, with no numpy warning on the way
    with pytest.raises(ValidationError, match=r"^generator must be finite$"):
        lb._liouvillians(FIG_PARAMS, np.array([0.3, 0.3]), np.array([0.05, 1e308]),
                         np.array([0.25, 0.25]))


def test_superoperator_decomposition_identity():
    # same identity as the dissipator test, but at the 16x16 matrix level
    for xi in (-1.0, -0.4, 0.0, 0.4, 1.0):
        p = lb.ModelParams(gamma=0.3, xi=xi)
        c_s, c_a = collapse_ops(p)
        left = lb.dissipator_superoperator(c_s) + lb.dissipator_superoperator(c_a)
        s1, s2 = site_operators(p)
        right = (lb.dissipator_superoperator(np.sqrt(p.gamma) * s1)
                 + lb.dissipator_superoperator(np.sqrt(p.gamma) * s2))
        cross = np.zeros_like(left)
        eye = np.eye(4, dtype=complex)
        for rho_col in range(16):
            basis = np.zeros(16, dtype=complex)
            basis[rho_col] = 1.0
            cross[:, rho_col] = lb.vectorize(
                cross_dissipator_apply(p, unvectorize(basis)))
        assert np.linalg.norm(left - (right + xi * cross)) < 1e-12


def test_evolve_unitary_preserves_purity():
    p = lb.ModelParams(gamma=0.0)
    res = lb.evolve(p, ket_density("10"), t_final=10.0, dt=0.01)
    assert np.abs(res.observables["purity"] - 1.0).max() < 1e-10


def test_evolve_initial_readout():
    res = lb.evolve(FIG_PARAMS, ket_density("10"), t_final=1.0, dt=0.01)
    assert res.observables["sz1"][0] == pytest.approx(1.0, abs=1e-12)
    assert res.observables["sz2"][0] == pytest.approx(-1.0, abs=1e-12)
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(1.0)


def test_evolve_propagator_consistency():
    p = lb.ModelParams(xi=0.3, gamma=0.05)
    liou = lb.build_liouvillian(p)
    prop = expm(liou * 0.01)
    assert np.abs(np.linalg.matrix_power(prop, 1000)
                  - expm(liou * 10.0)).max() < 1e-9


def random_generator(rng, channel):
    return lb.build_liouvillian(lb.ModelParams(
        delta=rng.uniform(-5, 5), tau=rng.uniform(-5, 5), j_xy=rng.uniform(-5, 5),
        gamma=10 ** rng.uniform(-3, np.log10(5)), xi=rng.uniform(-1, 1), channel=channel))


@pytest.mark.parametrize("t, bound", [(0.01, 6e-15), (1.0, 4e-14), (100.0, 2e-12),
                                      (4000.0, 1e-10)])
def test_expm_matches_scipy_on_random_generators(t, bound):
    rng = np.random.default_rng(2005)
    worst = 0.0
    for k in range(100):
        liou = random_generator(rng, list(lb.Channel)[k % 4]) * t
        worst = max(worst, np.abs(lb._expm(liou) - expm(liou)).max())
    assert worst <= bound


@pytest.mark.parametrize("row, scale, degree", [
    (0, 1 - 1e-9, 3), (0, 1 + 1e-9, 5), (1, 1 - 1e-9, 5), (1, 1 + 1e-9, 7),
    (2, 1 - 1e-9, 7), (2, 1 + 1e-9, 9), (3, 1 - 1e-9, 9), (3, 1 + 1e-9, 13),
    (4, 1 - 1e-9, 13), (4, 1 + 1e-9, 13), (4, 60.0, 13)])
def test_expm_reaches_each_pade_degree(row, scale, degree, monkeypatch):
    # a 1-norm just under theta_m takes degree m and just above it the next
    # degree; above theta_13, degree 13 on a matrix scaled down by squarings
    theta = lb._PADE[row][0]
    liou = random_generator(np.random.default_rng(degree), lb.Channel.X)
    liou = liou * (scale * theta / np.abs(liou).sum(axis=0).max())
    sums, tensordot = [], np.tensordot

    def counting_tensordot(coefficients, *args):
        sums.append(len(coefficients))
        return tensordot(coefficients, *args)

    monkeypatch.setattr(np, "tensordot", counting_tensordot)
    got = lb._expm(liou)
    monkeypatch.undo()
    assert sums == [(degree + 1) // 2] * 2  # the odd and the even coefficients
    assert np.abs(got - expm(liou)).max() <= 1e-12


def test_expm_of_zero_is_the_identity():
    assert np.array_equal(lb._expm(np.zeros((16, 16), dtype=complex)), np.eye(16))


def test_evolve_matches_rk4():
    # RK4 on the oracles' direct-form master equation, independent of L
    p = lb.ModelParams(xi=0.4, gamma=0.1)
    rho0 = ket_density("10")
    a = lb.evolve(p, rho0, t_final=2.0, dt=0.001).states[-1]
    b = rk4_final_state(p, rho0, t_final=2.0, dt=0.001)
    assert np.abs(a - b).max() < 1e-8


@pytest.mark.parametrize("n_steps", [1, 126, 127, 128, 129, 299, 300])
def test_evolve_blocks_match_step_loop(n_steps):
    # evolve fills blocks of BLOCK = 128 states at once; these counts end
    # the last block one state early, exactly and one state late
    p = lb.ModelParams(xi=0.4, gamma=0.1)
    rho0, dt = ket_density("10"), 0.01
    res = lb.evolve(p, rho0, t_final=n_steps * dt, dt=dt)
    prop = expm(lb.build_liouvillian(p) * dt)
    vecs = [lb.vectorize(rho0)]
    for _ in range(n_steps):
        vecs.append(prop @ vecs[-1])
    want = np.stack([unvectorize(v) for v in vecs])
    assert res.states.shape == want.shape
    assert np.abs(res.states - want).max() <= 1e-12
    eye = np.eye(2)
    for axis in "xyz":
        for name, op in ((f"s{axis}1", kron(pauli(axis), eye)),
                         (f"s{axis}2", kron(eye, pauli(axis)))):
            expect = np.einsum("nij,ji->n", want, op).real
            assert np.abs(res.observables[name] - expect).max() <= 1e-12


@pytest.mark.parametrize("channel", list(lb.Channel))
def test_evolve_observables_equal_dense_einsums_bit_for_bit(channel):
    # evolve adds only the non-zero terms; the dense einsums add all 16
    for xi in (-1.0, -0.35, 0.0, 0.6, 1.0):
        for label in ("00", "01", "10"):
            res = lb.evolve(lb.ModelParams(xi=xi, channel=channel), ket_density(label),
                            t_final=20.0, dt=0.01)
            for name, want in einsum_observables(res.states).items():
                got = res.observables[name]
                assert np.array_equal(got, want), (xi, label, name)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (xi, label, name)


def test_observable_sums_keep_the_signed_zeros_of_dense_einsums():
    # entries drawn from +-0, +-1 and +-0.5, so that many sums are zero and
    # only the order of the additions decides their sign
    rng = np.random.default_rng(23)
    traj = np.empty((16, 4000), dtype=complex)
    traj.real, traj.imag = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -0.5], (2, 16, 4000),
                                      p=[.3, .3, .1, .1, .1, .1])
    states = traj.reshape(4, 4, -1).transpose(2, 1, 0)
    got = {name: lb._expectation(traj, terms) for name, terms in lb._PAULI_TERMS.items()}
    got["purity"] = lb._purity(states)
    for name, want in einsum_observables(states).items():
        assert np.array_equal(got[name], want), name
        assert np.array_equal(np.signbit(got[name]), np.signbit(want)), name


def test_evolve_trajectory_invariants():
    res = lb.evolve(FIG_PARAMS, ket_density("10"), t_final=50.0, dt=0.01)
    states = res.states
    assert np.abs(np.einsum("nii->n", states) - 1.0).max() < 1e-10
    assert np.abs(states - states.conj().transpose(0, 2, 1)).max() < 1e-10
    assert np.linalg.eigvalsh(states).min() > -1e-8


def test_evolve_validation():
    with pytest.raises(ValidationError):
        lb.evolve(FIG_PARAMS, ket_density("10"), t_final=1.0, dt=0.0)
    with pytest.raises(ValidationError):
        lb.evolve(FIG_PARAMS, ket_density("10"), t_final=0.001, dt=0.01)
    with pytest.raises(ValidationError):
        lb.evolve(FIG_PARAMS, np.eye(4), t_final=1.0, dt=0.01)  # trace 4


def check_trajectory(states):
    """The check that evolve runs on its recorded states."""
    check_density_matrix(states, atol=lb.STATE_ATOL, name="step")


def test_trajectory_positivity_violation_names_step():
    # valid states, except step 7, whose smallest eigenvalue is set in a
    # rotated basis: -1e-6 fails, -5e-9 is within STATE_ATOL and passes
    rng = np.random.default_rng(83)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    states = np.stack([random_state(seed) for seed in range(12)])

    def set_step_7(low):
        bad = q @ np.diag([low, 0.2, 0.3, 0.5 - low]) @ q.conj().T
        states[7] = (bad + bad.conj().T) / 2.0

    set_step_7(-1e-6)
    with pytest.raises(ValidationError, match=r"step 7 has negative eigenvalue -1\.000e-06"):
        check_trajectory(states)
    set_step_7(-5e-9)
    check_trajectory(states)
    # NaN entries fail the hermiticity test: off the diagonal only, and all
    # of them, as an overflowed propagation leaves it
    states[7, 0, 1] = states[7, 1, 0] = np.nan
    with pytest.raises(ValidationError, match=r"step 7 is not Hermitian \(max deviation nan\)"):
        check_trajectory(states)
    states[7] = np.nan
    with pytest.raises(ValidationError, match=r"step 7 is not Hermitian \(max deviation nan\)"):
        check_trajectory(states)


@pytest.mark.parametrize("entry", [(i, j) for i in range(4) for j in range(4)])
def test_trajectory_hermiticity_checked_on_every_entry(entry):
    # a deviation on or off the diagonal, on either side of it, names the
    # step and the largest |rho_ij - conj(rho_ji)| of the full matrix
    states = np.stack([random_state(seed) for seed in range(6)])
    states[4][entry] += 3e-6 + 2e-6j
    dev = np.abs(states[4] - states[4].conj().T).max()
    with pytest.raises(ValidationError,
                       match=rf"step 4 is not Hermitian \(max deviation {dev:.3e}\)"):
        check_trajectory(states)


@pytest.mark.filterwarnings("error")
def test_evolve_overflow_names_the_generator():
    # a finite rate of 1e308 overflows the generator itself; that is named,
    # with no numpy warning on the way
    with pytest.raises(ValidationError, match=r"^generator must be finite$"):
        lb.evolve(lb.ModelParams(gamma=1e308), ket_density("10"), t_final=0.1, dt=0.01)


def test_steady_state_pure_pumping():
    p = lb.ModelParams(delta=1.0, tau=0.0, j_xy=0.0, gamma=0.2, xi=0.0)
    rho = lb.steady_state(p)
    assert_allclose(rho, ket_density("11"), atol=1e-10)


def test_steady_state_residual_and_invariants():
    rho = lb.steady_state(FIG_PARAMS)
    liou = lb.build_liouvillian(FIG_PARAMS)
    assert np.linalg.norm(liou @ lb.vectorize(rho)) < 1e-10
    assert abs(rho.trace() - 1.0) < 1e-12
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_steady_state_rearranged_balance():
    # at the fixed point the coherent flow plus site dissipation is balanced
    # by -xi times the cross dissipator
    p = lb.ModelParams(xi=0.6, gamma=0.3)
    rho = lb.steady_state(p)
    h = hamiltonian(p)
    s1, s2 = site_operators(p)
    lhs = -1j * (h @ rho - rho @ h)
    lhs += dissipator_apply(np.sqrt(p.gamma) * s1, rho)
    lhs += dissipator_apply(np.sqrt(p.gamma) * s2, rho)
    assert np.abs(lhs + p.xi * cross_dissipator_apply(p, rho)).max() < 1e-10


def test_steady_state_agrees_with_long_time_evolution():
    p = lb.ModelParams(xi=0.4, gamma=0.2)
    rho_ss = lb.steady_state(p)
    final = lb.evolve(p, ket_density("10"), t_final=500.0, dt=0.5).states[-1]
    dist = 0.5 * np.abs(np.linalg.eigvalsh(final - rho_ss)).sum()
    assert dist < 1e-6


def test_steady_state_degenerate_at_full_correlation():
    # the symmetric pump leaves the singlet dark, so xi = +1 is degenerate
    with pytest.raises(lb.DegenerateSteadyStateError) as excinfo:
        lb.steady_state(lb.ModelParams(xi=1.0, gamma=0.05))
    assert excinfo.value.dimension >= 2
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = 1.0 / np.sqrt(2), -1.0 / np.sqrt(2)
    liou = lb.build_liouvillian(lb.ModelParams(xi=1.0, gamma=0.05))
    assert np.linalg.norm(
        liou @ lb.vectorize(np.outer(singlet, singlet.conj()))) < 1e-12


@pytest.mark.parametrize("channel", list(lb.Channel))
def test_singlet_dark_and_stationary_at_full_correlation(channel):
    # The mechanism behind the c1 and c5 acceptance values: at xi = +1 only
    # c_S acts, c_S annihilates the singlet and H maps it to -j_xy times
    # itself, so the singlet weight of the start |1 0> (1/2) never decays.
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    for j_xy in (-1.0, 0.0, 0.25, 1.0):
        p = lb.ModelParams(j_xy=j_xy, gamma=0.05, xi=1.0, channel=channel)
        c_s, c_a = collapse_ops(p)
        assert np.abs(c_a).max() == 0.0
        assert np.abs(c_s @ singlet).max() < 1e-15
        h = hamiltonian(p)
        assert np.abs(h @ singlet + j_xy * singlet).max() < 1e-15
    res = lb.evolve(p, ket_density("10"), t_final=50.0, dt=0.1)
    weight = np.einsum("i,nij,j->n", singlet.conj(), res.states, singlet).real
    assert np.abs(weight - 0.5).max() < 1e-12


@pytest.mark.parametrize("j_xy", [-1.0, 0.0, 1.0])
def test_asymptotic_state_fixed_point_at_full_correlation(j_xy):
    rho0 = ket_density("10")
    for gamma in (0.01, 0.05, 0.3, 1.0):
        p = lb.ModelParams(xi=1.0, gamma=gamma, j_xy=j_xy)
        with pytest.raises(lb.DegenerateSteadyStateError):
            lb.steady_state(p)
        rho = lb.asymptotic_state(p, rho0)
        assert np.linalg.norm(lb.build_liouvillian(p) @ lb.vectorize(rho)) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert abs(rho.trace() - 1.0) < 1e-12


def test_asymptotic_state_is_the_long_time_limit():
    rho0 = ket_density("10")
    # the slowest degenerate point: t = 4000 is 5e-4 short of the limit
    p = lb.ModelParams(xi=1.0, gamma=0.01, j_xy=-1.0)
    rho = lb.asymptotic_state(p, rho0)
    assert np.abs(rho - lb.long_time_state(p, rho0, 1e5)).max() < 1e-10
    assert np.abs(rho - lb.long_time_state(p, rho0, 4000.0)).max() > 1e-6
    # a unique fixed point does not depend on the start
    p = lb.ModelParams(xi=0.3, gamma=0.05)
    for start in ("10", "00"):
        assert np.array_equal(lb.asymptotic_state(p, ket_density(start)), lb.steady_state(p))


def test_steady_state_no_fixed_point_detection():
    liou = lb.build_liouvillian(FIG_PARAMS)
    shifted = liou + 0.05 * np.eye(16)
    with pytest.raises(lb.NoSteadyStateError):
        lb.steady_state_from_matrix(shifted)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e8])
def test_null_space_rule_scales_with_the_generator(scale):
    # c L has the fixed points of L; an absolute zero bound lost them at c >= 1e6
    liou = lb.build_liouvillian(lb.ModelParams(xi=0.3, gamma=0.05))
    rho = lb.steady_state_from_matrix(scale * liou)
    assert np.abs(rho - lb.steady_state_from_matrix(liou)).max() <= 1e-12
    with pytest.raises(lb.DegenerateSteadyStateError):
        lb.steady_state_from_matrix(
            scale * lb.build_liouvillian(lb.ModelParams(xi=1.0, gamma=0.05)))


def test_null_vector_that_is_no_fixed_point_is_refused():
    # a null vector of almost zero trace: normalizing it to trace one takes
    # its residual ||L rho|| from 1e-14 past the zero bound of 1e-12
    rng = np.random.default_rng(5)
    null = lb.vectorize(np.diag([1.0, -1.0, 1e-6, 0.0]))
    basis, _ = np.linalg.qr(np.column_stack([null, rng.standard_normal((16, 15))]))
    left, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    mat = left @ np.diag(np.r_[np.ones(15), 1e-14]) @ np.roll(basis, -1, axis=1).conj().T
    with pytest.raises(lb.NoSteadyStateError, match="rho_ss residual .* exceeds 1.000e-12"):
        lb.steady_state_from_matrix(mat)


def test_long_time_state_matches_steady_state():
    p = lb.ModelParams(xi=0.0, gamma=0.3)
    rho_inf = lb.long_time_state(p, ket_density("10"), 400.0)
    assert np.abs(rho_inf - lb.steady_state(p)).max() < 1e-8


def test_evolution_csv_round_trip(tmp_path):
    res = lb.evolve(FIG_PARAMS, ket_density("10"), t_final=1.0, dt=0.1)
    path = tmp_path / "evo.csv"
    lb.save_evolution_csv(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,sz1,sz2,sx1,sx2,purity"
    assert len(lines) == 1 + res.times.size
    row = [float(c) for c in lines[1].split(",")]
    assert row[1] == pytest.approx(1.0) and row[2] == pytest.approx(-1.0)


def test_bloch_csv_export(tmp_path):
    res = lb.evolve(FIG_PARAMS, ket_density("10"), t_final=2.0, dt=0.1)
    path = tmp_path / "bloch.csv"
    lb.save_bloch_csv(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,bx1,by1,bz1,bx2,by2,bz2"
    assert len(lines) == 1 + res.times.size
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    for col, name in ((1, "sx1"), (3, "sz1"), (4, "sx2"), (6, "sz2")):
        assert_allclose(data[:, col], res.observables[name], rtol=0, atol=0)
    norms = np.linalg.norm(data[:, 1:4], axis=1)
    assert norms.max() <= 1.0 + 1e-9  # Bloch vectors stay inside the sphere


def test_evolve_computes_the_observables_named():
    # a subset is computed alone, bit for bit as in the default set, which
    # holds all seven
    p = lb.ModelParams(xi=0.3)
    full = lb.evolve(p, ket_density("10"), t_final=2.0, dt=0.01)
    assert list(full.observables) == ["sz1", "sz2", "sx1", "sx2", "sy1", "sy2", "purity"]
    for names in (("sz1",), ("purity", "sy2"), ()):
        res = lb.evolve(p, ket_density("10"), t_final=2.0, dt=0.01, observables=names)
        assert list(res.observables) == list(names)
        for name in names:
            assert np.array_equal(res.observables[name], full.observables[name])
        assert np.array_equal(res.states, full.states)


def test_evolve_refuses_an_unknown_observable():
    with pytest.raises(ValidationError, match="'sz3'"):
        lb.evolve(FIG_PARAMS, ket_density("10"), t_final=2.0, dt=0.01,
                  observables=("sz1", "sz3"))


def test_bell_state_helper_consistency(tmp_path):
    # steady-state matrices reuse the operator CSV format
    from qusync.operators import save_matrix_csv

    rho = lb.steady_state(FIG_PARAMS)
    path = tmp_path / "rho_ss.csv"
    save_matrix_csv(path, rho)
    assert_allclose(load_matrix_csv(path), rho, rtol=0, atol=0)
    assert bell_state().trace() == pytest.approx(1.0)

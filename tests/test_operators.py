import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qusync import lindblad, noise, operators as ops, phaselock, qinfo
from tests.oracles import bell_state, load_matrix_csv, loop_partial_trace


def test_pauli_z_convention():
    assert_allclose(ops.pauli("z"), np.diag([-1.0, 1.0]))


def test_pauli_plus_raises_ground_state():
    ket0 = ops.basis_ket("0")
    assert_allclose(ops.pauli("plus") @ ket0, ops.basis_ket("1"))
    assert_allclose(ops.pauli("minus") @ ops.basis_ket("1"), ket0)


def test_pauli_commutator_algebra():
    x, y = ops.pauli("x"), ops.pauli("y")
    lhs = x @ y - y @ x
    assert_allclose(lhs, 2j * ops.pauli("z"), atol=1e-15)


def test_pauli_unknown_label():
    with pytest.raises(ops.ValidationError):
        ops.pauli("w")


def test_kron_z_embedding():
    assert_allclose(ops.kron(ops.pauli("z"), ops.pauli("id")),
                    np.diag([-1.0, -1.0, 1.0, 1.0]))


def test_kron_identity():
    assert_allclose(ops.kron(ops.pauli("id"), ops.pauli("id")), np.eye(4))


def test_kron_plus_embedding_on_00():
    out = ops.kron(ops.pauli("plus"), ops.pauli("id")) @ ops.basis_ket("00")
    assert_allclose(out, ops.basis_ket("10"))


def test_kron_associative_and_mixed_product():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(4))
        assert_allclose(ops.kron(ops.kron(a, b), c), ops.kron(a, ops.kron(b, c)),
                        atol=1e-12)
        assert_allclose(ops.kron(a, b) @ ops.kron(c, d), ops.kron(a @ c, b @ d),
                        atol=1e-12)


# loop_partial_trace is the reference that the reduced states of qinfo and
# of the other oracles are compared against, so its own results are pinned here


def test_partial_trace_bell():
    assert_allclose(loop_partial_trace(bell_state(), (2, 2), "A"), np.eye(2) / 2,
                    atol=1e-14)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    for _ in range(5):
        ga = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gb = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho_a = ga @ ga.conj().T
        rho_a /= rho_a.trace()
        rho_b = gb @ gb.conj().T
        rho_b /= rho_b.trace()
        joint = ops.kron(rho_a, rho_b)
        assert_allclose(loop_partial_trace(joint, (2, 2), "A"), rho_a, atol=1e-12)
        assert_allclose(loop_partial_trace(joint, (2, 2), "B"), rho_b, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= rho.trace()
    for keep in ("A", "B"):
        reduced = loop_partial_trace(rho, (2, 2), keep)
        assert abs(reduced.trace() - 1.0) < 1e-12


def test_check_density_matrix_accepts_valid():
    ops.check_density_matrix(np.eye(4) / 4)
    ops.check_density_matrix(bell_state())


def test_check_density_matrix_rejects_invalid():
    with pytest.raises(ops.ValidationError):
        ops.check_density_matrix(np.eye(4) / 2)  # trace 2
    with pytest.raises(ops.ValidationError):
        ops.check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    bad = np.diag([1.1, -0.1]).astype(complex)
    with pytest.raises(ops.ValidationError):
        ops.check_density_matrix(bad)  # negative eigenvalue


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_check_density_matrix_rejects_non_finite(entry):
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 0] = entry
    with pytest.raises(ops.ValidationError, match=r"^rho is not Hermitian \(max deviation nan\)$"):
        ops.check_density_matrix(rho)


def test_check_density_matrix_stack_matches_single_states():
    # valid states, and one state of each failing or marginal kind; every
    # seeded stack raises exactly when one of its states does, naming the
    # first such state with that state's own message
    rng = np.random.default_rng(29)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))

    def rotated(low):
        m = q @ np.diag([low, 0.2, 0.3, 0.5 - low]) @ q.conj().T
        return (m + m.conj().T) / 2.0

    valid = [qinfo.random_density_matrix(4, rank, rng) for rank in (1, 2, 3, 4)]
    off_trace = valid[2] * (1.0 + 1e-6)
    non_hermitian = valid[3].copy()
    non_hermitian[1, 2] += 1e-6
    pool = valid + [rotated(-1e-6), rotated(-5e-11), off_trace, non_hermitian]

    def single_error(rho):
        try:
            ops.check_density_matrix(rho)
        except ops.ValidationError as exc:
            return str(exc)
        return None

    raised = 0
    for _ in range(60):
        states = [pool[i] for i in rng.integers(len(pool), size=rng.integers(1, 7))]
        errors = [single_error(rho) for rho in states]
        failing = [k for k, err in enumerate(errors) if err is not None]
        if not failing:
            ops.check_density_matrix(np.stack(states))
            continue
        raised += 1
        k = failing[0]
        want = errors[k].replace("rho", f"rho {k}", 1)
        with pytest.raises(ops.ValidationError, match=f"^{re.escape(want)}$"):
            ops.check_density_matrix(np.stack(states))
    assert 10 <= raised <= 50
    assert single_error(pool[5]) is None  # -5e-11 is within ATOL


# --- The positivity screen against eigvalsh ---------------------------------

# Where |lambda_min + atol| is below this, the pivots of rho + atol*I and
# eigvalsh's smallest eigenvalue may round to different sides of the
# boundary (states here have norm at most about 1).
SCREEN_BAND = 1e-14


def entry_major(stack):
    """The same states, stored as evolve stores them: stack[:, i, j] contiguous."""
    return np.ascontiguousarray(stack.transpose(2, 1, 0)).transpose(2, 1, 0)


def with_spectra(rng, lam):
    """Hermitian states with the spectra of the rows of lam, in seeded bases."""
    n, d = lam.shape
    q, _ = np.linalg.qr(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    m = q @ (lam[:, :, None] * q.conj().swapaxes(1, 2))
    return (m + m.conj().swapaxes(1, 2)) / 2.0


def screen_families(rng, d, n, atol):
    """n seeded d x d states of each family: rank-deficient states; states
    whose smallest eigenvalue is within 1e-9 of -atol; states with one NaN
    or infinite entry; and such shifted states made non-Hermitian below the
    diagonal only."""
    rank = rng.integers(1, d, n)
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    g *= np.arange(d) < rank[:, None, None]
    low_rank = g @ g.conj().swapaxes(1, 2)
    low_rank /= np.trace(low_rank, axis1=1, axis2=2).real[:, None, None]
    lam = rng.dirichlet(np.ones(d), n)
    lam[:, 0] = -atol + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-15, -9, n)
    non_finite = with_spectra(rng, rng.dirichlet(np.ones(d), n))
    i, j = rng.integers(0, d, (2, n))
    non_finite[np.arange(n), i, j] = rng.choice(
        [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 0), complex(0, np.nan)], n)
    below = np.tril(np.ones((d, d), dtype=bool), -1)
    lower_only = with_spectra(rng, lam) + below * 1e-9 * (
        rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    return {"rank-deficient": low_rank, "shifted": with_spectra(rng, lam),
            "non-finite": non_finite, "lower-only": lower_only}


def lowest_eigenvalues(stack):
    """eigvalsh's smallest eigenvalue of the Hermitian matrix that the lower
    triangle and the diagonal's real part define, NaN where one of those is
    not finite: LAPACK is no oracle there (it returned -0 for a 2x2 with a
    NaN diagonal entry)."""
    d = stack.shape[-1]
    lower = np.tril(np.ones((d, d), dtype=bool))
    read = [np.where(lower, stack.real, 0.0), np.where(np.tril(lower, -1), stack.imag, 0.0)]
    finite = np.isfinite(read).all(axis=(0, 2, 3))
    lowest = np.full(len(stack), np.nan)
    lowest[finite] = np.linalg.eigvalsh(stack[finite]).min(axis=1)
    return lowest


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("atol", [ops.ATOL, lindblad.STATE_ATOL])
@pytest.mark.parametrize("d", [2, 4])
def test_positivity_screen_matches_eigvalsh(d, atol):
    # 5200 states per dimension and tolerance, on both storage orders: the
    # screen says positive exactly where eigvalsh's smallest eigenvalue is at
    # least -atol, outside SCREEN_BAND, and refuses what it cannot read
    rng = np.random.default_rng(2300 + d)
    for family, stack in screen_families(rng, d, 1300, atol).items():
        lowest = lowest_eigenvalues(stack)
        want = lowest >= -atol
        excused = np.abs(lowest + atol) <= SCREEN_BAND
        assert excused.mean() < 0.25, family
        if family in ("shifted", "lower-only"):
            assert 0.3 < want.mean() < 0.7, family
        for layout, states in (("contiguous", stack), ("entry-major", entry_major(stack))):
            got = ops._ldl_positive(states, atol)
            wrong = np.flatnonzero((got != want) & ~excused)
            assert not wrong.size, (
                f"{family} {layout}: {wrong.size} verdicts differ from eigvalsh, e.g. state "
                f"{wrong[0]} with lambda_min + atol = {lowest[wrong[0]] + atol:.3e}")


@pytest.mark.filterwarnings("error")
def test_check_density_matrix_same_verdict_on_both_storage_orders():
    # one refused state among valid ones, of each kind, in a seeded place
    rng = np.random.default_rng(2301)
    valid = screen_families(rng, 4, 40, ops.ATOL)["rank-deficient"]
    lam = rng.dirichlet(np.ones(4), 1)
    lam[0, 0] = -ops.ATOL - 1e-9
    negative = with_spectra(rng, lam)[0]
    negative /= np.trace(negative).real
    non_hermitian = valid[0].copy()
    non_hermitian[3, 1] += 1e-9j
    overflowing = valid[2].copy()  # its rho_03 - conj(rho_30) overflows, with no warning
    overflowing[0, 3], overflowing[3, 0] = 1e308, -1e308
    for bad, message in ((negative, r"has negative eigenvalue -1\.\d{3}e-09"),
                         (non_hermitian, r"is not Hermitian \(max deviation 1\.000e-09\)"),
                         (overflowing, r"is not Hermitian \(max deviation inf\)"),
                         (valid[1] * (1.0 + 1e-9), r"has trace 1\.000000001")):
        k = int(rng.integers(len(valid)))
        stack = valid.copy()
        stack[k] = bad
        for layout in (np.asarray, entry_major):
            ops.check_density_matrix(layout(valid))
            with pytest.raises(ops.ValidationError, match=rf"^rho {k} {message}"):
                ops.check_density_matrix(layout(stack))


def _evolve(t_final=1.0, dt=0.01):
    lindblad.evolve(lindblad.ModelParams(), np.eye(4) / 4, t_final, dt)


def _series(times=0.0, values=0.0):
    """A valid series of 32 samples, with the given numbers added at sample 20."""
    t = np.arange(32.0)
    at_20 = t == 20
    phaselock.TimeSeries(t + np.where(at_20, times, 0.0), np.sin(t) + np.where(at_20, values, 0.0))


@pytest.mark.parametrize("field, build", [
    pytest.param("delta", lambda: lindblad.ModelParams(delta=math.inf), id="ModelParams.delta"),
    pytest.param("tau", lambda: lindblad.ModelParams(tau=math.nan), id="ModelParams.tau"),
    pytest.param("j_xy", lambda: lindblad.ModelParams(j_xy=-math.inf), id="ModelParams.j_xy"),
    pytest.param("gamma", lambda: lindblad.ModelParams(gamma=math.nan), id="ModelParams.gamma"),
    pytest.param("xi", lambda: lindblad.ModelParams(xi=math.nan), id="ModelParams.xi"),
    pytest.param("a", lambda: noise.OUParams(a=(math.nan, 1.0)), id="OUParams.a"),
    pytest.param("b", lambda: noise.OUParams(b=(1.0, math.inf)), id="OUParams.b"),
    pytest.param("xi", lambda: noise.OUParams(xi=math.nan), id="OUParams.xi"),
    pytest.param("dt", lambda: _evolve(dt=math.nan), id="evolve.dt"),
    pytest.param("t_final", lambda: _evolve(t_final=math.inf), id="evolve.t_final"),
    pytest.param("times", lambda: _series(times=math.nan), id="TimeSeries.times"),
    pytest.param("values", lambda: _series(values=math.nan), id="TimeSeries.values"),
    pytest.param("dt", lambda: noise.sample_ou(noise.OUParams(), math.nan, 5, seed=1),
                 id="sample_ou.dt-nan"),
    pytest.param("dt", lambda: noise.sample_ou(noise.OUParams(), math.inf, 5, seed=1),
                 id="sample_ou.dt-inf"),
    pytest.param("times", lambda: noise.NoiseTrajectory([0.0, math.nan, 2.0], np.zeros((3, 2))),
                 id="NoiseTrajectory.times"),
    pytest.param("values", lambda: noise.NoiseTrajectory([0.0, 1.0, 2.0],
                                                         [[0.0, 0.0], [math.inf, 0.0], [0.0, 0.0]]),
                 id="NoiseTrajectory.values"),
    pytest.param("omega", lambda: noise.spectral_density(noise.OUParams(), math.nan),
                 id="spectral_density.omega"),
    pytest.param("xi", lambda: noise.correlation_transform(math.nan),
                 id="correlation_transform.xi"),
])
def test_library_inputs_reject_non_finite(field, build):
    with pytest.raises(ops.ValidationError, match=f"^{field} must be finite"):
        build()


def test_basis_ket_labels():
    assert_allclose(ops.basis_ket("10"), [0, 0, 1, 0])
    with pytest.raises(ops.ValidationError):
        ops.basis_ket("2")


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "m.csv"
    ops.save_matrix_csv(path, m)
    assert_allclose(load_matrix_csv(path), m, rtol=0, atol=0)


def test_matrix_csv_golden_format(tmp_path):
    m = np.array([[0.5 + 0.25j, -1.0], [1e-3j, 2.0]])
    path = tmp_path / "m.csv"
    ops.save_matrix_csv(path, m)
    assert path.read_text() == "0.5+0.25j,-1+0j\n0+0.001j,2+0j\n"


# --- The CSV writer's float kernel against Python's %.17g -------------------

def kernel_text(x):
    """The cells the kernel formats for float64 array x, one per line."""
    rows = np.vstack([ops._float_cells(x), np.full((1, x.size), ord("\n"), np.uint8)])
    return rows.T.tobytes().translate(None, b"\0").decode()


def assert_cells_exact(x):
    x = np.asarray(x, dtype=np.float64)
    got = kernel_text(x).split("\n")[:-1]
    bad = [(v, g) for v, g in zip(x.tolist(), got) if g != "%.17g" % v]
    assert not bad, f"{len(bad)} cells differ from %.17g, e.g. {bad[:3]}"


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_float_kernel_matches_percent_g_on_every_float(values):
    assert_cells_exact(values)


def test_float_kernel_bit_pattern_sweep():
    # 1M seeded bit patterns: any mantissa and sign, with exponents spread
    # over the binades around the kernel's range [1e-4, 1e16) and beyond it.
    rng = np.random.default_rng(20260)
    n = 1_000_000
    exponent = rng.integers(1023 - 24, 1023 + 58, n, dtype=np.uint64)
    bits = ((rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
            | (exponent << np.uint64(52))
            | rng.integers(0, 2**52, n, dtype=np.uint64))
    x = bits.view(np.float64)
    assert kernel_text(x) == ("%.17g\n" * n) % tuple(x.tolist())


def test_float_kernel_powers_of_ten_and_their_neighbours():
    p10 = np.array([float(f"1e{k}") for k in range(-8, 19)])
    x = np.concatenate([p10, np.nextafter(p10, 0.0), np.nextafter(p10, np.inf),
                        np.nextafter(np.nextafter(p10, 0.0), 0.0),
                        np.nextafter(np.nextafter(p10, np.inf), np.inf)])
    assert_cells_exact(np.concatenate([x, -x]))


def exact_ties(rng, per_scale=200):
    """Odd multiples m 2**-k whose exact decimal value has 18 significant
    digits ending in 5, so that 17 digits fall exactly half way."""
    ties = [1.0 + 2.0**-17]
    # a integer digits and k = 18 - a fraction digits, or z leading zeros
    # after the point and k = 18 + z fraction digits
    scales = [(k, 10**(17 - k) * 2**k, 10**(18 - k) * 2**k) for k in range(2, 18)]
    scales += [(18 + z, -(-2**(18 + z) // 10**(z + 1)), 2**(18 + z) // 10**z)
               for z in range(8)]
    for k, lo, hi in scales:
        # m below 2**53, so that m 2**-k is a double
        m = rng.integers(lo // 2, min(hi, 2**53) // 2, per_scale) * 2 + 1
        ties += [math.ldexp(int(v), -k) for v in m]
    return np.array(ties)


def test_float_kernel_exact_ties_round_half_to_even():
    ties = exact_ties(np.random.default_rng(17))
    assert "%.17g" % (1.0 + 2.0**-17) == "1.0000076293945312"
    assert_cells_exact(np.concatenate([ties, -ties]))


def test_float_kernel_edge_values():
    tiny = np.finfo(np.float64).tiny
    x = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, tiny, 1e-6, 1e16,
         np.nextafter(1e-6, 0.0), np.nextafter(1e16, 0.0), 2.0**53, 2.0**53 + 2,
         9.999999999999999e15, 0.1, 0.2, 0.3, 1.0, 123.456, 1e-5, 1e-4,
         np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 9.99999999999999e-5,
         np.finfo(np.float64).max, 1.7976931348623157e308]
    assert_cells_exact(np.concatenate([x, np.negative(x)]))


# --- write_csv against Python's % ------------------------------------------

def percent_cells(x):
    """The cell pass's block for float64 array x, with each cell made by
    Python's %.17g instead of the kernel."""
    cells = np.array(["%.17g" % v for v in x.tolist()], dtype=f"S{ops._CELL}")
    return cells.view(np.uint8).reshape(-1, ops._CELL).T


def both_paths(monkeypatch, tmp_path, write):
    """The bytes of ``write(path)`` through the kernel, and with the kernel's
    cells made by Python's % instead."""
    calls = []
    path = tmp_path / "t.csv"
    write(path)
    kernel = path.read_bytes()
    with monkeypatch.context() as m:
        m.setattr(ops, "_float_cells", lambda x: calls.append(1) or percent_cells(x))
        write(path)
    assert calls, "the table did not reach the kernel"
    return path.read_bytes(), kernel


def template_text(header, columns):
    """The rows as the per-row %-template writes them, built independently."""
    lines = [",".join(header)] if header else []
    for row in zip(*columns):
        lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def test_evolution_csvs_same_bytes_on_both_paths(monkeypatch, tmp_path):
    p = lindblad.ModelParams(xi=0.3)
    res = lindblad.evolve(p, np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex), 3.0, 0.01)

    def formatted():
        # the columns as evolve formats them, once for both tables
        return replace(res, times=ops.FloatCells(res.times), observables={
            name: ops.FloatCells(values) for name, values in res.observables.items()})

    for save in (lindblad.save_evolution_csv, lindblad.save_bloch_csv):
        percent, kernel = both_paths(monkeypatch, tmp_path, lambda path: save(path, res))
        assert kernel == percent
        percent, kernel = both_paths(monkeypatch, tmp_path, lambda path: save(path, formatted()))
        assert kernel == percent


def test_sweep_csvs_same_bytes_on_both_paths(monkeypatch, tmp_path):
    rng = np.random.default_rng(8)
    n = 300
    xi, gamma = rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-2, 0, n)
    jxy = rng.choice([-1.0, 0.0, 1.0], n)
    sync_columns = [xi, gamma, jxy, rng.uniform(-np.pi, np.pi, n), rng.uniform(0, 1, n)]
    percent, kernel = both_paths(monkeypatch, tmp_path,
                                 lambda path: phaselock.save_metrics_csv(path, sync_columns))
    assert kernel == percent
    # the float columns of a table with a string or integer column reach the
    # kernel too, and its text cells sit between them
    header = ("xi", "gamma", "jxy", "mutual_info", "classical_mutual_info",
              "degree_of_quantumness", "flag")
    info = [xi, gamma, jxy, rng.uniform(0, 1, n), rng.uniform(0, 1e-3, n), rng.uniform(0, 1, n)]
    for flags in ([""] * n, rng.choice(["", "degenerate"], n).tolist()):
        percent, kernel = both_paths(monkeypatch, tmp_path,
                                     lambda path: ops.write_csv(path, header, info + [flags]))
        assert kernel == percent
        assert kernel.decode() == template_text(header, [c.tolist() for c in info] + [flags])
    seeds = [2**63 - 1, 0, 1, 2**62 + 12345] + rng.integers(0, 2**63 - 1, n - 4).tolist()
    ranks = rng.integers(2, 5, n).tolist()
    # the same draws as 7 values per row: the (n, 7) array is filled row by row
    discord_columns = [seeds, ranks, *rng.uniform(0, 1, (n, 7)).T.tolist()]
    percent, kernel = both_paths(monkeypatch, tmp_path,
                                 lambda path: qinfo.save_discord_csv(path, discord_columns))
    assert kernel == percent
    text = kernel.decode()
    assert text == template_text(text.split("\n")[0].split(","), discord_columns)
    assert text.splitlines()[1].startswith("9223372036854775807,")


def test_complex_matrix_same_bytes_on_both_paths(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 3.0, -2.5e-7])
    m.real[:2] = special.reshape(2, 4)
    m.imag[:2] = special[::-1].reshape(2, 4)
    m.imag[2] = [-0.0, np.nan, np.inf, -np.inf]
    path = tmp_path / "m.csv"
    ops.save_matrix_csv(path, m)
    text = path.read_text()
    assert text == "".join(",".join("%.17g%+.17gj" % (z.real, z.imag) for z in row) + "\n"
                           for row in m.tolist())
    assert "+nanj" in text and "-0j" in text and "-infj" in text


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("rows", ["one_row", "block", "two_blocks", "mixed"])
def test_write_csv_row_counts_at_the_path_and_block_edges(tmp_path, rows, offset):
    n = {"one_row": 1, "block": ops.BLOCK_ROWS, "two_blocks": 2 * ops.BLOCK_ROWS,
         "mixed": ops.BLOCK_ROWS}[rows] + offset
    rng = np.random.default_rng(n)
    columns = [(np.arange(n) * 0.01).tolist(), rng.standard_normal(n).tolist(),
               (1e-5 * rng.standard_normal(n)).tolist()]
    if rows == "mixed":
        columns[2:] = [rng.integers(-5, 5, n).tolist(), rng.choice(["", "x"], n).tolist()]
    header = ("t", "v", "w", "s")[:len(columns)]
    path = tmp_path / "t.csv"
    ops.write_csv(path, header, columns)
    assert path.read_text() == template_text(header, columns)


def test_write_csv_keeps_nul_inside_string_cells(tmp_path):
    # a NUL inside a cell, and text beyond ASCII, is written as UTF-8: only
    # the padding of the cell blocks is dropped (numpy's str dtype itself
    # drops a cell's trailing NULs)
    kinds = ["a\0b", "\0b", "\0\0c", "é", "ünïcode → ✓", "\0日本\0x", "", "😀\0!", "c"]
    n = 300
    labels = [kinds[i % len(kinds)] for i in range(n)]
    header, columns = ("x", "label", "k"), [np.linspace(0, 1, n), labels, np.arange(n)]
    path = tmp_path / "s.csv"
    ops.write_csv(path, header, columns)
    text = template_text(header, [columns[0].tolist(), labels, list(range(n))])
    assert path.read_bytes() == text.encode()
    assert text.count("a\0b") == len(range(0, n, len(kinds)))


def test_write_csv_zero_rows_writes_the_header_alone(tmp_path):
    columns = [np.zeros(0), np.zeros(0, int), np.zeros(0, complex), np.zeros(0, str),
               ops.FloatCells([])]
    path = tmp_path / "empty.csv"
    ops.write_csv(path, ("a", "b", "c", "d", "e"), columns)
    assert path.read_bytes() == b"a,b,c,d,e\n"
    ops.write_csv(path, None, columns)
    assert path.read_bytes() == b""


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError):
        ops.write_csv(tmp_path / "u.csv", ("a", "b"), [[1.0, 2.0], [1.0]])

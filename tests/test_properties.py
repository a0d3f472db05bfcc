"""Property tests of the engine over the model's parameter space."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qusync import lindblad as lb
from qusync import qinfo
from qusync.operators import ValidationError, basis_ket

# derandomized and without an example database: the same examples on every
# run, and nothing written into the checkout
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

coupling = st.floats(-5.0, 5.0)
params = st.builds(
    lb.ModelParams,
    delta=coupling, tau=coupling, j_xy=coupling,
    gamma=st.floats(1e-3, 5.0),
    xi=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
    channel=st.sampled_from(list(lb.Channel)),
)
# The slowest rate is 5e-10 (7e-11 of ||L||): the 1e-10 relative zero rule
# took it for a second fixed point and reported a state with residual 3e-10.
SLOW_DECAY = lb.ModelParams(delta=-1.0, tau=1e-3, j_xy=-3.75, gamma=2.0**-8, xi=-1.0,
                            channel=lb.Channel.LOWER)
# The SVD returned the null vector of |11><11| times i, which Hermitizing
# cancels unless its phase is turned first.
IMAGINARY_NULL_VECTOR = lb.ModelParams(delta=0.0, tau=1.9629333540090837e-171, j_xy=0.0,
                                       gamma=1.0, xi=0.0)
# The null vector's state has an eigenvalue of -3.4e-9: an engine check at
# 1e-8 passed it, and every measure refused it at 1e-10.
NEAR_UNIT_CORRELATION = lb.ModelParams(delta=-1.110186416034559, tau=0.011684542280711438,
                                       j_xy=-1.9514138955455498, gamma=0.3129519833644733,
                                       xi=0.9999999715105595)


def ket_density(label):
    k = basis_ket(label)
    return np.outer(k, k.conj())


def reported_state(p):
    """The engine's state for p: the steady state, or where it is degenerate
    the asymptotic state from |1 0>."""
    try:
        return lb.steady_state(p)
    except lb.DegenerateSteadyStateError:
        return lb.asymptotic_state(p, ket_density("10"))


def resolvable(liou):
    """Every singular value of L is round-off (below 1e-14 of max(||L||_2, 1))
    or a rate or frequency above 1e-5 of it.  Between the two, the null space
    moves by round-off over the gap, and the engine may refuse the state."""
    s = np.linalg.svd(liou, compute_uv=False)
    scale = max(s[0], 1.0)
    return not np.any((s > 1e-14 * scale) & (s < 1e-5 * scale))


@PROPERTY
@given(params)
def test_short_evolution_keeps_the_trace(p):
    res = lb.evolve(p, ket_density("10"), t_final=5.0, dt=0.05)
    assert np.abs(np.einsum("nii->n", res.states) - 1.0).max() <= 1e-12


@PROPERTY
@given(params)
@example(SLOW_DECAY)
@example(IMAGINARY_NULL_VECTOR)
def test_reported_long_time_state_is_a_fixed_point(p):
    liou = lb.build_liouvillian(p)
    try:
        rho = reported_state(p)
    except ValidationError:
        assert not resolvable(liou)
        return
    assert np.linalg.norm(liou @ lb.vectorize(rho)) <= 1e-12 * max(np.linalg.norm(liou, 2), 1.0)


@PROPERTY
@given(params)
@example(NEAR_UNIT_CORRELATION)
def test_every_measure_accepts_a_reported_state(p):
    # the engine refuses a state, or every measure accepts it: one verdict
    try:
        rho = reported_state(p)
    except ValidationError:
        return
    for measure in (qinfo.mutual_information, qinfo.classical_mutual_information,
                    qinfo.degree_of_quantumness, qinfo.discord_min):
        measure(rho)


@PROPERTY
@given(params)
@example(IMAGINARY_NULL_VECTOR)
def test_unique_fixed_point_is_every_start_s_limit(p):
    if not resolvable(lb.build_liouvillian(p)):
        return
    try:
        rho = lb.steady_state(p)
    except lb.DegenerateSteadyStateError:
        return
    for start in ("10", "00"):
        assert np.abs(lb.asymptotic_state(p, ket_density(start)) - rho).max() <= 1e-10

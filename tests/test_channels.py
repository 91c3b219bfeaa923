import inspect
import math

import numpy as np
import pytest

import qwchannel.channels as channels
import qwchannel.kraus as kraus
from qwchannel import reference
from qwchannel.channels import (
    RTNParams,
    apply_kraus,
    apply_superoperators,
    channel_outputs,
    closed_form_p,
    closed_form_q,
    coin_state,
    coin_state_from_angle,
    composite_map,
    concatenated_map,
    density_matrix,
    dephasers,
    hermitian_eigenvalues,
    is_density_matrix,
    n_step_map,
    repeated,
    rtn_kraus,
    rtn_lambda,
    superoperators,
)
from qwchannel.inputs import kets, real, states
from qwchannel.kraus import (
    KrausSet,
    commutator_corrections,
    extract_kraus_binomial,
    extract_kraus_direct,
    iter_kraus_batches,
    iter_kraus_steps,
    residual_of,
    superoperator_of,
)
from qwchannel.walk import Lattice, evolve, joint_state, position_distribution
from qwchannel.witnesses import (
    holevo,
    holevo_max_batch,
    mixedness,
    nonmonotonicity,
    purity,
    td_series,
    td_values,
    trace_distance,
    von_neumann_entropy,
)

RHO_UP = np.diag([1.0, 0.0]).astype(complex)
RHO_DOWN = np.diag([0.0, 1.0]).astype(complex)


def random_pure_state(rng):
    ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    ket /= np.linalg.norm(ket)
    return ket


def test_state_helpers():
    plus = coin_state(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert np.allclose(density_matrix(plus), np.full((2, 2), 0.5), atol=1e-15)
    with pytest.raises(ValueError):
        coin_state(1.0, 1.0)
    ket = coin_state_from_angle(math.pi / 2)
    assert np.allclose(ket, [math.cos(math.pi / 4), math.sin(math.pi / 4)])


def test_hermitian_eigenvalues_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = m + m.conj().T
        low, high = hermitian_eigenvalues(m)
        ref = np.linalg.eigvalsh(m)
        assert abs(low - ref[0]) <= 1e-12
        assert abs(high - ref[1]) <= 1e-12


def test_hermitian_eigenvalues_of_a_matrix_near_the_float_limit_stay_finite():
    assert hermitian_eigenvalues(np.diag([1e308, -1e308])) == (-1e308, 1e308)
    assert hermitian_eigenvalues(np.array([[1e308, 1e308], [1e308, -1e308]])) == (
        -1.4142135623730951e308, 1.4142135623730951e308)


def test_density_matrix_builds_one_state_per_ket_of_a_batch():
    rng = np.random.default_rng(41)
    kets = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
    expected = np.stack([np.outer(ket, ket.conj()) for ket in kets])
    assert density_matrix(kets).tobytes() == expected.tobytes()
    assert density_matrix(kets.reshape(5, 1, 2)).shape == (5, 1, 2, 2)
    # the rows of the identity are |0> and |1>: a pair of states, not one 4x4 matrix
    assert np.array_equal(density_matrix(np.eye(2)), np.stack([RHO_UP, RHO_DOWN]))
    assert density_matrix(np.zeros((0, 2))).shape == (0, 2, 2)


# the last axis of a ket holds its two amplitudes, nothing else: three
# amplitudes, a (2, 1) column, rows of three, a bare number
@pytest.mark.parametrize("ket", [[1.0, 0.0, 0.0], [[1.0], [0.0]], np.eye(3), 1.0])
def test_density_matrix_refuses_a_ket_that_is_not_two_amplitudes(ket):
    with pytest.raises(ValueError, match=r"^ket must be finite kets of two amplitudes"):
        density_matrix(ket)


# a ket must be normalized, as coin_state's amplitudes are: 4 |0><0| is no state
@pytest.mark.parametrize("ket", [[2.0, 0.0], [[1.0, 0.0], [0.6, 0.8], [1.0, 1.0]]])
def test_density_matrix_refuses_a_ket_that_is_not_normalized(ket):
    with pytest.raises(ValueError, match=r"^ket must be normalized kets"):
        density_matrix(ket)


def test_kets_refuse_a_batch_for_its_one_unnormalized_ket():
    batch = np.array([[1.0, 0.0], [0.6, 0.8j], [0.6, 0.8 + 1e-11], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^psi must be normalized kets"):
        kets("psi", batch)
    kept = np.delete(batch, 2, axis=0)
    assert kets("psi", kept).tobytes() == kept.tobytes()


def test_no_setting_loosens_an_input_rule():
    assert "tol" not in inspect.signature(states).parameters
    assert "tol" not in inspect.signature(is_density_matrix).parameters
    assert "t_max" not in inspect.signature(extract_kraus_binomial).parameters


# a batch of input states of any shape: each state meets every channel
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_channel_outputs_apply_every_channel_to_every_state_of_a_batch(batch):
    deltas = np.linspace(0.2, 2.9, math.prod(batch)).reshape(batch)
    rhos = density_matrix(np.stack([np.cos(deltas / 2), np.sin(deltas / 2)], axis=-1))
    thetas, steps = [0.3, 0.5], [1, 2, 3]
    outputs = channel_outputs(thetas, steps, rhos)
    assert outputs.shape == (2, 3) + batch + (2, 2)
    for b, s, *k in np.ndindex(outputs.shape[:-2]):
        expected = n_step_map(thetas[b], steps[s], rhos[tuple(k)])
        assert np.abs(outputs[(b, s, *k)] - expected).max() <= 1e-15


def test_density_matrix_validator():
    assert is_density_matrix(RHO_UP)
    assert is_density_matrix(np.eye(2, dtype=complex) / 2)
    assert not is_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    assert not is_density_matrix(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))


def test_one_step_channel_on_basis_input():
    for theta in (0.3, 1.2, 2.8):
        out = n_step_map(theta, 1, RHO_UP)
        c2 = math.cos(theta) ** 2
        assert np.allclose(out, np.diag([c2, 1 - c2]), atol=1e-14)


def test_half_pi_two_step_channel_is_identity():
    rng = np.random.default_rng(11)
    for _ in range(5):
        rho = density_matrix(random_pure_state(rng))
        out = n_step_map(math.pi / 2, 2, rho)
        assert np.abs(out - rho).max() <= 1e-14


def test_theta_zero_channel_dephases_plus_state():
    plus = density_matrix(coin_state(1 / math.sqrt(2), 1 / math.sqrt(2)))
    out = n_step_map(0.0, 1, plus)
    assert np.abs(out - np.eye(2) / 2).max() <= 1e-14


def test_apply_kraus_rejects_incomplete_sets():
    kset = extract_kraus_direct(0.8, 2)
    broken = [op * 0.9 for op in kset.operators()]
    with pytest.raises(ValueError, match="incomplete"):
        apply_kraus(broken, RHO_UP)


def test_apply_kraus_accepts_plain_operator_lists():
    kset = extract_kraus_direct(0.8, 3)
    rho = density_matrix(coin_state_from_angle(0.4))
    assert np.allclose(apply_kraus(kset.operators(), rho),
                       apply_kraus(kset, rho), atol=1e-15)


def test_channel_ignores_operator_order():
    kset = extract_kraus_direct(1.4, 4)
    rho = density_matrix(coin_state_from_angle(1.0))
    shuffled = list(reversed(kset.operators()))
    assert np.allclose(apply_kraus(shuffled, rho), apply_kraus(kset, rho),
                       atol=1e-15)


def test_n_step_map_matches_closed_forms():
    rng = np.random.default_rng(42)
    for _ in range(30):
        ket = random_pure_state(rng)
        a, b = ket
        rho = density_matrix(ket)
        theta = rng.uniform(0, 2 * math.pi)
        for t in (1, 2, 3):
            out = n_step_map(theta, t, rho)
            assert abs(out[0, 0].real - closed_form_p(theta, t, a, b)) <= 1e-12
            assert abs(out[0, 1] - closed_form_q(theta, t, a, b)) <= 1e-12
            assert abs(out[1, 1].real - (1 - closed_form_p(theta, t, a, b))) <= 1e-12


def test_closed_form_p_basis_input():
    for theta in np.linspace(0, math.pi, 17):
        assert abs(closed_form_p(theta, 1, 1.0, 0.0) - math.cos(theta) ** 2) <= 1e-14
        assert closed_form_q(theta, 1, 1.0, 0.0) == 0.0
    # worked spot value: p_2 at theta = pi/4 for the upper basis input
    assert abs(closed_form_p(math.pi / 4, 2, 1.0, 0.0) - 0.5) <= 1e-14


def test_closed_form_p_three_steps_matches_channel_entry():
    out = n_step_map(math.pi / 6, 3, RHO_UP)
    assert abs(out[0, 0].real - closed_form_p(math.pi / 6, 3, 1.0, 0.0)) <= 1e-12


def test_closed_form_probability_in_unit_interval():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a, b = random_pure_state(rng)
        theta = rng.uniform(0, 2 * math.pi)
        for t in (1, 2, 3):
            p = closed_form_p(theta, t, a, b)
            assert -1e-12 <= p <= 1 + 1e-12


def test_closed_form_step_range():
    with pytest.raises(ValueError):
        closed_form_p(0.5, 4, 1.0, 0.0)
    with pytest.raises(ValueError):
        closed_form_q(0.5, 0, 1.0, 0.0)


def test_n_step_map_equals_partial_trace_of_joint_walk():
    rng = np.random.default_rng(17)
    cases = [(1.1, 6, random_pure_state(rng))]
    cases += [(rng.uniform(0, 2 * math.pi), n, random_pure_state(rng))
              for n in range(1, 13)]
    for theta, n, ket in cases:
        lattice = Lattice.for_steps(n)
        psi = evolve(joint_state(lattice, ket), theta, n).reshape(2, lattice.size)
        traced = psi @ psi.conj().T
        assert np.abs(traced - n_step_map(theta, n, density_matrix(ket))).max() <= 1e-10


def test_concatenated_single_application_matches_n_step():
    rho = density_matrix(coin_state_from_angle(0.9))
    assert np.allclose(concatenated_map(0.7, 1, rho), n_step_map(0.7, 1, rho),
                       atol=1e-15)


def test_concatenated_map_keeps_diagonal_inputs_diagonal():
    rho = RHO_UP
    for n in range(1, 8):
        rho = concatenated_map(1.2, 1, rho)
        assert abs(rho[0, 1]) <= 1e-15


def test_concatenated_distance_decays_geometrically():
    theta = math.pi / 6
    top, bottom = RHO_UP, RHO_DOWN
    for n in range(1, 12):
        top = concatenated_map(theta, 1, top)
        bottom = concatenated_map(theta, 1, bottom)
        gap = top - bottom
        assert abs(gap[0, 0].real - math.cos(2 * theta) ** n) <= 1e-13


def test_rtn_params_validation():
    with pytest.raises(ValueError):
        RTNParams(a=-0.1, gamma=1.0)
    with pytest.raises(ValueError):
        RTNParams(a=0.1, gamma=0.0)
    with pytest.raises(ValueError):
        RTNParams(a=0.1, gamma=1.0, dt=0.0)
    assert RTNParams(a=2.0, gamma=1.0).is_nonmarkovian
    assert not RTNParams(a=0.4, gamma=1.0).is_nonmarkovian


def test_rtn_lambda_starts_at_unity_in_every_branch():
    for a in (0.0, 0.4, 0.5, 2.0):
        assert rtn_lambda(RTNParams(a=a, gamma=1.0), 0.0) == 1.0


def test_rtn_lambda_underdamped_spot_value():
    # a/gamma = 2, gamma t = 1
    root = math.sqrt(15.0)
    expected = math.exp(-1.0) * (math.cos(root) + math.sin(root) / root)
    assert abs(rtn_lambda(RTNParams(a=2.0, gamma=1.0), 1.0) - expected) <= 1e-15


def test_rtn_lambda_overdamped_monotone_positive():
    params = RTNParams(a=0.4, gamma=1.0)
    values = [rtn_lambda(params, t) for t in np.linspace(0.0, 10.0, 500)]
    assert all(v > 0 for v in values)
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_rtn_lambda_zero_amplitude_is_exactly_one():
    params = RTNParams(a=0.0, gamma=1.7)
    for t in (0.0, 0.5, 3.0, 42.0):
        assert rtn_lambda(params, t) == 1.0


def test_rtn_lambda_bounded_and_guarded():
    for ratio in (0.1, 0.5, 0.9, 2.0, 10.0):
        params = RTNParams(a=ratio, gamma=1.0)
        for t in np.linspace(0.0, 20.0, 801):
            assert abs(rtn_lambda(params, t)) <= 1.0
    with pytest.raises(ValueError):
        rtn_lambda(RTNParams(a=1.0, gamma=1.0), -0.1)


def test_rtn_lambda_of_integer_or_float32_times_is_computed_in_float64():
    params = RTNParams(a=2.0, gamma=1.0)
    times = np.arange(30)
    expected = [rtn_lambda(params, float(t)) for t in times]
    for dtype in (np.int64, np.float32):
        assert rtn_lambda(params, times.astype(dtype)).tolist() == expected


def test_rtn_kraus_limits():
    identity, zero = rtn_kraus(1.0)
    assert np.array_equal(identity, np.eye(2))
    assert np.abs(zero).max() == 0.0
    plus = density_matrix(coin_state(1 / math.sqrt(2), 1 / math.sqrt(2)))
    fully_dephased = apply_kraus(rtn_kraus(0.0), plus)
    assert np.abs(fully_dephased - np.eye(2) / 2).max() <= 1e-15
    half = apply_kraus(rtn_kraus(0.5), plus)
    assert abs(half[0, 1] - 0.25) <= 1e-15
    with pytest.raises(ValueError):
        rtn_kraus(1.0001)


def test_rtn_kraus_of_an_array_is_the_pair_of_each_value():
    lams = np.array([[-1.0, -0.3], [0.0, 1.0]])
    pairs = rtn_kraus(lams)
    assert pairs.shape == (2, 2, 2, 2, 2)
    for k in np.ndindex(lams.shape):
        assert pairs[k].tobytes() == rtn_kraus(float(lams[k])).tobytes()


def test_rtn_kraus_completeness_exact():
    for lam in (-1.0, -0.3, 0.0, 0.7, 1.0):
        ops = rtn_kraus(lam)
        total = sum(op.conj().T @ op for op in ops)
        assert np.abs(total - np.eye(2)).max() <= 1e-15


# the overdamped and oscillatory regimes, and the critical ratio a / gamma = 1/2
_REGIMES = [RTNParams(a=0.4, gamma=1.0), RTNParams(a=2.0, gamma=1.0, dt=0.7),
            RTNParams(a=0.55, gamma=1.1, dt=1.3)]


@pytest.mark.parametrize("params", _REGIMES, ids=["overdamped", "oscillatory", "critical"])
def test_dephasers_are_complete_exactly(params):
    superops = dephasers(params, range(1, 301))
    assert superops.shape == (300, 4, 4) and superops.dtype == np.complex128
    assert np.all(residual_of(superops) == 0.0)


@pytest.mark.parametrize("params", _REGIMES, ids=["overdamped", "oscillatory", "critical"])
def test_dephasers_are_the_maps_of_the_telegraph_pair(params):
    steps = range(1, 301)
    lam = rtn_lambda(params, np.array(steps) * params.dt)
    assert np.abs(dephasers(params, steps) - superoperator_of(rtn_kraus(lam))).max() <= 1e-15


def test_composite_with_zero_amplitude_equals_walk_channel():
    params = RTNParams(a=0.0, gamma=1.0)
    rho = density_matrix(coin_state_from_angle(0.8))
    for n in (1, 3, 6):
        assert np.allclose(composite_map(params, 0.9, n, rho),
                           n_step_map(0.9, n, rho), atol=1e-15)


def test_composite_scales_coherence_only():
    rng = np.random.default_rng(23)
    params = RTNParams(a=0.7, gamma=1.1, dt=0.8)
    for _ in range(5):
        rho = density_matrix(random_pure_state(rng))
        theta = rng.uniform(0, math.pi)
        n = int(rng.integers(1, 8))
        base = n_step_map(theta, n, rho)
        lam = rtn_lambda(params, n * params.dt)
        out = composite_map(params, theta, n, rho)
        assert abs(out[0, 1] - lam * base[0, 1]) <= 1e-14
        assert abs(out[0, 0] - base[0, 0]) <= 1e-14


def test_composite_one_step_basis_input_unchanged_by_noise():
    # the one-step output of a basis input has no coherence to dephase
    params = RTNParams(a=1.5, gamma=1.0)
    for theta in (0.4, 1.0, 2.2):
        assert np.allclose(composite_map(params, theta, 1, RHO_UP),
                           n_step_map(theta, 1, RHO_UP), atol=1e-15)


def test_randomized_channel_outputs_are_valid_states():
    rng = np.random.default_rng(1234)
    for trial in range(300):
        theta = rng.uniform(0, 2 * math.pi)
        n = int(rng.integers(1, 16))
        ket = random_pure_state(rng)
        rho = density_matrix(ket)
        if trial % 2:  # mix it with the flat state
            weight = rng.uniform(0, 1)
            rho = weight * rho + (1 - weight) * np.eye(2) / 2
        out = n_step_map(theta, n, rho)
        assert is_density_matrix(out)
        assert abs(np.trace(out).real - 1.0) <= 1e-12


def test_channel_linearity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho1 = density_matrix(random_pure_state(rng))
        rho2 = density_matrix(random_pure_state(rng))
        alpha = rng.uniform(0, 1)
        theta = rng.uniform(0, math.pi)
        n = int(rng.integers(1, 6))
        mixed = n_step_map(theta, n, alpha * rho1 + (1 - alpha) * rho2)
        split = (alpha * n_step_map(theta, n, rho1)
                 + (1 - alpha) * n_step_map(theta, n, rho2))
        assert np.abs(mixed - split).max() <= 1e-12


@pytest.mark.parametrize("field", ["a", "gamma", "dt"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_rtn_params_reject_non_finite_values(field, bad):
    values = {"a": 0.4, "gamma": 1.0, "dt": 1.0, field: bad}
    with pytest.raises(ValueError, match=field):
        RTNParams(**values)


_NAN = float("nan")
_KERNEL = "max(gamma, 2a) * n * dt of a, gamma, dt and steps"
_ELAPSED = "max(gamma, 2a) * elapsed of a, gamma and elapsed"
# trace preserving, but not completely positive: the transpose, S[(i, j), (j, i)] = 1,
# and a map that takes |+><+| to eigenvalues -1 and 2
_TRANSPOSE = np.eye(4)[[0, 2, 1, 3]]
_NOT_POSITIVE = np.eye(4) + np.array([[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]])
# scales rho01 by 1 + 0.5j but rho10 by 1: its Choi matrix is not Hermitian, although
# the eigenvalues of its lower triangle are all >= 0
_NOT_HERMITIAN = np.diag([1, 1 + 0.5j, 1, 1])


# each row's id is fixed, so adding or deleting a row renames no other; the
# "<lambda>-" ids are the ones pytest generated before the rows carried ids
@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: coin_state(_NAN, 0.0), "a", id="<lambda>-a0"),
    pytest.param(lambda: coin_state(1.0, complex(0.0, math.inf)), "b", id="<lambda>-b0"),
    pytest.param(lambda: coin_state("up", 0.0), "a", id="<lambda>-a1"),
    pytest.param(lambda: closed_form_p(0.3, 2, _NAN, 0.0), "a", id="<lambda>-a2"),
    pytest.param(lambda: closed_form_p(0.3, 1, 1.0, math.inf), "b", id="<lambda>-b1"),
    pytest.param(lambda: closed_form_q(0.3, 3, _NAN, 0.0), "a", id="<lambda>-a3"),
    pytest.param(lambda: closed_form_q(0.3, 2, 1.0, _NAN), "b", id="<lambda>-b2"),
    pytest.param(lambda: joint_state(Lattice(5), [_NAN, 1.0]), "coin_amplitudes",
                 id="<lambda>-coin_amplitudes"),
    pytest.param(lambda: Lattice(7.5), "size", id="<lambda>-size"),
    pytest.param(lambda: joint_state(Lattice(5), [1, 0], 0.5), "x", id="<lambda>-x0"),
    pytest.param(lambda: joint_state(Lattice(5), [1, 0], x=True), "x", id="<lambda>-x1"),
    pytest.param(lambda: commutator_corrections(np.eye(2), np.eye(2), -1), "t", id="<lambda>-t0"),
    pytest.param(lambda: commutator_corrections(np.eye(2), np.eye(2), 2.5), "t", id="<lambda>-t1"),
    pytest.param(lambda: evolve(np.array([_NAN] + [0.0] * 9), 0.3, 1), "psi0", id="<lambda>-psi0"),
    # the kernel's arguments overflow: gamma t, and the oscillation 2a t
    pytest.param(lambda: dephasers(RTNParams(a=0.4, gamma=1e200, dt=1e200), [1, 3]), _KERNEL,
                 id="<lambda>-max(gamma, 2a) * n * dt of a, gamma, dt and steps0"),
    pytest.param(lambda: dephasers(RTNParams(a=0.4, gamma=1.0, dt=1e308), [3]), _KERNEL,
                 id="<lambda>-max(gamma, 2a) * n * dt of a, gamma, dt and steps1"),
    pytest.param(lambda: composite_map(RTNParams(a=1e150, gamma=1.0, dt=1e160), 0.4, 3, RHO_UP),
                 _KERNEL, id="<lambda>-max(gamma, 2a) * n * dt of a, gamma, dt and steps2"),
    # the same two overflows at one elapsed time: cos(inf), and 0 * inf clamped to -1
    pytest.param(lambda: rtn_lambda(RTNParams(1e150, 1.0, 1.0), 1e160), _ELAPSED,
                 id="<lambda>-max(gamma, 2a) * elapsed of a, gamma and elapsed0"),
    pytest.param(lambda: rtn_lambda(RTNParams(0.4, 1e200), 1e200), _ELAPSED,
                 id="<lambda>-max(gamma, 2a) * elapsed of a, gamma and elapsed1"),
    # the measures turn no NaN or infinity into a plausible number
    pytest.param(lambda: von_neumann_entropy(np.full((2, 2), _NAN)), "rho", id="<lambda>-rho0"),
    pytest.param(lambda: von_neumann_entropy(np.diag([math.inf, 0.0])), "rho", id="<lambda>-rho1"),
    pytest.param(lambda: holevo([(0.5, RHO_UP), (0.5, RHO_DOWN)],
                                lambda rho: np.full((2, 2), _NAN)),
                 "channel output", id="<lambda>-channel output"),
    pytest.param(lambda: purity(np.full((2, 2), _NAN)), "rho", id="<lambda>-rho2"),
    pytest.param(lambda: mixedness(np.full((2, 2), _NAN)), "rho", id="<lambda>-rho3"),
    pytest.param(lambda: trace_distance(RHO_UP, np.full((2, 2), _NAN)), "sigma",
                 id="<lambda>-sigma"),
    # finite non-states whose difference, or its eigenvalues, overflow
    pytest.param(lambda: trace_distance(np.diag([1e308, 0.0]), np.diag([-1e308, 0.0])),
                 "rho - sigma", id="<lambda>-rho - sigma0"),
    pytest.param(lambda: trace_distance(np.diag([1e308, 0.0]), np.diag([0.0, 1e308])),
                 "rho - sigma", id="<lambda>-rho - sigma1"),
    pytest.param(lambda: nonmonotonicity([0.5, _NAN, 0.3]), "series", id="<lambda>-series"),
    pytest.param(lambda: position_distribution(np.full(10, _NAN)), "psi", id="<lambda>-psi"),
    # the channel layer applies nothing non-finite
    pytest.param(lambda: apply_superoperators(np.full((4, 4), _NAN), RHO_UP), "superops",
                 id="<lambda>-superops0"),
    pytest.param(lambda: apply_superoperators(np.eye(3), RHO_UP), "superops",
                 id="<lambda>-superops1"),
    pytest.param(lambda: apply_superoperators(np.eye(4), np.full((2, 2), _NAN)), "states",
                 id="<lambda>-states0"),
    pytest.param(lambda: repeated([0.3], [3], np.diag([_NAN, 1.0])), "states",
                 id="<lambda>-states1"),
    pytest.param(lambda: concatenated_map(0.3, 3, np.diag([_NAN, 1.0])), "rho",
                 id="<lambda>-rho4"),
    # a map must be completely positive as well as trace preserving
    pytest.param(lambda: apply_superoperators(_TRANSPOSE, RHO_UP), "superops",
                 id="<lambda>-superops2"),
    pytest.param(lambda: apply_superoperators(_NOT_POSITIVE, RHO_UP), "superops",
                 id="<lambda>-superops3"),
    pytest.param(lambda: apply_superoperators(_NOT_HERMITIAN, RHO_UP), "superops",
                 id="<lambda>-superops4"),
    # one such map refuses the whole batch it comes in
    pytest.param(lambda: apply_superoperators(
                     np.stack([np.eye(4), np.full((4, 4), _NAN)]), RHO_UP),
                 "superops", id="<lambda>-superops5"),
    pytest.param(lambda: apply_superoperators(np.stack([np.eye(4), _TRANSPOSE]), RHO_UP),
                 "superops", id="<lambda>-superops6"),
    pytest.param(lambda: apply_superoperators(np.stack([np.eye(4), _NOT_POSITIVE]), RHO_UP),
                 "superops", id="<lambda>-superops7"),
    pytest.param(lambda: apply_superoperators(np.stack([np.eye(4), _NOT_HERMITIAN]), RHO_UP),
                 "superops", id="<lambda>-superops8"),
    pytest.param(lambda: density_matrix([_NAN, 1.0]), "ket", id="<lambda>-ket"),
    pytest.param(lambda: hermitian_eigenvalues(np.full((2, 2), _NAN)), "matrix",
                 id="<lambda>-matrix"),
    # telegraph parameters serve only the composite series
    pytest.param(lambda: td_series(0.5, 5, mode="nstep", rtn=RTNParams(a=2.0, gamma=1.0)), "rtn",
                 id="<lambda>-rtn0"),
    pytest.param(lambda: td_values([0.5], [5], mode="concat", rtn=RTNParams(a=2.0, gamma=1.0)),
                 "rtn", id="<lambda>-rtn1"),
    # a step list is a list of counts: neither text nor a bare count
    pytest.param(lambda: superoperators([0.5], "12"), "steps", id="<lambda>-steps0"),
    pytest.param(lambda: iter_kraus_steps(0.5, "31"), "steps", id="<lambda>-steps1"),
    pytest.param(lambda: iter_kraus_steps(0.5, b"31"), "steps", id="<lambda>-steps2"),
    pytest.param(lambda: td_values([0.5], 5), "steps", id="<lambda>-steps3"),
    pytest.param(lambda: superoperators([0.5], 8), "steps", id="<lambda>-steps4"),
    pytest.param(lambda: superoperators([0.5], np.array(8)), "steps", id="<lambda>-steps5"),
    # every ket door takes normalized amplitudes only
    pytest.param(lambda: coin_state(2.0, 0.0), "(a, b)", id="coin_state-unnormalized"),
    pytest.param(lambda: closed_form_p(0.3, 1, 2, 0), "(a, b)", id="closed_form_p-unnormalized"),
    pytest.param(lambda: closed_form_q(0.3, 2, 2, 0), "(a, b)", id="closed_form_q-unnormalized"),
    pytest.param(lambda: joint_state(Lattice(5), [2, 0]), "coin_amplitudes",
                 id="joint_state-unnormalized"),
    # joint_state takes one ket: neither a column nor a batch of one
    pytest.param(lambda: joint_state(Lattice(5), [[1.0], [0.0]]), "coin_amplitudes",
                 id="joint_state-column"),
    pytest.param(lambda: joint_state(Lattice(5), [[1.0, 0.0]]), "coin_amplitudes",
                 id="joint_state-batch"),
    # a joint state is normalized: a doubled state, and the zero vector
    pytest.param(lambda: evolve(2 * joint_state(Lattice(7), [1, 0]), 0.3, 2), "psi0",
                 id="evolve-unnormalized"),
    pytest.param(lambda: evolve(np.zeros(14), 0.3, 2), "psi0", id="evolve-zero"),
    pytest.param(lambda: position_distribution(2 * joint_state(Lattice(7), [1, 0])), "psi",
                 id="position_distribution-unnormalized"),
    # a kernel value is a real number in [-1, 1]
    pytest.param(lambda: rtn_kraus(1.0001), "lambda_val", id="rtn_kraus-above-1"),
    pytest.param(lambda: rtn_kraus(np.array([0.5, _NAN])), "lambda_val", id="rtn_kraus-nan"),
    pytest.param(lambda: rtn_kraus(True), "lambda_val", id="rtn_kraus-bool"),
    # a numpy bool is no number, as a Python bool is none
    pytest.param(lambda: extract_kraus_direct(0.3, np.True_), "t",
                 id="extract_kraus_direct-numpy-bool"),
    pytest.param(lambda: td_series(0.5, np.True_), "n_max", id="td_series-numpy-bool"),
    pytest.param(lambda: RTNParams(a=np.True_, gamma=1.0), "a", id="RTNParams-numpy-bool"),
    pytest.param(lambda: coin_state_from_angle(np.False_), "delta",
                 id="coin_state_from_angle-numpy-bool"),
    # nor is a bool held in a 0-d array, of dtype bool or object
    pytest.param(lambda: extract_kraus_direct(0.3, np.array(True)), "t",
                 id="extract_kraus_direct-0d-bool-array"),
    pytest.param(lambda: td_series(0.3, np.array(True)), "n_max", id="td_series-0d-bool-array"),
    pytest.param(lambda: RTNParams(a=np.array(True), gamma=1.0), "a",
                 id="RTNParams-0d-bool-array"),
    pytest.param(lambda: KrausSet(theta=np.array(False), t=1, entries=np.zeros((2, 2, 2))),
                 "theta", id="KrausSet-0d-bool-array"),
    pytest.param(lambda: real("x", np.array(False, dtype=object)), "x",
                 id="real-0d-object-bool-array"),
    # batch axes that do not broadcast are refused naming both arguments
    pytest.param(lambda: trace_distance(np.zeros((2, 2, 2)), np.zeros((3, 2, 2))),
                 "rho and sigma", id="trace_distance-batches"),
    pytest.param(lambda: holevo_max_batch(np.stack([RHO_UP] * 2), np.stack([RHO_DOWN] * 3)),
                 "out1 and out2", id="holevo_max_batch-batches"),
    pytest.param(lambda: apply_superoperators(np.stack([np.eye(4)] * 2),
                                              np.stack([RHO_UP] * 3)),
                 "superops and states", id="apply_superoperators-batches"),
])
def test_library_arguments_are_refused_by_name(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(f"{name} must be")


@pytest.mark.parametrize("elapsed, message", [
    (np.array([0.0, -1.0, 2.0]), "elapsed must be >= 0"),
    (np.array([0.0, _NAN, 2.0]), "elapsed must be finite"),
    (np.array([0.0, 1.0, 1e200]), f"{_ELAPSED} must be finite"),
    (np.array([]), "elapsed must be a time or a non-empty array of times"),
])
def test_an_array_of_times_is_checked_by_its_smallest_and_largest(elapsed, message):
    with pytest.raises(ValueError) as info:
        rtn_lambda(RTNParams(0.4, 1e200), elapsed)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("call, message", [
    (lambda: KrausSet(theta=0.3, t=1, entries=np.zeros((2, 2, 2)), kind="x"),
     "unknown kraus set kind 'x'"),
    (lambda: evolve(np.zeros(5), 0.3, 1), "joint state length must be 2L, got 5"),
    (lambda: reference.standard_walk_operators(0.3, 5),
     "standard-walk table covers t in 1..4, got 5"),
    (lambda: reference.split_step_operators(0.3, 4),
     "split-step table covers n in 1..3, got 4"),
])
def test_malformed_structures_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_completely_positive_maps_pass_the_positivity_gate():
    # full amplitude damping to |0> and the unitary sigma_z (Choi matrices of rank
    # two and one), and walk channels: each is applied unchanged
    damping = superoperator_of([[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    unitary = superoperator_of([np.diag([1, -1])])
    walks = superoperators([0.3, math.pi / 4, 2.0], [1, 7, 40])
    for superops in (damping, unitary, walks):
        assert np.array_equal(apply_superoperators(superops, RHO_UP),
                              channels._apply(superops, RHO_UP))


def test_an_empty_batch_of_superoperators_is_applied_to_nothing():
    assert apply_superoperators(np.zeros((0, 4, 4)), RHO_UP).shape == (0, 2, 2)
    assert repeated([], [1, 3], RHO_UP).shape == (0, 2, 2, 2)


def test_superoperators_are_checked_for_completeness_once_per_call(monkeypatch):
    leaky = 0.9 * np.eye(4)
    with pytest.raises(ValueError, match="incomplete"):
        apply_superoperators(leaky, RHO_UP)
    superop = superoperators([0.4], [1])[0, 0]
    expected = concatenated_map(0.4, 30, RHO_UP)
    gate, gated = channels._complete, []
    monkeypatch.setattr(channels, "_complete",
                        lambda superops: gated.append(superops) or gate(superops))
    # the one-step channel passes the gate once, where superoperators builds it
    assert np.array_equal(repeated([0.4], [2, 5, 30], RHO_UP)[0, -1], expected)
    assert len(gated) == 1
    apply_superoperators(superop, RHO_UP)
    assert len(gated) == 2


def test_the_concat_series_gates_its_one_step_channels_once(monkeypatch):
    gate, gated = channels._complete, []
    monkeypatch.setattr(channels, "_complete",
                        lambda superops: gated.append(superops.shape) or gate(superops))

    def eigvalsh(matrices):
        raise AssertionError("the library's own channels need no Choi eigenvalues")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert td_values([0.3, 1.1], range(1, 31), mode="concat").shape == (2, 30)
    assert gated == [(2, 1, 4, 4)]


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_repeated_images_are_the_one_step_channel_applied_n_times(shape):
    rng = np.random.default_rng(17)
    kets = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
    states = density_matrix(kets / np.linalg.norm(kets, axis=-1, keepdims=True))
    thetas, steps = [0.3, math.pi / 4, 2.0], [1, 4, 9]
    images = repeated(thetas, steps, states)
    assert images.shape == (len(thetas), len(steps)) + states.shape
    one_step = superoperators(thetas, [1])
    for b in range(len(thetas)):
        image = states
        for n in range(1, steps[-1] + 1):
            image = apply_superoperators(one_step[b, 0], image)
            if n in steps:
                assert image.tobytes() == images[b, steps.index(n)].tobytes()


def test_superoperators_refuse_one_incomplete_set_that_is_not_first(monkeypatch):
    walk_sets = kraus._walk_sets

    def leaky_sets(angles, wanted):
        # the t = 5 set of angle 1 with its operator at label index 2 scaled
        for t, rows in walk_sets(angles, wanted):
            if t == 5:
                rows = rows.copy()
                rows[1, :, 2] *= 1 + 1e-3
            yield t, rows

    thetas, steps = [0.2, 0.9, 1.4], [1, 3, 5, 8]
    clean = superoperators(thetas, steps)
    gate, gated = channels._complete, []
    monkeypatch.setattr(channels, "_complete",
                        lambda superops: gated.append(superops.shape) or gate(superops))
    assert np.array_equal(superoperators(thetas, steps), clean)
    # one gate per call, over the whole (angle, step) array
    assert gated == [(3, 4, 4, 4)]
    (_, _, scaled), = iter_kraus_batches([thetas[1]], [5])
    scaled[0, 2] *= 1 + 1e-3
    monkeypatch.setattr(kraus, "_walk_sets", leaky_sets)
    with pytest.raises(ValueError, match="kraus set incomplete: residual") as info:
        superoperators(thetas, steps)
    worst = float(residual_of(superoperator_of(scaled[0])))
    assert worst > 1e-4
    assert str(info.value) == f"kraus set incomplete: residual {worst:.3e}"

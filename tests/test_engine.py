"""The streaming extraction engine and the cached channel values of a set."""

import math
import tracemalloc
import types

import numpy as np
import pytest

import qwchannel.kraus as kraus
from qwchannel.channels import (
    apply_kraus,
    density_matrix,
    superoperators,
)
from qwchannel.kraus import (
    KrausSet,
    extract_kraus_binomial,
    extract_kraus_direct,
    iter_kraus_batches,
    iter_kraus_steps,
    minor_map,
    superoperator_of,
)
from qwchannel.walk import Lattice, coin_projections, evolve, joint_state

THETAS = (0.5047, math.pi / 6, 1.3, math.pi / 2, 2.9)


def random_ket(rng):
    ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    return ket / np.linalg.norm(ket)


def test_every_streamed_set_matches_the_position_traced_walk():
    rng = np.random.default_rng(17)
    for theta in THETAS:
        kets = [random_ket(rng) for _ in range(2)]
        seen = 0
        for kset in iter_kraus_steps(theta, range(1, 41)):
            t = kset.t
            lattice = Lattice.for_steps(t)
            origin = lattice.origin_index
            # column s of the operator at label mu: what input e_s left on x = -mu
            outs = [evolve(joint_state(lattice, np.eye(2)[s]), theta, t)
                    .reshape(2, lattice.size) for s in (0, 1)]
            for mu, matrix in kset.entries:
                expected = np.stack([out[:, origin - mu] for out in outs], axis=1)
                assert np.array_equal(matrix, expected)
            for ket in kets:
                psi = evolve(joint_state(lattice, ket), theta, t).reshape(2, lattice.size)
                traced = psi @ psi.conj().T
                out = apply_kraus(kset, density_matrix(ket))
                assert np.abs(out - traced).max() <= 1e-13
            seen += 1
        assert seen == 40


def test_yields_exactly_the_requested_steps_in_ascending_order():
    stream = iter_kraus_steps(0.7, [9, 2, 5, 2])
    assert isinstance(stream, types.GeneratorType)
    sets = list(stream)
    assert [k.t for k in sets] == [2, 5, 9]
    assert all(k.theta == sets[0].theta for k in sets)
    assert [k.t for k in iter_kraus_steps(0.7, range(1, 4))] == [1, 2, 3]


@pytest.mark.parametrize("steps", [[], (), [0], [3, -1], [2, 0, 5]])
def test_rejects_empty_or_nonpositive_step_lists_when_called(steps):
    with pytest.raises(ValueError):
        iter_kraus_steps(0.7, steps)


def test_rejects_non_finite_angle():
    with pytest.raises(ValueError):
        iter_kraus_steps(float("nan"), [1])


def test_channel_values_are_computed_on_first_use_only():
    kset = extract_kraus_direct(0.6, 5)
    assert "superoperator" not in vars(kset)
    rho = density_matrix(random_ket(np.random.default_rng(4)))
    first = apply_kraus(kset, rho)
    superop = vars(kset)["superoperator"]
    assert kset.completeness_residual() <= 1e-14
    assert np.array_equal(apply_kraus(kset, rho), first)
    assert vars(kset)["superoperator"] is superop
    # the channel is the one value a set caches
    assert set(vars(kset)) <= {"theta", "t", "entries", "kind", "_operators", "superoperator"}


def test_a_set_refuses_writes_and_keeps_its_channel():
    kset = extract_kraus_direct(0.5, 3)
    rho = density_matrix(random_ket(np.random.default_rng(6)))
    first = apply_kraus(kset, rho)
    for array in (kset.entries[0][1], kset.operators()[1], kset.operator(1),
                  kset.superoperator):
        with pytest.raises(ValueError, match="read-only"):
            array[:] = 0
    assert np.array_equal(apply_kraus(kset, rho), first)
    assert kset.completeness_residual() <= 1e-14


def test_a_set_neither_freezes_nor_follows_the_arrays_it_is_given():
    given = [np.eye(2, dtype=complex) / math.sqrt(2) for _ in range(2)]
    kset = KrausSet(theta=0.0, t=1, entries=tuple(zip([-1, 1], given)))
    assert all(matrix.flags.writeable for matrix in given)
    given[0][:] = 0
    assert np.array_equal(kset.operator(-1), np.eye(2) / math.sqrt(2))
    assert kset.completeness_residual() <= 1e-15


def test_superoperator_matches_operator_sum():
    rng = np.random.default_rng(8)
    kset = extract_kraus_direct(1.1, 7)
    for _ in range(5):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        expected = sum(k @ m @ k.conj().T for k in kset.operators())
        assert np.abs(apply_kraus(kset, m) - expected).max() <= 1e-14


def test_cached_check_still_rejects_scaled_operators():
    kset = extract_kraus_direct(0.9, 4)
    rho = np.diag([1.0, 0.0]).astype(complex)
    apply_kraus(kset, rho)
    scaled = KrausSet(theta=kset.theta, t=kset.t,
                      entries=tuple((mu, 1.1 * m) for mu, m in kset.entries))
    for _ in range(2):  # the second call goes through the cached superoperator
        with pytest.raises(ValueError, match="incomplete"):
            apply_kraus(scaled, rho)
    assert scaled.completeness_residual() > 0.2


def test_plain_operator_lists_are_checked_every_call():
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError, match="incomplete"):
        apply_kraus([np.eye(2) * 0.9], rho)
    with pytest.raises(ValueError, match="incomplete"):
        apply_kraus([], rho)
    with pytest.raises(ValueError, match="2x2"):
        apply_kraus([np.eye(3)], rho)


def traced_operators(theta, t):
    """The set as columns gathered from the position-traced walk of e_0, e_1."""
    lattice = Lattice.for_steps(t)
    origin = lattice.origin_index
    outs = [evolve(joint_state(lattice, np.eye(2)[s]), theta, t).reshape(2, lattice.size)
            for s in (0, 1)]
    labels = np.arange(-t, t + 1, 2)
    return np.stack([out[:, origin - labels] for out in outs], axis=-1).transpose(1, 0, 2)


def momentum_oracle(theta, t):
    """``sum_j K_{-t+2j} w^j = (C_down + w C_up)^t``, solved on the t+1 roots of unity."""
    up, down = coin_projections(theta)
    coefficients = np.zeros((t + 1, 2, 2), dtype=np.complex128)
    coefficients[0], coefficients[1] = down, up
    samples = np.fft.ifft(coefficients, axis=0, norm="forward")
    return np.fft.fft(np.linalg.matrix_power(samples, t), axis=0, norm="forward")


def longdouble_walk(theta, t):
    """Every label of the t-step set in long double, from the float64 coin's entries.

    ``K_mu(n + 1) = C_up K_{mu-1}(n) + C_down K_{mu+1}(n)`` over all the
    labels ``-n, -n + 2, .., n``, with no mirror and no tiles.  The coin
    entries are the engine's, so their rounding is shared, and what is left
    is the engine's own error.
    """
    up, down = (block.astype(np.clongdouble) for block in coin_projections(theta))
    operators = np.eye(2, dtype=np.clongdouble)[None]
    for n in range(t):
        walked = np.zeros((n + 2, 2, 2), dtype=np.clongdouble)
        walked[1:] += up @ operators
        walked[:-1] += down @ operators
        operators = walked
    return operators


def longdouble_channel(operators):
    """``sum_mu K_mu (x) conj(K_mu)`` as a row-major 4x4, summed by einsum."""
    return np.einsum("mij,mkl->ikjl", operators, operators.conj()).reshape(4, 4)


def walk_errors(theta, t):
    """Largest entry error of the walked set, label by label, and of its channel."""
    truth = longdouble_walk(theta, t)
    walked = np.array(extract_kraus_direct(theta, t).operators())
    channel = superoperators([theta], [t])[0, 0]
    return (float(np.abs(walked - truth).max()),
            float(np.abs(channel - longdouble_channel(truth)).max()))


# the walk's error law: at most one float64 eps per step, for the set and its
# channel alike.  Measured 1.1e-15 and 4.9e-15 at t = 601 over the eight angles
# 0, 0.5047, pi/6, 1.3, pi/2, 2.9, 4.4 and 5.9, 0.8 % and 3.6 % of the bound
WALK_ERROR_PER_STEP = np.finfo(np.float64).eps

def assert_real_frame_and_mirror(theta, t):
    """Every walked operator's zero parts are exact zeros, as the real frame of
    the coin makes them: imaginary on the diagonal, real off it, each +0.0 so
    that no dump prints ``-0.0``; and ``K_{-mu}``, walked on its own, is within
    ``eps * (t + 1)`` of ``minor_map(K_mu)``."""
    (_, _, operators), = iter_kraus_batches([theta], [t])
    operators = operators[0]
    for zeros in (operators[:, [0, 1], [0, 1]].imag, operators[:, [0, 1], [1, 0]].real):
        assert not zeros.any()
        assert not np.signbit(zeros).any()
    mirror = np.abs(operators[::-1] - minor_map(operators)).max()
    assert mirror <= WALK_ERROR_PER_STEP * (t + 1)


@pytest.mark.parametrize("theta", [0.5047, 1.3, 2.9])
def test_a_long_walk_has_exact_zero_parts_and_its_mirror(theta):
    assert_real_frame_and_mirror(theta, 2000)


needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is no wider than float64")


@needs_long_double
@pytest.mark.parametrize("t", [600, 601])
@pytest.mark.parametrize("theta", [0.5047, 2.9])
def test_a_long_walk_keeps_the_error_law(theta, t):
    assert max(walk_errors(theta, t)) <= WALK_ERROR_PER_STEP * (t + 1)


@pytest.mark.parametrize("t", [100, 1000])
@pytest.mark.parametrize("theta", [0.5047, 2.9, math.pi / 2])
def test_long_walk_equals_the_position_traced_walk(theta, t):
    kset = extract_kraus_direct(theta, t)
    assert kset.labels() == list(range(-t, t + 1, 2))
    assert np.array_equal(np.array(kset.operators()), traced_operators(theta, t))


@pytest.mark.parametrize("theta", [0.5047, 1.3, math.pi / 2, 4.4])
def test_sparse_streamed_sets_equal_single_extractions(theta):
    sets = list(iter_kraus_steps(theta, [5, 17, 60, 301]))
    assert [k.t for k in sets] == [5, 17, 60, 301]
    for kset in sets:
        single = extract_kraus_direct(theta, kset.t)
        assert kset.labels() == single.labels()
        assert np.array_equal(np.array(kset.operators()), np.array(single.operators()))


@pytest.mark.parametrize("t", [50, 500, 2000])
@pytest.mark.parametrize("theta", [0.0, 0.5047, 1.3, 2.9])
def test_walk_agrees_with_the_momentum_space_oracle(theta, t):
    walked = np.array(extract_kraus_direct(theta, t).operators())
    assert np.abs(walked - momentum_oracle(theta, t)).max() <= 1e-15 * (t + 1)


BATCH_THETAS = (0.0, 0.5047, math.pi / 2, 2.9, 4.4)


def assert_batches_equal_single_extractions(thetas, steps):
    seen = set()
    for angles, t, operators in iter_kraus_batches(thetas, steps):
        assert operators.shape == (len(thetas[angles]), t + 1, 2, 2)
        for theta, ops in zip(thetas[angles], operators):
            assert np.array_equal(ops, np.array(extract_kraus_direct(theta, t).operators()))
            seen.add((theta, t))
    assert seen == {(theta, t) for theta in thetas for t in steps}


def test_every_batched_set_equals_its_single_extraction():
    assert_batches_equal_single_extractions(BATCH_THETAS, range(1, 26))


def test_chunked_batches_hold_at_most_one_longest_walk(monkeypatch):
    monkeypatch.setattr(kraus, "MAX_COUNT", 60)
    steps = [3, 11, 25]
    sizes = [ops.shape[0] for _, _, ops in iter_kraus_batches(BATCH_THETAS, steps)]
    # (60 + 1) // (25 + 1) = 2 angles a chunk: chunks of 2, 2 and 1, three counts each
    assert sizes == [2, 2, 2, 2, 2, 2, 1, 1, 1]
    assert all(size * (steps[-1] + 1) <= kraus.MAX_COUNT + 1 for size in sizes)
    assert_batches_equal_single_extractions(BATCH_THETAS, steps)
    # a walk longer than the budget still runs, one angle at a time
    assert [len(ops) for _, _, ops in iter_kraus_batches((0.3, 0.4), [70])] == [1, 1]


def test_the_first_steps_equal_the_position_trace_and_the_expanded_operator():
    # t = 2 is the first set with a label walked from two others, label 0
    for theta in BATCH_THETAS:
        for t in (1, 2, 3):
            walked = np.array(extract_kraus_direct(theta, t).operators())
            assert np.array_equal(walked, traced_operators(theta, t))
            expanded = np.array(extract_kraus_binomial(theta, t).operators())
            assert np.abs(walked - expanded).max() <= 1e-14


@pytest.mark.parametrize("theta", [0.5047, 2.9])
def test_streamed_sets_of_both_parities_are_contiguous_and_equal_the_position_trace(theta):
    steps = [1, 2, 5, 17, 60, 301]
    sets = list(iter_kraus_batches([theta], steps))
    assert [t for _, t, _ in sets] == steps
    for _, t, operators in sets:
        assert operators.flags.c_contiguous
        assert np.array_equal(operators[0], traced_operators(theta, t))


def test_chunked_batches_equal_the_position_trace(monkeypatch):
    monkeypatch.setattr(kraus, "MAX_COUNT", 40)
    steps = [2, 7, 12]
    seen = []
    for angles, t, operators in iter_kraus_batches(BATCH_THETAS, steps):
        assert operators.flags.c_contiguous
        for theta, ops in zip(BATCH_THETAS[angles], operators):
            assert np.array_equal(ops, traced_operators(theta, t))
        seen.append(len(operators))
    # (40 + 1) // (12 + 1) = 3 angles a chunk: chunks of 3 and 2, three counts each
    assert seen == [3, 3, 3, 2, 2, 2]


def test_batched_superoperators_equal_the_cached_set_values():
    steps = [1, 4, 9]
    superops = superoperators(BATCH_THETAS, steps)
    assert superops.shape == (len(BATCH_THETAS), len(steps), 4, 4)
    for b, theta in enumerate(BATCH_THETAS):
        for k, t in enumerate(steps):
            expected = extract_kraus_direct(theta, t).superoperator
            assert np.array_equal(superops[b, k], expected)


@pytest.mark.parametrize("thetas, steps", [((0.5047,), range(1, 301)), ((1.3, 2.9), [4000])])
def test_sweep_channels_equal_the_gram_product_of_the_walked_sets(thetas, steps):
    # the float64 Gram product of the walk's buffer against the complex one of
    # the same sets: the two sum the same products, each in its own order
    superops = superoperators(thetas, steps)
    for angles, t, operators in iter_kraus_batches(thetas, steps):
        gap = np.abs(superops[angles, steps.index(t)] - superoperator_of(operators)).max()
        assert gap <= 4e-16 * (t + 2)


def test_no_sweep_channel_entry_is_negative_zero():
    # theta = 0 leaves whole parts of the channels zero
    parts = superoperators(np.linspace(0, 3.14159, 64), range(1, 21)).view(np.float64)
    assert not np.signbit(parts[parts == 0]).any()


def test_sweep_channels_hold_little_more_than_the_result():
    # the walk's buffers and one set's Gram product at a time, beside the result
    tracemalloc.start()
    try:
        superops = superoperators(np.linspace(0, 1, 200), range(1, 501))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * superops.nbytes


def test_batched_check_rejects_one_scaled_set_in_a_batch():
    operators = np.stack([np.array(extract_kraus_direct(theta, 4).operators())
                          for theta in BATCH_THETAS])
    # a (B, m, 2, 2) array is a batch of sets, applied through one gate
    assert apply_kraus(operators, np.eye(2) / 2).shape == (len(BATCH_THETAS), 2, 2)
    operators[3] *= 1.1
    with pytest.raises(ValueError, match="incomplete"):
        apply_kraus(operators, np.eye(2) / 2)


@pytest.mark.parametrize("steps", [[], [0], [3, -1]])
def test_batched_walk_rejects_bad_step_lists_when_called(steps):
    with pytest.raises(ValueError):
        iter_kraus_batches(BATCH_THETAS, steps)
    with pytest.raises(ValueError):
        iter_kraus_batches([0.4, float("nan")], [2])

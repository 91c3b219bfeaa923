"""The streaming extraction engine and the cached channel values of a set."""

import math
import types

import numpy as np
import pytest

from qwchannel.channels import apply_kraus, density_matrix
from qwchannel.kraus import KrausSet, extract_kraus_direct, iter_kraus_steps
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
    assert "_residual" not in vars(kset)
    rho = density_matrix(random_ket(np.random.default_rng(4)))
    first = apply_kraus(kset, rho)
    superop = vars(kset)["superoperator"]
    assert kset.completeness_residual() <= 1e-14
    assert np.array_equal(apply_kraus(kset, rho), first)
    assert vars(kset)["superoperator"] is superop


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
    for _ in range(2):  # the second call goes through the cached residual
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

import math

import numpy as np
import pytest

from qwchannel.channels import (
    RTNParams,
    apply_kraus,
    channel_outputs,
    coin_state,
    density_matrix,
    hermitian_eigenvalues,
    n_step_map,
)
from qwchannel.kraus import extract_kraus_direct
from test_engine import needs_long_double
from qwchannel.witnesses import (
    TDSeries,
    holevo,
    holevo_max,
    holevo_max_batch,
    mixedness,
    nonmonotonicity,
    purity,
    td_series,
    trace_distance,
    von_neumann_entropy,
)

RHO_UP = np.diag([1.0, 0.0]).astype(complex)
RHO_DOWN = np.diag([0.0, 1.0]).astype(complex)
FLAT = np.eye(2, dtype=complex) / 2


def example_ensemble_pair():
    """Binary mixture pair used by the Holevo sweep."""
    rho1 = 0.25 * RHO_UP + 0.75 * RHO_DOWN
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    return rho1, density_matrix(plus) / 6 + 5 * density_matrix(minus) / 6


def random_state(rng):
    ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    return density_matrix(ket / np.linalg.norm(ket))


def test_trace_distance_basics():
    assert trace_distance(RHO_UP, RHO_UP) == 0.0
    assert abs(trace_distance(RHO_UP, RHO_DOWN) - 1.0) <= 1e-15
    rng = np.random.default_rng(1)
    for _ in range(10):
        rho, sigma = random_state(rng), random_state(rng)
        d = trace_distance(rho, sigma)
        assert abs(d - trace_distance(sigma, rho)) <= 1e-15
        assert -1e-15 <= d <= 1 + 1e-15


def test_one_step_distance_is_abs_cos_two_theta():
    for theta in np.linspace(0, math.pi, 33):
        kset = extract_kraus_direct(theta, 1)
        d = trace_distance(apply_kraus(kset, RHO_UP), apply_kraus(kset, RHO_DOWN))
        assert abs(d - abs(math.cos(2 * theta))) <= 1e-12


def test_td_series_concat_decay_law():
    for theta in (math.pi / 6, 0.9):
        series = td_series(theta, 30, mode="concat")
        decay = abs(math.cos(2 * theta))
        for n, d in zip(series.steps, series.values):
            assert abs(d - decay ** n) <= 1e-12


def test_td_series_nstep_revives_at_pi_six():
    series = td_series(math.pi / 6, 20, mode="nstep")
    diffs = np.diff(series.values)
    assert (diffs > 1e-6).any()
    assert nonmonotonicity(series) > 0.0


def test_td_series_half_pi_even_steps_fully_distinguishable():
    series = td_series(math.pi / 2, 10, mode="nstep")
    for n, d in zip(series.steps, series.values):
        if n % 2 == 0:
            assert abs(d - 1.0) <= 1e-14


def test_td_series_composite_mode():
    params = RTNParams(a=0.4, gamma=1.0)
    series = td_series(math.pi / 6, 12, mode="composite", rtn=params)
    bare = td_series(math.pi / 6, 12, mode="nstep")
    assert all(c <= b + 1e-12 for c, b in zip(series.values, bare.values))
    with pytest.raises(ValueError):
        td_series(math.pi / 6, 5, mode="composite")
    with pytest.raises(ValueError):
        td_series(math.pi / 6, 5, mode="nonsense")
    with pytest.raises(ValueError):
        td_series(math.pi / 6, 0)


def test_nonmonotonicity_definition():
    assert nonmonotonicity([1.0, 0.8, 0.5, 0.2]) == 0.0
    assert abs(nonmonotonicity([0.5, 0.7, 0.6, 0.9]) - 0.5) <= 1e-15
    assert nonmonotonicity(td_series(1.0, 15, mode="concat")) == 0.0
    with pytest.raises(ValueError):
        nonmonotonicity([])


def test_tdseries_validation():
    with pytest.raises(ValueError):
        TDSeries(theta=0.1, mode="nstep", steps=(1, 2), values=(0.5,))
    with pytest.raises(ValueError):
        TDSeries(theta=0.1, mode="nstep", steps=(1,), values=(1.5,))


def test_purity_and_mixedness():
    assert abs(purity(RHO_UP) - 1.0) <= 1e-15
    assert mixedness(RHO_UP) <= 1e-15
    assert abs(purity(FLAT) - 0.5) <= 1e-15
    assert abs(mixedness(FLAT) - 1.0) <= 1e-15
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = 0.7 * random_state(rng) + 0.3 * FLAT
        assert abs(mixedness(rho) - 2 * (1 - purity(rho))) <= 1e-14


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_purity_is_the_trace_of_the_square_of_any_matrix(shape):
    rng = np.random.default_rng(29)
    for _ in range(50):
        m = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
        expected = np.trace(m @ m, axis1=-2, axis2=-1).real
        # each sum of products rounds relative to the squared Frobenius norm
        scale = (np.abs(m) ** 2).sum(axis=(-2, -1))
        assert np.all(np.abs(purity(m) - expected) <= 4 * np.finfo(float).eps * scale)
    assert type(purity(m[(0,) * len(shape)])) is float


def test_fully_dephasing_channel_halves_purity_of_plus():
    plus = density_matrix(coin_state(1 / math.sqrt(2), 1 / math.sqrt(2)))
    assert abs(purity(n_step_map(0.0, 1, plus)) - 0.5) <= 1e-14


def test_entropy_reference_values():
    assert von_neumann_entropy(RHO_UP) == 0.0
    assert abs(von_neumann_entropy(FLAT) - 1.0) <= 1e-15
    expected = 2.0 - 0.75 * math.log2(3.0)
    assert abs(von_neumann_entropy(np.diag([0.25, 0.75])) - expected) <= 1e-14


def test_entropy_concavity_spot_check():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho, sigma = random_state(rng), random_state(rng)
        mixed = von_neumann_entropy(0.5 * rho + 0.5 * sigma)
        split = 0.5 * von_neumann_entropy(rho) + 0.5 * von_neumann_entropy(sigma)
        assert mixed >= split - 1e-12


def test_holevo_single_member_ensemble_is_zero():
    chi = holevo([(1.0, RHO_UP)], lambda rho: n_step_map(0.9, 2, rho))
    assert abs(chi) <= 1e-14


def test_holevo_orthogonal_pair_through_identity():
    chi = holevo([(0.5, RHO_UP), (0.5, RHO_DOWN)], lambda rho: rho)
    assert abs(chi - 1.0) <= 1e-14


def test_holevo_matches_independent_entropy_computation():
    # recompute through numpy's solver and the entropy definition directly
    rho1, rho2 = example_ensemble_pair()
    kset = extract_kraus_direct(math.pi / 6, 2)
    channel = lambda rho: apply_kraus(kset, rho)

    def entropy_oracle(rho):
        eigenvalues = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
        return float(-sum(v * np.log2(v) for v in eigenvalues if v > 0))

    weights = (0.35, 0.65)
    expected = entropy_oracle(weights[0] * channel(rho1) + weights[1] * channel(rho2))
    expected -= weights[0] * entropy_oracle(channel(rho1))
    expected -= weights[1] * entropy_oracle(channel(rho2))
    chi = holevo([(weights[0], rho1), (weights[1], rho2)], channel)
    assert abs(chi - expected) <= 1e-12


def entropy_loop(rho):
    """The entropy summed eigenvalue by eigenvalue, in a loop."""
    entropy = 0.0
    for ev in hermitian_eigenvalues(rho):
        ev = np.clip(ev, 0.0, 1.0)
        positive = ev > 0.0
        entropy = entropy - np.where(positive, ev * np.log2(np.where(positive, ev, 1.0)), 0.0)
    return entropy


def holevo_loop(ensemble, channel):
    """The Holevo quantity summed state by state, in a loop."""
    average, conditional = np.zeros((2, 2), dtype=complex), 0.0
    for weight, rho in ensemble:
        out = channel(rho)
        average += weight * out
        conditional += weight * entropy_loop(out)
    return entropy_loop(average) - conditional


@pytest.mark.parametrize("size", [1, 2, 3, 9, 20, 33])
def test_the_measures_equal_their_loops_to_the_bit(size):
    # the same terms added in the same order: one state after another, where a
    # 1-d np.sum of nine or more terms would pair them
    rng = np.random.default_rng(size)
    channel = lambda rho: n_step_map(0.7, 5, rho)
    for _ in range(10):
        states = [rng.uniform() * random_state(rng) + rng.uniform() * FLAT
                  for _ in range(size)]
        states = np.array([state / np.trace(state).real for state in states])
        weights = rng.uniform(size=size)
        ensemble = list(zip(weights / weights.sum(), states))
        assert holevo(ensemble, channel) == holevo_loop(ensemble, channel)
        assert np.array_equal(von_neumann_entropy(states), entropy_loop(states))


def test_holevo_invariant_under_relabeling():
    rho1, rho2 = example_ensemble_pair()
    channel = lambda rho: n_step_map(1.1, 3, rho)
    forward = holevo([(0.3, rho1), (0.7, rho2)], channel)
    backward = holevo([(0.7, rho2), (0.3, rho1)], channel)
    assert abs(forward - backward) <= 1e-14


def test_holevo_reads_a_generator_ensemble_once():
    rho1, rho2 = example_ensemble_pair()
    pairs = [(0.3, rho1), (0.7, rho2)]
    channel = lambda rho: n_step_map(1.1, 3, rho)
    assert holevo((pair for pair in pairs), channel) == holevo(pairs, channel)


def test_holevo_ensemble_validation():
    with pytest.raises(ValueError):
        holevo([(0.5, RHO_UP), (0.6, RHO_DOWN)], lambda rho: rho)
    with pytest.raises(ValueError):
        holevo([(-0.1, RHO_UP), (1.1, RHO_DOWN)], lambda rho: rho)


def test_holevo_max_identity_orthogonal_pair():
    chi, p_star = holevo_max(RHO_UP, RHO_DOWN, lambda rho: rho)
    assert abs(chi - 1.0) <= 1e-9
    assert abs(p_star - 0.5) <= 1e-5


def test_holevo_max_equal_states_is_zero():
    rho = 0.4 * RHO_UP + 0.6 * RHO_DOWN
    chi, _ = holevo_max(rho, rho, lambda r: n_step_map(0.8, 2, r))
    assert abs(chi) <= 1e-12


def test_holevo_max_stays_in_unit_interval():
    rng = np.random.default_rng(6)
    rho1, rho2 = example_ensemble_pair()
    for _ in range(6):
        theta = rng.uniform(0, math.pi)
        n = int(rng.integers(1, 6))
        chi, p_star = holevo_max(rho1, rho2, lambda rho: n_step_map(theta, n, rho))
        assert -1e-12 <= chi <= 1 + 1e-12
        assert 0.0 <= p_star <= 1.0


def test_trace_distance_contracts_under_fixed_maps():
    rng = np.random.default_rng(9)
    for _ in range(15):
        rho, sigma = random_state(rng), random_state(rng)
        before = trace_distance(rho, sigma)
        theta = rng.uniform(0, 2 * math.pi)
        n = int(rng.integers(1, 8))
        after = trace_distance(n_step_map(theta, n, rho), n_step_map(theta, n, sigma))
        assert after <= before + 1e-12


PLUS, MINUS = density_matrix(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
MIXED = 0.4 * RHO_UP + 0.6 * RHO_DOWN


@pytest.mark.parametrize("out1, out2, chi, p1, tol", [
    # r1 = r2: chi is 0 at every weight, and the search keeps p1 = 0
    (MIXED, MIXED, 0.0, 0.0, 0.0),
    (FLAT, FLAT, 0.0, 0.0, 0.0),
    # |r| = 1 at every weight, where atanh(|r|) * 0 would be NaN
    (PLUS, PLUS, 0.0, 0.0, 0.0),
    (RHO_UP, RHO_UP, 0.0, 0.0, 0.0),
    (RHO_UP, RHO_DOWN, 1.0, 0.5, 1e-15),
    (PLUS, MINUS, 1.0, 0.5, 1e-15),
    # the mix is maximally mixed (|r| = 0) at p1 = 1/2: chi = 1 - h(3/4)
    (np.diag([0.75, 0.25]), np.diag([0.25, 0.75]), 0.75 * math.log2(3.0) - 1.0, 0.5, 1e-15),
], ids=["equal mixed", "equal maximally mixed", "equal pure plus", "equal pure up",
        "orthogonal up down", "orthogonal plus minus", "through the maximally mixed"])
def test_holevo_max_finds_the_exact_maximum_of_each_edge_case(out1, out2, chi, p1, tol):
    found_chi, found_p1 = holevo_max_batch(out1, out2)
    assert abs(found_chi - chi) <= tol
    assert abs(found_p1 - p1) <= tol


def longdouble_holevo_max(out1: np.ndarray, out2: np.ndarray):
    """``(chi_max, p1_star)`` of each output pair, chi' bisected in ``np.longdouble``.

    Works on the Bloch vectors: ``chi(p) = h(|r|) - p h(|r1|) - (1 - p) h(|r2|)``
    with ``r = p r1 + (1 - p) r2`` and h the entropy of ``(1 +- |r|) / 2``.
    The outputs must be mixed states whose mixes never reach ``r = 0``.
    """
    def bloch(m):
        re, im = m.real.astype(np.longdouble), m.imag.astype(np.longdouble)
        return np.stack([2 * re[..., 0, 1], -2 * im[..., 0, 1], re[..., 0, 0] - re[..., 1, 1]])

    def entropy(r):
        length = np.sqrt((r * r).sum(axis=0))
        plus, minus = (1 + length) / 2, (1 - length) / 2
        return -(plus * np.log2(plus) + minus * np.log2(minus)), length

    r1, r2 = bloch(out1), bloch(out2)
    s1, s2 = entropy(r1)[0], entropy(r2)[0]
    lo, hi = np.zeros(r1.shape[1:], np.longdouble), np.ones(r1.shape[1:], np.longdouble)
    for _ in range(80):
        mid = (lo + hi) / 2
        r = mid * r1 + (1 - mid) * r2
        length = entropy(r)[1]
        slope = (-np.arctanh(length) / length * (r * (r1 - r2)).sum(axis=0)
                 / np.log(np.longdouble(2)) - s1 + s2)
        lo, hi = np.where(slope > 0, mid, lo), np.where(slope > 0, hi, mid)
    return entropy(lo * r1 + (1 - lo) * r2)[0] - lo * s1 - (1 - lo) * s2, lo


@needs_long_double
def test_holevo_max_is_the_long_double_root_of_its_derivative():
    # the default sweep's ensemble; a search to 1e-6 in p1 misses by ~1e-7
    outputs = channel_outputs([0.4, 0.8, 1.3, 2.9], range(1, 9),
                              np.array(example_ensemble_pair()))
    out1, out2 = outputs[..., 0, :, :], outputs[..., 1, :, :]
    chi, p_star = holevo_max_batch(out1, out2)
    chi_ld, p_ld = longdouble_holevo_max(out1, out2)
    assert np.abs(p_star - p_ld).max() <= 1e-10
    assert np.abs(chi - chi_ld).max() <= 1e-15


@pytest.mark.parametrize("mode, rtn", [("nstep", None), ("concat", None),
                                       ("composite", RTNParams(0.4, 1.0, 1.0))])
def test_an_n_step_series_checks_its_step_list_once(monkeypatch, mode, rtn):
    import qwchannel.inputs as inputs
    calls = []
    count = inputs.count

    def counted(name, value, *bounds):
        calls.append(name)
        return count(name, value, *bounds)

    # step_list checks each step with inputs.count: one call a step, once in all
    monkeypatch.setattr(inputs, "count", counted)
    series = td_series(0.5, 300, mode=mode, rtn=rtn)
    assert len(series.values) == 300
    assert calls == ["steps"] * 300

"""Property-based checks of the engine, channels and witnesses over their whole ranges."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from test_cli import _cell_value  # noqa: E402
from test_engine import (  # noqa: E402
    WALK_ERROR_PER_STEP,
    momentum_oracle,
    needs_long_double,
    traced_operators,
    walk_errors,
)

from qwchannel.channels import (  # noqa: E402
    RTNParams,
    apply_kraus,
    composite_map,
    concatenated_map,
    n_step_map,
    rtn_lambda,
    superoperators,
)
from qwchannel.cli import _emit, main  # noqa: E402
from qwchannel.kraus import (  # noqa: E402
    KrausSet,
    extract_kraus_direct,
    extract_kraus_split_step,
    iter_kraus_batches,
    superoperator_of,
)
from qwchannel.verification import generating_function_gap  # noqa: E402
from qwchannel.witnesses import (  # noqa: E402
    holevo_max,
    holevo_max_batch,
    td_series,
    trace_distance,
)


@given(theta=st.floats(0.0, 2 * math.pi, exclude_max=True),
       t=st.integers(1, 60))
def test_engine_equals_the_position_traced_walk_and_is_complete(theta, t):
    kset = extract_kraus_direct(theta, t)
    assert np.array_equal(np.array(kset.operators()), traced_operators(theta, t))
    assert kset.completeness_residual() <= 2e-15 * (t + 1)
    assert (np.abs(np.array(kset.operators()) - momentum_oracle(theta, t)).max()
            <= 1e-15 * (t + 1))


finite_angles = st.floats(0.0, 2 * math.pi, exclude_max=True)


@needs_long_double
@given(theta=finite_angles, t=st.integers(1, 60))
def test_every_walk_keeps_the_error_law(theta, t):
    assert max(walk_errors(theta, t)) <= WALK_ERROR_PER_STEP * (t + 1)


# 8 seeded points exp(2 pi i k / 2^20) of the unit circle
CIRCLE_POINTS = np.random.default_rng(8).integers(0, 1 << 20, 8)


# few examples, and the longest walks of both parities named: a walk to
# t = 10^4 takes about 0.4 s
@settings(max_examples=10)
@example(theta=2.9, t=10_000)
@example(theta=0.5047, t=9_999)
@given(theta=finite_angles, t=st.integers(1, 10_000))
def test_every_set_meets_its_generating_function(theta, t):
    _, _, operators = next(iter_kraus_batches([theta], [t]))
    gap = generating_function_gap([theta], t, operators, CIRCLE_POINTS)
    assert gap.max() <= 1e-15 * (t + 1)


def bloch_state(vector):
    """A density matrix from a point of the closed Bloch ball."""
    x, y, z = vector
    scale = max(1.0, math.sqrt(x * x + y * y + z * z))
    x, y, z = x / scale, y / scale, z / scale
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


bloch_points = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(bloch_state)


@given(theta=finite_angles, n=st.integers(1, 40))
def test_concatenated_decay_is_the_power_of_cos_two_theta(theta, n):
    series = td_series(theta, n, mode="concat")
    decay = abs(math.cos(2 * theta))
    assert np.abs(np.array(series.values) - decay ** np.arange(1, n + 1)).max() <= 1e-12


@given(a=st.floats(0.0, 50.0), gamma=st.floats(1e-3, 50.0), dt=st.floats(1e-3, 10.0),
       n=st.integers(0, 500))
def test_telegraph_kernel_is_finite_and_bounded(a, gamma, dt, n):
    params = RTNParams(a=a, gamma=gamma, dt=dt)
    value = rtn_lambda(params, n * dt)
    assert math.isfinite(value)
    assert -1.0 <= value <= 1.0
    if n == 0:
        assert value == 1.0
    # an array of times gives each time's value, to the bit
    values = rtn_lambda(params, np.arange(n + 1) * dt)
    assert values.tolist() == [rtn_lambda(params, k * dt) for k in range(n + 1)]


@given(theta=finite_angles, t=st.integers(1, 30), rho=bloch_points, sigma=bloch_points)
def test_trace_distance_contracts_under_a_walk_channel(theta, t, rho, sigma):
    kset = extract_kraus_direct(theta, t)
    before = trace_distance(rho, sigma)
    after = trace_distance(apply_kraus(kset, rho), apply_kraus(kset, sigma))
    assert after <= before + 1e-14


@given(pairs=st.lists(st.tuples(bloch_points, bloch_points), min_size=1, max_size=6),
       grid_size=st.integers(3, 40))
def test_batched_holevo_max_equals_the_scalar_search(pairs, grid_size):
    out1 = np.array([rho1 for rho1, _ in pairs])
    out2 = np.array([rho2 for _, rho2 in pairs])
    chi, p_star = holevo_max_batch(out1, out2, grid_size)
    for k, (rho1, rho2) in enumerate(pairs):
        expected = holevo_max(rho1, rho2, lambda rho: rho, grid_size)
        assert (chi[k], p_star[k]) == pytest.approx(expected, abs=1e-14)


@given(thetas=st.lists(finite_angles, min_size=1, max_size=4),
       steps=st.lists(st.integers(1, 40), min_size=1, max_size=4))
def test_every_superoperator_has_a_positive_choi_matrix_of_trace_two(thetas, steps):
    superops = superoperators(thetas, steps)
    # S[(i, k), (j, l)] = Phi(|j><l|)[i, k]; Choi[(j, i), (l, k)] is the same entry
    choi = superops.reshape(superops.shape[:2] + (2,) * 4).transpose(0, 1, 4, 2, 5, 3)
    choi = choi.reshape(superops.shape)
    assert np.abs(choi - choi.conj().swapaxes(-1, -2)).max() <= 1e-12
    assert np.abs(np.trace(choi, axis1=-2, axis2=-1) - 2.0).max() <= 1e-12
    assert np.linalg.eigvalsh(choi).min() >= -1e-12


_UP, _DOWN = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
rtn_params = st.builds(RTNParams, a=st.floats(0.0, 5.0), gamma=st.floats(1e-2, 5.0),
                       dt=st.floats(1e-2, 3.0))


@given(theta=finite_angles, n=st.integers(1, 40), rtn=rtn_params)
def test_the_scalar_maps_and_the_batched_series_are_one_definition(theta, n, rtn):
    for mode, channel in (("nstep", lambda rho: n_step_map(theta, n, rho)),
                          ("concat", lambda rho: concatenated_map(theta, n, rho)),
                          ("composite", lambda rho: composite_map(rtn, theta, n, rho))):
        series = td_series(theta, n, mode=mode, rtn=rtn if mode == "composite" else None)
        assert trace_distance(channel(_UP), channel(_DOWN)) == series.values[-1]


# the pinned angles leave signed zeros in their sets
dump_angles = st.one_of(finite_angles, st.sampled_from([0.0, math.pi / 2, 2.9, 4.4]))


@given(theta=dump_angles, t=st.integers(1, 60), split=st.booleans())
def test_the_kraus_dumps_are_the_per_value_texts_and_round_trip_every_bit(theta, t, split):
    kset = extract_kraus_split_step(theta, t) if split else extract_kraus_direct(theta, t)
    text = kset.to_json(indent=2)
    assert text == json.dumps(kset.to_dict(), indent=2)
    clone = KrausSet.from_json(text)
    assert (clone.kind, clone.theta, clone.t, clone.labels()) == (
        kset.kind, kset.theta, kset.t, kset.labels())
    assert clone.pair_array().tobytes() == kset.pair_array().tobytes()

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["kraus", "--theta", repr(theta), "--t", str(t), "--format", "csv",
                     *(["--split"] if split else [])])
    assert code == 0
    lines = ["mu,row,col,re,im"] + [
        f"{mu},{r},{c},{float(m[r, c].real)!r},{float(m[r, c].imag)!r}"
        for mu, m in kset.entries for r in range(2) for c in range(2)]
    assert out.getvalue() == "\n".join(lines) + "\n"


@given(theta=dump_angles, t=st.integers(1, 60))
def test_the_completeness_gate_reads_sum_k_dag_k_and_refuses_a_scaled_operator(theta, t):
    kset = extract_kraus_direct(theta, t)
    ops = np.array(kset.operators())
    gram = np.einsum("mji,mjk->ik", ops.conj(), ops)
    assert abs(kset.completeness_residual() - np.abs(gram - np.eye(2)).max()) <= 2e-16 * (t + 1)

    ops[np.argmax(np.linalg.norm(ops, axis=(1, 2)))] *= 1 + 1e-3
    scaled = KrausSet(theta=kset.theta, t=t, entries=tuple(zip(kset.labels(), ops)))
    with pytest.raises(ValueError, match="kraus set incomplete"):
        apply_kraus(scaled, np.eye(2) / 2)
    with pytest.raises(ValueError, match="kraus set incomplete"):
        apply_kraus(np.stack((np.array(kset.operators()), ops)), np.eye(2) / 2)


def complete_sets(seed, shape, m):
    """Sets of m operators, each cut from a random 2m x 2 isometry, so sum K^dag K = I."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=shape + (2 * m, 2)) + 1j * rng.normal(size=shape + (2 * m, 2))
    return np.linalg.qr(z)[0].reshape(shape + (m, 2, 2))


@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (3,), (2, 3)]),
       m=st.integers(1, 300))
def test_the_gram_superoperator_is_the_sum_of_kronecker_products(seed, shape, m):
    ops = complete_sets(seed, shape, m)
    # kron(K, conj K)[(i, k), (j, l)] = K[i, j] conj(K[k, l]), one per operator, then summed
    krons = ops[..., :, None, :, None] * ops.conj()[..., None, :, None, :]
    expected = krons.reshape(shape + (m, 4, 4)).sum(axis=-3)
    superop = superoperator_of(ops)
    assert superop.shape == shape + (4, 4)
    assert np.abs(superop - expected).max() <= 4e-16 * (m + 1)


@given(thetas=st.lists(finite_angles, min_size=1, max_size=3),
       t=st.integers(1, 200))
def test_the_gram_superoperator_of_walked_sets_is_the_sum_of_kronecker_products(thetas, t):
    (_, _, ops), = iter_kraus_batches(thetas, [t])
    krons = ops[..., :, None, :, None] * ops.conj()[..., None, :, None, :]
    expected = krons.reshape(ops.shape[:2] + (4, 4)).sum(axis=1)
    assert np.abs(superoperator_of(ops) - expected).max() <= 4e-16 * (t + 2)
    assert np.abs(superoperator_of(ops[0]) - expected[0]).max() <= 4e-16 * (t + 2)


# each grid sweep's key columns, in the order its rows run over them
SWEEP_KEYS = {
    "probability": ("theta", "delta", "step"),
    "purity": ("theta", "delta", "step"),
    "holevo": ("theta", "step"),
    "trace-distance": ("theta", "mode", "step"),
}
grid_specs = st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0), st.integers(1, 4))


@pytest.mark.parametrize("command, keys", SWEEP_KEYS.items())
@given(theta_grid=grid_specs, delta_grid=grid_specs,
       steps=st.lists(st.integers(1, 5), min_size=1, max_size=3), from_config=st.booleans())
def test_sweep_rows_run_in_c_order_over_the_sorted_grid_points(
        tmp_path_factory, command, keys, theta_grid, delta_grid, steps, from_config):
    grids = {"theta_grid": theta_grid}
    if "delta" in keys:
        grids["delta_grid"] = delta_grid
    # a trailing comma makes even one step count a list, not a count N
    argv = [command, "--steps", ",".join(map(str, steps)) + ",",
            *(["--grid-size", "3"] if command == "holevo" else [])]
    if from_config:
        path = tmp_path_factory.mktemp("grids") / "run.json"
        path.write_text(json.dumps({key: list(spec) for key, spec in grids.items()}))
        argv += ["--config", str(path)]
    else:
        argv += [f"--{key.replace('_', '-')}={start!r}:{stop!r}:{n}"
                 for key, (start, stop, n) in grids.items()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    header, *lines = out.getvalue().rstrip("\n").split("\n")
    cells = dict(zip(header.split(","), zip(*(line.split(",") for line in lines))))
    columns = [[_cell_value(text) for text in cells[key]] for key in keys]
    axes = {"theta": sorted(np.linspace(*theta_grid).tolist()),
            "delta": sorted(np.linspace(*delta_grid).tolist()),
            "mode": ["concat", "nstep"],
            "step": ([0] if command == "trace-distance" else []) + sorted(set(steps))}
    expected = np.meshgrid(*(axes[key] for key in keys), indexing="ij")
    assert columns == [grid.reshape(-1).tolist() for grid in expected]
    # a point a grid repeats repeats its whole block; otherwise the keys only grow
    if all(len(set(axes[key])) == len(axes[key]) for key in keys):
        rows = list(zip(*columns))
        assert all(a < b for a, b in zip(rows, rows[1:]))


# key axes of every kind the handlers emit, non-finite and signed-zero cells frequent
special_floats = st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf])
key_axes = st.one_of(
    st.lists(st.floats() | special_floats, min_size=1, max_size=24),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=24),
    st.lists(st.text(max_size=4), min_size=1, max_size=24),
)


def _emitted(header, columns, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(header, columns, {"format": fmt, "out": None})
    return out.getvalue()


# 37 x 29 x 3 = 3219 rows: three full blocks of 1024 and a partial one
@example(axes=[np.linspace(-1.0, 1.0, 32).tolist() + [-0.0, math.nan, math.inf, -math.inf, 0.0],
               list(range(-14, 15)), ["concat", "nstep", ""]], seed=0, reverse=False)
@given(axes=st.lists(key_axes, min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1),
       reverse=st.booleans())
def test_open_grid_keys_emit_the_bytes_of_their_materialized_grids(axes, seed, reverse):
    shape = tuple(map(len, axes))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    values.flat[rng.integers(0, values.size, 4)] = rng.choice([-0.0, math.nan, math.inf,
                                                                -math.inf], 4)
    header = [f"k{i}" for i in range(len(axes))] + ["v"]
    open_grid = [*np.meshgrid(*axes, indexing="ij", sparse=True), values]
    dense = [*np.meshgrid(*axes, indexing="ij"), values]
    if reverse:  # key columns need not come in the order of their axes
        header, open_grid, dense = header[::-1], open_grid[::-1], dense[::-1]
    for fmt in ("csv", "json"):
        assert _emitted(header, open_grid, fmt) == _emitted(header, dense, fmt)

import contextlib
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qwchannel.verification as verification
from qwchannel.channels import (
    RTNParams,
    apply_kraus,
    channel_outputs,
    closed_form_q,
    coin_state_from_angle,
    composite_map,
    density_matrix,
    n_step_map,
    repeated,
    superoperators,
)
from qwchannel.cli import (
    _OPTIONS,
    COMMANDS,
    _emit,
    _flags,
    _shown,
    main,
)
from qwchannel.inputs import Steps, step_list
from qwchannel.kraus import (
    KrausSet,
    extract_kraus_direct,
    extract_kraus_split_step,
    iter_kraus_batches,
    iter_kraus_steps,
)
from qwchannel.walk import build_shifts, coin_projections, evolve
from qwchannel.witnesses import (
    holevo_max,
    mixedness,
    purity,
    td_series,
    td_values,
    trace_distance,
)

PI = math.pi


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_kraus_json_theta_zero(capsys):
    code, out = run_cli(capsys, "kraus", "--theta", "0", "--t", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == 1
    assert [e["mu"] for e in payload["entries"]] == [-1, 1]
    matrices = {e["mu"]: e["matrix"] for e in payload["entries"]}
    assert matrices[1] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    assert matrices[-1] == [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def test_kraus_json_three_steps(capsys):
    code, out = run_cli(capsys, "kraus", "--theta", "0.5236", "--t", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 4
    clone = KrausSet.from_json(out)
    assert clone.completeness_residual() <= 1e-10
    expected = extract_kraus_direct(0.5236, 3)
    for mu in expected.labels():
        assert np.array_equal(clone.operator(mu), expected.operator(mu))


def test_kraus_half_pi_four_steps_only_center_survives(capsys):
    code, out = run_cli(capsys, "kraus", "--theta", "1.5707963267948966",
                        "--t", "4")
    assert code == 0
    clone = KrausSet.from_json(out)
    for mu in clone.labels():
        magnitude = np.abs(clone.operator(mu)).max()
        if mu == 0:
            assert abs(magnitude - 1.0) <= 1e-12
        else:
            assert magnitude <= 1e-14


def test_kraus_csv_format(capsys):
    code, out = run_cli(capsys, "kraus", "--theta", "0.4", "--t", "2",
                        "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert set(rows[0]) == {"mu", "row", "col", "re", "im"}
    assert len(rows) == 3 * 4


def test_kraus_split_flag(capsys):
    code, out = run_cli(capsys, "kraus", "--theta", "0.7", "--t", "2", "--split")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "split_step"
    assert [e["mu"] for e in payload["entries"]] == [-2, -1, 0, 1, 2]


def test_probability_half_pi_parity(capsys):
    code, out = run_cli(capsys, "probability", "--theta", str(PI / 2),
                        "--delta", "0", "--steps", "4")
    assert code == 0
    rows = parse_csv(out)
    by_step = {int(r["step"]): float(r["p_up"]) for r in rows}
    assert by_step[2] == 1.0
    assert by_step[4] == 1.0
    assert by_step[1] <= 1e-30
    assert by_step[3] <= 1e-30


def test_probability_identity_coin_keeps_upper_state(capsys):
    code, out = run_cli(capsys, "probability", "--theta", "0",
                        "--delta", "0", "--steps", "5")
    assert code == 0
    assert all(float(r["p_up"]) == 1.0 for r in parse_csv(out))


def test_probability_matches_closed_form(capsys):
    from qwchannel.channels import closed_form_p
    code, out = run_cli(capsys, "probability", "--theta", str(PI / 6),
                        "--delta", "0", "--steps", "3")
    assert code == 0
    rows = {int(r["step"]): float(r["p_up"]) for r in parse_csv(out)}
    assert abs(rows[3] - closed_form_p(PI / 6, 3, 1.0, 0.0)) <= 1e-12


def test_trace_distance_modes(capsys):
    code, out = run_cli(capsys, "trace-distance", "--theta", str(PI / 6),
                        "--steps", "8", "--mode", "both")
    assert code == 0
    rows = parse_csv(out)
    concat = {int(r["step"]): float(r["d"]) for r in rows if r["mode"] == "concat"}
    nstep = {int(r["step"]): float(r["d"]) for r in rows if r["mode"] == "nstep"}
    assert concat[0] == 1.0 and nstep[0] == 1.0
    for n in range(1, 9):
        assert abs(concat[n] - 0.5 ** n) <= 1e-12
    assert abs(nstep[1] - abs(math.cos(2 * PI / 6))) <= 1e-12


def test_rtn_composite_regimes(capsys):
    code, out = run_cli(capsys, "rtn-composite", "--steps", "20",
                        "--rtn-a", "0")
    assert code == 0
    rows = parse_csv(out)
    series = {}
    for row in rows:
        series.setdefault(row["regime"], {})[int(row["step"])] = float(row["d"])
    assert set(series) == {"none", "markovian", "nonmarkovian", "custom"}
    # a = 0 reproduces the bare walk series
    assert series["custom"] == series["none"]
    # telegraph noise can only shrink distinguishability
    for regime in ("markovian", "nonmarkovian"):
        for step, value in series[regime].items():
            assert value <= series["none"][step] + 1e-12
    # overdamped noise does not erase the revivals
    markovian = [series["markovian"][n] for n in sorted(series["markovian"])]
    assert sum(max(0.0, b - a) for a, b in zip(markovian, markovian[1:])) > 0


def test_purity_identity_coin_on_basis_state(capsys):
    code, out = run_cli(capsys, "purity", "--theta", "0", "--delta", "0",
                        "--steps", "3")
    assert code == 0
    for row in parse_csv(out):
        assert float(row["purity"]) == 1.0
        assert abs(float(row["mixedness"])) <= 1e-14


def test_purity_rows_satisfy_complement_relation(capsys):
    code, out = run_cli(capsys, "purity", "--theta-grid", "0:3.14159:5",
                        "--delta-grid", "0:3.14159:3", "--steps", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5 * 3 * 2
    for row in rows:
        p, m = float(row["purity"]), float(row["mixedness"])
        assert abs(m - 2 * (1 - p)) <= 1e-12


def test_purity_spot_value_against_library(capsys):
    code, out = run_cli(capsys, "purity", "--theta", str(PI / 6),
                        "--delta", str(PI / 4), "--steps", "2")
    assert code == 0
    rows = {int(r["step"]): float(r["purity"]) for r in parse_csv(out)}
    rho = density_matrix(coin_state_from_angle(PI / 4))
    assert abs(rows[2] - purity(n_step_map(PI / 6, 2, rho))) <= 1e-12


def test_holevo_degenerate_ensemble(tmp_path, capsys):
    rho = [[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.75, 0.0]]]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ensemble": {"rho1": rho, "rho2": rho}}))
    code, out = run_cli(capsys, "holevo", "--config", str(config),
                        "--theta-grid", "0:3:4", "--steps", "2")
    assert code == 0
    for row in parse_csv(out):
        assert abs(float(row["chi_max"])) <= 1e-9


def test_holevo_half_pi_even_step_equals_identity_channel(capsys):
    code, out = run_cli(capsys, "holevo", "--theta", str(PI / 2), "--steps", "2")
    assert code == 0
    rows = {int(r["step"]): float(r["chi_max"]) for r in parse_csv(out)}
    from qwchannel.cli import _default_ensemble_pair
    rho1, rho2 = _default_ensemble_pair()
    chi_identity, _ = holevo_max(rho1, rho2, lambda rho: rho)
    assert abs(rows[2] - chi_identity) <= 1e-9


def test_holevo_parity_ordering_small_grid(capsys):
    code, out = run_cli(capsys, "holevo", "--theta-grid", f"0:{PI}:16",
                        "--steps", "4")
    assert code == 0
    rows = parse_csv(out)
    per_step = {}
    for row in rows:
        per_step.setdefault(int(row["step"]), []).append(float(row["chi_max"]))
        assert -1e-12 <= float(row["chi_max"]) <= 1 + 1e-12
    means = {step: np.mean(vals) for step, vals in per_step.items()}
    assert (means[1] + means[3]) / 2 < (means[2] + means[4]) / 2


def test_verify_passes_on_fresh_build(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    assert out.count("[PASS]") >= 6
    assert "[FAIL]" not in out


def test_verify_names_completeness_when_kraus_corrupted(capsys, monkeypatch):
    real = extract_kraus_direct

    def corrupted(theta, t):
        kset = real(theta, t)
        entries = list(kset.entries)
        mu, matrix = entries[0]
        entries[0] = (mu, matrix + 0.05)
        return KrausSet(theta=kset.theta, t=kset.t, entries=tuple(entries))

    monkeypatch.setattr(verification, "extract_kraus_direct", corrupted)
    code, out = run_cli(capsys, "verify")
    assert code == 1
    assert "[FAIL] completeness" in out


def _check_names(out):
    return [line.split("] ")[1].split(":")[0] for line in out.splitlines()
            if line.startswith("[")]


def test_a_raising_check_is_reported_under_the_name_it_passes_under(capsys, monkeypatch):
    _, passing = run_cli(capsys, "verify")

    def unavailable(*args):
        raise RuntimeError("table unavailable")

    monkeypatch.setattr(verification.reference, "standard_walk_operators", unavailable)
    monkeypatch.setattr(verification.reference, "split_step_operators", unavailable)
    code, out = run_cli(capsys, "verify")
    assert code == 1
    assert _check_names(out) == _check_names(passing)
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
        f"[FAIL] {name}: raised RuntimeError('table unavailable')"
        for name in ("table-fidelity-standard", "table-fidelity-split-step")]


@pytest.mark.parametrize("attr, patch, line", [
    # a kernel that rises is not the overdamped (Markovian) decay
    ("rtn_lambda", lambda params, elapsed: 1.0 + elapsed,
     "[FAIL] rtn-kernel: overdamped kernel not positive-decreasing"),
    ("build_shifts", lambda lattice: build_shifts(lattice)[::-1],
     "[FAIL] shift-power-identity: mismatch at t=1, k=0, mu=-1"),
])
def test_a_failing_check_reports_its_own_text(capsys, monkeypatch, attr, patch, line):
    monkeypatch.setattr(verification, attr, patch)
    code, out = run_cli(capsys, "verify")
    assert code == 1
    assert [text for text in out.splitlines() if text.startswith("[FAIL]")] == [line]


def _unflipped_batches(thetas, steps):
    """The walk with the negative labels of its t >= 399 sets copied from the
    positive ones without the flip ``K_{-mu} = J K_mu J``."""
    for angles, t, operators in iter_kraus_batches(thetas, steps):
        if t >= 399:
            half = (t + 1) // 2
            operators = operators.copy()
            operators[:, :half] = operators[:, :t - half:-1]
        yield angles, t, operators


@pytest.mark.parametrize("name, attr, damage", [
    # the joint walk at a slightly wrong angle
    ("reduced-dynamics", "evolve",
     lambda psi0, theta, t: evolve(psi0, theta + 1e-3, t)),
    # the coherence closed form conjugated: invisible only where it is real
    ("closed-form-probabilities", "closed_form_q",
     lambda theta, t, a, b: closed_form_q(theta, t, a, b).conjugate()),
    ("minor-symmetry", "iter_kraus_batches", _unflipped_batches),
])
def test_the_seeded_checks_catch_a_damage(capsys, monkeypatch, name, attr, damage):
    monkeypatch.setattr(verification, attr, damage)
    code, out = run_cli(capsys, "verify")
    assert code == 1
    assert [line.split(":")[0] for line in out.splitlines()
            if line.startswith("[FAIL]")] == [f"[FAIL] {name}"]


def test_every_check_result_is_a_bool_verdict():
    assert all(type(result.passed) is bool for result in verification.run_checks())


# verify in a fresh interpreter: its exit code and whether numpy.random got loaded
VERIFY_ALONE = """
import sys
import qwchannel.cli
code = qwchannel.cli.main(["verify"])
print(code, "numpy.random" in sys.modules)
"""


def test_verify_loads_no_numpy_random():
    environ = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", VERIFY_ALONE], env=environ,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert sum(line.startswith("[PASS]") for line in lines) == 11
    assert lines[-1] == "0 False"


def test_csv_output_is_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["probability", "--theta-grid", "0:3.14159:9", "--steps", "5"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_csv_values_reparse_exactly(tmp_path, capsys):
    code, out = run_cli(capsys, "probability", "--theta-grid", "0:2.2:7",
                        "--delta", "0.3", "--steps", "3")
    assert code == 0
    for row in parse_csv(out):
        theta, delta = float(row["theta"]), float(row["delta"])
        step = int(row["step"])
        rho = apply_kraus(extract_kraus_direct(theta, step),
                          density_matrix(coin_state_from_angle(delta)))
        assert abs(float(row["p_up"]) - rho[0, 0].real) <= 1e-12


def test_json_format_output(capsys):
    code, out = run_cli(capsys, "probability", "--theta", "0.4", "--delta", "0",
                        "--steps", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert {row["step"] for row in rows} == {1, 2}
    assert all(set(row) == {"theta", "delta", "step", "p_up"} for row in rows)


def test_config_file_flags_win(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"theta": 0.3, "steps": 2, "delta": 0.0}))
    code, out = run_cli(capsys, "probability", "--config", str(config),
                        "--theta", "0.5")
    assert code == 0
    rows = parse_csv(out)
    assert {float(r["theta"]) for r in rows} == {0.5}
    assert {int(r["step"]) for r in rows} == {1, 2}


def test_explicit_grid_flag_beats_config_scalar(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"theta": 0.3, "steps": 1, "delta": 0.0}))
    code, out = run_cli(capsys, "probability", "--config", str(config),
                        "--theta-grid", "0:1:3")
    assert code == 0
    assert {float(r["theta"]) for r in parse_csv(out)} == {0.0, 0.5, 1.0}


def test_scalar_and_grid_flags_are_mutually_exclusive(capsys):
    assert main(["probability", "--theta", "0.4", "--theta-grid", "0:1:3"]) == 2
    assert "both theta and theta_grid" in capsys.readouterr().err
    assert main(["purity", "--delta", "0.4", "--delta-grid", "0:1:3"]) == 2
    assert "both delta and delta_grid" in capsys.readouterr().err


def test_output_file_writing(tmp_path):
    target = tmp_path / "out.csv"
    code = main(["trace-distance", "--theta", "0.8", "--steps", "3",
                 "--mode", "concat", "--out", str(target)])
    assert code == 0
    assert target.read_text().startswith("theta,step,mode,d\n")


def test_invalid_arguments_exit_code_two(tmp_path, capsys):
    assert main(["kraus"]) == 2  # missing required flags
    assert "error: kraus requires --theta and --t" in capsys.readouterr().err
    assert main(["probability", "--theta-grid", "bad"]) == 2
    assert "theta_grid" in capsys.readouterr().err
    assert main(["trace-distance", "--mode", "sideways"]) == 2
    assert "mode" in capsys.readouterr().err
    assert main(["probability", "--steps", "-3"]) == 2
    assert main(["kraus", "--theta", "0.5", "--t", "0"]) == 2
    missing = tmp_path / "nope.json"
    assert main(["probability", "--config", str(missing)]) == 2
    assert f"error: cannot read config {missing}" in capsys.readouterr().err
    bad_grid = tmp_path / "bad.json"
    bad_grid.write_text(json.dumps({"theta_grid": "garbage"}))
    assert main(["probability", "--config", str(bad_grid)]) == 2


@pytest.mark.parametrize("command", ["probability", "purity"])
@pytest.mark.parametrize("flags", [["--delta", "nan"], ["--delta", "inf"],
                                   ["--delta-grid", "0:nan:3"],
                                   ["--delta-grid=-inf:1:3"]])
def test_non_finite_delta_flags_are_refused(capsys, command, flags):
    code = main([command, "--theta", "0.4", "--steps", "2", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    field = "delta_grid" if flags[0].startswith("--delta-grid") else "delta"
    assert f"{field} must be finite" in captured.err


@pytest.mark.parametrize("command", ["probability", "purity"])
@pytest.mark.parametrize("key, value", [("delta", "nan"), ("delta", float("inf")),
                                        ("delta_grid", [0.0, "nan", 3])])
def test_non_finite_delta_from_config_is_refused(tmp_path, capsys, command, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value, "theta": 0.4, "steps": 2}))
    code = main([command, "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{key} must be finite" in captured.err


def test_rtn_composite_refuses_non_finite_amplitude(capsys):
    code = main(["rtn-composite", "--steps", "3", "--rtn-a", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "a must be finite" in captured.err


def test_holevo_refuses_trace_two_ensemble_state(tmp_path, capsys):
    config = tmp_path / "ensemble.json"
    zero = [0.0, 0.0]
    config.write_text(json.dumps({"ensemble": {
        "rho1": [[[2.0, 0.0], zero], [zero, zero]],
        "rho2": [[[0.5, 0.0], zero], [zero, [0.5, 0.0]]],
    }}))
    code = main(["holevo", "--theta", "0.4", "--steps", "2", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "rho1" in captured.err


@pytest.mark.parametrize("command", ["probability", "purity", "holevo", "rtn-composite"])
def test_non_finite_theta_is_refused_by_name(capsys, command):
    code = main([command, "--theta", "nan", "--steps", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "theta must be finite" in captured.err


def _per_value_dict(kset):
    return {"kind": kset.kind, "theta": kset.theta, "t": kset.t,
            "entries": [{"mu": mu, "matrix": [[[float(v.real), float(v.imag)]
                                               for v in row] for row in m]}
                        for mu, m in kset.entries]}


@pytest.mark.parametrize("theta, t, split", [
    (0.0, 3, False), (PI / 2, 4, False), (2.9, 5, False), (0.7, 2, True),
])
def test_kraus_dumps_equal_the_per_value_construction(capsys, theta, t, split):
    kset = extract_kraus_split_step(theta, t) if split else extract_kraus_direct(theta, t)
    assert kset.to_json(indent=2) == json.dumps(_per_value_dict(kset), indent=2)
    argv = ["kraus", "--theta", repr(theta), "--t", str(t), "--format", "csv"]
    code, out = run_cli(capsys, *argv, *(["--split"] if split else []))
    assert code == 0
    lines = ["mu,row,col,re,im"] + [
        f"{mu},{r},{c},{float(m[r, c].real)!r},{float(m[r, c].imag)!r}"
        for mu, m in kset.entries for r in range(2) for c in range(2)]
    assert out == "\n".join(lines) + "\n"


def test_kraus_json_keeps_signed_zeros():
    up, down = coin_projections(0.0)
    kset = KrausSet(theta=0.0, t=1, entries=((-1, -down), (1, -up)))
    text = kset.to_json(indent=2)
    assert "-0.0" in text
    assert text == json.dumps(_per_value_dict(kset), indent=2)
    assert KrausSet.from_json(text).to_json(indent=2) == text


def test_kraus_json_spells_non_finite_values_as_json_does():
    nan, inf = np.full((2, 2), np.nan), np.full((2, 2), complex(-math.inf, math.inf))
    kset = KrausSet(theta=0.0, t=1, entries=((-1, nan), (1, inf)))
    text = kset.to_json(indent=2)
    assert "NaN" in text and "-Infinity" in text
    assert text == json.dumps(kset.to_dict(), indent=2)


def test_the_writer_spells_each_value_as_str_in_csv_and_json_dumps_in_json(capsys):
    header = ["step", "regime", "d"]
    rows = [(1, "none", math.nan), (2, "nonmarkovian", math.inf), (3, "x", -math.inf),
            (4, "custom", -0.0), (5, "q\"uote", 1e-300)]
    columns = [np.array(column) for column in zip(*rows)]
    _emit(header, columns, {"format": "json", "out": None})
    assert capsys.readouterr().out == json.dumps(
        [dict(zip(header, row)) for row in rows], indent=2) + "\n"
    _emit(header, columns, {"format": "csv", "out": None})
    assert capsys.readouterr().out == "".join(
        ",".join(map(str, row)) + "\n" for row in [header, *rows])


_STATE = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


# each row's id is fixed, so adding or deleting a row renames no other; the
# numbered ids are the ones pytest generated before the rows carried ids
@pytest.mark.parametrize("argv, config, named", [
    pytest.param(["probability"], {"theta_grid": 5}, ["theta_grid"], id="argv0-config0-named0"),
    pytest.param(["probability"], {"theta_grid": [0, 1]}, ["theta_grid"],
                 id="argv1-config1-named1"),
    pytest.param(["probability", "--steps", "2"], {"format": "xml"}, ["format"],
                 id="argv2-config2-named2"),
    pytest.param(["kraus"], {"theta": 0.4, "t": 2.9}, ["t must be a whole number"],
                 id="argv3-config3-named3"),
    pytest.param(["kraus"], {"theta": 0.4, "t": 2, "split": "no"}, ["split"],
                 id="argv4-config4-named4"),
    pytest.param(["kraus", "--theta", "nan", "--t", "2"], None, ["theta must be finite"],
                 id="argv5-None-named5"),
    pytest.param(["probability", "--steps", "2"], {"theta": "abc"}, ["theta"],
                 id="argv6-config6-named6"),
    pytest.param(["rtn-composite", "--steps", "2"], {"rtn_a": -1}, ["rtn_a must be >= 0"],
                 id="argv7-config7-named7"),
    # the regimes are fixed: their old ratio keys are no option of any subcommand
    pytest.param(["rtn-composite", "--steps", "2"], {"markovian_ratio": 0.4},
                 ["config key 'markovian_ratio' is not an option"], id="config-markovian-ratio"),
    pytest.param(["holevo", "--theta", "0.4", "--steps", "1"], {"ensemble": {"rho2": _STATE}},
                 ["ensemble"], id="argv8-config8-named8"),
    # a config sets both sides of a scalar/grid pair
    pytest.param(["probability", "--steps", "2"], {"theta": 0.3, "theta_grid": [0, 1, 3]},
                 ["both theta and theta_grid"], id="argv9-config9-named9"),
    pytest.param(["purity", "--theta", "0.4", "--steps", "2"],
                 {"delta": 0.3, "delta_grid": [0, 1, 3]}, ["both delta and delta_grid"],
                 id="argv10-config10-named10"),
    # the weight search has no grid: its old key is no option of any subcommand
    pytest.param(["holevo", "--theta", "0.4", "--steps", "1"], {"grid_size": 33},
                 ["config key 'grid_size' is not an option"], id="argv11-config11-named11"),
    # counts above MAX_COUNT, refused before any work
    pytest.param(["probability", "--theta", "0.4", "--steps", "1"],
                 {"delta_grid": [0, 1, 100_001]}, ["delta_grid"], id="argv12-config12-named12"),
    pytest.param(["probability", "--theta", "0.4", "--steps", "1", "--delta-grid", "0:1:100001"],
                 None, ["delta_grid"], id="argv13-None-named13"),
    pytest.param(["trace-distance", "--theta", "0.4", "--mode", "concat", "--steps", "100001"],
                 None, ["steps"], id="argv14-None-named14"),
    pytest.param(["kraus", "--theta", "0.4", "--t", "100001"], None, ["t must be a whole number"],
                 id="argv15-None-named15"),
    # argparse checks no values: each flag's text reaches only its option's check
    pytest.param(["probability", "--steps", "2", "--format", "xml"], None,
                 ["format must be one of csv, json"], id="argv16-None-named16"),
    pytest.param(["trace-distance", "--theta", "0.4", "--mode", "sideways"], None,
                 ["mode must be one of nstep, concat, both"], id="argv17-None-named17"),
    pytest.param(["probability", "--theta-grid", "bad"], None,
                 ["theta_grid must be start:stop:count"], id="argv18-None-named18"),
    pytest.param(["probability"], {"theta_grid": {"a": 0, "b": 1, "c": 3}},
                 ["theta_grid must be start:stop:count"], id="argv19-config19-named19"),
    pytest.param(["probability", "--theta", "0.4", "--theta-grid", "0:1:3"], None,
                 ["both theta and theta_grid"], id="argv20-None-named20"),
    # a regime amplitude that overflows names the option it scales
    pytest.param(["rtn-composite", "--rtn-gamma", "1e308"], None,
                 ["2.0 * rtn_gamma must be finite"], id="argv21-None-named21"),
    # a value may start with "-"; it reaches its option's check
    pytest.param(["probability", "--theta", "-inf", "--steps", "2"], None,
                 ["theta must be finite"], id="argv22-None-named22"),
    # an int beyond the float range
    pytest.param(["kraus", "--theta", "0.4"], {"t": 10**400}, ["t must be finite"],
                 id="argv23-config23-named23"),
    pytest.param(["holevo", "--theta", "0.4", "--steps", "1"],
                 {"ensemble": {"rho1": [[[0.5, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                               "rho2": _STATE}},
                 ["ensemble must be rho1 and rho2 as [re, im] pairs"],
                 id="argv24-config24-named24"),

    # finite grid ends whose span stop - start overflows, as a flag and in a config
    pytest.param(["probability", "--theta-grid", "1e308:-1e308:3", "--steps", "1"], None,
                 ["theta_grid must be start:stop:count with a finite span"],
                 id="argv25-None-named25"),
    pytest.param(["purity", "--theta", "0.4", "--steps", "1"], {"delta_grid": [-1e308, 1e308, 3]},
                 ["delta_grid must be start:stop:count with a finite span"],
                 id="argv26-config26-named26"),
])
def test_every_option_is_checked_by_name_whatever_its_source(tmp_path, capsys, argv,
                                                             config, named):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    for text in named:
        assert text in captured.err


def test_a_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps([{"theta": 0.4}]))
    assert main(["probability", "--config", str(path)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--theta-grid", "-1:1:3"), ("--theta", "-1e-3")])
def test_a_value_that_starts_with_a_dash_is_the_flags_value(capsys, flag, value):
    joined = run_cli(capsys, "probability", f"{flag}={value}", "--steps", "1")
    assert joined[0] == 0
    assert run_cli(capsys, "probability", flag, value, "--steps", "1") == joined


def test_a_flag_in_a_value_position_is_still_a_missing_value(capsys):
    with pytest.raises(SystemExit) as info:
        main(["probability", "--theta", "--steps", "1"])
    assert info.value.code == 2
    assert "argument --theta: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [
    (["rtn-composite", "--steps", "3"], {"rtn_gamma": None, "rtn_a": None}),
    (["holevo", "--theta", "0.4", "--steps", "2"], {"ensemble": None}),
    (["probability", "--steps", "2"], {"theta": None, "delta": None, "format": None}),
])
def test_config_null_is_the_same_as_leaving_the_key_out(tmp_path, capsys, argv, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(capsys, *argv, "--config", str(path))
    assert code == 0
    assert (0, out) == run_cli(capsys, *argv)


# -- batched sweeps against a per-row reference ---------------------------------

DESCENDING = ["--theta-grid", "3:0:5"]


def _reference_sets(thetas, steps):
    return [(theta, kset) for theta in thetas for kset in iter_kraus_steps(theta, steps)]


def _assert_rows_match(out, expected, keys):
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[:keys] for row in rows] == [[str(v) if not isinstance(v, float) else repr(v)
                                             for v in row[:keys]] for row in expected]
    for got, want in zip(rows, expected):
        for value, reference in zip(got[keys:], want[keys:]):
            assert abs(float(value) - reference) <= 1e-14


def _cell_value(text):
    """A CSV cell as the number it was printed from, or as its text."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def _assert_json_dumps_the_rows(capsys, argv, csv_out):
    """``--format json`` prints ``json.dumps`` (indent 2) of the rows the CSV holds.

    The CSV's floats round-trip, so these are the command's own values, which
    the caller has checked against a per-row reference.
    """
    header, *lines = csv_out.rstrip("\n").split("\n")
    rows = [[_cell_value(cell) for cell in line.split(",")] for line in lines]
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps([dict(zip(header.split(","), row)) for row in rows],
                             indent=2) + "\n"


def test_probability_and_purity_rows_equal_the_per_row_reference(capsys):
    thetas = [float(v) for v in np.linspace(3, 0, 5)]
    deltas = [float(v) for v in np.linspace(0, 3, 4)]
    steps = [2, 5, 9]
    flags = [*DESCENDING, "--delta-grid", "0:3:4", "--steps", "2,5,9"]
    probability, purities = [], []
    for theta, kset in _reference_sets(thetas, steps):
        for delta in deltas:
            out = apply_kraus(kset, density_matrix(coin_state_from_angle(delta)))
            probability.append((theta, delta, kset.t, float(out[0, 0].real)))
            purities.append((theta, delta, kset.t, purity(out), 2.0 * (1.0 - purity(out))))
    code, out = run_cli(capsys, "probability", *flags)
    assert code == 0
    _assert_rows_match(out, sorted(probability, key=lambda r: r[:3]), keys=3)
    _assert_json_dumps_the_rows(capsys, ["probability", *flags], out)
    code, out = run_cli(capsys, "purity", *flags)
    assert code == 0
    _assert_rows_match(out, sorted(purities, key=lambda r: r[:3]), keys=3)
    _assert_json_dumps_the_rows(capsys, ["purity", *flags], out)


def test_the_purity_columns_are_the_witnesses_of_the_same_outputs(capsys):
    thetas, deltas, steps = np.linspace(0, 3, 4), np.linspace(0, 6, 5), [1, 4, 9]
    kets = np.array([coin_state_from_angle(delta) for delta in deltas])
    outputs = channel_outputs(thetas, steps, density_matrix(kets)).swapaxes(1, 2)
    code, out = run_cli(capsys, "purity", "--theta-grid", "0:3:4", "--delta-grid", "0:6:5",
                        "--steps", "1,4,9")
    assert code == 0
    rows = parse_csv(out)
    assert [row["purity"] for row in rows] == [repr(v) for v in purity(outputs).ravel().tolist()]
    assert [row["mixedness"] for row in rows] == [
        repr(v) for v in mixedness(outputs).ravel().tolist()]


def test_holevo_rows_equal_the_per_row_reference(capsys):
    from functools import partial

    from qwchannel.cli import _default_ensemble_pair
    rho1, rho2 = _default_ensemble_pair()
    thetas = [float(v) for v in np.linspace(3, 0, 5)]
    expected = sorted(
        (theta, kset.t, *holevo_max(rho1, rho2, partial(apply_kraus, kset)))
        for theta, kset in _reference_sets(thetas, [1, 4]))
    argv = ["holevo", *DESCENDING, "--steps", "1,4"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    _assert_rows_match(out, expected, keys=2)
    _assert_json_dumps_the_rows(capsys, argv, out)


def test_trace_distance_rows_equal_the_per_row_reference(capsys):
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    thetas = [float(v) for v in np.linspace(3, 0, 5)]
    steps = [3, 7, 12]
    expected = []
    for theta in thetas:
        one_step = extract_kraus_direct(theta, 1)
        top, bottom = up, down
        for n in range(1, steps[-1] + 1):
            top, bottom = apply_kraus(one_step, top), apply_kraus(one_step, bottom)
            if n in steps:
                expected.append((theta, n, "concat", trace_distance(top, bottom)))
        for kset in iter_kraus_steps(theta, steps):
            expected.append((theta, kset.t, "nstep", trace_distance(
                apply_kraus(kset, up), apply_kraus(kset, down))))
        expected.extend((theta, 0, mode, 1.0) for mode in ("concat", "nstep"))
    expected.sort(key=lambda r: (r[0], r[2], r[1]))
    argv = ["trace-distance", *DESCENDING, "--steps", "3,7,12"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    _assert_rows_match(out, expected, keys=3)
    _assert_json_dumps_the_rows(capsys, argv, out)


def test_rtn_composite_rows_equal_the_per_row_reference(capsys):
    theta, steps = 2.9, [5, 17, 60]
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    regimes = [("none", None), ("markovian", 0.4), ("nonmarkovian", 2.0), ("custom", 0.3)]
    expected = []
    for name, a in regimes:
        for n in steps:
            if a is None:
                images = [n_step_map(theta, n, rho) for rho in (up, down)]
            else:
                images = [composite_map(RTNParams(a=a, gamma=1.0, dt=1.0), theta, n, rho)
                          for rho in (up, down)]
            expected.append((n, name, trace_distance(*images)))
    argv = ["rtn-composite", "--rtn-a", "0.3", "--steps", "5,17,60", "--theta", "2.9"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    _assert_rows_match(out, expected, keys=2)
    _assert_json_dumps_the_rows(capsys, argv, out)


def test_a_repeated_grid_point_repeats_its_block_of_rows(capsys):
    # rows run in C order over the grid's points, so each repeat of the
    # one (theta, delta) point prints its block of steps 1..3 in turn
    thetas, deltas = [1.0] * 3, [0.0] * 2
    ksets = list(iter_kraus_steps(1.0, [1, 2, 3]))
    expected = [(theta, delta, kset.t, float(apply_kraus(
                    kset, density_matrix(coin_state_from_angle(delta)))[0, 0].real))
                for theta in thetas for delta in deltas for kset in ksets]
    code, out = run_cli(capsys, "probability", "--theta-grid", "1:1:3",
                        "--delta-grid", "0:0:2", "--steps", "3")
    assert code == 0
    _assert_rows_match(out, expected, keys=3)


@pytest.mark.parametrize("argv", [
    ["probability", "--theta-grid", "0:3:7", "--delta-grid", "0:3:3", "--steps", "9"],
    ["purity", "--theta-grid", "3:0:7", "--steps", "2,9"],
    ["holevo", "--theta-grid", "0:3:7", "--steps", "9"],
    ["trace-distance", "--theta-grid", "0:3:7", "--steps", "9"],
])
def test_a_sweep_split_into_chunks_prints_the_same_rows(capsys, monkeypatch, argv):
    import qwchannel.kraus as kraus
    code, whole = run_cli(capsys, *argv)
    assert code == 0
    # (20 + 1) // (9 + 1) = 2 angles a chunk, so seven angles take four chunks
    monkeypatch.setattr(kraus, "MAX_COUNT", 20)
    assert run_cli(capsys, *argv) == (0, whole)


def test_unknown_config_keys_exit_2_and_other_commands_keys_are_ignored(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"thetta": 0.4, "steps": 2}))
    code = main(["probability", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "thetta" in captured.err
    # rtn_a and ensemble belong to rtn-composite and holevo, not to probability
    path.write_text(json.dumps({"theta": 0.4, "steps": 2, "rtn_a": 0.3, "ensemble": None}))
    code, out = run_cli(capsys, "probability", "--config", str(path))
    assert code == 0
    assert (0, out) == run_cli(capsys, "probability", "--theta", "0.4", "--steps", "2")


# -- one refusal, two surfaces: the CLI and the library call it maps to ----------

def _pairs(matrix):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)]


_HALF = np.eye(2) / 2
_NAN = np.full((2, 2), np.nan)
_WHOLE = "must be a whole number in [1, 100000]"
_RTN = "(2a/gamma)^2 of a and gamma"
_KERNEL = "max(gamma, 2a) * n * dt of a, gamma, dt and steps"

# id: (argv, config, name in the CLI's message, library call, name in its message, stem)
_REFUSALS = {
    "t 2.9": (["kraus", "--theta", "0.4"], {"t": 2.9}, "t",
              lambda: extract_kraus_direct(0.4, 2.9), "t", _WHOLE),
    "n_max 3.7": (["trace-distance", "--theta", "0.4", "--steps", "3.7"], None, "steps",
                  lambda: td_series(0.4, 3.7), "n_max", _WHOLE),
    "steps [2.5]": (["probability", "--theta", "0.4"], {"steps": [2.5]}, "steps",
                    lambda: superoperators([0.4], [2.5]), "steps", _WHOLE),
    "t 100001": (["kraus", "--theta", "0.4", "--t", "100001"], None, "t",
                 lambda: extract_kraus_direct(0.4, 100_001), "t", _WHOLE),
    # a split step is two steps; the message names the flag, not the library's n
    "split t 50001": (["kraus", "--theta", "0.4", "--t", "50001", "--split"], None, "t",
                      lambda: extract_kraus_split_step(0.4, 50_001), "n",
                      "must be a whole number in [1, 50000]"),
    "nan theta": (["probability", "--theta", "nan", "--steps", "2"], None, "theta",
                  lambda: extract_kraus_direct(float("nan"), 2), "theta", "must be finite"),
    "nan delta": (["purity", "--theta", "0.4", "--delta", "nan", "--steps", "2"], None,
                  "delta", lambda: coin_state_from_angle(float("nan")), "delta",
                  "must be finite"),
    "5 I state": (["holevo", "--theta", "0.4", "--steps", "3"],
                  {"ensemble": {"rho1": _pairs(5 * np.eye(2)), "rho2": _pairs(_HALF)}},
                  "rho1", lambda: channel_outputs([0.4], [3], 5 * np.eye(2)), "states",
                  "must be qubit states within 1e-12"),
    "nan rho": (["holevo", "--theta", "0.4", "--steps", "3"],
                {"ensemble": {"rho1": _pairs(_NAN), "rho2": _pairs(_HALF)}},
                "rho1", lambda: apply_kraus([np.eye(2)], _NAN), "rho",
                "must be finite 2x2 matrices"),
    "rtn a 1e200": (["rtn-composite", "--steps", "3", "--rtn-a", "1e200"], None, _RTN,
                    lambda: RTNParams(a=1e200, gamma=1.0), _RTN, "must be finite"),
    "rtn gamma 1e-300": (["rtn-composite", "--steps", "3", "--rtn-gamma", "1e-300",
                          "--rtn-a", "1"], None, _RTN,
                         lambda: RTNParams(a=1.0, gamma=1e-300), _RTN,
                         "must be finite"),
    "rtn gamma dt 1e200": (["rtn-composite", "--rtn-gamma", "1e200", "--rtn-dt", "1e200",
                            "--steps", "3"], None, _KERNEL,
                           lambda: td_series(0.4, 3, "composite",
                                             RTNParams(a=0.4, gamma=1e200, dt=1e200)),
                           _KERNEL, "must be finite"),
    "rtn dt 1e308": (["rtn-composite", "--rtn-dt", "1e308", "--steps", "3"], None, _KERNEL,
                     lambda: composite_map(RTNParams(a=0.4, gamma=1.0, dt=1e308), 0.4, 3,
                                           _HALF), _KERNEL, "must be finite"),
    # a flag's text reaches only its option's check, as a config value does
    "theta abc": (["probability", "--theta", "abc", "--steps", "2"], None, "theta",
                  lambda: extract_kraus_direct("abc", 2), "theta", "must be a number"),
    "t three": (["kraus", "--theta", "0.4", "--t", "three"], None, "t",
                lambda: extract_kraus_direct(0.4, "three"), "t", "must be a number"),
    "rtn_gamma fast": (["rtn-composite", "--rtn-gamma", "fast"], None, "rtn_gamma",
                       lambda: RTNParams(a=0.4, gamma="fast"), "gamma", "must be a number"),
}


@pytest.mark.parametrize("argv, config, cli_name, call, library_name, stem",
                         _REFUSALS.values(), ids=_REFUSALS.keys())
def test_the_cli_and_the_library_refuse_the_same_value_before_walking(
        tmp_path, capsys, monkeypatch, argv, config, cli_name, call, library_name, stem):
    import qwchannel.kraus as kraus

    def no_walk(*args):
        raise AssertionError("a refused value started a walk")

    monkeypatch.setattr(kraus, "_walk_sets", no_walk)
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"{cli_name} {stem}" in captured.err
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(f"{library_name} {stem}")


def test_a_vanishing_telegraph_rate_leaves_the_walk_series(capsys):
    # gamma t -> 0 takes the kernel to 1 in every regime, whatever a/gamma is
    code, out = run_cli(capsys, "rtn-composite", "--rtn-gamma", "1e-170")
    assert code == 0
    series = {}
    for row in parse_csv(out):
        series.setdefault(row["regime"], []).append(float(row["d"]))
    assert set(series) == {"none", "markovian", "nonmarkovian"}
    for regime in ("markovian", "nonmarkovian"):
        assert np.abs(np.array(series[regime]) - series["none"]).max() <= 1e-14


@pytest.mark.parametrize("argv, config", [
    (["kraus", "--theta", "0.4", "--t", "3.0"], {"theta": 0.4, "t": 3.0}),
    (["holevo", "--theta", "0.4", "--steps", "2.0"], {"theta": 0.4, "steps": 2.0}),
    (["rtn-composite", "--steps", "3", "--rtn-a", "1e0"], {"steps": 3, "rtn_a": 1}),
])
def test_a_flag_and_its_config_key_pass_the_same_check(tmp_path, capsys, argv, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert (0, out) == run_cli(capsys, argv[0], "--config", str(path))


# -- the option table: parser, help and the README from one declaration ---------

def _help_entries(text):
    """``{flag: its help entry, whitespace collapsed}`` of an argparse help text."""
    entries, flag = {}, None
    for line in text.splitlines():
        if line.startswith("  -"):
            flag = line.split()[0].rstrip(",")
            entries[flag] = line
        elif flag is not None and line.startswith("   "):
            entries[flag] += line
        else:
            flag = None
    return {flag: " ".join(entry.split()) for flag, entry in entries.items()}


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_the_table_flags_with_the_defaults_in_use(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    entries = _help_entries(capsys.readouterr().out)
    defaults = COMMANDS[command][2]
    flags = {"--" + key.replace("_", "-"): default for key, default in defaults.items()
             if _OPTIONS[key][1] is not None}
    assert set(entries) == {"-h", "--config", *flags}
    for flag, default in flags.items():
        if default is None:
            assert "(default:" not in entries[flag]
        else:
            assert entries[flag].endswith(f"(default: {_shown(default)})")
    if command == "kraus":
        assert entries["--format"].endswith("(default: json)")


@pytest.mark.parametrize("command", [*COMMANDS, "verify"])
def test_a_flag_of_another_subcommand_is_still_unrecognized(capsys, command):
    # a run builds only its own subcommand's flags; the others' are refused as before
    own = {flag for flag, _, _ in _flags(COMMANDS[command][2])} if command in COMMANDS else set()
    others = {flag for _, _, defaults in COMMANDS.values() for flag, _, _ in _flags(defaults)}
    for flag in sorted(others - own):
        with pytest.raises(SystemExit) as info:
            main([command, flag, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_the_top_level_help_and_an_unknown_command_name_every_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    help_text = capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        main(["nope"])
    assert info.value.code == 2
    choices = capsys.readouterr().err.split("invalid choice: ")[1]
    for command in [*COMMANDS, "verify"]:
        assert f"    {command} " in help_text
        assert command in choices


def test_every_option_of_every_command_has_one_row_and_every_row_serves_a_command():
    served = {key for _, _, defaults in COMMANDS.values() for key in defaults}
    assert served == set(_OPTIONS)


@pytest.mark.parametrize("command", [name for name in COMMANDS if name != "kraus"])
def test_a_sweep_takes_its_step_count_only_as_steps(capsys, command):
    # no --t alias, and no abbreviation (rtn-composite --t would be --theta)
    with pytest.raises(SystemExit) as info:
        main([command, "--t", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --t 5" in capsys.readouterr().err


# one row per rule of the parser: argv, its exit code, and either the argv whose
# output it must print or a text its stderr must hold; the directory holds the
# config file "a=b"
@pytest.mark.parametrize("argv, code, same_as, err", [
    pytest.param(["probability", "--theta", "0.4", "--steps", "2", "--steps", "3"], 0,
                 ["probability", "--theta", "0.4", "--steps", "3"], "", id="last-value-wins"),
    pytest.param(["kraus", "--theta", "0.4", "--t", "2", "--split=true"], 2, None,
                 "argument --split", id="bare-boolean"),
    pytest.param(["probability", "--"], 2, None, "unrecognized arguments: --", id="bare-dashes"),
    pytest.param(["probability", "--steps", "1", "--theta"], 2, None,
                 "argument --theta: expected one argument", id="trailing-value-flag"),
    pytest.param([], 2, None, "command", id="no-command"),
    pytest.param(["probability", "--bogus", "-h"], 0, ["probability", "--help"], "",
                 id="help-anywhere"),
    pytest.param(["probability", "--config=a=b", "--steps", "1"], 0,
                 ["probability", "--theta", "0.4", "--steps", "1"], "", id="config-equals"),
    pytest.param(["probability", "--the", "0.4"], 2, None, "unrecognized arguments: --the 0.4",
                 id="no-abbreviation"),
    pytest.param(["verify", "extra"], 2, None, "unrecognized arguments: extra",
                 id="verify-takes-nothing"),
])
def test_each_parser_rule(tmp_path, monkeypatch, capsys, argv, code, same_as, err):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a=b").write_text(json.dumps({"theta": 0.4}))

    def run(args):
        try:
            status = main(args)
        except SystemExit as exit_:
            status = exit_.code
        return status, *capsys.readouterr()

    status, out, stderr = run(argv)
    assert status == code
    assert err in stderr
    assert out == (run(same_as)[1] if same_as else "")


# the CLI in a fresh interpreter: which of argparse's modules one run leaves loaded
PARSE_ALONE = """
import sys
import qwchannel.cli
code = qwchannel.cli.main(["probability", "--theta", "0.4", "--steps", "1"])
print(code, [name for name in ("argparse", "gettext", "locale") if name in sys.modules])
"""


def test_a_run_loads_neither_argparse_nor_gettext_nor_locale():
    environ = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PARSE_ALONE], env=environ,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("value, steps", [("20", tuple(range(1, 21))), ("8,3,8", (3, 8)),
                                          ([8, 3], (3, 8)), (2, (1, 2))])
def test_every_step_list_from_the_command_line_is_checked_once(value, steps):
    checked = _OPTIONS["steps"][0]("steps", value)
    assert isinstance(checked, Steps) and checked == steps
    assert step_list("steps", checked) is checked


def _readme_cli_lines():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
    return [line.split("#")[0].strip() for block in blocks for line in block.splitlines()
            if line.startswith("qwchannel ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_commands_run(capsys, line):
    code, out = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0
    assert out.strip()


def test_the_readme_shows_every_subcommand():
    assert {line.split()[1] for line in _readme_cli_lines()} == {*COMMANDS, "verify"}


_ORTHOGONAL = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
_CAP = "must be at most 10000000 outputs in all"

# id: (argv, library call, name in the library's message); each asks for over
# 10^7 outputs, whose superoperators alone would take gigabytes
_OVERSIZED = {
    "purity": (["purity", "--theta-grid", "0:1:100000", "--delta-grid", "0:1:200",
                "--steps", "1"],
               lambda: channel_outputs(np.zeros(100_000), [1], np.stack([_HALF] * 200)),
               "thetas x steps x states"),
    "holevo": (["holevo", "--theta-grid", "0:1:100000", "--steps", "101"],
               lambda: channel_outputs(np.zeros(100_000), range(1, 102), _ORTHOGONAL),
               "thetas x steps x states"),
    "probability": (["probability", "--theta-grid", "0:1:2001", "--delta", "0",
                     "--steps", "5000"],
                    lambda: superoperators(np.zeros(2001), range(1, 5001)), "thetas x steps"),
    # two inputs under 501 one-step channels, each kept at 10^4 step counts
    "trace-distance concat": (["trace-distance", "--theta-grid", "0:1:501", "--mode", "concat",
                               "--steps", "10000"],
                              lambda: repeated(np.zeros(501), range(1, 10_001), _ORTHOGONAL),
                              "thetas x steps x states"),
    # 6 * 10^6 channels, under the channel cap, but each series reads the images of
    # two inputs, 1.2 * 10^7 outputs
    "trace-distance nstep": (["trace-distance", "--theta-grid", "0:1:100000", "--steps", "60",
                              "--mode", "nstep"],
                             lambda: td_values(np.zeros(100_000), range(1, 61)),
                             "thetas x steps x states"),
}


@pytest.mark.parametrize("argv, call, library_name", _OVERSIZED.values(),
                         ids=_OVERSIZED.keys())
def test_an_oversized_sweep_is_refused_by_name_before_its_outputs_exist(
        capsys, argv, call, library_name):
    tracemalloc.start()
    try:
        code = main(argv)
        captured = capsys.readouterr()
        with pytest.raises(ValueError) as info:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, captured.out) == (2, "")
    assert _CAP in captured.err
    assert str(info.value).startswith(f"{library_name} {_CAP}, got ")
    # the refused outputs would take at least 10^7 * 64 bytes
    assert peak < 64 * 2**20

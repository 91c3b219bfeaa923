"""Command-line front end: figure-style sweeps as CSV, operator dumps, checks.

Subcommands
-----------
kraus           dump an extracted operator set (JSON or flat CSV)
probability     upper-coin probability p per (theta, delta, step)
trace-distance  distinguishability series, n-step map vs repeated one-step map
rtn-composite   trace distance under the walk channel chained with telegraph noise
purity          purity/mixedness of the channel output per (theta, delta, step)
holevo          maximized Holevo quantity per (theta, step)
verify          run the named consistency checks and report pass/fail

Options may also come from a JSON config file (``--config``); explicit
command-line flags win on conflict.  Each sweep walks once per coin angle
(:func:`~qwchannel.kraus.iter_kraus_steps`) and emits its rows in
deterministic sorted order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

import numpy as np

from .channels import (
    RTNParams,
    apply_kraus,
    assert_density_matrix,
    coin_state_from_angle,
    density_matrix,
    rtn_kraus,
    rtn_lambda,
)
from .kraus import extract_kraus_direct, extract_kraus_split_step, iter_kraus_steps
from .verification import run_checks
from .witnesses import (
    _RHO_DOWN,
    _RHO_UP,
    holevo_max,
    purity,
    td_series,
    trace_distance,
)

DEFAULT_THETA_GRID = [0.0, math.pi, 64]
DEFAULT_TRACE_STEPS = 20
DEFAULT_HOLEVO_STEPS = 8


# -- plumbing -----------------------------------------------------------------

def _parse_grid_text(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:count, got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise argparse.ArgumentTypeError(f"grid count must be >= 1, got {count}")
    return [start, stop, count]


def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _grid_values(spec, name: str) -> list[float]:
    if isinstance(spec, str):
        spec = _parse_grid_text(spec)
    start, stop = _finite(name, spec[0]), _finite(name, spec[1])
    count = int(spec[2])
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    return [float(v) for v in np.linspace(start, stop, count)]


def _parse_steps(spec) -> list[int]:
    if isinstance(spec, bool):
        raise ValueError("steps must be an integer or list")
    if isinstance(spec, int):
        steps = list(range(1, spec + 1))
    elif isinstance(spec, (list, tuple)):
        steps = [int(v) for v in spec]
    else:
        text = str(spec).strip()
        if "," in text:
            steps = [int(p) for p in text.split(",") if p.strip()]
        else:
            steps = list(range(1, int(text) + 1))
    if not steps or any(s < 1 for s in steps):
        raise ValueError(f"steps must be >= 1, got {spec!r}")
    return sorted(set(steps))


def _load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        parser.error(f"config {path} must hold a JSON object")
    return {key.replace("-", "_"): value for key, value in config.items()}


# flag pairs that select between a scalar and a grid; an explicit flag on one
# side silences the other side's config value
_EXCLUSIVE_PAIRS = (("theta", "theta_grid"), ("delta", "delta_grid"))


def _effective(args: argparse.Namespace, parser: argparse.ArgumentParser,
               defaults: dict) -> dict:
    """Merge defaults <- config file <- explicit flags (flags win)."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        config = _load_config(args.config, parser)
        for key, value in config.items():
            if key in merged:
                merged[key] = value
    for key in defaults:
        given = getattr(args, key, None)
        if given is not None:
            merged[key] = given
            for left, right in _EXCLUSIVE_PAIRS:
                if key == left and getattr(args, right, None) is None:
                    merged[right] = None
                elif key == right and getattr(args, left, None) is None:
                    merged[left] = None
    return merged


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _emit(header: list[str], rows: list[tuple], fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines.extend(",".join(_format_value(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _theta_values(options: dict) -> list[float]:
    if options.get("theta") is not None:
        return [_finite("theta", options["theta"])]
    return _grid_values(options["theta_grid"], "theta_grid")


def _delta_values(options: dict) -> list[float]:
    if options.get("delta_grid") is not None:
        return _grid_values(options["delta_grid"], "delta_grid")
    return [_finite("delta", options.get("delta") or 0.0)]


def _matrix_from_pairs(payload) -> np.ndarray:
    return np.array(
        [[complex(re, im) for re, im in row] for row in payload],
        dtype=np.complex128,
    )


def _default_ensemble_pair() -> tuple[np.ndarray, np.ndarray]:
    rho1 = 0.25 * _RHO_UP + 0.75 * _RHO_DOWN
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    rho2 = (density_matrix(plus) / 6) + (5 * density_matrix(minus) / 6)
    return rho1, rho2


# -- subcommands ----------------------------------------------------------------

def cmd_kraus(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    options = _effective(args, parser, {
        "theta": None, "t": None, "split": False, "format": "json", "out": None,
    })
    if options["theta"] is None or options["t"] is None:
        parser.error("kraus requires --theta and --t")
    theta, t = float(options["theta"]), int(options["t"])
    kset = (extract_kraus_split_step(theta, t) if options["split"]
            else extract_kraus_direct(theta, t))
    if options["format"] == "json":
        text = kset.to_json(indent=2) + "\n"
        if options["out"]:
            with open(options["out"], "w", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        rows = [(mu, row, col, *matrix[row][col])
                for mu, matrix in zip(kset.labels(), kset.pairs())
                for row in range(2) for col in range(2)]
        _emit(["mu", "row", "col", "re", "im"], rows, "csv", options["out"])
    return 0


def _input_sweep(thetas: list[float], deltas: list[float], steps: list[int],
                 measure) -> list[tuple]:
    """Rows ``(theta, delta, step, *measure(output))`` sorted by that key.

    ``measure`` maps the channel output for input angle ``delta`` to a
    tuple of row values; every step count of one angle comes from one walk.
    """
    inputs = [density_matrix(coin_state_from_angle(delta)) for delta in deltas]
    rows = []
    for theta in thetas:
        for kset in iter_kraus_steps(theta, steps):
            for delta, rho in zip(deltas, inputs):
                rows.append((theta, delta, kset.t, *measure(apply_kraus(kset, rho))))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def cmd_probability(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    options = _effective(args, parser, {
        "theta": None, "theta_grid": DEFAULT_THETA_GRID,
        "delta": None, "delta_grid": None,
        "steps": DEFAULT_HOLEVO_STEPS, "format": "csv", "out": None,
    })
    thetas = _theta_values(options)
    deltas = _delta_values(options)
    steps = _parse_steps(options["steps"])
    rows = _input_sweep(thetas, deltas, steps, lambda rho: (float(rho[0, 0].real),))
    _emit(["theta", "delta", "step", "p_up"], rows, options["format"], options["out"])
    return 0


def cmd_trace_distance(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    options = _effective(args, parser, {
        "theta": None, "theta_grid": DEFAULT_THETA_GRID,
        "steps": DEFAULT_TRACE_STEPS, "mode": "both",
        "format": "csv", "out": None,
    })
    thetas = _theta_values(options)
    steps = _parse_steps(options["steps"])
    n_max = max(steps)
    if options["mode"] not in ("nstep", "concat", "both"):
        parser.error(f"unknown mode {options['mode']!r}")
    modes = ["concat", "nstep"] if options["mode"] == "both" else [options["mode"]]

    rows = []
    for theta in thetas:
        for mode in modes:
            rows.append((theta, 0, mode, trace_distance(_RHO_UP, _RHO_DOWN)))
            series = td_series(theta, n_max, mode=mode)
            rows.extend((theta, n, mode, d)
                        for n, d in zip(series.steps, series.values)
                        if n in steps)
    rows.sort(key=lambda r: (r[0], r[2], r[1]))
    _emit(["theta", "step", "mode", "d"], rows, options["format"], options["out"])
    return 0


def cmd_rtn_composite(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    options = _effective(args, parser, {
        "theta": math.pi / 6, "steps": DEFAULT_TRACE_STEPS,
        "rtn_gamma": 1.0, "rtn_dt": 1.0, "rtn_a": None,
        "markovian_ratio": 0.4, "nonmarkovian_ratio": 2.0,
        "format": "csv", "out": None,
    })
    theta = _finite("theta", options["theta"])
    steps = _parse_steps(options["steps"])
    gamma = float(options["rtn_gamma"])
    dt = float(options["rtn_dt"])
    regimes = [
        ("none", None),
        ("markovian", RTNParams(a=float(options["markovian_ratio"]) * gamma,
                                gamma=gamma, dt=dt)),
        ("nonmarkovian", RTNParams(a=float(options["nonmarkovian_ratio"]) * gamma,
                                   gamma=gamma, dt=dt)),
    ]
    if options["rtn_a"] is not None:
        regimes.append(("custom", RTNParams(a=float(options["rtn_a"]),
                                            gamma=gamma, dt=dt)))
    order = {name: rank for rank, (name, _) in enumerate(regimes)}

    rows = []
    for kset in iter_kraus_steps(theta, steps):
        step = kset.t
        top = apply_kraus(kset, _RHO_UP)
        bottom = apply_kraus(kset, _RHO_DOWN)
        for name, params in regimes:
            if params is None:
                rows.append((step, name, trace_distance(top, bottom)))
            else:
                dephase = rtn_kraus(rtn_lambda(params, step * params.dt))
                rows.append((step, name,
                             trace_distance(apply_kraus(dephase, top),
                                            apply_kraus(dephase, bottom))))
    rows.sort(key=lambda r: (order[r[1]], r[0]))
    _emit(["step", "regime", "d"], rows, options["format"], options["out"])
    return 0


def _purity_and_mixedness(rho: np.ndarray) -> tuple[float, float]:
    # the qubit case of witnesses.mixedness, from the one purity evaluation
    p = purity(rho)
    return p, 2.0 * (1.0 - p)


def cmd_purity(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    options = _effective(args, parser, {
        "theta": None, "theta_grid": DEFAULT_THETA_GRID,
        "delta": None, "delta_grid": None,
        "steps": DEFAULT_HOLEVO_STEPS, "format": "csv", "out": None,
    })
    thetas = _theta_values(options)
    if options.get("delta") is None and options.get("delta_grid") is None:
        options["delta_grid"] = [0.0, math.pi, 33]
    deltas = _delta_values(options)
    steps = _parse_steps(options["steps"])
    rows = _input_sweep(thetas, deltas, steps, _purity_and_mixedness)
    _emit(["theta", "delta", "step", "purity", "mixedness"],
          rows, options["format"], options["out"])
    return 0


def cmd_holevo(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    options = _effective(args, parser, {
        "theta": None, "theta_grid": DEFAULT_THETA_GRID,
        "steps": DEFAULT_HOLEVO_STEPS, "grid_size": 33,
        "ensemble": None, "format": "csv", "out": None,
    })
    thetas = _theta_values(options)
    steps = _parse_steps(options["steps"])
    grid_size = int(options["grid_size"])
    if options["ensemble"] is None:
        rho1, rho2 = _default_ensemble_pair()
    else:
        try:
            rho1 = _matrix_from_pairs(options["ensemble"]["rho1"])
            rho2 = _matrix_from_pairs(options["ensemble"]["rho2"])
        except (KeyError, TypeError, ValueError) as exc:
            parser.error(f"bad ensemble spec: {exc}")
        assert_density_matrix(rho1, name="ensemble rho1")
        assert_density_matrix(rho2, name="ensemble rho2")

    rows = []
    for theta in thetas:
        for kset in iter_kraus_steps(theta, steps):
            chi, p_star = holevo_max(rho1, rho2, partial(apply_kraus, kset),
                                     grid_size=grid_size)
            rows.append((theta, kset.t, chi, p_star))
    rows.sort(key=lambda r: (r[0], r[1]))
    _emit(["theta", "step", "chi_max", "p1_star"],
          rows, options["format"], options["out"])
    return 0


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    results = run_checks()
    failed = [r for r in results if not r.passed]
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwchannel",
        description="Reduced coin dynamics of a discrete-time quantum walk "
                    "as an explicit quantum channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt_default: bool = True) -> None:
        p.add_argument("--config", help="JSON config file (flags win on conflict)")
        p.add_argument("--out", help="output path (default: stdout)")
        if fmt_default:
            p.add_argument("--format", choices=("csv", "json"),
                           help="output format (default: csv)")

    def theta_flags(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--theta", type=float, help="single coin angle (radians)")
        group.add_argument("--theta-grid", type=_parse_grid_text, dest="theta_grid",
                           help="coin angle grid start:stop:count")

    def delta_flags(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--delta", type=float,
                           help="input-state angle (radians)")
        group.add_argument("--delta-grid", type=_parse_grid_text, dest="delta_grid",
                           help="input-state angle grid start:stop:count")

    p = sub.add_parser("kraus", help="dump an extracted operator set")
    p.add_argument("--theta", type=float, help="coin angle in radians")
    p.add_argument("--t", type=int, help="number of walk steps")
    p.add_argument("--split", action="store_true", default=None,
                   help="extract the split-step set (one split step = two steps)")
    common(p)
    p.set_defaults(fn=cmd_kraus)

    p = sub.add_parser("probability", help="upper-coin probability sweep")
    theta_flags(p)
    delta_flags(p)
    p.add_argument("--steps", "--t", dest="steps",
                   help="max step count N (runs 1..N) or comma list")
    common(p)
    p.set_defaults(fn=cmd_probability)

    p = sub.add_parser("trace-distance", help="distinguishability series")
    theta_flags(p)
    p.add_argument("--steps", "--t", dest="steps")
    p.add_argument("--mode", choices=("nstep", "concat", "both"))
    common(p)
    p.set_defaults(fn=cmd_trace_distance)

    p = sub.add_parser("rtn-composite",
                       help="trace distance under walk + telegraph noise")
    p.add_argument("--theta", type=float)
    p.add_argument("--steps", "--t", dest="steps")
    p.add_argument("--rtn-a", type=float, dest="rtn_a",
                   help="extra custom-amplitude series")
    p.add_argument("--rtn-gamma", type=float, dest="rtn_gamma")
    p.add_argument("--rtn-dt", type=float, dest="rtn_dt")
    p.add_argument("--markovian-ratio", type=float, dest="markovian_ratio")
    p.add_argument("--nonmarkovian-ratio", type=float, dest="nonmarkovian_ratio")
    common(p)
    p.set_defaults(fn=cmd_rtn_composite)

    p = sub.add_parser("purity", help="output purity/mixedness sweep")
    theta_flags(p)
    delta_flags(p)
    p.add_argument("--steps", "--t", dest="steps")
    common(p)
    p.set_defaults(fn=cmd_purity)

    p = sub.add_parser("holevo", help="maximized Holevo quantity sweep")
    theta_flags(p)
    p.add_argument("--steps", "--t", dest="steps")
    p.add_argument("--grid-size", type=int, dest="grid_size",
                   help="coarse grid points for the weight search")
    common(p)
    p.set_defaults(fn=cmd_holevo)

    p = sub.add_parser("verify", help="run the consistency check suite")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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

Options may also come from a JSON config file (``--config``): flags win, a
config ``null`` is the same as leaving the key out, and a config may set only
one side of ``theta``/``theta_grid`` and of ``delta``/``delta_grid``.  Each
option has one check (``_CHECKS``), applied once to the merged value
whatever its source: numbers must be finite, counts (``t``, ``grid_size``,
step and grid counts) whole numbers up to ``MAX_COUNT``.  A refused value
exits 2 with a message naming the option.  Each sweep walks once per coin
angle (:func:`~qwchannel.kraus.iter_kraus_steps`); rows come out sorted.
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
)
from .kraus import (extract_kraus_direct, extract_kraus_split_step, iter_kraus_steps,
                    matrix_from_pairs)
from .verification import run_checks
from .witnesses import (
    _RHO_DOWN,
    _RHO_UP,
    MODE_COMPOSITE,
    MODE_NSTEP,
    holevo_max,
    purity,
    td_series,
    trace_distance,
)

DEFAULT_THETA_GRID = [0.0, math.pi, 64]
DEFAULT_TRACE_STEPS = 20
DEFAULT_HOLEVO_STEPS = 8

# largest count any option may ask for: 25x the largest in use (t = 4000),
# refused before anything is allocated
MAX_COUNT = 100_000


# -- option checks --------------------------------------------------------------
# A check returns the value in its working type, or raises ArgumentTypeError
# with a message naming the option.  Anything else a check raises (a failed
# conversion, index or lookup) is re-raised by _effective naming the option.

def _refuse(name: str, expected: str, value) -> argparse.ArgumentTypeError:
    return argparse.ArgumentTypeError(f"{name} must be {expected}, got {value!r}")


def _real(name: str, value) -> float:
    if isinstance(value, bool):
        raise _refuse(name, "a number", value)
    number = float(value)
    if not math.isfinite(number):
        raise _refuse(name, "finite", value)
    return number


def _positive(name: str, value) -> float:
    if (number := _real(name, value)) <= 0:
        raise _refuse(name, "positive", value)
    return number


def _nonnegative(name: str, value) -> float:
    if (number := _real(name, value)) < 0:
        raise _refuse(name, ">= 0", value)
    return number


def _count(name: str, value, low: int = 1) -> int:
    number = _real(name, value)
    if not (number.is_integer() and low <= number <= MAX_COUNT):
        raise _refuse(name, f"a whole number in [{low}, {MAX_COUNT}]", value)
    return int(number)


def _grid_parts(name: str, value) -> list:
    """``start:stop:count`` text or a list, as its three parts (the grid flags' type)."""
    parts = value.split(":") if isinstance(value, str) else value
    if len(parts) != 3:
        raise _refuse(name, "start:stop:count", value)
    return parts


def _grid(name: str, value) -> list[float]:
    parts = _grid_parts(name, value)
    start, stop = _real(name, parts[0]), _real(name, parts[1])
    return [float(v) for v in np.linspace(start, stop, _count(name, parts[2]))]


def _steps(name: str, value) -> list[int]:
    """A count N (steps 1..N), or a list or comma-separated text of step counts."""
    if isinstance(value, str) and "," in value:
        value = [part for part in value.split(",") if part.strip()]
    if not isinstance(value, list):
        return list(range(1, _count(name, value) + 1))
    if not value:
        raise _refuse(name, "a non-empty list", value)
    return sorted({_count(name, step) for step in value})


def _typed(kind: type, expected: str, name: str, value):
    if not isinstance(value, kind):
        raise _refuse(name, expected, value)
    return value


def _choice(allowed: tuple, name: str, value) -> str:
    if value not in allowed:
        raise _refuse(name, f"one of {', '.join(allowed)}", value)
    return value


def _ensemble(name: str, value) -> tuple[np.ndarray, np.ndarray]:
    """``{"rho1": ..., "rho2": ...}``, each a qubit state as 2x2 ``[re, im]`` pairs."""
    rho1, rho2 = matrix_from_pairs(value["rho1"]), matrix_from_pairs(value["rho2"])
    assert_density_matrix(rho1, name="rho1")
    assert_density_matrix(rho2, name="rho2")
    return rho1, rho2


_CHECKS = {
    "theta": _real, "delta": _real,
    "theta_grid": _grid, "delta_grid": _grid,
    "t": _count, "steps": _steps, "grid_size": partial(_count, low=3),
    "rtn_gamma": _positive, "rtn_dt": _positive, "rtn_a": _nonnegative,
    "markovian_ratio": _nonnegative, "nonmarkovian_ratio": _nonnegative,
    "split": partial(_typed, bool, "true or false"), "ensemble": _ensemble,
    "mode": partial(_choice, ("nstep", "concat", "both")),
    "format": partial(_choice, ("csv", "json")), "out": partial(_typed, str, "a path"),
}


# -- plumbing -----------------------------------------------------------------

def _load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        parser.error(f"config {path} must hold a JSON object")
    return {key.replace("-", "_"): value for key, value in config.items()}


# scalar/grid pairs: one side is in effect; a flag on one side silences the
# config's other side, and a config may set only one side
_EXCLUSIVE_PAIRS = (("theta", "theta_grid"), ("delta", "delta_grid"))


def _effective(args: argparse.Namespace, parser: argparse.ArgumentParser,
               defaults: dict) -> dict:
    """Merge defaults <- config file <- explicit flags, then check each value.

    ``None`` (a config ``null``, a flag not given) leaves the value below it.
    """
    config = _load_config(args.config, parser) if getattr(args, "config", None) else {}
    given = {key: value for key, value in config.items()
             if key in defaults and value is not None}
    flags = {key: getattr(args, key) for key in defaults
             if getattr(args, key, None) is not None}
    merged = dict(defaults)
    for pair in _EXCLUSIVE_PAIRS:
        if any(key in flags for key in pair):
            given = {key: value for key, value in given.items() if key not in pair}
        elif all(key in given for key in pair):
            raise argparse.ArgumentTypeError(
                f"config sets both {pair[0]} and {pair[1]}; give one")
        if any(key in given or key in flags for key in pair):
            merged.update((key, None) for key in pair if key in merged)
    merged.update(given)
    merged.update(flags)
    for key, value in merged.items():
        if value is not None:
            try:
                merged[key] = _CHECKS[key](key, value)
            except (TypeError, ValueError, IndexError, KeyError, OverflowError) as exc:
                raise ValueError(f"{key}: {exc}") from None
    return merged


def _sweep_values(options: dict, name: str) -> list[float]:
    """The values of a scalar/grid pair: the scalar alone, or the grid."""
    return options[name + "_grid"] if options[name] is None else [options[name]]


def _format_value(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(header: list[str], rows: list[tuple], options: dict) -> None:
    if options["format"] == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines.extend(",".join(_format_value(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write(text, options["out"])


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
    theta, t = options["theta"], options["t"]
    if theta is None or t is None:
        parser.error("kraus requires --theta and --t")
    extract = extract_kraus_split_step if options["split"] else extract_kraus_direct
    kset = extract(theta, t)
    if options["format"] == "json":
        _write(kset.to_json(indent=2) + "\n", options["out"])
    else:
        rows = [(mu, row, col, *matrix[row][col])
                for mu, matrix in zip(kset.labels(), kset.pairs())
                for row in range(2) for col in range(2)]
        _emit(["mu", "row", "col", "re", "im"], rows, options)
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
        "delta": 0.0, "delta_grid": None,
        "steps": DEFAULT_HOLEVO_STEPS, "format": "csv", "out": None,
    })
    rows = _input_sweep(_sweep_values(options, "theta"), _sweep_values(options, "delta"),
                        options["steps"], lambda rho: (float(rho[0, 0].real),))
    _emit(["theta", "delta", "step", "p_up"], rows, options)
    return 0


def cmd_trace_distance(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    options = _effective(args, parser, {
        "theta": None, "theta_grid": DEFAULT_THETA_GRID,
        "steps": DEFAULT_TRACE_STEPS, "mode": "both",
        "format": "csv", "out": None,
    })
    steps = options["steps"]
    modes = ["concat", "nstep"] if options["mode"] == "both" else [options["mode"]]

    rows = []
    for theta in _sweep_values(options, "theta"):
        for mode in modes:
            rows.append((theta, 0, mode, trace_distance(_RHO_UP, _RHO_DOWN)))
            series = td_series(theta, steps[-1], mode=mode)
            rows.extend((theta, n, mode, series.values[n - 1]) for n in steps)
    rows.sort(key=lambda r: (r[0], r[2], r[1]))
    _emit(["theta", "step", "mode", "d"], rows, options)
    return 0


def cmd_rtn_composite(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    options = _effective(args, parser, {
        "theta": math.pi / 6, "steps": DEFAULT_TRACE_STEPS,
        "rtn_gamma": 1.0, "rtn_dt": 1.0, "rtn_a": None,
        "markovian_ratio": 0.4, "nonmarkovian_ratio": 2.0,
        "format": "csv", "out": None,
    })
    steps = options["steps"]
    gamma, dt = options["rtn_gamma"], options["rtn_dt"]
    regimes = [
        ("none", None),
        ("markovian", RTNParams(a=options["markovian_ratio"] * gamma,
                                gamma=gamma, dt=dt)),
        ("nonmarkovian", RTNParams(a=options["nonmarkovian_ratio"] * gamma,
                                   gamma=gamma, dt=dt)),
    ]
    if options["rtn_a"] is not None:
        regimes.append(("custom", RTNParams(a=options["rtn_a"], gamma=gamma, dt=dt)))

    rows = []
    for name, params in regimes:
        series = td_series(options["theta"], steps[-1], rtn=params,
                           mode=MODE_NSTEP if params is None else MODE_COMPOSITE)
        rows.extend((n, name, series.values[n - 1]) for n in steps)
    _emit(["step", "regime", "d"], rows, options)
    return 0


def _purity_and_mixedness(rho: np.ndarray) -> tuple[float, float]:
    # the qubit case of witnesses.mixedness, from the one purity evaluation
    p = purity(rho)
    return p, 2.0 * (1.0 - p)


def cmd_purity(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    options = _effective(args, parser, {
        "theta": None, "theta_grid": DEFAULT_THETA_GRID,
        "delta": None, "delta_grid": [0.0, math.pi, 33],
        "steps": DEFAULT_HOLEVO_STEPS, "format": "csv", "out": None,
    })
    rows = _input_sweep(_sweep_values(options, "theta"), _sweep_values(options, "delta"),
                        options["steps"], _purity_and_mixedness)
    _emit(["theta", "delta", "step", "purity", "mixedness"], rows, options)
    return 0


def cmd_holevo(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    options = _effective(args, parser, {
        "theta": None, "theta_grid": DEFAULT_THETA_GRID,
        "steps": DEFAULT_HOLEVO_STEPS, "grid_size": 33,
        "ensemble": None, "format": "csv", "out": None,
    })
    rho1, rho2 = options["ensemble"] or _default_ensemble_pair()

    rows = []
    for theta in _sweep_values(options, "theta"):
        for kset in iter_kraus_steps(theta, options["steps"]):
            chi, p_star = holevo_max(rho1, rho2, partial(apply_kraus, kset),
                                     grid_size=options["grid_size"])
            rows.append((theta, kset.t, chi, p_star))
    rows.sort(key=lambda r: (r[0], r[1]))
    _emit(["theta", "step", "chi_max", "p1_star"], rows, options)
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

    def command(name: str, fn, help: str, steps: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON config file (flags win on conflict)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"),
                       help="output format (default: csv)")
        if steps:
            p.add_argument("--steps", "--t", dest="steps",
                           help="max step count N (runs 1..N) or comma list")
        return p

    def pair_flags(p: argparse.ArgumentParser, name: str, what: str) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument(f"--{name}", type=float, help=f"single {what} (radians)")
        group.add_argument(f"--{name}-grid", dest=f"{name}_grid",
                           type=partial(_grid_parts, f"{name}_grid"),
                           help=f"{what} grid start:stop:count")

    p = command("kraus", cmd_kraus, "dump an extracted operator set", steps=False)
    p.add_argument("--theta", type=float, help="coin angle in radians")
    p.add_argument("--t", type=int, help="number of walk steps")
    p.add_argument("--split", action="store_true", default=None,
                   help="extract the split-step set (one split step = two steps)")

    p = command("probability", cmd_probability, "upper-coin probability sweep")
    pair_flags(p, "theta", "coin angle")
    pair_flags(p, "delta", "input-state angle")

    p = command("trace-distance", cmd_trace_distance, "distinguishability series")
    pair_flags(p, "theta", "coin angle")
    p.add_argument("--mode", choices=("nstep", "concat", "both"))

    p = command("rtn-composite", cmd_rtn_composite,
                "trace distance under walk + telegraph noise")
    p.add_argument("--theta", type=float)
    p.add_argument("--rtn-a", type=float, dest="rtn_a",
                   help="extra custom-amplitude series")
    p.add_argument("--rtn-gamma", type=float, dest="rtn_gamma")
    p.add_argument("--rtn-dt", type=float, dest="rtn_dt")
    p.add_argument("--markovian-ratio", type=float, dest="markovian_ratio")
    p.add_argument("--nonmarkovian-ratio", type=float, dest="nonmarkovian_ratio")

    p = command("purity", cmd_purity, "output purity/mixedness sweep")
    pair_flags(p, "theta", "coin angle")
    pair_flags(p, "delta", "input-state angle")

    p = command("holevo", cmd_holevo, "maximized Holevo quantity sweep")
    pair_flags(p, "theta", "coin angle")
    p.add_argument("--grid-size", type=int, dest="grid_size",
                   help="coarse grid points for the weight search")

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

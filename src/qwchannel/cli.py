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
one side of ``theta``/``theta_grid`` and of ``delta``/``delta_grid``.  A
config key that belongs to another subcommand is ignored, so one file can
serve several commands; a key that no subcommand takes exits 2 naming it.
Each option has one check (``_CHECKS``, the rules of :mod:`qwchannel.inputs`),
applied once to the merged value whatever its source: numbers must be finite,
counts (``t``, ``grid_size``, step and grid counts) whole numbers up to
``MAX_COUNT``.  A refused value exits 2 with a message naming the option.

Each sweep is one batched walk of all its coin angles
(:func:`~qwchannel.channels.channel_outputs`), in chunks of at most
``(MAX_COUNT + 1) // (largest step + 1)`` angles, so a sweep never holds
more operators than one angle walked ``MAX_COUNT`` steps.  The input states
of a sweep are applied as one matrix; rows come out sorted.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from functools import partial

import numpy as np

from .channels import (
    RTNParams,
    channel_outputs,
    coin_state_from_angle,
    density_matrix,
)
from .inputs import count, nonnegative, positive, real, refuse, states, step_list
from .kraus import (
    extract_kraus_direct,
    extract_kraus_split_step,
    matrix_from_pairs,
)
from .verification import run_checks
from .witnesses import (
    _RHO_DOWN,
    _RHO_UP,
    holevo_max_batch,
    purity,
    td_regimes,
    td_values,
    trace_distance,
)

DEFAULT_THETA_GRID = [0.0, math.pi, 64]
DEFAULT_TRACE_STEPS = 20
DEFAULT_HOLEVO_STEPS = 8


# -- option checks --------------------------------------------------------------
# A check returns the value in its working type, or raises ValueError with a
# message naming the option: the rules of qwchannel.inputs, plus the parsing
# of this command line's own text.  Anything else a check raises (a failed
# index or lookup) is re-raised by _effective naming the option.

def _grid_parts(name: str, value) -> list:
    """``start:stop:count`` text or a list, as its three parts (the grid flags' type)."""
    parts = value.split(":") if isinstance(value, str) else value
    if len(parts) != 3:
        # argparse prints an ArgumentTypeError's message as it is
        raise argparse.ArgumentTypeError(str(refuse(name, "start:stop:count", value)))
    return parts


def _grid(name: str, value) -> list[float]:
    parts = _grid_parts(name, value)
    return np.linspace(real(name, parts[0]), real(name, parts[1]),
                       count(name, parts[2])).tolist()


def _steps(name: str, value) -> list[int]:
    """A count N (steps 1..N), or a list or comma-separated text of step counts."""
    if isinstance(value, str) and "," in value:
        value = [part for part in value.split(",") if part.strip()]
    if not isinstance(value, list):
        return list(range(1, count(name, value) + 1))
    return step_list(name, value)


def _typed(kind: type, expected: str, name: str, value):
    if not isinstance(value, kind):
        raise refuse(name, expected, value)
    return value


def _choice(allowed: tuple, name: str, value) -> str:
    if value not in allowed:
        raise refuse(name, f"one of {', '.join(allowed)}", value)
    return value


def _ensemble(name: str, value) -> tuple[np.ndarray, np.ndarray]:
    """``{"rho1": ..., "rho2": ...}``, each a qubit state as 2x2 ``[re, im]`` pairs."""
    try:
        rho1, rho2 = matrix_from_pairs(value["rho1"]), matrix_from_pairs(value["rho2"])
    except ValueError:  # a row that is not a list of [re, im] pairs
        raise refuse(name, "rho1 and rho2 as [re, im] pairs", value) from None
    return states("rho1", rho1), states("rho2", rho2)


_CHECKS = {
    "theta": real, "delta": real,
    "theta_grid": _grid, "delta_grid": _grid,
    "t": count, "steps": _steps, "grid_size": partial(count, low=3),
    "rtn_gamma": positive, "rtn_dt": positive, "rtn_a": nonnegative,
    "markovian_ratio": nonnegative, "nonmarkovian_ratio": nonnegative,
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
    for key in config:
        if key not in _CHECKS:
            raise ValueError(f"config key {key!r} is not an option of any subcommand")
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
            except (TypeError, IndexError, KeyError) as exc:
                raise ValueError(f"{key}: {exc}") from None
    return merged


def _sweep_values(options: dict, name: str) -> list[float]:
    """The values of a scalar/grid pair: the scalar alone, or the grid."""
    return options[name + "_grid"] if options[name] is None else [options[name]]


# lines per write: few writes even to an unbuffered stdout, and only a piece
# of a large sweep's text in memory at a time
_LINES_PER_WRITE = 1024


def _write(lines: Iterable[str], out: str | None) -> None:
    """Write the lines (each with its newline) to the file ``out``, or to stdout."""
    lines = iter(lines)
    with open(out, "w", newline="\n") if out else contextlib.nullcontext(sys.stdout) as fh:
        while text := "".join(itertools.islice(lines, _LINES_PER_WRITE)):
            fh.write(text)


def _emit(header: list[str], rows: Iterable[tuple], options: dict) -> None:
    if options["format"] == "json":
        lines = [json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"]
    else:
        lines = itertools.chain([",".join(header) + "\n"],
                                (",".join(map(str, row)) + "\n" for row in rows))
    _write(lines, options["out"])


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
        _write([kset.to_json(indent=2) + "\n"], options["out"])
    else:
        rows = [(mu, row, col, *matrix[row][col])
                for mu, matrix in zip(kset.labels(), kset.pairs())
                for row in range(2) for col in range(2)]
        _emit(["mu", "row", "col", "re", "im"], rows, options)
    return 0


def _sorted_rows(columns: tuple, keys: tuple) -> Iterator[tuple]:
    """Row tuples of equal-shape arrays, stably sorted by ``keys``, first key first.

    The rows are made one at a time, as they are emitted.
    """
    order = np.lexsort([np.ravel(key) for key in reversed(keys)])
    return zip(*(np.ravel(column)[order].tolist() for column in columns))


def _input_sweep(thetas: list[float], deltas: list[float], steps: list[int],
                 measure) -> Iterator[tuple]:
    """Rows ``(theta, delta, step, *measure(outputs))`` sorted by that key.

    ``measure`` maps the channel outputs, shape ``(theta, step, delta, 2, 2)``,
    to a tuple of arrays of row values; all angles come from one batched
    walk and all input angles are applied as one matrix.
    """
    inputs = np.array([density_matrix(coin_state_from_angle(delta)) for delta in deltas])
    outputs = channel_outputs(thetas, steps, inputs)
    theta, step, delta = np.meshgrid(thetas, steps, deltas, indexing="ij")
    return _sorted_rows((theta, delta, step, *measure(outputs)), keys=(theta, delta, step))


def cmd_probability(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    options = _effective(args, parser, {
        "theta": None, "theta_grid": DEFAULT_THETA_GRID,
        "delta": 0.0, "delta_grid": None,
        "steps": DEFAULT_HOLEVO_STEPS, "format": "csv", "out": None,
    })
    rows = _input_sweep(_sweep_values(options, "theta"), _sweep_values(options, "delta"),
                        options["steps"], lambda outputs: (outputs[..., 0, 0].real,))
    _emit(["theta", "delta", "step", "p_up"], rows, options)
    return 0


def cmd_trace_distance(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    options = _effective(args, parser, {
        "theta": None, "theta_grid": DEFAULT_THETA_GRID,
        "steps": DEFAULT_TRACE_STEPS, "mode": "both",
        "format": "csv", "out": None,
    })
    thetas, steps = _sweep_values(options, "theta"), options["steps"]
    modes = ["concat", "nstep"] if options["mode"] == "both" else [options["mode"]]
    start = trace_distance(_RHO_UP, _RHO_DOWN)
    # axes (theta, mode, step), step 0 first
    values = np.stack([np.insert(td_values(thetas, steps, mode=mode), 0, start, axis=1)
                       for mode in modes], axis=1)
    theta, mode, step = np.meshgrid(thetas, modes, [0, *steps], indexing="ij")
    rows = _sorted_rows((theta, step, mode, values), keys=(theta, mode, step))
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

    values = td_regimes([options["theta"]], steps, [params for _, params in regimes])
    rows = [(n, name, d) for (name, _), series in zip(regimes, values[:, 0].tolist())
            for n, d in zip(steps, series)]
    _emit(["step", "regime", "d"], rows, options)
    return 0


def _purity_and_mixedness(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the qubit case of witnesses.mixedness, from the one purity evaluation
    p = purity(outputs)
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
    thetas, steps = _sweep_values(options, "theta"), options["steps"]
    ensemble = np.array(options["ensemble"] or _default_ensemble_pair())
    outputs = channel_outputs(thetas, steps, ensemble)
    chi, p_star = holevo_max_batch(outputs[..., 0, :, :], outputs[..., 1, :, :],
                                   grid_size=options["grid_size"])
    theta, step = np.meshgrid(thetas, steps, indexing="ij")
    rows = _sorted_rows((theta, step, chi, p_star), keys=(theta, step))
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
        group.add_argument(f"--{name}", help=f"single {what} (radians)")
        group.add_argument(f"--{name}-grid", dest=f"{name}_grid",
                           type=partial(_grid_parts, f"{name}_grid"),
                           help=f"{what} grid start:stop:count")

    p = command("kraus", cmd_kraus, "dump an extracted operator set", steps=False)
    p.add_argument("--theta", help="coin angle in radians")
    p.add_argument("--t", help="number of walk steps")
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
    p.add_argument("--theta")
    p.add_argument("--rtn-a", dest="rtn_a", help="extra custom-amplitude series")
    p.add_argument("--rtn-gamma", dest="rtn_gamma")
    p.add_argument("--rtn-dt", dest="rtn_dt")
    p.add_argument("--markovian-ratio", dest="markovian_ratio")
    p.add_argument("--nonmarkovian-ratio", dest="nonmarkovian_ratio")

    p = command("purity", cmd_purity, "output purity/mixedness sweep")
    pair_flags(p, "theta", "coin angle")
    pair_flags(p, "delta", "input-state angle")

    p = command("holevo", cmd_holevo, "maximized Holevo quantity sweep")
    pair_flags(p, "theta", "coin angle")
    p.add_argument("--grid-size", dest="grid_size",
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

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

Each option is declared once, in ``_OPTIONS``: its check and its flag help.
Each subcommand is declared once, in ``COMMANDS``: its handler, its help line
and its option defaults.  The command line is read against the two tables
(``_parse``), and ``--help`` is printed from them.  :func:`main` merges the
command's options once (``_effective``), passes them to the handler, and
writes what the handler returns: a header and its columns, or a finished
document (``kraus --format json``).

Every flag is plain text, and the parser checks no value.  The first token
names the command.  A value flag takes ``--flag=value``, or else the next
token whatever it starts with, unless that token is one of the command's
flags (``-h`` included), which leaves the value missing.  A boolean flag is
bare.  A repeated flag keeps its last value, and there are no abbreviations.
``-h``/``--help`` anywhere else prints the help and exits 0.  Unknown tokens
are refused together after the scan.  A parser error raises
``SystemExit(2)``, with the same message on every Python from 3.10 to 3.13.

Options may also come from a JSON config file (``--config``): flags win,
and a config ``null`` is the same as leaving the key out.  Only one side of
``theta``/``theta_grid`` and of ``delta``/``delta_grid`` may be set, by the
flags or by the config; a flag on one side silences the config's other side.
A config key that belongs to another subcommand is ignored, so one file can
serve several commands; a key that no subcommand takes exits 2 naming it.
Each option's one check (the rules of :mod:`qwchannel.inputs`) is applied
once to the merged value whatever its source: numbers must be finite,
counts (``t``, step and grid counts) whole numbers up to ``MAX_COUNT``,
``format`` and ``mode`` one of their choices.  A refused value exits 2 with
a message naming the option.

Each sweep is one batched walk of all its coin angles
(:func:`~qwchannel.channels.channel_outputs`); the ``concat`` rows of
``trace-distance`` come from one batched one-step walk, whose channels are
applied n times.  A walk goes in chunks of at most ``(MAX_COUNT + 1) //
(largest step + 1)`` angles, so a sweep never holds more operators than one
angle walked ``MAX_COUNT`` steps.  The input states of a sweep are built as
one array by the batched :func:`~qwchannel.channels.density_matrix` and
applied as one array.  The module uses only public names of the package.
Rows run in C order over the arrays that hold them: coin angle, then input
angle (or series mode, or noise regime), then step count.  Each grid is
sorted once, by its check, so nothing is sorted afterwards, and a point a
grid repeats repeats its block of rows.  Output is written by column
(``_emit``): one encoder call per column, a fixed template per row, and rows
streamed in pieces, with the bytes of formatting each value on its own.  Key
axes come as open grids, so each of their points is formatted once.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
from collections.abc import Iterable
from functools import partial

import numpy as np

from .channels import (
    RTNParams,
    channel_outputs,
    coin_state_from_angle,
    density_matrix,
)
from .inputs import MAX_COUNT, Steps, count, nonnegative, positive, real, refuse, states, step_list
from .kraus import (
    extract_kraus_direct,
    extract_kraus_split_step,
    matrix_from_pairs,
)
from .verification import run_checks
from .witnesses import holevo_max_batch, mixedness, purity, td_regimes, td_values

# -- option checks --------------------------------------------------------------
# A check returns the value in its working type, or raises ValueError with a
# message naming the option: the rules of qwchannel.inputs, plus the parsing
# of this command line's own text.  Anything else a check raises (a failed
# index or lookup) is re-raised by _effective naming the option.

def _grid(name: str, value) -> list[float]:
    """``start:stop:count`` text or a ``[start, stop, count]`` list, as its points sorted."""
    parts = value.split(":") if isinstance(value, str) else value
    if not (isinstance(parts, list) and len(parts) == 3):
        raise refuse(name, "start:stop:count", value)
    start, stop = real(name, parts[0]), real(name, parts[1])
    if not math.isfinite(stop - start):  # linspace's step would overflow
        raise refuse(name, "start:stop:count with a finite span stop - start", value)
    return np.sort(np.linspace(start, stop, count(name, parts[2])), kind="stable").tolist()


def _steps(name: str, value) -> Steps:
    """A count N (steps 1..N), or a list or comma-separated text of step counts."""
    if isinstance(value, str) and "," in value:
        value = [part for part in value.split(",") if part.strip()]
    if not isinstance(value, list):
        value = range(1, count(name, value) + 1)
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


# each option's check and its flag help (None: a config key with no flag)
_OPTIONS = {
    "theta": (real, "coin angle in radians"),
    "theta_grid": (_grid, "coin angle grid start:stop:count"),
    "delta": (real, "input-state angle in radians"),
    "delta_grid": (_grid, "input-state angle grid start:stop:count"),
    "t": (count, "number of walk steps"),
    "steps": (_steps, "max step count N (runs 1..N) or comma list"),
    "rtn_gamma": (positive, "telegraph fluctuation rate"),
    "rtn_dt": (positive, "time per walk step"),
    "rtn_a": (nonnegative, "amplitude of an extra custom series"),
    "split": (partial(_typed, bool, "true or false"),
              "extract the split-step set (one split step = two steps)"),
    "ensemble": (_ensemble, None),
    "mode": (partial(_choice, ("nstep", "concat", "both")), "series: nstep, concat or both"),
    "format": (partial(_choice, ("csv", "json")), "output format: csv or json"),
    "out": (partial(_typed, str, "a path"), "output path (stdout if not given)"),
}


# -- plumbing -----------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return {key.replace("-", "_"): value for key, value in config.items()}


# scalar/grid pairs: one side is in effect; a flag on one side silences the
# config's other side, and the flags, like a config, may set only one side
_EXCLUSIVE_PAIRS = (("theta", "theta_grid"), ("delta", "delta_grid"))


def _effective(command: str, config_path: str | None, flags: dict) -> dict:
    """Merge the command's defaults <- config file <- given flags, then check each value.

    ``None`` (a config ``null``) leaves the value below it.
    """
    defaults = COMMANDS[command][2]
    config = _load_config(config_path) if config_path else {}
    for key in config:
        if key not in _OPTIONS:
            raise ValueError(f"config key {key!r} is not an option of any subcommand")
    given = {key: value for key, value in config.items()
             if key in defaults and value is not None}
    merged = dict(defaults)
    for pair in _EXCLUSIVE_PAIRS:
        if any(key in flags for key in pair):
            given = {key: value for key, value in given.items() if key not in pair}
        for source, values in (("flags set", flags), ("config sets", given)):
            if all(key in values for key in pair):
                raise ValueError(f"{source} both {pair[0]} and {pair[1]}; give one")
        if any(key in given or key in flags for key in pair):
            merged.update((key, None) for key in pair if key in merged)
    merged.update(given)
    merged.update(flags)
    for key, value in merged.items():
        if value is not None:
            try:
                merged[key] = _OPTIONS[key][0](key, value)
            except (TypeError, IndexError, KeyError) as exc:
                raise ValueError(f"{key}: {exc}") from None
    return merged


def _sweep_values(options: dict, name: str) -> list[float]:
    """The values of a scalar/grid pair: the scalar alone, or the grid."""
    return options[name + "_grid"] if options[name] is None else [options[name]]


# rows per write: few writes even to an unbuffered stdout, and only a piece
# of a large sweep's text in memory at a time
_LINES_PER_WRITE = 1024


def _write(lines: Iterable[str], out: str | None) -> None:
    """Write the pieces of text (rows, each with its line ends) to ``out``, or to stdout."""
    lines = iter(lines)
    with open(out, "w", newline="\n") if out else contextlib.nullcontext(sys.stdout) as fh:
        while text := "".join(itertools.islice(lines, _LINES_PER_WRITE)):
            fh.write(text)


def _cells(column: list, as_json: bool) -> list[str]:
    """A column's cell texts, from one encoder call if it holds numbers.

    Strings are written raw in CSV and quoted in JSON.  JSON spells a
    non-finite number ``NaN``/``Infinity``, as ``json.dumps`` does; CSV keeps
    ``repr``'s ``nan``/``inf``, as ``str`` does.
    """
    if isinstance(column[0], str):
        return list(map(json.dumps, column)) if as_json else column
    return (json.dumps(column) if as_json else repr(column))[1:-1].split(", ")


def _emit(header: list[str], columns: list[np.ndarray], options: dict) -> None:
    """Write arrays broadcast together, read in C order, as CSV rows or a JSON list of row objects.

    The text is that of ``str`` per CSV value, or of ``json.dumps(rows,
    indent=2)``.  Each row fills a fixed template from its columns' cells.
    A column smaller than the rows (a key axis of an open grid) is formatted
    once, at its own shape, and read through a broadcast view; the others
    are formatted a block of rows at a time, as the rows are written.
    """
    as_json = options["format"] == "json"
    columns = [np.asarray(column) for column in columns]
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    rows = math.prod(shape)

    def reader(column: np.ndarray):
        if column.size < rows:
            cells = np.array(_cells(column.ravel().tolist(), as_json), dtype=object)
            grid = np.broadcast_to(cells.reshape(column.shape), shape)
            return lambda start: grid.flat[start:start + _LINES_PER_WRITE]
        column = column.reshape(-1)
        return lambda start: _cells(column[start:start + _LINES_PER_WRITE].tolist(), as_json)

    readers = [reader(column) for column in columns]
    cells = itertools.chain.from_iterable(
        zip(*(read(start) for read in readers)) for start in range(0, rows, _LINES_PER_WRITE))
    if as_json:
        row = "  {\n" + ",\n".join(f"    {json.dumps(key)}: %s" for key in header) + "\n  }"
        # a comma goes before every row but the first
        lines = itertools.chain(["[\n"], map(row.__mod__, itertools.islice(cells, 1)),
                                map((",\n" + row).__mod__, cells), ["\n]\n"])
    else:
        row = ",".join(["%s"] * len(header)) + "\n"
        lines = itertools.chain([",".join(header) + "\n"], map(row.__mod__, cells))
    _write(lines, options["out"])


def _default_ensemble_pair() -> tuple[np.ndarray, np.ndarray]:
    up, down = density_matrix(np.eye(2))
    plus, minus = density_matrix(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
    return 0.25 * up + 0.75 * down, plus / 6 + 5 * minus / 6


# -- subcommands ----------------------------------------------------------------

def cmd_kraus(options: dict) -> str | tuple[list[str], list[np.ndarray]]:
    theta, t = options["theta"], options["t"]
    if theta is None or t is None:
        raise ValueError("kraus requires --theta and --t")
    if options["split"]:
        # a split step is two walk steps, so t is capped at half, under its own name
        kset = extract_kraus_split_step(theta, count("t", t, high=MAX_COUNT // 2))
    else:
        kset = extract_kraus_direct(theta, t)
    if options["format"] == "json":
        return kset.to_json(indent=2) + "\n"
    # one CSV row per matrix entry: (label, row, col) by (re, im)
    values = kset.pair_array()
    mu, row, col = np.meshgrid(kset.labels(), [0, 1], [0, 1], indexing="ij", sparse=True)
    return ["mu", "row", "col", "re", "im"], [mu, row, col, values[..., 0], values[..., 1]]


def _input_sweep(thetas: list[float], deltas: list[float], steps: list[int],
                 measure) -> list[np.ndarray]:
    """Columns ``theta, delta, step`` as an open grid, then ``*measure(outputs)``.

    ``measure`` maps the channel outputs, shape ``(theta, delta, step, 2, 2)``,
    to a tuple of arrays of row values; all angles come from one batched
    walk and all input angles are applied as one array.
    """
    kets = np.array([coin_state_from_angle(delta) for delta in deltas])
    outputs = channel_outputs(thetas, steps, density_matrix(kets))
    return [*np.meshgrid(thetas, deltas, steps, indexing="ij", sparse=True),
            *measure(outputs.swapaxes(1, 2))]


def cmd_probability(options: dict) -> tuple[list[str], list[np.ndarray]]:
    columns = _input_sweep(_sweep_values(options, "theta"), _sweep_values(options, "delta"),
                           options["steps"], lambda outputs: (outputs[..., 0, 0].real,))
    return ["theta", "delta", "step", "p_up"], columns


def cmd_trace_distance(options: dict) -> tuple[list[str], list[np.ndarray]]:
    thetas, steps = _sweep_values(options, "theta"), options["steps"]
    modes = ["concat", "nstep"] if options["mode"] == "both" else [options["mode"]]
    # axes (theta, mode, step), step 0 first: the inputs |0><0| and |1><1| are
    # orthogonal pure states, at trace distance 1 before any step
    values = np.stack([np.insert(td_values(thetas, steps, mode=mode), 0, 1.0, axis=1)
                       for mode in modes], axis=1)
    theta, mode, step = np.meshgrid(thetas, modes, [0, *steps], indexing="ij", sparse=True)
    return ["theta", "step", "mode", "d"], [theta, step, mode, values]


def cmd_rtn_composite(options: dict) -> tuple[list[str], list[np.ndarray]]:
    steps = options["steps"]
    gamma, dt = options["rtn_gamma"], options["rtn_dt"]
    # the regime amplitudes a = 0.4 and 2.0 rtn_gamma (overdamped and oscillatory
    # kernel), each checked under the name of the option it scales
    regimes = [("none", None)] + [
        (name, RTNParams(a=real(f"{ratio} * rtn_gamma", ratio * gamma), gamma=gamma, dt=dt))
        for name, ratio in (("markovian", 0.4), ("nonmarkovian", 2.0))]
    if options["rtn_a"] is not None:
        regimes.append(("custom", RTNParams(a=options["rtn_a"], gamma=gamma, dt=dt)))

    values = td_regimes([options["theta"]], steps, [params for _, params in regimes])
    # rows by regime, then step
    regime, step = np.meshgrid([name for name, _ in regimes], steps, indexing="ij", sparse=True)
    return ["step", "regime", "d"], [step, regime, values[:, 0]]


def cmd_purity(options: dict) -> tuple[list[str], list[np.ndarray]]:
    columns = _input_sweep(_sweep_values(options, "theta"), _sweep_values(options, "delta"),
                           options["steps"], lambda outputs: (purity(outputs), mixedness(outputs)))
    return ["theta", "delta", "step", "purity", "mixedness"], columns


def cmd_holevo(options: dict) -> tuple[list[str], list[np.ndarray]]:
    thetas, steps = _sweep_values(options, "theta"), options["steps"]
    ensemble = np.array(options["ensemble"] or _default_ensemble_pair())
    outputs = channel_outputs(thetas, steps, ensemble)
    chi, p_star = holevo_max_batch(outputs[..., 0, :, :], outputs[..., 1, :, :])
    return ["theta", "step", "chi_max", "p1_star"], [
        *np.meshgrid(thetas, steps, indexing="ij", sparse=True), chi, p_star]


def cmd_verify() -> int:
    results = run_checks()
    failed = [r for r in results if not r.passed]
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# -- the options of each subcommand --------------------------------------------

_THETAS = {"theta": None, "theta_grid": [0.0, math.pi, 64]}
_OUTPUT = {"format": "csv", "out": None}

# subcommand -> (handler, help line, option defaults).  The handler maps the
# checked options to what the command prints, a header and its columns or a
# finished document, and main writes it.  A None default leaves the option
# unset, and the order is the order of the flags and the checks.
COMMANDS = {
    "kraus": (cmd_kraus, "dump an extracted operator set",
              {"theta": None, "t": None, "split": False, "format": "json", "out": None}),
    "probability": (cmd_probability, "upper-coin probability sweep",
                    {**_THETAS, "delta": 0.0, "delta_grid": None, "steps": 8, **_OUTPUT}),
    "trace-distance": (cmd_trace_distance, "distinguishability series",
                       {**_THETAS, "steps": 20, "mode": "both", **_OUTPUT}),
    "rtn-composite": (cmd_rtn_composite, "trace distance under walk + telegraph noise",
                      {"theta": math.pi / 6, "steps": 20, "rtn_gamma": 1.0, "rtn_dt": 1.0,
                       "rtn_a": None, **_OUTPUT}),
    "purity": (cmd_purity, "output purity/mixedness sweep",
               {**_THETAS, "delta": None, "delta_grid": [0.0, math.pi, 33], "steps": 8,
                **_OUTPUT}),
    "holevo": (cmd_holevo, "maximized Holevo quantity sweep",
               {**_THETAS, "steps": 8, "ensemble": None, **_OUTPUT}),
}


def _shown(default) -> str:
    """A default as flag text."""
    return ":".join(map(str, default)) if isinstance(default, list) else str(default)


def _flags(defaults: dict):
    """``(flag, key, default)`` for each of a command's options that has a flag."""
    for key, default in defaults.items():
        if _OPTIONS[key][1] is not None:
            yield "--" + key.replace("_", "-"), key, default


_HELP = ("-h", "--help")


def _usage(command: str | None) -> str:
    return f"usage: qwchannel {command or 'COMMAND'} [options]\n"


def _help(command: str | None):
    """Print the help of ``command``, or of the program, from the two tables; exit 0."""
    if command is None:
        heading, indent = ("\nReduced coin dynamics of a discrete-time quantum walk as an "
                           "explicit quantum channel.\n\ncommands:\n"), "    "
        entries = [*((name, summary) for name, (_, summary, _) in COMMANDS.items()),
                   ("verify", "run the consistency check suite")]
    else:
        heading, indent = "\noptions:\n", "  "
        entries = [("-h, --help", "show this help message and exit")]
    if command in COMMANDS:
        entries.append(("--config CONFIG", "JSON config file (flags win on conflict)"))
        for flag, key, default in _flags(COMMANDS[command][2]):
            text = _OPTIONS[key][1] + ("" if default is None else f" (default: {_shown(default)})")
            entries.append((flag if isinstance(default, bool) else f"{flag} {key.upper()}", text))
    width = max(len(spec) for spec, _ in entries) + 2
    print(_usage(command) + heading, *(f"{indent}{spec:<{width}}{text}\n"
                                       for spec, text in entries), sep="", end="")
    raise SystemExit(0)


def _fail(command: str | None, message: str):
    """Exit 2 with a usage error."""
    prog = f"qwchannel {command}" if command else "qwchannel"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _parse(argv: list[str]) -> tuple[str, str | None, dict]:
    """The command that ``argv`` names, its ``--config`` path and its given flags.

    The flags map each option key to its text, or to True for a boolean
    flag; the rules are those of the module docstring.
    """
    if not argv:
        _fail(None, "the following arguments are required: command")
    command = argv[0]
    if command in _HELP:
        _help(None)
    if command not in COMMANDS and command != "verify":
        choices = ", ".join(repr(name) for name in [*COMMANDS, "verify"])
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    # flag -> (option key, whether it takes a value); verify takes only -h
    options = dict.fromkeys(_HELP, ("help", False))
    if command != "verify":
        options["--config"] = ("config", True)
        options.update((flag, (key, not isinstance(default, bool)))
                       for flag, key, default in _flags(COMMANDS[command][2]))
    given, unknown = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        flag, attached, value = token.partition("=")
        if flag not in options:
            unknown.append(token)
            continue
        key, takes_value = options[flag]
        if attached and not takes_value:
            _fail(command, f"argument {flag}: ignored explicit argument {value!r}")
        if key == "help":
            _help(command)
        if takes_value and not attached:
            value = next(tokens, None)
            if value is None or value in options:
                _fail(command, f"argument {flag}: expected one argument")
        given[key] = value if takes_value else True
    if unknown:
        _fail(command, f"unrecognized arguments: {' '.join(unknown)}")
    return command, given.pop("config", None), given


def main(argv=None) -> int:
    command, config_path, flags = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        if command == "verify":
            return cmd_verify()
        options = _effective(command, config_path, flags)
        output = COMMANDS[command][0](options)
        if isinstance(output, str):
            _write([output], options["out"])
        else:
            _emit(*output, options)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Output checks: every job's output against the oracle or a property.

Each check takes a job result ``{"exit": int, "stdout": str}``, the job's
``params`` and the shared :class:`Context`, and raises :class:`CheckFailed`
on the first mismatch.  :func:`corruptions` yields damaged copies of a
correct result (one perturbed value, one dropped row); every check must
reject each of them, which shows the check can fail at all.
"""

from __future__ import annotations

import json

import numpy as np

import oracle

TOL = 1e-12          # sweep values against the oracle
CHANNEL_TOL = 1e-10  # a set's action on random states against the walk
HOLEVO_TOL = 1e-9    # chi_max may sit this far below the oracle's maximum
PERTURBATION = 1e-6


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(got, want, tol: float, what: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    require(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    require(worst <= tol, f"{what}: deviation {worst:.3e} above {tol:.0e}")


def grid(spec) -> np.ndarray:
    start, stop, count = spec
    return np.linspace(float(start), float(stop), int(count))


class Context:
    """Seeded inputs plus oracle results shared by the checks of one run."""

    def __init__(self, kets: np.ndarray, jobs: list[dict]) -> None:
        self.kets = kets
        self._series = {}
        # every (theta, walk length) an operator-set check needs, so that each
        # angle is walked once, snapshotting all the lengths it needs
        self._set_steps = {}
        for job in jobs:
            if job["check"] in SET_CHECKS:
                p = job["params"]
                steps = p["t"] if p["kind"] == "standard" else 2 * p["t"]
                self._set_steps.setdefault(p["theta"], set()).add(steps)
        self._set_walks = {}

    def states(self, thetas, kets, t_max: int) -> np.ndarray:
        """Reduced coin states (t_max + 1, n_theta, n_kets, 2, 2), cached."""
        key = (tuple(np.atleast_1d(thetas)), np.asarray(kets).tobytes(), t_max)
        if key not in self._series:
            self._series[key] = oracle.reduced_series(thetas, kets, t_max)
        return self._series[key]

    def set_walk(self, theta: float, steps: int) -> np.ndarray:
        """Joint states after ``steps`` for inputs |0>, |1> and the two random kets."""
        if theta not in self._set_walks:
            kets = np.vstack([np.eye(2), self.kets])
            wanted = self._set_steps[theta]
            snaps = oracle.walk([theta], kets, max(wanted), keep=wanted)
            self._set_walks[theta] = {t: snaps[t][0] for t in wanted}
        return self._set_walks[theta][steps]


# -- parsing ----------------------------------------------------------------

def csv_rows(text: str, header: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    require(bool(lines) and lines[0] == ",".join(header),
            f"header {lines[:1]}, expected {','.join(header)}")
    return [line.split(",") for line in lines[1:]]


def numeric(rows, columns) -> np.ndarray:
    return np.array([[float(row[c]) for c in columns] for row in rows], dtype=float)


def basis_kets(deltas) -> np.ndarray:
    return np.array([oracle.ket_from_angle(d) for d in deltas])


# -- sweeps -------------------------------------------------------------------

def check_probability(result, p, ctx) -> None:
    rows = csv_rows(result["stdout"], ["theta", "delta", "step", "p_up"])
    thetas, deltas, steps = grid(p["thetas"]), grid(p["deltas"]), p["steps"]
    keys = [(th, de, st) for th in thetas for de in deltas for st in range(1, steps + 1)]
    require(len(rows) == len(keys), f"{len(rows)} rows, expected {len(keys)}")
    got = numeric(rows, (0, 1, 2, 3))
    close(got[:, :3], keys, 0.0, "row keys")
    rho = ctx.states(thetas, basis_kets(deltas), steps)[1:]
    close(got[:, 3], rho[..., 0, 0].real.transpose(1, 2, 0).reshape(-1), TOL, "p_up")


def check_purity(result, p, ctx) -> None:
    rows = csv_rows(result["stdout"], ["theta", "delta", "step", "purity", "mixedness"])
    thetas, deltas, steps = grid(p["thetas"]), grid(p["deltas"]), p["steps"]
    keys = [(th, de, st) for th in thetas for de in deltas for st in range(1, steps + 1)]
    require(len(rows) == len(keys), f"{len(rows)} rows, expected {len(keys)}")
    got = numeric(rows, (0, 1, 2, 3, 4))
    close(got[:, :3], keys, 0.0, "row keys")
    rho = ctx.states(thetas, basis_kets(deltas), steps)[1:]
    want = (np.abs(rho) ** 2).sum(axis=(-2, -1)).transpose(1, 2, 0).reshape(-1)
    close(got[:, 3], want, TOL, "purity")
    close(got[:, 4], 2.0 * (1.0 - want), TOL, "mixedness")


def nonmonotonicity(values) -> float:
    return float(np.maximum(0.0, np.diff(np.asarray(values, dtype=float))).sum())


def check_trace_distance(result, p, ctx) -> None:
    rows = csv_rows(result["stdout"], ["theta", "step", "mode", "d"])
    thetas, steps = grid(p["thetas"]), p["steps"]
    keys = [(th, mode, st) for th in thetas for mode in ("concat", "nstep")
            for st in range(steps + 1)]
    require(len(rows) == len(keys), f"{len(rows)} rows, expected {len(keys)}")
    require([r[2] for r in rows] == [k[1] for k in keys], "mode column out of order")
    got = numeric(rows, (0, 1, 3))
    close(got[:, :2], [(k[0], k[2]) for k in keys], 0.0, "row keys")
    d = got[:, 2].reshape(len(thetas), 2, steps + 1)
    n = np.arange(steps + 1)
    close(d[:, 0], np.abs(np.cos(2 * thetas))[:, None] ** n, TOL, "concat = |cos 2theta|^n")
    rho = ctx.states(thetas, np.eye(2), steps)
    close(d[:, 1], oracle.trace_distance(rho[:, :, 0], rho[:, :, 1]).T, TOL, "nstep")


def check_rtn_composite(result, p, ctx) -> None:
    rows = csv_rows(result["stdout"], ["step", "regime", "d"])
    steps = p["steps"]
    keys = [(name, st) for name, _ in p["regimes"] for st in range(1, steps + 1)]
    require(len(rows) == len(keys), f"{len(rows)} rows, expected {len(keys)}")
    require([(r[1], int(r[0])) for r in rows] == keys, "row keys")
    d = numeric(rows, (2,)).reshape(len(p["regimes"]), steps)
    rho = ctx.states([p["theta"]], np.eye(2), steps)[1:, 0]
    diff = rho[:, 0] - rho[:, 1]
    elapsed = np.arange(1, steps + 1) * p["dt"]
    undephased = oracle.trace_distance(diff, 0 * diff)
    for row, (name, ratio) in zip(d, p["regimes"]):
        if ratio is None:
            close(row, undephased, TOL, "undephased distance")
            continue
        lam = oracle.telegraph_kernel(ratio * p["gamma"], p["gamma"], elapsed)
        dephased = oracle.dephase(diff, lam)
        close(row, oracle.trace_distance(dephased, 0 * dephased), TOL, f"{name} distance")
        require(bool(np.all(row <= undephased + TOL)), f"{name} exceeds undephased distance")
        require(nonmonotonicity(row) > 0, f"{name} series does not revive")


def holevo_outputs(rho, weights):
    """Channel outputs of the two default ensemble states from walked kets."""
    return np.einsum("k,...kab->...ab", weights, rho)


def check_holevo(result, p, ctx) -> None:
    rows = csv_rows(result["stdout"], ["theta", "step", "chi_max", "p1_star"])
    thetas, steps = grid(p["thetas"]), p["steps"]
    keys = [(th, st) for th in thetas for st in range(1, steps + 1)]
    require(len(rows) == len(keys), f"{len(rows)} rows, expected {len(keys)}")
    got = numeric(rows, (0, 1, 2, 3))
    close(got[:, :2], keys, 0.0, "row keys")
    chi, p_star = got[:, 2], got[:, 3]
    require(bool(np.all((chi >= -TOL) & (chi <= 1 + TOL))), "chi_max outside [0, 1]")
    require(bool(np.all((p_star >= 0) & (p_star <= 1))), "p1_star outside [0, 1]")
    # rho1 = diag(1/4, 3/4); rho2 = 1/6 |+><+| + 5/6 |-><-|
    r = 1 / np.sqrt(2)
    kets = np.array([[1, 0], [0, 1], [r, r], [r, -r]], dtype=complex)
    rho = ctx.states(thetas, kets, steps)[1:]
    out1 = holevo_outputs(rho, np.array([0.25, 0.75, 0, 0]))
    out2 = holevo_outputs(rho, np.array([0, 0, 1 / 6, 5 / 6]))
    best = oracle.holevo_max(out1.transpose(1, 0, 2, 3).reshape(-1, 2, 2),
                             out2.transpose(1, 0, 2, 3).reshape(-1, 2, 2))
    shortfall = float(np.max(best - chi))
    require(shortfall <= HOLEVO_TOL,
            f"chi_max {shortfall:.3e} below the oracle's maximum")


def check_verify(result, p, ctx) -> None:
    lines = result["stdout"].splitlines()
    require(result["exit"] == 0, f"verify exited {result['exit']}")
    passed = sum(line.startswith("[PASS]") for line in lines)
    require(passed == p["checks"], f"{passed} [PASS] lines, expected {p['checks']}")
    require(not any(line.startswith("[FAIL]") for line in lines), "a check failed")


# -- operator sets ------------------------------------------------------------

def check_set(kind, theta, t, labels, ops, p, ctx) -> None:
    require(kind == p["kind"], f"kind {kind!r}, expected {p['kind']!r}")
    close(theta, p["theta"], 0.0, "theta")
    require(t == p["t"], f"t = {t}, expected {p['t']}")
    # a split-step set relabels the 2t-step standard set's mu as mu // 2
    steps, stride, scale = (t, 2, 1) if kind == "standard" else (2 * t, 1, 2)
    require(labels == list(range(-t, t + 1, stride)),
            f"labels {labels[:3]}..{labels[-3:]} do not cover -t..t with the right parity")
    ops = np.array(ops)
    residual = float(np.abs(np.einsum("kba,kbc->ac", ops.conj(), ops) - np.eye(2)).max())
    require(residual <= 2e-15 * (steps + 1), f"completeness residual {residual:.3e}")
    up, down = oracle.coin_blocks(theta)
    close(ops[-1], np.linalg.matrix_power(up, steps), TOL, "K_{+t} = C_up^t")
    close(ops[0], np.linalg.matrix_power(down, steps), TOL, "K_{-t} = C_down^t")
    walked = ctx.set_walk(theta, steps)
    blocks = oracle.kraus_blocks(theta, steps, walked[:2])
    close(ops, [blocks[scale * mu] for mu in labels], TOL, "operators")
    for ket, psi in zip(ctx.kets, walked[2:]):
        rho = np.outer(ket, ket.conj())
        out = np.einsum("kab,bc,kdc->ad", ops, rho, ops.conj())
        close(out, oracle.reduced(psi), CHANNEL_TOL, "channel action on a random state")


def _matrix(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs]).reshape(2, 2)


def check_kraus_json(result, p, ctx) -> None:
    data = json.loads(result["stdout"])
    entries = data["entries"]
    check_set(data["kind"], data["theta"], data["t"], [e["mu"] for e in entries],
              [_matrix([v for row in e["matrix"] for v in row]) for e in entries], p, ctx)


def check_kraus_payload(result, p, ctx) -> None:
    data = json.loads(result["stdout"])
    entries = data["entries"]
    check_set(data["kind"], data["theta"], data["t"], [e[0] for e in entries],
              [_matrix(e[1]) for e in entries], p, ctx)


def check_kraus_csv(result, p, ctx) -> None:
    rows = csv_rows(result["stdout"], ["mu", "row", "col", "re", "im"])
    ops = {}
    for mu, row, col, re, im in rows:
        ops.setdefault(int(mu), {})[(int(row), int(col))] = complex(float(re), float(im))
    require(all(len(v) == 4 for v in ops.values()), "an operator misses an entry")
    labels = list(ops)
    matrices = [[[ops[mu][(r, c)] for c in (0, 1)] for r in (0, 1)] for mu in labels]
    check_set(p["kind"], p["theta"], p["t"], labels, matrices, p, ctx)


# -- long series ----------------------------------------------------------------

def series(result, n: int) -> np.ndarray:
    data = json.loads(result["stdout"])
    require(data["steps"] == list(range(1, n + 1)), "steps are not 1..n")
    require(len(data["values"]) == n, "one value per step")
    return np.array(data["values"], dtype=float)


def check_series_nstep(result, p, ctx) -> None:
    values = series(result, p["n"])
    rho = ctx.states([p["theta"]], np.eye(2), p["n"])[1:, 0]
    close(values, oracle.trace_distance(rho[:, 0], rho[:, 1]), TOL, "nstep distance")
    require(nonmonotonicity(values) > 0, "n-step series shows no revival")


def check_series_concat(result, p, ctx) -> None:
    values = series(result, p["n"])
    decay = abs(np.cos(2 * p["theta"])) ** np.arange(1, p["n"] + 1)
    close(values, decay, TOL, "concat = |cos 2theta|^n")


def check_series_composite(result, p, ctx) -> None:
    values = series(result, p["n"])
    rho = ctx.states([p["theta"]], np.eye(2), p["n"])[1:, 0]
    diff = rho[:, 0] - rho[:, 1]
    undephased = oracle.trace_distance(diff, 0 * diff)
    rtn = p["rtn"]
    lam = oracle.telegraph_kernel(rtn["a"], rtn["gamma"],
                                  np.arange(1, p["n"] + 1) * rtn["dt"])
    dephased = oracle.dephase(diff, lam)
    close(values, oracle.trace_distance(dephased, 0 * dephased), TOL, "composite distance")
    require(bool(np.all(values <= undephased + TOL)), "composite exceeds undephased distance")
    require(nonmonotonicity(values) > 0, "composite series shows no revival")


def check_reject(result, p, ctx) -> None:
    require(result["exit"] == 2, f"exit code {result['exit']}, expected 2")
    require(result["stdout"].strip() == "", "rows were written")


CHECKS = {
    "probability": check_probability,
    "purity": check_purity,
    "trace_distance": check_trace_distance,
    "rtn_composite": check_rtn_composite,
    "holevo": check_holevo,
    "verify": check_verify,
    "kraus_json": check_kraus_json,
    "kraus_payload": check_kraus_payload,
    "kraus_csv": check_kraus_csv,
    "series_nstep": check_series_nstep,
    "series_concat": check_series_concat,
    "series_composite": check_series_composite,
    "reject": check_reject,
}
SET_CHECKS = ("kraus_json", "kraus_payload", "kraus_csv")

# column that the value perturbation hits, for CSV outputs
VALUE_COLUMN = {"probability": 3, "purity": 3, "trace_distance": 3,
                "rtn_composite": 2, "holevo": 2, "kraus_csv": 3}


def run_check(job: dict, result: dict, ctx: Context) -> str | None:
    """The failure message of the job's check, or None when it passes."""
    try:
        CHECKS[job["check"]](result, job["params"], ctx)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None


# -- corrupted copies ------------------------------------------------------------

def _perturbed(value) -> float:
    return float(value) - PERTURBATION


def corruptions(job: dict, result: dict):
    """(label, damaged copy of ``result``) pairs that the check must reject."""
    check, text = job["check"], result["stdout"]

    def variant(stdout=text, exit_code=None):
        return {"exit": result["exit"] if exit_code is None else exit_code,
                "stdout": stdout}

    if check == "reject":
        yield "exit code 0", variant(exit_code=0)
        yield "one row written", variant(stdout="x\n1.0\n")
    elif check == "verify":
        yield "one check failed", variant(stdout=text.replace("[PASS]", "[FAIL]", 1))
        lines = text.splitlines()
        last = max(i for i, line in enumerate(lines) if line.startswith("[PASS]"))
        yield "one line dropped", variant(stdout="\n".join(lines[:last] + lines[last + 1:]))
    elif check in VALUE_COLUMN:
        lines = text.splitlines()
        middle = len(lines) // 2
        cells = lines[middle].split(",")
        column = VALUE_COLUMN[check]
        cells[column] = repr(_perturbed(cells[column]))
        yield "one value perturbed", variant(
            stdout="\n".join(lines[:middle] + [",".join(cells)] + lines[middle + 1:]))
        yield "one row dropped", variant(
            stdout="\n".join(lines[:middle] + lines[middle + 1:]))
    elif check in ("kraus_json", "kraus_payload"):
        data = json.loads(text)
        middle = len(data["entries"]) // 2
        damaged = json.loads(text)
        if check == "kraus_json":
            cell = damaged["entries"][middle]["matrix"][0][0]
        else:
            cell = damaged["entries"][middle][1][0]
        cell[0] = _perturbed(cell[0])
        yield "one value perturbed", variant(stdout=json.dumps(damaged))
        del data["entries"][middle]
        yield "one operator dropped", variant(stdout=json.dumps(data))
    else:  # series payloads
        data = json.loads(text)
        damaged = json.loads(text)
        middle = len(damaged["values"]) // 2
        damaged["values"][middle] = _perturbed(damaged["values"][middle])
        yield "one value perturbed", variant(stdout=json.dumps(damaged))
        data["values"].pop()
        data["steps"].pop()
        yield "one value dropped", variant(stdout=json.dumps(data))

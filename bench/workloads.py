"""The benchmark's workloads: which jobs run, with which inputs and checks.

Every job runs in its own fresh interpreter, the way a user runs one CLI
command or one short script.  A job is a dict:

* ``name``   -- label used in reports,
* ``spec``   -- what ``worker.py`` runs: ``{"cli": argv}`` or
  ``{"call": function, "args": {...}}``,
* ``check``  -- the name of the output check in ``checks.py``,
* ``params`` -- what that check needs to know about the inputs.

The seed picks the coin angle of the seeded workloads uniformly in
[0.3, 0.7] rad, away from the degenerate angles 0, pi/4 and pi/2 (a job's
cost does not depend on it), and draws the random states the checks feed
through every operator set.  ``figure-sweeps`` keeps the README's fixed grids.
"""

from __future__ import annotations

import math

import numpy as np

import oracle

WORKLOADS = ("figure-sweeps", "long-memory-series", "large-t-extraction")

FIGURE_GRID = (0.0, 3.14159, 64)
HOLEVO_TRACE2_CONFIG = "bench/configs/trace2_ensemble.json"


def _cli(name, argv, check, **params):
    return {"name": name, "spec": {"cli": argv}, "check": check, "params": params}


def _call(name, fn, args, check, **params):
    return {"name": name, "spec": {"call": fn, "args": args}, "check": check,
            "params": params}


def _reject(argv):
    return _cli("reject: " + " ".join(argv), argv, "reject")


def figure_sweeps() -> list[dict]:
    grid = "0:3.14159:64"
    return [
        _cli("probability theta-grid",
             ["probability", "--theta-grid", grid, "--delta", "0", "--steps", "8"],
             "probability", thetas=FIGURE_GRID, deltas=(0.0, 0.0, 1), steps=8),
        _cli("probability delta-grid",
             ["probability", "--theta", "0.5236", "--delta-grid", "0:6.28318:64",
              "--steps", "8"],
             "probability", thetas=(0.5236, 0.5236, 1), deltas=(0.0, 6.28318, 64),
             steps=8),
        _cli("trace-distance both", ["trace-distance", "--mode", "both"],
             "trace_distance", thetas=(0.0, math.pi, 64), steps=20),
        _cli("rtn-composite",
             ["rtn-composite", "--steps", "20", "--rtn-gamma", "1.0", "--rtn-dt", "1.0"],
             "rtn_composite", theta=math.pi / 6, steps=20, gamma=1.0, dt=1.0,
             regimes=(("none", None), ("markovian", 0.4), ("nonmarkovian", 2.0))),
        _cli("purity", ["purity", "--theta-grid", grid, "--steps", "8"],
             "purity", thetas=FIGURE_GRID, deltas=(0.0, math.pi, 33), steps=8),
        _cli("holevo", ["holevo", "--theta-grid", grid, "--steps", "8"],
             "holevo", thetas=FIGURE_GRID, steps=8),
        _cli("verify", ["verify"], "verify", checks=11),
        _cli("kraus t=3", ["kraus", "--theta", "0.5236", "--t", "3"],
             "kraus_json", theta=0.5236, t=3, kind="standard"),
        _cli("kraus t=2 split", ["kraus", "--theta", "0.7", "--t", "2", "--split"],
             "kraus_json", theta=0.7, t=2, kind="split_step"),
        # Each must exit 2 and write no rows.  The first four fail at the
        # parent commit (non-finite delta and telegraph amplitude, trace-2
        # ensemble state are accepted); the last shows the counting works.
        _reject(["probability", "--delta", "nan"]),
        _reject(["purity", "--delta", "nan"]),
        _reject(["rtn-composite", "--rtn-a", "nan"]),
        _reject(["holevo", "--config", HOLEVO_TRACE2_CONFIG]),
        _reject(["probability", "--theta", "inf"]),
    ]


def long_memory_series(theta: float) -> list[dict]:
    rtn = {"a": 0.4, "gamma": 1.0, "dt": 1.0}
    return [
        _call("td_series nstep n=300", "td_series",
              {"theta": theta, "n_max": 300, "mode": "nstep"},
              "series_nstep", theta=theta, n=300),
        _call("td_series concat n=300", "td_series",
              {"theta": theta, "n_max": 300, "mode": "concat"},
              "series_concat", theta=theta, n=300),
        _call("td_series composite n=100", "td_series",
              {"theta": theta, "n_max": 100, "mode": "composite", "rtn": rtn},
              "series_composite", theta=theta, n=100, rtn=rtn),
    ]


def large_t_extraction(theta: float) -> list[dict]:
    text = repr(theta)
    return [
        _call("extract_kraus_direct t=4000", "extract_kraus_direct",
              {"theta": theta, "t": 4000}, "kraus_payload",
              theta=theta, t=4000, kind="standard"),
        _call("extract_kraus_direct t=1000", "extract_kraus_direct",
              {"theta": theta, "t": 1000}, "kraus_payload",
              theta=theta, t=1000, kind="standard"),
        _call("extract_kraus_split_step n=500", "extract_kraus_split_step",
              {"theta": theta, "n": 500}, "kraus_payload",
              theta=theta, t=500, kind="split_step"),
        _cli("kraus t=2000 json", ["kraus", "--theta", text, "--t", "2000"],
             "kraus_json", theta=theta, t=2000, kind="standard"),
        _cli("kraus t=2000 csv",
             ["kraus", "--theta", text, "--t", "2000", "--format", "csv"],
             "kraus_csv", theta=theta, t=2000, kind="standard"),
    ]


def build(workload: str, seed: int) -> tuple[list[dict], np.ndarray]:
    """Jobs of ``workload`` and the two random kets the set checks use."""
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0.3, 0.7))
    kets = oracle.random_kets(rng, 2)
    if workload == "figure-sweeps":
        return figure_sweeps(), kets
    if workload == "long-memory-series":
        return long_memory_series(theta), kets
    if workload == "large-t-extraction":
        return large_t_extraction(theta), kets
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")

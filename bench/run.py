"""Benchmark of the qwchannel package: one workload per run.

Usage (from the repository root):

    python3 bench/run.py --workload figure-sweeps --seed 1 --seconds 30 --trace 0

The run repeats passes over the workload's jobs until ``--seconds`` have
gone by.  Each job runs alone in a fresh interpreter (``worker.py``), one at
a time.  After the last pass every output of the first pass is checked
against the independent oracle or a stated property, each check is shown to
reject damaged copies of that output, and every later pass must reproduce
the first pass byte for byte.  The last line of stdout is a JSON object:

* ``--trace 0``: ``setup_s``, ``cpu_s`` and ``peak_rss_mb``;
* ``--trace 1``: untraced and traced passes alternate, and the per-layer
  metrics of ``tracer.py`` are reported from the traced ones.

See bench/README.md for the workloads, the metric definitions and
reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
JOB_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    pass


def git_state() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}

    def git(*args):
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"sha": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def run_record(args) -> dict:
    workers = os.environ.get("QWCHANNEL_WORKERS")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        # the CLI's documented rule: QWCHANNEL_WORKERS, else available parallelism
        "sweep_workers": int(workers) if workers else os.cpu_count(),
        "QWCHANNEL_WORKERS": workers,
        **git_state(),
    }


def run_job(job: dict, traced: bool) -> dict:
    argv = [sys.executable, WORKER, json.dumps(job["spec"]), "1" if traced else "0"]
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"job {job['name']!r} ran over {JOB_TIMEOUT_S} s") from exc
    marker = "BENCHJOB "
    lines = [line for line in done.stderr.splitlines() if line.startswith(marker)]
    if done.returncode != 0 or not lines:
        raise HarnessError(f"worker for {job['name']!r} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    record = json.loads(lines[-1][len(marker):])
    record["stdout"] = done.stdout
    record["digest"] = hashlib.sha256(
        f"{record['exit']}\n{done.stdout}".encode()).hexdigest()
    return record


def op_failed(job: dict, result: dict) -> bool:
    """A reject operation fails unless it is refused; any other fails on a nonzero exit."""
    if job["check"] == "reject":
        return checks.run_check(job, result, None) is not None
    return result["exit"] != 0


def verify_outputs(jobs, passes, ctx) -> list[str]:
    """Problems found in the outputs; empty when every check holds."""
    problems = []
    first = passes[0][1]
    checked = rejected = 0
    for job, result in zip(jobs, first):
        if job["check"] == "reject" or result["exit"] != 0:
            continue
        checked += 1
        message = checks.run_check(job, result, ctx)
        if message:
            problems.append(f"{job['name']}: {message}")
            continue
        for label, damaged in checks.corruptions(job, result):
            if checks.run_check(job, damaged, ctx) is None:
                problems.append(f"{job['name']}: check accepts output with {label}")
            else:
                rejected += 1
    print(f"checks: {checked} outputs checked, {rejected} damaged copies rejected")
    for index, (_, results) in enumerate(passes[1:], start=2):
        for job, result, reference in zip(jobs, results, first):
            if result["digest"] != reference["digest"]:
                problems.append(f"{job['name']}: pass {index} output differs from pass 1")
    return problems


def pass_time(results) -> float:
    return sum(r["job_s"] for r in results)


def pass_cpu(results) -> float:
    return sum(r["cpu_s"] for r in results)


def end_to_end(passes) -> dict:
    results = [r for _, rs in passes for r in rs]
    return {
        "setup_s": (statistics.median(r["import_s"] for r in results), "s"),
        "cpu_s": (statistics.median(pass_cpu(rs) for _, rs in passes), "s"),
        "peak_rss_mb": (statistics.median(max(r["peak_rss_kb"] for r in rs)
                                          for _, rs in passes) / 1024.0, "MB"),
    }


def rows_and_bytes(stdout: str) -> tuple[int, int]:
    """Rows a CLI job emitted: CSV data lines, JSON list items or set entries."""
    size = len(stdout.encode())
    text = stdout.strip()
    if not text:
        return 0, size
    if text[0] in "[{":
        data = json.loads(text)
        return len(data["entries"] if isinstance(data, dict) else data), size
    return len(text.splitlines()) - 1, size


def layer_metrics(jobs, traced_results) -> dict:
    """Per-layer totals of one traced pass (see README for the definitions)."""
    layers, counts = {}, {}
    unattributed = 0.0
    for result in traced_results:
        summary = result["trace"]
        for name, (calls, total, self_s) in summary["layers"].items():
            acc = layers.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, value in summary["counts"].items():
            combine = max if name == "pool_threads" else (lambda a, b: a + b)
            counts[name] = combine(counts.get(name, 0), value)
        unattributed += summary["unattributed_s"]

    def calls(name):
        return layers.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return layers.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return layers.get(name, [0, 0.0, 0.0])[2]

    def module_self(module):
        return sum(v[2] for k, v in layers.items() if k.startswith(module + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    rows = emitted = 0
    for job, result in zip(jobs, traced_results):
        if job["spec"].get("cli", ["verify"])[0] != "verify":
            r, b = rows_and_bytes(result["stdout"])
            rows, emitted = rows + r, emitted + b
    return {
        "walk.evolve.calls": (calls("walk.evolve"), "count"),
        "walk.evolve.s": (total("walk.evolve"), "s"),
        "walk.evolve.site_steps": (counts["evolve_site_steps"], "count"),
        "walk.evolve.useful_step_ratio": (
            ratio(counts["evolve_useful_steps"], counts["evolve_steps"]), "ratio"),
        "walk.self_s": (module_self("walk"), "s"),
        "kraus.extract_kraus_direct.calls": (calls("kraus.extract_kraus_direct"), "count"),
        "kraus.extract_kraus_direct.self_s": (self_time("kraus.extract_kraus_direct"), "s"),
        "kraus.operators_built": (counts["operators_built"], "count"),
        "kraus.extract_kraus_binomial.s": (total("kraus.extract_kraus_binomial"), "s"),
        "kraus.to_json.s": (total("kraus.to_json"), "s"),
        "kraus.self_s": (module_self("kraus"), "s"),
        "channels.apply_kraus.calls": (calls("channels.apply_kraus"), "count"),
        "channels.apply_kraus.s": (total("channels.apply_kraus"), "s"),
        "channels.apply_kraus.operators": (counts["operators_applied"], "count"),
        "channels.apply_kraus.calls_per_set": (
            ratio(calls("channels.apply_kraus"), counts["sets_applied"]), "ratio"),
        "channels.rtn.s": (total("channels.rtn_lambda") + total("channels.rtn_kraus"), "s"),
        "channels.self_s": (module_self("channels"), "s"),
        "witnesses.td_series.calls": (calls("witnesses.td_series"), "count"),
        "witnesses.td_series.self_s": (self_time("witnesses.td_series"), "s"),
        "witnesses.trace_distance.calls": (calls("witnesses.trace_distance"), "count"),
        "witnesses.trace_distance.s": (total("witnesses.trace_distance"), "s"),
        "witnesses.purity.s": (total("witnesses.purity"), "s"),
        "witnesses.holevo_max.calls": (calls("witnesses.holevo_max"), "count"),
        "witnesses.holevo_max.self_s": (self_time("witnesses.holevo_max"), "s"),
        "witnesses.holevo_max.objective_evals": (
            ratio(counts["holevo_entropy_evals"], calls("witnesses.holevo_max")),
            "count/call"),
        "witnesses.self_s": (module_self("witnesses"), "s"),
        "verification.run_checks.s": (total("verification.run_checks"), "s"),
        "verification.run_checks.self_s": (self_time("verification.run_checks"), "s"),
        "verification.check_completeness.s": (
            total("verification.check_completeness"), "s"),
        "verification.self_s": (module_self("verification"), "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.s": (total("cli.main"), "s"),
        "cli.self_s": (module_self("cli"), "s"),
        "cli.rows_emitted": (rows, "count"),
        "cli.bytes_emitted": (emitted, "bytes"),
        "cli.pool_threads": (counts["pool_threads"], "count"),
        "trace.unattributed_s": (unattributed, "s"),
    }


def per_layer(jobs, passes) -> dict:
    untraced = [rs for traced, rs in passes if not traced]
    traced = [rs for is_traced, rs in passes if is_traced]
    per_pass = [layer_metrics(jobs, rs) for rs in traced]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in per_pass), unit)
    traced_wall = statistics.median(pass_time(rs) for rs in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (statistics.median(pass_cpu(rs) for rs in traced)
                                   - statistics.median(pass_cpu(rs) for rs in untraced), "s")
    return metrics


def print_jobs(jobs, passes) -> None:
    """Pass times, then each job's untraced times, peak RSS and traced layers."""
    print("pass wall / cpu (s): " + " ".join(
        f"{pass_time(rs):.3f}/{pass_cpu(rs):.3f}{'t' if traced else ''}"
        for traced, rs in passes))
    untraced = [rs for traced, rs in passes if not traced]
    print(f"median pass wall time {statistics.median(map(pass_time, untraced)):.4f} s, "
          f"cpu time {statistics.median(map(pass_cpu, untraced)):.4f} s (untraced passes)")
    first_traced = next((rs for traced, rs in passes if traced), None)
    for index, job in enumerate(jobs):
        times = [rs[index]["job_s"] for rs in untraced]
        cpu = [rs[index]["cpu_s"] for rs in untraced]
        rss = [rs[index]["peak_rss_kb"] / 1024.0 for rs in untraced]
        print(f"  job {job['name']}: wall median {statistics.median(times):.4f} s "
              f"(min {min(times):.4f}, max {max(times):.4f}), "
              f"cpu median {statistics.median(cpu):.4f} s, "
              f"peak rss {min(rss):.1f}..{max(rss):.1f} MB")
        if first_traced:
            layers = first_traced[index]["trace"]["layers"]
            print("    traced: " + ", ".join(
                f"{name} {calls}x {total:.4f} s"
                for name, (calls, total, _) in sorted(layers.items())))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qwchannel", "__init__.py")):
        print(f"error: no qwchannel sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    print("run record: " + json.dumps(run_record(args)), flush=True)
    jobs, kets = workloads.build(args.workload, args.seed)
    passes = []
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append((traced, [run_job(job, traced) for job in jobs]))
            if (time.perf_counter() - start >= args.seconds
                    and (not args.trace or len(passes) % 2 == 0)):
                break
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = time.perf_counter()
    ctx = checks.Context(kets, jobs)
    problems = verify_outputs(jobs, passes, ctx)
    print(f"measured {measured - start:.1f} s, checked {time.perf_counter() - measured:.1f} s")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    failed = sum(op_failed(job, result) for _, rs in passes
                 for job, result in zip(jobs, rs))
    attempted = len(passes) * len(jobs)
    for job, result in zip(jobs, passes[0][1]):
        if op_failed(job, result):
            print(f"  failed operation: {job['name']} (exit {result['exit']})")

    print_jobs(jobs, passes)
    metrics = per_layer(jobs, passes) if args.trace else end_to_end(passes)
    print(f"{args.workload}: {len(passes)} passes, {attempted} operations, "
          f"{failed} failed, outputs {'correct' if not problems else 'WRONG'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

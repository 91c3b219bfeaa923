"""Run one benchmark job in a fresh interpreter.

Usage: python3 bench/worker.py '<job spec as JSON>' <trace 0|1>

The job's own output goes to stdout: the CLI's text for a CLI job, or the
returned values as JSON for a library job (written after the timed region).
The last line on stderr is ``BENCHJOB <json>`` holding the import time, the
job's wall and CPU time (all threads of the process), the peak resident set
and, when tracing, the per-layer summary.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

qwchannel = None


def import_package() -> float:
    """Import the package and its CLI (numpy included); return the seconds taken.

    Stops the process if the package does not come from this checkout's
    ``src/``, so that a stale installed copy is never measured.
    """
    global qwchannel
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import qwchannel
    import qwchannel.cli
    seconds = time.perf_counter() - start
    expected = os.path.realpath(os.path.join(SRC, "qwchannel", "__init__.py"))
    if os.path.realpath(qwchannel.__file__) != expected:
        sys.stderr.write(f"qwchannel resolved to {qwchannel.__file__}, not {expected}\n")
        sys.exit(3)
    return seconds


def peak_rss_kb() -> int:
    """High-water resident set of this process image (VmHWM).

    ``getrusage`` is not used: on Linux its ``ru_maxrss`` keeps the
    high-water mark of the parent image that forked and exec'd this one.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_cli(argv):
    try:
        code = qwchannel.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    return code


def run_call(fn, args):
    if fn == "td_series":
        rtn = args.get("rtn")
        params = qwchannel.RTNParams(**rtn) if rtn else None
        return qwchannel.td_series(args["theta"], args["n_max"], mode=args["mode"],
                                   rtn=params)
    if fn == "extract_kraus_direct":
        return qwchannel.extract_kraus_direct(args["theta"], args["t"])
    if fn == "extract_kraus_split_step":
        return qwchannel.extract_kraus_split_step(args["theta"], args["n"])
    raise ValueError(f"unknown library job {fn!r}")


def payload_of(result) -> dict:
    """Plain numbers of a returned series or operator set, for the checks."""
    if isinstance(result, qwchannel.TDSeries):
        return {"theta": result.theta, "mode": result.mode,
                "steps": list(result.steps), "values": [float(v) for v in result.values]}
    return {
        "kind": result.kind, "theta": result.theta, "t": result.t,
        "entries": [[mu, [[float(v.real), float(v.imag)] for v in m.reshape(-1)]]
                    for mu, m in result.entries],
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    traced = sys.argv[2] == "1"
    import_s = import_package()
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    c0 = time.process_time()
    t0 = time.perf_counter()
    if "cli" in spec:
        code, result = run_cli(spec["cli"]), None
    else:
        code, result = 0, run_call(spec["call"], spec["args"])
    t1 = time.perf_counter()
    c1 = time.process_time()
    rss_kb = peak_rss_kb()
    summary = tracer.summary(t0, t1) if tracer else None
    if result is not None:
        sys.stdout.write(json.dumps(payload_of(result)))
        sys.stdout.flush()
    record = {"import_s": import_s, "job_s": t1 - t0, "cpu_s": c1 - c0,
              "peak_rss_kb": rss_kb, "exit": code, "trace": summary}
    sys.stderr.write("\nBENCHJOB " + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

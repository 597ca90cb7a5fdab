"""One workload in one fresh process: set up, then run whole rounds.

Run by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        --t0 T --workdir DIR [--setup-only]

``--t0`` is the parent's ``time.perf_counter()`` just before it started this
process (CLOCK_MONOTONIC, shared by all processes), so the set-up time
includes interpreter start-up and importing polyabc.  The result is one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_program():
    sys.path.insert(0, SRC)
    import polyabc.cli

    where = os.path.realpath(os.path.dirname(polyabc.cli.__file__))
    if where != os.path.realpath(os.path.join(SRC, "polyabc")):
        raise SystemExit(f"polyabc imported from {where}, not from {SRC}")
    return polyabc.cli


def _peak_rss_mb() -> float:
    """Peak resident set of this process.  VmHWM starts afresh at exec;
    ru_maxrss, the fallback, starts on Linux from the parent's size at fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_op(cli, args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(args)
        except Exception as exc:  # a raw traceback is a failed operation, not a crash
            return f"uncaught {type(exc).__name__}: {exc}\n", 1
    return buf.getvalue(), code


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    a = ap.parse_args()

    cli = _import_program()
    import workloads

    tracer = None
    if a.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wl = workloads.build(a.workload, a.seed, a.workdir)
    args = [op.cli_args(a.workdir) for op in wl.ops]
    setup_s = time.perf_counter() - a.t0
    if a.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer:
        tracer.end_setup()

    first = []            # (stdout, exit code) of every op in round 1
    times = []
    failed = 0
    mismatched = set()
    rounds = 0
    t_loop = time.perf_counter()
    while True:
        for i, op_args in enumerate(args):
            t = time.perf_counter()
            out, code = _run_op(cli, op_args)
            times.append(time.perf_counter() - t)
            if tracer:
                tracer.end_op()
            failed += code == 1
            if rounds == 0:
                first.append((out, code))
            elif (out, code) != first[i]:
                mismatched.add(wl.ops[i].label())
        rounds += 1
        loop_s = time.perf_counter() - t_loop
        if loop_s + loop_s / rounds > a.seconds:   # the next round would end past it
            break
    rss_mb = _peak_rss_mb()

    digest = hashlib.md5()
    for op, (out, code) in zip(wl.ops, first):
        digest.update(f"{op.label()}\n{code}\n{out}".encode())
    result = {
        "setup_s": setup_s, "loop_s": loop_s, "rounds": rounds, "op_times": times,
        "failed": failed, "attempted": rounds * len(args), "peak_rss_mb": rss_mb,
        "md5": digest.hexdigest(), "nondeterministic": sorted(mismatched),
        "ops": [workloads.op_to_json(op) for op in wl.ops],
        "outputs": [[out, code] for out, code in first],
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics(rounds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

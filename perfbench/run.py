"""polyabc benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload qp_wide --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Runs the workload in fresh single-threaded child processes (worker.py),
one at a time: with ``--trace 0`` two set-up-only children, the measured
child and two more set-up-only children, so that the set-up samples span the
run; with ``--trace 1`` one child whose polyabc functions are wrapped for
per-layer figures.  Every distinct operation's machine report is then checked
independently with sympy (check.py).  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--workload all`` runs the three workloads in turn and prints each one's
metrics with units before its result line.

``--update-md5`` stores the run's report md5 as the reference for this
workload and seed (only when every check passed); see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference_md5.json")
WORKLOADS = ("qp_wide", "charp_corpus", "radical_ladder")
SETUP_AROUND = 2        # set-up-only processes before and after the measured one
RUN_LIMIT_S = 170.0     # the whole run, children and checks included


def _child(a, workdir, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setups(a, workdir, deadline) -> list:
    """Set-up times of SETUP_AROUND set-up-only children (none when tracing)."""
    if a.trace:
        return []
    return [_child(a, workdir, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_AROUND)]


def _label(op: dict) -> str:
    return " ".join([op["argv"][0], op["doc"], *op["argv"][1:]])


def _check(res: dict, workdir: str):
    """Check round 1 (later rounds were compared byte for byte by the worker)."""
    from check import check_op

    docs, passed, problems = {}, 0, []
    for op, (out, code) in zip(res["ops"], res["outputs"]):
        if op["doc"] not in docs:
            with open(os.path.join(workdir, op["doc"]), encoding="utf-8") as fh:
                docs[op["doc"]] = fh.read()
        failed, found = check_op(op, docs[op["doc"]], out, code)
        problems.extend(f"{_label(op)}: {p}" for p in found)
        passed += not failed and not found
    return passed, problems


def _load_reference() -> dict:
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-md5", action="store_true")
    a = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "polyabc", "cli.py")):
        sys.stderr.write(f"no polyabc sources under {ROOT}/src; run from a checkout\n")
        return 2
    if a.workload != "all":
        return run_workload(a)
    status = 0
    for name in WORKLOADS:
        print(f"{name}:")
        status = max(status, run_workload(argparse.Namespace(**dict(vars(a), workload=name)),
                                          show=True))
    return status


def run_workload(a, show=False) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench_work", f"{a.workload}-{os.getpid()}")
    try:
        setups = _setups(a, workdir, deadline)
        res = _child(a, workdir, deadline)
        setups += [res["setup_s"], *_setups(a, workdir, deadline)]
        passed_per_round, problems = _check(res, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = _load_reference()
    ref = reference.get(a.workload, {}).get(str(a.seed))
    if res["nondeterministic"]:
        problems.append(f"reports differ between rounds: {res['nondeterministic'][:3]}")
    if a.update_md5:
        if problems:
            sys.stderr.write("not updating the reference md5: checks failed\n")
        else:
            reference.setdefault(a.workload, {})[str(a.seed)] = res["md5"]
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")
    elif ref is not None and ref != res["md5"]:
        problems.append(f"report md5 {res['md5']} differs from the reference {ref}")

    rounds, loop_s = res["rounds"], res["loop_s"]
    n_ops = len(res["ops"])
    # Each operation's time is the slowest of its rounds: on a shared host the
    # same operation runs up to 1.8x faster while the host's other load
    # pauses, and the loaded state, which holds in part of nearly every run,
    # is the one that repeats from run to run (see README.md).
    op_s = [max(res["op_times"][i::n_ops]) for i in range(n_ops)]
    if a.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": max(setups), "unit": "s"},
            "ops_per_s": {"value": passed_per_round / sum(op_s), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(op_s) * 1000.0, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    failed_ops = sorted({_label(op) for op, (_, code) in zip(res["ops"], res["outputs"])
                         if code == 1})
    sys.stderr.write(
        f"{a.workload} seed={a.seed} trace={a.trace}: {rounds} round(s) of {n_ops} ops, "
        f"{loop_s / rounds:.3f} s/round, setup samples {[round(s, 3) for s in setups]}, "
        f"md5 {res['md5']} (reference {ref or 'none'})\n")
    slowest = max(range(n_ops), key=op_s.__getitem__)
    sys.stderr.write(f"  slowest op: {_label(res['ops'][slowest])} {op_s[slowest]:.3f} s "
                     f"(slowest of {rounds})\n")
    for label in failed_ops:
        sys.stderr.write(f"  failed: {label}\n")
    for p in problems[:20]:
        sys.stderr.write(f"  PROBLEM {p}\n")
    if show:
        print(f"  correct {not problems}, attempted {res['attempted']}, failed {res['failed']}")
        for name, m in metrics.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

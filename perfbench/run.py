#!/usr/bin/env python3
"""hazeflow benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload dehaze_512 --seed 1 --seconds 12 --trace 0

Runs the workload process (worker.py) from this checkout's sources, then,
untraced, two more processes that only set up, and reports set-up time as
the median of the three. Prints every metric with its unit, then the
environment, then one JSON line: {"correct", "attempted", "failed",
"metrics"}. End-to-end metrics with --trace 0, per-layer ones with
--trace 1. Exits non-zero, without a result, when the sources or the
model fixture are missing.
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
WORKLOADS = ("dehaze_512", "dehaze_hd_tiled", "train_finetune")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# One BLAS thread: on a small shared VM, two spinning BLAS threads turn
# host steal time into 2-3x swings in op time; one thread costs ~15%.
BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def spawn(args, workdir: str, setup_only: bool, deadline: float):
    """Run worker.py to the end; return (seconds until READY, exit code).

    The worker stamps READY with time.monotonic(), a clock shared by every
    process on the machine, so the set-up time covers interpreter start.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "HAZEFLOW_CONFIG"}
    env.update(BLAS_THREADS)
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{args.workload}: worker exceeded the time limit", file=sys.stderr)
        return None, 1
    fields = out.split("\n", 1)[0].split()
    if len(fields) != 2 or fields[0] != "READY":
        return None, proc.returncode or 1
    return float(fields[1]) - start, proc.returncode


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "hazeflow", "cli.py")):
        print(f"no hazeflow sources under {ROOT}/src", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ready, code = spawn(args, workdir, False, deadline)
        if ready is None or code != 0:
            print(f"{args.workload}: worker failed (exit {code})", file=sys.stderr)
            return 1
        with open(os.path.join(workdir, "result.json"), encoding="ascii") as fh:
            result = json.load(fh)
        setups = [ready]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            ready, code = spawn(args, workdir, True, deadline)
            if ready is None or code != 0:
                print(f"{args.workload}: set-up probe failed", file=sys.stderr)
                return 1
            setups.append(ready)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(base) and not os.listdir(base):
            os.rmdir(base)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<16} {name:<34} {value:>14.6g} {unit}")
    print(f"{args.workload:<16} {'ops':<34} {result['attempted']:>14d} "
          f"(op_s: {', '.join(f'{t:.3f}' for t in result['op_s'])})")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

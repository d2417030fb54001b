#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve-f32 --seed 1 --seconds 5 --trace 0

Run from the repository root.  The OCaml program (perfbench/main.ml) is
built with dune, then run.  With --trace 0 it runs in two processes one
after the other, each with its own set-up, and every metric is the
median (here: the mean) of the two, because the host is shared and its
speed changes for seconds at a time.  attempted and failed are summed
over the processes.  The last line of standard output is the run's JSON
result; every other line starts with "# ".  Exits non-zero, without a
result line, when the build or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ("serve-f32", "build-f32")

# Measuring processes per --trace 0 run.
PROCESSES = 2

BUILD_TIMEOUT_S = 800
# Every run of one invocation together must end well inside 180 s.
RUN_BUDGET_S = 170

# Library knobs that would change what is measured; runs use defaults.
SCRUBBED_ENV = (
    "RLIBM_JOBS",
    "RLIBM_BATCH_PAR_MIN",
    "RLIBM_PROG",
    "RLIBM_LP_WARM",
    "RLIBM_ORACLE_CACHE",
    "RLIBM_EXHAUSTIVE",
)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(env):
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S, text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed (dune exit %d)" % p.returncode)


def run_exe(args, env, deadline):
    """Run the benchmark program; return its stdout lines."""
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, the clock the program reads
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before %s" % " ".join(args))
    try:
        p = subprocess.run(
            [EXE] + args + ["--t0-ns", str(t0)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        fail("run timed out: %s" % " ".join(args))
    except OSError as e:
        fail("cannot run %s: %s" % (EXE, e))
    if p.returncode != 0:
        sys.stdout.write(p.stdout)
        fail("run failed (exit %d): %s" % (p.returncode, " ".join(args)))
    lines = p.stdout.splitlines()
    if not lines:
        fail("run printed nothing: %s" % " ".join(args))
    return lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["DUNE_CACHE"] = "disabled"  # keep build products inside the checkout
    build(env)
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", str(a.trace)]

    if a.trace == 1:
        lines = run_exe(common, env, deadline)
        print("\n".join(lines))
        return

    results = []
    for _ in range(PROCESSES):
        lines = run_exe(common, env, deadline)
        for line in lines[:-1]:
            print(line)
        results.append(json.loads(lines[-1]))
    metrics = {
        name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()
    }
    out = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    for name in metrics:
        print("# %s per process: %s" % (
            name, ", ".join(repr(r["metrics"][name]["value"]) for r in results)))
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program (perfbench/perfbench.exe) and the server
(bin/incll_server.exe) from source with dune, runs the workload, and
prints its report followed by one JSON line: the end-to-end
metrics that BENCHMARK.json names (--trace 0) or its per-layer metrics
(--trace 1). A per-layer metric of a layer the workload does not
exercise reads 0. Exits non-zero when the build fails, the workload's
correctness check fails, or a metric BENCHMARK.json requires is missing.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SERVER = os.path.join("_build", "default", "bin", "incll_server.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole group
    (the server child of perfbench.exe included) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout), 3)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        fail("run from the root of a checkout of the repository")

    code, _ = run_group(["dune", "build", "--root", ".", "--display", "quiet",
                         "--cache", "disabled",
                         "./perfbench/perfbench.exe", "./bin/incll_server.exe"],
                        BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        fail("build failed")

    out_dir = os.path.join("perfbench", "_out")
    os.makedirs(out_dir, exist_ok=True)
    code, out = run_group([EXE, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--server", SERVER, "--out", out_dir],
                          RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench.exe printed no result (exit %d)" % code, 1)
    if code != 0 or not result["correct"]:
        fail("correctness check failed", 1)

    key = "per_layer" if args.trace else "end_to_end"
    measured = result["metrics"]
    metrics = {}
    for spec in bench[key]:
        name = spec["name"]
        if name in measured:
            if measured[name]["unit"] != spec["unit"]:
                fail("%s: unit %s, BENCHMARK.json says %s"
                     % (name, measured[name]["unit"], spec["unit"]), 1)
            value = measured[name]["value"]
        elif key == "end_to_end":
            fail("end-to-end metric %s was not measured" % name, 1)
        else:
            value = 0.0
        metrics[name] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

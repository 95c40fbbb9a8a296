#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload forkjoin|serve|sim|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe from source
(into .bench_build), runs one workload (or, with "all", the three in one
process, metric names prefixed by workload), prints its readable report, a
host record, and as the last line the JSON result.  The full record
(host, arguments, result) is also saved under .bench_results/ so two
runs can be put side by side with perfbench/compare.py.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
RESULTS_DIR = ".bench_results"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Every workload bench.exe runs; BENCHMARK.json gates a subset of them.
WORKLOADS = ["forkjoin", "serve", "sim"]


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def flambda():
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-config-var", "flambda"],
                             capture_output=True, text=True, timeout=60)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # The benchmark measures the program in this checkout; without it
    # there is nothing to build.
    for path in ("dune-project", "lib", "BENCHMARK.json", "perfbench/dune"):
        if not os.path.exists(path):
            die("no %s here: run from the root of a full checkout" % path)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.workload == "all" and not args.trace:
        declared = ["%s.%s" % (w, m) for w in WORKLOADS for m in declared]

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache", "disabled",
         "--profile", "release", "./perfbench/bench.exe"],
        capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        die("build failed", 1)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("bench.exe did not finish within %d s" % RUN_TIMEOUT_S, 1)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        die("bench.exe exited with %d" % proc.returncode, 1)
    result = json.loads(lines[-1])
    if sorted(result["metrics"]) != sorted(declared):
        sys.stdout.write(out)
        die("metrics %s do not match BENCHMARK.json %s"
            % (sorted(result["metrics"]), sorted(declared)), 1)

    host = {
        "node": platform.node(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "flambda": flambda(),
    }
    host.update(json.loads(subprocess.run(
        [EXE, "--host"], capture_output=True, text=True, timeout=60).stdout))
    record = {"host": host, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "result": result}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s-trace%d-seed%d-%d.json"
                        % (args.workload, args.trace, args.seed, time.time_ns()))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print("host %s" % json.dumps(host, sort_keys=True))
    print("saved %s" % path)
    print(lines[-1])


if __name__ == "__main__":
    main()

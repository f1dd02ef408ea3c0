#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide_mix|table1|serve \
        --seed N --seconds S --trace 0|1

The binary and the library it links are built with CMake under
.bench_build/ in the checkout (the first run builds; later runs reuse it).
Build output goes to standard error. The workload's lines are relayed to
standard output; the last one is the result object. On the recorded seed
the workload's input fingerprint must equal the one in
perfbench/fingerprints.json, so a change to a generator or the serializer
cannot silently change what is measured. The exit code is non-zero, and no
result line is printed, when the build fails, the fingerprint differs or
the run does not finish in time; a failed correctness check exits non-zero
after printing the result with "correct": false.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("decide_mix", "table1", "serve")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", os.path.join(ROOT, ".bench_build", "traces")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = run.stdout.splitlines()
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        recorded = json.load(f)
    for line in lines:
        if not line.startswith("inputs "):
            continue
        inputs = json.loads(line[len("inputs "):])
        expected = recorded["fingerprints"][args.workload]
        if args.seed == recorded["seed"] and inputs["fingerprint"] != expected:
            print("\n".join(lines[:-1]))
            fail(f"{args.workload} inputs changed on seed {args.seed}: "
                 f"fingerprint {inputs['fingerprint']}, recorded {expected}")
    print("\n".join(lines))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

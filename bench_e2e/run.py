#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs it (see README.md).

Run from the repository root:

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench_e2e/run.py --smoke [--binary PATH]

The first form configures and builds the benchmark into $CARGO_TARGET_DIR
(default .bench_build), then runs it with the same arguments; its standard
output ends with the benchmark's JSON result line. --smoke runs every
workload of BENCHMARK.json at 1/50 size, untraced and traced, and checks
that each run passes and prints every metric BENCHMARK.json names, with
its unit.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds bench_e2e; returns (binary, build directory)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}: "
             "run from a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", "4"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench_e2e"), build_dir


def run(binary, cwd, args, capture=False):
    env = {k: v for k, v in os.environ.items() if k != "TFO_LANES"}
    try:
        return subprocess.run([binary] + args, cwd=cwd, env=env, text=True,
                              capture_output=capture, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} ran past {RUN_TIMEOUT_S} s")


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "1", "--seconds", "0.2",
                    "--trace", trace]
            proc = run(binary, os.path.dirname(binary), args, capture=True)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: result not correct: {lines[-1]}")
            wanted = spec["end_to_end"] + (spec["per_layer"] if trace == "1" else [])
            for m in wanted:
                pattern = rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}(\s|$)"
                if not any(re.match(pattern, line) for line in lines):
                    problems.append(f"{where}: no line '{m['name']} <value> {m['unit']}'")
            keyed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in keyed}:
                problems.append(f"{where}: JSON metrics differ from BENCHMARK.json")
            print(f"ok {where}")
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="with --smoke: test this bench_e2e, do not build")
    a = parser.parse_args()
    if a.smoke:
        binary = os.path.abspath(a.binary) if a.binary else build()[0]
        sys.exit(smoke(binary))
    if a.binary:
        fail("--binary goes with --smoke only")
    if None in (a.workload, a.seed, a.seconds, a.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    binary, build_dir = build()
    args = ["--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds,
            "--trace", a.trace]
    sys.exit(run(binary, build_dir, args).returncode)


if __name__ == "__main__":
    main()

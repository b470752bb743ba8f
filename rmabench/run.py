#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 rmabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 rmabench/run.py --selftest

Run from the repository root. The build lives in $CARGO_TARGET_DIR (default
.bench_build) under rmabench/; the first run configures and compiles the
engine and the driver (Release). The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. The full record (the
result plus environment and sizes, for compare.py) is written to
<build>/results/<workload>-seed<n>-trace<t>.json.

Exit codes: 0 all results correct; 1 a result was wrong or a statement
failed; 2 the build or the arguments failed; 3 the metrics do not match
BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "rmabench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "sql", "database.h")):
        fail(2, "engine sources (src/) not found under " + ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", target,
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(2, "build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("rmabench_selftest")
        sys.exit(subprocess.run([binary], cwd=ROOT).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail(2, "--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        fail(2, "--seed must be >= 0 and --seconds >= 1")

    binary = build("rmabench")
    out = build_dir()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(out, "work", "%s-%d" % (tag, os.getpid()))
    os.makedirs(work, exist_ok=True)
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--record", os.path.join(out, "results", tag + ".json")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out, "traces", tag + ".jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(1, "run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(2, "driver exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(3, "metrics differ from BENCHMARK.json: %s"
             % sorted(set(result["metrics"]) ^ want))
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

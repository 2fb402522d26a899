#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
runner (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR or
.bench_build; later calls only re-check the build. Every workload parameter
is pinned in perfbench/config.json and passed to the runner explicitly.
The last line of standard output is the JSON result; on any failure the
script exits non-zero without printing one.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("finetune", "ingest", "serve", "dashboard")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the runner; returns its path. Configuring an
    existing build tree is quick and picks up changed build files."""
    subprocess.run(
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target",
         "perfbench_runner"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench_runner")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it exists."""
    if not os.path.exists("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(BENCH_DIR, "config.json")) as f:
        config = json.load(f)
    params = dict(config["common"])
    params.update(config[args.workload])

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        runner = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 1

    out_dir = os.path.abspath(".bench_out")
    work_dir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    command = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    for key, value in sorted(params.items()):
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        command += ["--param", f"{key}={value}"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"perfbench: runner exited with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result line")
        return 1
    expected = expected_metrics(args.trace == 1)
    if expected is not None and set(result["metrics"]) != expected:
        log("perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ expected)}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

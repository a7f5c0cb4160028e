#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload batch|serve|ingest --seed N \
        --seconds S --trace 0|1

The first call configures and builds the library and the benchmark into
.bench_build/ (or $CARGO_TARGET_DIR when set), then runs the benchmark's
self-test; later calls only rebuild what changed. The benchmark's last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics. Build output goes to stderr so stdout stays parseable.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave room to stop and clean up.
RUN_TIMEOUT_S = 170
BUILD_JOBS = min(4, os.cpu_count() or 1)


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds smbench and its self-test; runs the test."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"{ROOT} holds no repository sources (src/CMakeLists.txt); "
            "run from the root of a full checkout")
        return False
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(BUILD_JOBS),
                  "--target", "smbench", "smbench_selftest"])
    steps.append([str(build_dir / "smbench_selftest"), "--gtest_brief=1"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch", "serve", "ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        return 1

    workdir = build_dir / "work" / f"{args.workload}-{os.getpid()}"
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "smbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--workdir", str(workdir),
               "--trace-file",
               str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    process = subprocess.Popen(command)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        code = 1
    shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

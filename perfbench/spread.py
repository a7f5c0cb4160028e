#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads batch serve ingest \
        --seeds 1 2 3 4 5 [--seconds S] [--trace 0|1]

For every workload and metric it prints the median of the per-run values,
the distance between their first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median, and, for
end-to-end metrics, whether that spread is below a third of the bound in
BENCHMARK.json. Runs are made through perfbench/run.py from the checkout
root, one after another.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: "
                  f"{result['failed']}/{result['attempted']} failed, " +
                  ", ".join(f"{k}={v['value']:.6g}"
                            for k, v in sorted(result["metrics"].items())),
                  flush=True)
        for name, series in sorted(values.items()):
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            verdict = ""
            if name in bounds:
                ok = spread < bounds[name] / 3
                verdict = (f"bound {bounds[name]:.2f} -> "
                           f"{'steady' if ok else 'TOO WIDE'}")
            print(f"  {workload:7s} {name:36s} median {median:.6g} "
                  f"spread {spread:.4f} {verdict}", flush=True)


if __name__ == "__main__":
    main()

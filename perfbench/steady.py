"""Steadiness check: run each workload on several seeds and report, per
metric, the median and the inter-quartile spread as a share of it.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10 [--workload table1 ...] [--trace 0]

Each run is a fresh ``perfbench/run.py`` process, one after another, on
seeds 1, 2, ... and the ``run_seconds`` of ``BENCHMARK.json``.  The
spreads are what the bounds in ``BENCHMARK.json`` are set from.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import stats  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    for workload in args.workload or WORKLOADS:
        results = [run_once(workload, seed, seconds, args.trace)
                   for seed in range(1, args.runs + 1)]
        print(f"{workload}: {len(results)} runs, "
              f"correct={all(r['correct'] for r in results)}, "
              f"failed/attempted="
              f"{sorted({(r['failed'], r['attempted']) for r in results})}, "
              f"run time {min(r['run_s'] for r in results):.1f}-"
              f"{max(r['run_s'] for r in results):.1f} s")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = stats.median(values)
            spread = (stats.quartile_spread(values)
                      if len(values) >= 2 and median else 0.0)
            print(f"  {name:28s} median {median:12.6g}  "
                  f"spread {100 * spread:6.2f}%  "
                  f"range {min(values):.6g}..{max(values):.6g}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repository benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads: ``table1``, ``pareto``, ``cachesweep``, ``service`` (see
README.md).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every run is a fresh process with serial evaluation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("table1", "pareto", "cachesweep", "service")

#: Fresh-process set-ups per untraced run, the first half before the
#: load and the rest after it, so that one slow spell of the host moves
#: only some of them; ``setup_s`` is their median.
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 120.0

def declared(kind: str):
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    that BENCHMARK.json at the checkout root declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _module(workload: str):
    import importlib
    return importlib.import_module(f"perfbench.{workload}")


def _setup_once(args) -> float:
    """Import the program and build the inputs; returns the seconds."""
    start = time.perf_counter()
    _module(args.workload).setup(args.seed, args.seconds)
    return time.perf_counter() - start


def _setup_in_fresh_processes(args, count: int):
    """Set-up seconds of ``count`` fresh processes."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up of {args.workload} failed "
                               f"(exit {proc.returncode})")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def _batch(args, verdict):
    """table1 / pareto / cachesweep in this process."""
    from perfbench.common import PlainTimer, peak_rss_mb

    setup_runs = 0 if args.trace else SETUP_RUNS
    setup_s = _setup_in_fresh_processes(args, (setup_runs + 1) // 2)
    inputs = _module(args.workload).setup(args.seed, args.seconds)
    if args.trace:
        from perfbench.layers import LayerTracer
        timer = LayerTracer()
        timer.install()
    else:
        timer = PlainTimer()
    outcome = _module(args.workload).run(inputs, timer, verdict)
    setup_s += _setup_in_fresh_processes(args, setup_runs // 2)
    outcome.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb(),
                   wall_s=timer.op_s)
    if args.trace:
        timer.uninstall()
        layers = timer.metrics()
        layers.update(outcome.get("layers", {}))
        layers["trace.unaccounted_share"] = timer.unaccounted_share()
        outcome["layers"] = layers
    return outcome


def _service(args, verdict, workdir):
    from perfbench import service

    outcome = service.run(ROOT, workdir, args.seed, args.seconds,
                          bool(args.trace), 1 if args.trace else SETUP_RUNS,
                          verdict)
    if args.trace:
        with open(outcome["trace_out"]) as fh:
            served = json.load(fh)
        layers = served["metrics"]
        layers.update(outcome["layers"])
        evaluate_s = outcome["evaluate_total_s"]
        layers["trace.unaccounted_share"] = (
            max(0.0, 1.0 - served["layer_s"] / evaluate_s)
            if evaluate_s > 0 else 0.0)
        outcome["layers"] = layers
    return outcome


def _metrics(args, outcome):
    from perfbench import stats

    done = outcome["attempted"] - outcome["failed"]
    ops_per_s = done / outcome["wall_s"] if outcome["wall_s"] > 0 else 0.0
    if not args.trace:
        values = {
            "setup_s": stats.median(outcome["setup_s"]),
            "ops_per_s": ops_per_s,
            "op_geomean_s": stats.kind_median_geomean(outcome["samples"]),
            "peak_rss_mb": outcome["peak_rss_mb"],
        }
        units = declared("end_to_end")
    else:
        # A layer the workload never calls reads 0.
        units = declared("per_layer")
        values = dict.fromkeys(units, 0.0)
        values.update(outcome["layers"])
        values["trace.ops_per_s"] = ops_per_s
        if args.workload == "service":
            latencies = [seconds for _, seconds in outcome["samples"]]
            values.update({"service.latency_p50_s": stats.median(latencies),
                           "service.latency_tail_s": stats.tail(latencies)[1]})
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise ValueError(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    if args.setup_only:
        print(json.dumps({"setup_s": _setup_once(args)}))
        return 0
    from perfbench.checks import Verdict

    verdict = Verdict()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.workload == "service":
            outcome = _service(args, verdict, workdir)
        else:
            outcome = _batch(args, verdict)
        metrics = _metrics(args, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": verdict.correct,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness report: run one workload k times and show each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload live-kv --runs 10

Each run is ``perfbench/run.py`` in a fresh process with ``run_seconds``
from ``BENCHMARK.json``.  Every run uses the same seed (``--seed``,
default 42, the pinned one), so the spread is the host's and the
program's alone; ``--vary-seeds`` gives run i the seed ``--seed + i``
instead, to see the spread across inputs as well.  For every end-to-end
metric the report prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread and the
min/max spread as shares of the median, and the metric's bound from
``BENCHMARK.json``.  A metric whose quartile spread exceeds its bound is
flagged ``OVER``; one above a third of its bound is flagged ``near``.
Run this before claiming a change: it is the evidence behind the
bounds.  The last line is a JSON summary.  Exit status 1 means a run
failed or a metric is over its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as stream:
        return json.load(stream)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit {done.returncode}\n{done.stdout}\n{done.stderr}"
        )
    return json.loads(lines[-1])


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median,
        "range_share": (max(values) - min(values)) / median,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--vary-seeds", action="store_true")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    values = {name: [] for name in bounds}
    failed = 0
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seeds else args.seed
        result = run_once(args.workload, seed, seconds)
        failed += result["failed"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(
            f"run {i} seed {seed}: "
            + " ".join(f"{n}={values[n][-1]:.5g}" for n in bounds),
            flush=True,
        )

    summary = {
        "workload": args.workload,
        "runs": args.runs,
        "seeds": "varied" if args.vary_seeds else args.seed,
        "failed": failed,
        "metrics": {},
    }
    over = False
    print(f"{'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} {'iqr':>7} {'range':>7} {'bound':>6}")
    for name, bound in bounds.items():
        s = spread(values[name])
        s["bound"] = bound
        s["values"] = values[name]
        flag = ""
        if s["iqr_share"] > bound:
            flag, over = "OVER", True
        elif s["iqr_share"] > bound / 3:
            flag = "near"
        s["flag"] = flag
        summary["metrics"][name] = s
        print(
            f"{name:<18} {s['median']:>11.5g} {s['q1']:>11.5g} {s['q3']:>11.5g} "
            f"{s['iqr_share']:>7.3f} {s['range_share']:>7.3f} {bound:>6} {flag}"
        )
    print(json.dumps(summary))
    return 1 if over or failed else 0


if __name__ == "__main__":
    sys.exit(main())

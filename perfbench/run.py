"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sim --seed 42 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper
installed, in reference seconds: wall seconds scaled by the speed of a
fixed reference task run before every round (see ``workloads.py``), so
that the host's own slow phases cancel out.  ``--trace 1`` alternates
untraced cycles with cycles traced through the timing wrappers of
``perfbench/tracing.py``; it reports the per-layer metrics per traced
cycle and writes the spans to ``perfbench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The lines before it repeat every
metric by name with its unit, beside the host facts.

Exit status: 0 when every output checked out, 1 when a check failed
(the result line is still printed), 2 when the benchmark could not run
(bad arguments, or the ``repro`` sources are missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metric -> unit; every untraced run reports all of them.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "lane_a_ops_per_s": "1/s",
    "lane_b_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: What each lane is, per workload, under the names the report prints.
LANE_NAMES = {
    "paper-sim": ("fig5_ops_per_s", "crash_ops_per_s"),
    "scale": ("cycloid_ops_per_s", "chord_ops_per_s"),
    "live-kv": ("lookup_ops_per_s", "putget_ops_per_s"),
}


def host_facts() -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(m) -> dict:
    """The gated metrics, in reference seconds: wall seconds over the
    host's mean slowness during the run."""
    scale = m.host_scale()
    return {
        "setup_s": statistics.median(m.setup_samples) / scale,
        "ops_per_s": m.ops_per_s() * scale,
        "lane_a_ops_per_s": m.lane_rate("a") * scale,
        "lane_b_ops_per_s": m.lane_rate("b") * scale,
        "peak_rss_mb": peak_rss_mb(),
    }


def percentile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def detail(workload: str, m, fail_ratio: float) -> dict:
    """The workload's own names for its numbers (printed, not gated)."""
    a, b = LANE_NAMES[workload]
    values = {
        a: (m.lane_rate("a") * m.host_scale(), "1/s"),
        b: (m.lane_rate("b") * m.host_scale(), "1/s"),
        "fail_ratio": (fail_ratio, "ratio"),
        "host_scale": (m.host_scale(), "ratio"),
        "reference_tasks": (len(m.slowness), "count"),
        "raw_setup_s": (statistics.median(m.setup_samples), "s"),
        "raw_ops_per_s": (m.ops_per_s(), "1/s"),
        f"raw_{a}": (m.lane_rate("a"), "1/s"),
        f"raw_{b}": (m.lane_rate("b"), "1/s"),
        "setup_samples": (len(m.setup_samples), "count"),
        "rounds": (m.rounds, "count"),
        "measured_s": (m.busy_s, "s"),
    }
    for kind in ("lookup", "put", "get"):
        samples = m.latencies_ms.get(kind)
        if samples and len(samples) > 1:
            values[f"{kind}_p50_ms"] = (percentile(samples, 50), "ms")
            values[f"{kind}_p99_ms"] = (percentile(samples, 99), "ms")
            values[f"{kind}_samples"] = (len(samples), "count")
    return values


def traced_run(workload, args):
    """Pairs of one untraced and one traced cycle (one pass over the
    workload's input pool, set-ups included) until ``--seconds`` of wall
    time have passed.  Per-layer values are per traced cycle, so counts
    repeat exactly; ``trace.overhead`` is the traced cycles' ``ops_per_s``
    over the untraced cycles'."""
    import tracing
    from workloads import measure

    tracer = tracing.Tracer()
    untraced, traced = [], []
    traced_s = 0.0
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < args.seconds:
        untraced.append(measure(workload, rounds=workload.min_rounds))
        installed = tracing.install(tracer)
        cycle_started = time.perf_counter()
        try:
            traced.append(measure(workload, rounds=workload.min_rounds))
        finally:
            installed.uninstall()
        traced_s += time.perf_counter() - cycle_started
    overhead = merged(traced).ops_per_s() / merged(untraced).ops_per_s()
    metrics = tracing.layer_metrics(tracer, traced_s, overhead, len(traced))
    os.makedirs(args.spans_dir, exist_ok=True)
    tracer.write(os.path.join(args.spans_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    return metrics, untraced, traced


def merged(parts):
    """One Measurement over several (sums, concatenations)."""
    from workloads import Measurement

    total = Measurement()
    for part in parts:
        total.setup_samples += part.setup_samples
        total.slowness += part.slowness
        for lane in ("a", "b"):
            total.lane_ops[lane] += part.lane_ops[lane]
            total.lane_s[lane] += part.lane_s[lane]
        for kind, samples in part.latencies_ms.items():
            total.latencies_ms.setdefault(kind, []).extend(samples)
        total.rounds += part.rounds
        total.attempted += part.attempted
        total.failed += part.failed
        total.problems += part.problems
        total.digests.update(part.digests)
    return total


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper-sim", "scale", "live-kv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans-dir", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args, pins=None, out=sys.stdout) -> int:
    """Measure, print the report and the result line; returns the exit
    status."""
    import tracing
    from workloads import SIZES, WORKLOADS, Reference, measure

    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], pins)
    try:
        if args.trace:
            metrics, untraced, traced = traced_run(workload, args)
            units = tracing.LAYER_UNITS
        else:
            reference = Reference(workload.reference_parts)
            try:
                m = measure(workload, seconds=args.seconds, reference=reference)
            finally:
                reference.close()
            untraced, traced = [m], []
            metrics = end_to_end(untraced[0])
            units = END_TO_END
    finally:
        workload.close()

    m = merged(untraced)
    checked = merged(untraced + traced)
    attempted, failed = checked.attempted, checked.failed
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "host": host_facts(),
        "digests": m.digests,
        "problems": checked.problems,
    }
    for name, (value, unit) in detail(args.workload, m, failed / attempted).items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=out)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}", file=out)
    if args.trace:
        report["trace.overhead"] = metrics["trace.overhead"]
    print(json.dumps(report, sort_keys=True), file=out)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result), file=out)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401  (the program under test, from source)
        import numpy  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

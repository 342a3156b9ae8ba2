"""Parallel-engine benchmark: serial vs sharded fan-out, bit-checked.

The ``bench`` CLI subcommand times one paper-scale lookup cell per
overlay twice — ``workers=1`` (the serial fallback) and ``workers=N``
(the process pool) — over the *identical* shard plan, then compares the
:meth:`~repro.dht.metrics.LookupStats.digest` of both runs.  A speedup
without a digest match would mean the parallel path changed the
science, so the match is the headline column, the speedup only the
payoff.

Results land in ``BENCH_parallel.json`` so CI can archive them; the
reported ``cpus`` field (`available_workers`) qualifies the speedup —
on a single-CPU box the pool pays fork overhead for no gain, and the
digests still match.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.dht.kernel import columnar_protocols
from repro.dht.metrics import LookupStats
from repro.experiments.registry import build_complete_network
from repro.sim.parallel import (
    DEFAULT_SHARD_SIZE,
    ShardTask,
    available_workers,
    execute_shard,
    plain_setup,
    plan_shards,
    run_sharded_lookups,
)
from repro.sim.workload import lookup_workload
from repro.util.rng import make_rng

__all__ = [
    "BenchCell",
    "CloneBenchCell",
    "KernelBenchCell",
    "run_parallel_bench",
    "run_clone_bench",
    "run_kernel_bench",
    "bench_report",
    "write_bench_report",
    "compare_to_baseline",
    "host_facts",
    "validate_net_report",
    "DEFAULT_BENCH_PROTOCOLS",
    "KERNEL_BENCH_PROTOCOLS",
]

DEFAULT_BENCH_PROTOCOLS: Tuple[str, ...] = (
    "cycloid",
    "chord",
    "koorde",
    "viceroy",
)

#: Protocols with a fully-columnar compiled kernel (DESIGN §S23) — the
#: only ones where object-vs-columnar timing measures the kernel rather
#: than the fallback.  Read from the kernel registry, so every
#: registered kernel is benched and digest-checked.
KERNEL_BENCH_PROTOCOLS: Tuple[str, ...] = columnar_protocols()


@dataclass(frozen=True)
class BenchCell:
    """Serial-vs-parallel timing of one overlay's lookup cell.

    Each side's time is the best of the bench's repeats; the matching
    ``*_spread_seconds`` is that side's max minus min over the same
    repeats, so a speedup is read against the noise that moved it."""

    protocol: str
    serial_seconds: float
    parallel_seconds: float
    digest: str
    digest_match: bool
    serial_spread_seconds: float
    parallel_spread_seconds: float

    @property
    def speedup(self) -> float:
        if self.parallel_seconds == 0:
            return 0.0
        return self.serial_seconds / self.parallel_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "serial_seconds": self.serial_seconds,
            "serial_spread_seconds": self.serial_spread_seconds,
            "parallel_seconds": self.parallel_seconds,
            "parallel_spread_seconds": self.parallel_spread_seconds,
            "speedup": self.speedup,
            "digest": self.digest,
            "digest_match": self.digest_match,
        }


def run_parallel_bench(
    protocols: Sequence[str] = DEFAULT_BENCH_PROTOCOLS,
    dimension: int = 8,
    lookups: int = 2000,
    workers: int = 4,
    shard_size: int = DEFAULT_SHARD_SIZE,
    seed: int = 42,
    repeats: int = 5,
) -> List[BenchCell]:
    """Time ``workers=1`` vs ``workers=N`` on identical shard plans.

    Each side runs ``repeats`` times, alternating serial and pool so
    host drift hits both; the best time is kept beside the max-min
    spread.  ``digest_match`` holds only when every run of both sides
    produced the serial digest."""
    if workers < 2:
        raise ValueError("bench needs workers >= 2 to compare against serial")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cells: List[BenchCell] = []
    for protocol in protocols:
        setup = partial(
            plain_setup, build_complete_network, protocol, dimension, seed=seed
        )
        times: Dict[int, List[float]] = {1: [], workers: []}
        digests = set()
        for _ in range(repeats):
            for fan_out in (1, workers):
                start = time.perf_counter()
                merged = run_sharded_lookups(
                    setup,
                    lookups,
                    seed + dimension,
                    workers=fan_out,
                    shard_size=shard_size,
                )
                times[fan_out].append(time.perf_counter() - start)
                digest = merged.stats.digest()
                if fan_out == 1:
                    serial_digest = digest
                digests.add(digest)
        serial, parallel = times[1], times[workers]
        cells.append(
            BenchCell(
                protocol=protocol,
                serial_seconds=min(serial),
                parallel_seconds=min(parallel),
                digest=serial_digest,
                digest_match=digests == {serial_digest},
                serial_spread_seconds=max(serial) - min(serial),
                parallel_spread_seconds=max(parallel) - min(parallel),
            )
        )
    return cells


@dataclass(frozen=True)
class CloneBenchCell:
    """Build-once vs per-shard-rebuild timing of one overlay (§S21).

    ``build_seconds`` is what every shard used to pay (one full join
    protocol); ``restore_seconds``/``clone_seconds`` are what a shard
    pays now (snapshot restore across the pool, in-process clone on the
    serial path).  ``digest_match`` confirms the cheap path changed
    nothing: one shard routed on a restored snapshot has the digest of
    the same shard routed on the freshly built network.
    """

    protocol: str
    population: int
    snapshot_bytes: int
    build_seconds: float
    snapshot_seconds: float
    restore_seconds: float
    clone_seconds: float
    digest_match: bool

    @property
    def restore_speedup(self) -> float:
        """How much cheaper a snapshot restore is than a rebuild."""
        if self.restore_seconds == 0:
            return 0.0
        return self.build_seconds / self.restore_seconds

    @property
    def clone_speedup(self) -> float:
        if self.clone_seconds == 0:
            return 0.0
        return self.build_seconds / self.clone_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "population": self.population,
            "snapshot_bytes": self.snapshot_bytes,
            "build_seconds": self.build_seconds,
            "snapshot_seconds": self.snapshot_seconds,
            "restore_seconds": self.restore_seconds,
            "clone_seconds": self.clone_seconds,
            "restore_speedup": self.restore_speedup,
            "clone_speedup": self.clone_speedup,
            "digest_match": self.digest_match,
        }


def run_clone_bench(
    protocols: Sequence[str] = DEFAULT_BENCH_PROTOCOLS,
    dimension: int = 8,
    lookups: int = 400,
    shard_size: int = DEFAULT_SHARD_SIZE,
    seed: int = 42,
    repeats: int = 5,
) -> List[CloneBenchCell]:
    """Time one full network build against snapshot restore / clone.

    The build is what a shard would pay to route on a network of its
    own; the restore/clone is what it pays instead, so
    ``restore_speedup`` is the per-shard saving of DESIGN §S21.  Every
    timing is the best of ``repeats`` runs.  The digest check routes the
    cell's first shard (of ``lookups`` split by ``shard_size``) once on
    the built network and once on ``snapshot.restore()`` and compares
    the two digests.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if lookups < 1:
        raise ValueError("lookups must be >= 1")
    cells: List[CloneBenchCell] = []
    for protocol in protocols:
        setup = partial(
            plain_setup, build_complete_network, protocol, dimension, seed=seed
        )
        def best_of(operation):
            # Minimum over ``repeats`` runs: the low-noise estimator for
            # micro-timings (anything above the minimum is interference).
            best = None
            result = None
            for _ in range(repeats):
                start = time.perf_counter()
                result = operation()
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best:
                    best = elapsed
            return best, result

        build_seconds, (network, _) = best_of(setup)
        snapshot_seconds, snapshot = best_of(network.snapshot)
        restore_seconds, _ = best_of(snapshot.restore)
        clone_seconds, _ = best_of(network.clone)

        task = ShardTask(
            spec=plan_shards(lookups, shard_size)[0], seed=seed + dimension
        )
        via_build = execute_shard(task, prepared=(network, None))
        via_restore = execute_shard(task, prepared=(snapshot.restore(), None))
        cells.append(
            CloneBenchCell(
                protocol=protocol,
                population=network.size,
                snapshot_bytes=len(snapshot.payload),
                build_seconds=build_seconds,
                snapshot_seconds=snapshot_seconds,
                restore_seconds=restore_seconds,
                clone_seconds=clone_seconds,
                digest_match=(
                    LookupStats(via_build.records).digest()
                    == LookupStats(via_restore.records).digest()
                ),
            )
        )
    return cells


@dataclass(frozen=True)
class KernelBenchCell:
    """Object-vs-columnar timing of one overlay's lookup batch (§S23).

    Both backends route the *identical* materialised workload on the
    same network; ``digest_match`` confirms the kernel changed nothing
    before the speedup means anything.  Timings are best-of-``repeats``
    (the low-noise estimator for micro-timings).
    """

    protocol: str
    lookups: int
    object_seconds: float
    columnar_seconds: float
    digest: str
    digest_match: bool

    @property
    def object_lookups_per_s(self) -> float:
        if self.object_seconds == 0:
            return 0.0
        return self.lookups / self.object_seconds

    @property
    def columnar_lookups_per_s(self) -> float:
        if self.columnar_seconds == 0:
            return 0.0
        return self.lookups / self.columnar_seconds

    @property
    def speedup(self) -> float:
        if self.columnar_seconds == 0:
            return 0.0
        return self.object_seconds / self.columnar_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "lookups": self.lookups,
            "object_seconds": self.object_seconds,
            "columnar_seconds": self.columnar_seconds,
            "object_lookups_per_s": self.object_lookups_per_s,
            "columnar_lookups_per_s": self.columnar_lookups_per_s,
            "speedup": self.speedup,
            "digest": self.digest,
            "digest_match": self.digest_match,
        }


def run_kernel_bench(
    protocols: Sequence[str] = KERNEL_BENCH_PROTOCOLS,
    dimension: int = 8,
    lookups: int = 2000,
    seed: int = 42,
    repeats: int = 5,
) -> List[KernelBenchCell]:
    """Time the object engine against the columnar kernel, digest-checked.

    One complete network per protocol, one materialised ``(source,
    key)`` workload, ``repeats`` timed runs per backend (best kept).
    The digests of the two record streams must match bit for bit — a
    fast kernel that drifts is a bug, not a speedup.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cells: List[KernelBenchCell] = []
    for protocol in protocols:
        network = build_complete_network(protocol, dimension, seed=seed)
        pairs = list(
            lookup_workload(network, lookups, make_rng(seed + dimension))
        )

        def best_of(backend: str):
            best = None
            records = None
            for _ in range(repeats):
                start = time.perf_counter()
                result = network.lookup_many(pairs, backend=backend)
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best:
                    best = elapsed
                    records = result
            return best, records

        object_seconds, object_records = best_of("object")
        columnar_seconds, columnar_records = best_of("columnar")

        def digest_of(records) -> str:
            stats = LookupStats()
            stats.extend(records)
            return stats.digest()

        object_digest = digest_of(object_records)
        cells.append(
            KernelBenchCell(
                protocol=protocol,
                lookups=lookups,
                object_seconds=object_seconds,
                columnar_seconds=columnar_seconds,
                digest=object_digest,
                digest_match=object_digest == digest_of(columnar_records),
            )
        )
    return cells


def host_facts() -> Dict[str, str]:
    """The interpreter, numpy and OS a throughput figure was measured
    under; with ``cpus`` these decide whether two reports compare."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is baked into CI
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def bench_report(
    cells: Sequence[BenchCell],
    dimension: int,
    lookups: int,
    workers: int,
    shard_size: int,
    seed: int,
    clone_cells: Sequence[CloneBenchCell] = (),
    kernel_cells: Sequence[KernelBenchCell] = (),
) -> Dict[str, object]:
    """The JSON document ``bench`` writes to ``BENCH_parallel.json``.

    ``all_match`` covers every digest comparison in the report: the
    serial-vs-parallel cells, the restore-vs-build clone cells *and*
    the object-vs-columnar kernel cells.
    """
    return {
        "config": {
            "dimension": dimension,
            "lookups": lookups,
            "workers": workers,
            "shard_size": shard_size,
            "seed": seed,
            "cpus": available_workers(),
            "host": host_facts(),
        },
        "cells": [cell.as_dict() for cell in cells],
        "build_vs_clone": [cell.as_dict() for cell in clone_cells],
        "kernel": [cell.as_dict() for cell in kernel_cells],
        "all_match": all(cell.digest_match for cell in cells)
        and all(cell.digest_match for cell in clone_cells)
        and all(cell.digest_match for cell in kernel_cells),
    }


def compare_to_baseline(
    report: Dict[str, object],
    baseline: object,
    threshold: float = 0.2,
) -> List[str]:
    """Describe this report's kernel throughput against a committed one.

    Returns one line per kernel cell that also exists in ``baseline``
    (the previously committed ``BENCH_parallel.json``), so the bench
    surfaces drift instead of silently overwriting the file.  A cell
    whose columnar lookups/sec fell more than ``threshold`` below the
    baseline gets a ``warning:`` prefix — but only when both reports
    carry the same host facts (``cpus`` and the ``host`` block).  A
    baseline from another host, or one without host facts, is marked
    ``not comparable (host differs: ...)`` instead: a ratio across
    hosts measures the hosts, not the code.
    """
    lines: List[str] = []
    if not isinstance(baseline, dict):
        return lines
    host_diff = _host_difference(report, baseline)
    committed = {
        cell.get("protocol"): cell
        for cell in baseline.get("kernel", ())
        if isinstance(cell, dict)
    }
    for cell in report.get("kernel", ()):
        base = committed.get(cell["protocol"])
        if base is None:
            continue
        new_rate = float(cell.get("columnar_lookups_per_s") or 0.0)
        old_rate = float(base.get("columnar_lookups_per_s") or 0.0)
        if old_rate <= 0.0:
            continue
        ratio = new_rate / old_rate
        line = (
            f"kernel {cell['protocol']}: columnar {new_rate:,.0f} "
            f"lookups/s vs committed {old_rate:,.0f} ({ratio:.2f}x)"
        )
        if host_diff:
            line = f"not comparable (host differs: {host_diff}): {line}"
        elif ratio < 1.0 - threshold:
            line = (
                f"warning: {line} — regression exceeds "
                f"{threshold:.0%} of the committed baseline"
            )
        lines.append(line)
    return lines


def _host_difference(report: Dict[str, object], baseline: Dict) -> str:
    """The host facts on which ``baseline`` differs from ``report``
    (``""`` when they all agree); a missing fact counts as different."""

    def facts(document: Dict) -> Dict[str, object]:
        config = document.get("config") or {}
        host = config.get("host") or {}
        names = ("python", "numpy", "platform")
        return {
            "cpus": config.get("cpus"),
            **{name: host.get(name) for name in names},
        }

    ours, theirs = facts(report), facts(baseline)
    return ", ".join(
        f"{name} {theirs[name] or 'missing'} vs {ours[name]}"
        for name in ours
        if ours[name] != theirs[name]
    )


def write_bench_report(path: str, report: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


#: ``BENCH_net.json`` required shape: top-level keys and the nested
#: keys of each aggregate section.  Guarded so CI archives can be
#: machine-compared across commits without schema drift.
_NET_REPORT_KEYS = (
    "schema",
    "mode",
    "build",
    "clients",
    "seed",
    "ops",
    "latency_ms",
    "throughput_ops_per_s",
    "digest",
)
_NET_OPS_KEYS = ("total", "completed", "lookups", "puts", "gets", "failures")
_NET_LATENCY_KEYS = ("mean", "p50", "p95", "p99", "max")
_NET_DIGEST_KEYS = ("live", "expected", "match")
#: Extra required shape of the ``"open-churn"`` mode (``repro
#: churnstorm``): the digest section is replaced by the open/closed
#: loop split and the churn ledger with its survival verdict.
_NET_CHURN_REPORT_KEYS = (
    "schema",
    "mode",
    "build",
    "clients",
    "seed",
    "ops",
    "latency_ms",
    "throughput_ops_per_s",
    "open_loop",
    "closed_loop",
    "churn",
)
_NET_CHURN_KEYS = (
    "plan",
    "events",
    "crashes",
    "joins",
    "acked_writes",
    "acked_keys",
    "lost_acked_keys",
    "survival_rate",
    "under_replication_ms",
)


def validate_net_report(report: Dict[str, object]) -> None:
    """Schema-guard a ``BENCH_net.json`` loadgen report.

    Two report modes share the schema tag, and every report must name
    its ``"mode"`` explicitly: a ``"closed-loop"`` parity report must
    carry a consistent engine-parity ``digest``; an ``"open-churn"`` report
    (``repro churnstorm``) instead carries the open/closed loop split
    plus a ``churn`` section whose ``survival_rate`` must agree with
    its lost-key count.  Raises ``ValueError`` naming the first
    violation.
    """
    from repro.net.loadgen import NET_BENCH_SCHEMA

    if not isinstance(report, dict):
        raise ValueError("net report must be a JSON object")
    if report.get("schema") != NET_BENCH_SCHEMA:
        raise ValueError(
            f"net report schema is {report.get('schema')!r}, "
            f"expected {NET_BENCH_SCHEMA!r}"
        )
    # ``mode`` is required: a very-early SIGINT once produced a partial
    # report without it, which this validator silently took for a
    # closed-loop run — never default a discriminator.
    if "mode" not in report:
        raise ValueError("net report is missing 'mode'")
    mode = report["mode"]
    if mode not in ("closed-loop", "open-churn"):
        raise ValueError(f"net report mode {mode!r} is unknown")
    # Self-hosted runs count the STEP frames their servers forwarded;
    # an attached run cannot see the servers, so the field is optional.
    if "forwards_per_op" in report:
        forwards = report["forwards_per_op"]
        if (
            isinstance(forwards, bool)
            or not isinstance(forwards, (int, float))
            or not forwards >= 0
        ):
            raise ValueError(
                f"net report forwards_per_op {forwards!r} is not a "
                "non-negative number"
            )
    if mode == "open-churn":
        _validate_churn_report(report)
        return
    for key in _NET_REPORT_KEYS:
        if key not in report:
            raise ValueError(f"net report is missing {key!r}")
    for section, keys in (
        ("ops", _NET_OPS_KEYS),
        ("latency_ms", _NET_LATENCY_KEYS),
        ("digest", _NET_DIGEST_KEYS),
    ):
        block = report[section]
        if not isinstance(block, dict):
            raise ValueError(f"net report {section!r} must be an object")
        for key in keys:
            if key not in block:
                raise ValueError(
                    f"net report {section!r} is missing {key!r}"
                )
    digest = report["digest"]
    for side in ("live", "expected"):
        value = digest[side]
        if not (isinstance(value, str) and len(value) == 64):
            raise ValueError(
                f"net report digest.{side} is not a sha256 hex digest"
            )
    ops = report["ops"]
    expected_match = (
        ops["completed"] == ops["total"]
        and digest["live"] == digest["expected"]
    )
    if bool(digest["match"]) != expected_match:
        raise ValueError(
            "net report digest.match is inconsistent with the digests"
        )


def _validate_churn_report(report: Dict[str, object]) -> None:
    for key in _NET_CHURN_REPORT_KEYS:
        if key not in report:
            raise ValueError(f"churn report is missing {key!r}")
    for section, keys in (
        ("ops", _NET_OPS_KEYS),
        ("latency_ms", _NET_LATENCY_KEYS),
        ("churn", _NET_CHURN_KEYS),
    ):
        block = report[section]
        if not isinstance(block, dict):
            raise ValueError(f"churn report {section!r} must be an object")
        for key in keys:
            if key not in block:
                raise ValueError(
                    f"churn report {section!r} is missing {key!r}"
                )
    churn = report["churn"]
    survival = churn["survival_rate"]
    if not isinstance(survival, (int, float)) or not 0.0 <= survival <= 1.0:
        raise ValueError(
            "churn report survival_rate must be a number in [0, 1]"
        )
    lost = churn["lost_acked_keys"]
    if (survival == 1.0) != (lost == 0):
        raise ValueError(
            "churn report survival_rate is inconsistent with "
            "lost_acked_keys"
        )
    window = churn["under_replication_ms"]
    if not isinstance(window, dict) or not {"mean", "max"} <= set(window):
        raise ValueError(
            "churn report under_replication_ms needs 'mean' and 'max'"
        )

"""fig-scale — million-node overlays, built direct-to-columns (§S26).

The paper evaluates Cycloid at thousands of nodes; the ROADMAP's north
star is its figures at n = 10^6.  PR 6 made *lookups* columnar; this
experiment removes the remaining wall — construction — by building each
cell with :mod:`repro.dht.bulkbuild` (packed columns straight from the
seeded id sample, no per-node Python objects) and routing on it with
the array-mode kernel entry points (``run_linear`` / ``run_ids``).

Each cell reports build throughput, peak column bytes, kernel lookup
throughput and mean hops against ``log2 n``.  The parity section keeps
the experiment honest twice over:

* **digest parity** — at ``parity_count`` the bulk build must be
  byte-identical (sha256 over the canonical packed pickle) to the
  object builder's network;
* **extrapolated speedup** — the object builder is timed over a ladder
  of growing populations, a log-log least-squares line is fitted
  (its cost is super-linear: sorted-row inserts grow with the row), and
  the bulk build at the target count is compared against the fitted
  object-build time at that count.  The §S26 acceptance bar is a
  ``speedup >= 50``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

try:  # numpy backs both the bulk builder and the kernel
    import numpy as np
except ImportError:  # pragma: no cover - exercised on minimal installs
    np = None  # type: ignore[assignment]

from repro.dht.bulkbuild import build_columns, packed_digest
from repro.dht.kernel import kernel_from_columns
from repro.util.reports import (
    check_cells,
    check_digest,
    check_keys,
    check_report,
    check_section,
)

__all__ = [
    "SCALE_BENCH_SCHEMA",
    "SCALE_COUNTS",
    "SCALE_PROTOCOLS",
    "SPEEDUP_BAR",
    "ScalePoint",
    "run_scale_cell",
    "run_scale_experiment",
    "object_build_ladder",
    "fit_power_law",
    "scale_parity",
    "scale_report",
    "validate_scale_report",
]

#: Schema tag of the ``BENCH_scale.json`` report.
SCALE_BENCH_SCHEMA = "repro/scale-bench/v1"

#: Default population sweep: 10^4 .. 10^6.
SCALE_COUNTS = (10_000, 100_000, 1_000_000)

#: Protocols with bulk builders.
SCALE_PROTOCOLS = ("cycloid", "chord")

#: The §S26 acceptance bar: bulk build vs extrapolated object build.
SPEEDUP_BAR = 50.0


@dataclass(frozen=True)
class ScalePoint:
    """One (protocol, population) build + kernel-lookup measurement."""

    protocol: str
    count: int
    sizing: int  # Cycloid dimension / Chord ring bits
    space: int
    sampler: str
    build_seconds: float
    build_nodes_per_sec: float
    column_bytes: int
    compile_seconds: float
    lookups: int
    lookup_seconds: float
    lookups_per_sec: float
    mean_hops: float
    log2_count: float
    success_rate: float
    timeouts: int
    #: sha256 over the lookup result arrays — the determinism pin.
    digest: str


def _cell_digest(hops, final, success) -> str:
    """sha256 over the canonical lookup result arrays."""
    payload = hashlib.sha256()
    payload.update(np.ascontiguousarray(hops, dtype=np.int64).tobytes())
    payload.update(np.ascontiguousarray(final, dtype=np.int64).tobytes())
    payload.update(
        np.ascontiguousarray(success, dtype=np.int8).tobytes()
    )
    return payload.hexdigest()


def run_scale_cell(
    protocol: str,
    count: int,
    lookups: int,
    seed: int,
    sampler: str = "fast",
    batch_rows: Optional[int] = None,
) -> ScalePoint:
    """Bulk-build one overlay and run a kernel lookup batch on it.

    The workload is seeded per (protocol, count): sources are node
    indices, keys raw identifiers of the id space, both from one PCG64
    stream — so every field of the returned point, digest included, is
    a pure function of the arguments.  The lookups run as one kernel
    batch; ``batch_rows`` splits them into chunks of that many rows for
    callers that time chunked batches, and changes no result (per-row
    kernel state is independent of the batch's other rows).
    """
    if np is None:  # pragma: no cover - numpy is baked into CI
        raise RuntimeError("the scale experiment requires numpy")
    t0 = time.perf_counter()
    columns = build_columns(protocol, count, seed=seed, sampler=sampler)
    build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    kernel = kernel_from_columns(columns)
    compile_seconds = time.perf_counter() - t0

    rng = np.random.default_rng(
        np.random.PCG64(
            np.random.SeedSequence(
                [seed, count, SCALE_PROTOCOLS.index(protocol)]
            )
        )
    )
    sources = rng.integers(0, count, size=lookups)
    keys = rng.integers(0, columns.space, size=lookups)
    runner = (
        kernel.run_linear if protocol == "cycloid" else kernel.run_ids
    )

    hops_parts = []
    final_parts = []
    success_parts = []
    timeouts = 0
    t0 = time.perf_counter()
    step = batch_rows or lookups
    for start in range(0, lookups, step):
        stop = min(start + step, lookups)
        result = runner(sources[start:stop], keys[start:stop])
        hops_parts.append(result["hops"])
        final_parts.append(result["final"])
        success_parts.append(result["success"])
        timeouts += int(result["timeouts"].sum())
    lookup_seconds = time.perf_counter() - t0

    hops = np.concatenate(hops_parts)
    final = np.concatenate(final_parts)
    success = np.concatenate(success_parts)
    sizing = (
        columns.dimension if protocol == "cycloid" else columns.bits
    )
    return ScalePoint(
        protocol=protocol,
        count=count,
        sizing=int(sizing),
        space=int(columns.space),
        sampler=sampler,
        build_seconds=build_seconds,
        build_nodes_per_sec=count / build_seconds,
        column_bytes=columns.column_bytes(),
        compile_seconds=compile_seconds,
        lookups=lookups,
        lookup_seconds=lookup_seconds,
        lookups_per_sec=lookups / lookup_seconds,
        mean_hops=float(hops.mean()),
        log2_count=math.log2(count),
        success_rate=float(success.mean()),
        timeouts=timeouts,
        digest=_cell_digest(hops, final, success),
    )


def run_scale_experiment(
    counts: Sequence[int] = SCALE_COUNTS,
    protocols: Sequence[str] = SCALE_PROTOCOLS,
    lookups: int = 2048,
    seed: int = 11,
    sampler: str = "fast",
) -> List[ScalePoint]:
    """The full sweep: every protocol at every population."""
    points: List[ScalePoint] = []
    for protocol in protocols:
        for count in counts:
            points.append(
                run_scale_cell(protocol, count, lookups, seed, sampler=sampler)
            )
    return points


# ----------------------------------------------------------------------
# object-build ladder, extrapolation, digest parity
# ----------------------------------------------------------------------


def object_build_ladder(
    counts: Sequence[int],
    seed: int,
) -> List[Dict[str, object]]:
    """Time the *object* Cycloid builder over a population ladder.

    Each rung uses the same sizing rule as the bulk cells
    (``dimension_for_space``), so rung rates extrapolate to the bulk
    target apples-to-apples.
    """
    from repro.core.network import CycloidNetwork
    from repro.experiments.registry import dimension_for_space

    cells: List[Dict[str, object]] = []
    for count in counts:
        dimension = dimension_for_space(count)
        t0 = time.perf_counter()
        CycloidNetwork.with_random_ids(count, dimension, seed=seed)
        seconds = time.perf_counter() - t0
        cells.append(
            {
                "count": int(count),
                "dimension": dimension,
                "seconds": seconds,
                "nodes_per_sec": count / seconds,
            }
        )
    return cells


def fit_power_law(ladder: Sequence[Dict[str, object]]):
    """Least-squares ``t = a * n^b`` over ladder rungs, in log-log.

    Returns ``(exponent, extrapolate)`` where ``extrapolate(count)``
    evaluates the fitted build time.  The object builder's measured
    exponent grows with n (sorted-row inserts are linear in the row),
    so this fit *understates* the true cost beyond the ladder — the
    reported speedup is conservative.
    """
    if len(ladder) < 2:
        raise ValueError("power-law fit needs at least two ladder rungs")
    log_n = np.log([cell["count"] for cell in ladder])
    log_t = np.log([cell["seconds"] for cell in ladder])
    exponent, intercept = np.polyfit(log_n, log_t, 1)

    def extrapolate(count: int) -> float:
        return float(math.exp(intercept + exponent * math.log(count)))

    return float(exponent), extrapolate


def scale_parity(
    points: Sequence[ScalePoint],
    parity_count: int = 4096,
    seed: int = 11,
    ladder_counts: Sequence[int] = (4096, 16384, 65536),
    target_protocol: str = "cycloid",
) -> Dict[str, object]:
    """The honesty section of the scale report.

    Pins bulk-vs-object digest equality at ``parity_count`` and
    computes the extrapolated object-build speedup at the sweep's
    largest ``target_protocol`` cell.
    """
    from repro.core.network import CycloidNetwork
    from repro.dht.snapshot import pack_network
    from repro.experiments.registry import dimension_for_space

    dimension = dimension_for_space(parity_count)
    object_net = CycloidNetwork.with_random_ids(
        parity_count, dimension, seed=seed
    )
    object_digest = packed_digest(pack_network(object_net))
    bulk_digest = packed_digest(
        build_columns(
            "cycloid",
            parity_count,
            dimension=dimension,
            seed=seed,
            sampler="exact",
        ).to_packed()
    )

    ladder = object_build_ladder(ladder_counts, seed)
    exponent, extrapolate = fit_power_law(ladder)
    targets = [p for p in points if p.protocol == target_protocol]
    if not targets:
        raise ValueError(
            f"no {target_protocol!r} cell to compare the ladder against"
        )
    target = max(targets, key=lambda p: p.count)
    extrapolated = extrapolate(target.count)
    speedup = extrapolated / target.build_seconds
    return {
        "parity_count": parity_count,
        "dimension": dimension,
        "seed": seed,
        "object_digest": object_digest,
        "bulk_digest": bulk_digest,
        "digest_match": object_digest == bulk_digest,
        "ladder": ladder,
        "fit_exponent": exponent,
        "target_protocol": target_protocol,
        "target_count": target.count,
        "bulk_build_seconds": target.build_seconds,
        "extrapolated_object_seconds": extrapolated,
        "speedup": speedup,
        "speedup_ok": speedup >= SPEEDUP_BAR,
    }


# ----------------------------------------------------------------------
# report + schema guard
# ----------------------------------------------------------------------


def scale_report(
    points: Sequence[ScalePoint],
    parity: Dict[str, object],
    lookups: int,
    seed: int,
    sampler: str,
) -> Dict[str, object]:
    """The ``BENCH_scale.json`` document for one experiment run."""
    return {
        "schema": SCALE_BENCH_SCHEMA,
        "lookups": lookups,
        "seed": seed,
        "sampler": sampler,
        "speedup_bar": SPEEDUP_BAR,
        "cells": [
            {
                "protocol": p.protocol,
                "count": p.count,
                "sizing": p.sizing,
                "space": p.space,
                "sampler": p.sampler,
                "build_seconds": p.build_seconds,
                "build_nodes_per_sec": p.build_nodes_per_sec,
                "column_bytes": p.column_bytes,
                "compile_seconds": p.compile_seconds,
                "lookups": p.lookups,
                "lookup_seconds": p.lookup_seconds,
                "lookups_per_sec": p.lookups_per_sec,
                "mean_hops": p.mean_hops,
                "log2_count": p.log2_count,
                "success_rate": p.success_rate,
                "timeouts": p.timeouts,
                "digest": p.digest,
            }
            for p in points
        ],
        "parity": parity,
    }


_SCALE_REPORT_KEYS = (
    "schema",
    "lookups",
    "seed",
    "sampler",
    "speedup_bar",
    "cells",
    "parity",
)
_SCALE_CELL_KEYS = (
    "protocol",
    "count",
    "sizing",
    "space",
    "sampler",
    "build_seconds",
    "build_nodes_per_sec",
    "column_bytes",
    "compile_seconds",
    "lookups",
    "lookup_seconds",
    "lookups_per_sec",
    "mean_hops",
    "log2_count",
    "success_rate",
    "timeouts",
    "digest",
)
_SCALE_PARITY_KEYS = (
    "parity_count",
    "dimension",
    "seed",
    "object_digest",
    "bulk_digest",
    "digest_match",
    "ladder",
    "fit_exponent",
    "target_protocol",
    "target_count",
    "bulk_build_seconds",
    "extrapolated_object_seconds",
    "speedup",
    "speedup_ok",
)


def _cell_name(cell: Dict[str, object]) -> str:
    return f"{cell.get('protocol')!r}/{cell.get('count')!r}"


def validate_scale_report(report: Dict[str, object]) -> None:
    """Schema-guard a ``BENCH_scale.json`` document.

    Raises ``ValueError`` naming the first violation: missing keys,
    malformed cells, non-sha256 digests, or parity fields that do not
    re-derive from each other (digest match, speedup arithmetic and the
    acceptance flag).
    """
    check_report(report, "scale", SCALE_BENCH_SCHEMA, _SCALE_REPORT_KEYS)
    cells = report["cells"]
    check_cells(cells, _SCALE_CELL_KEYS, "scale", name=_cell_name)
    for cell in cells:
        if not 0.0 <= float(cell["success_rate"]) <= 1.0:
            raise ValueError(
                f"scale cell {_cell_name(cell)} success_rate is outside "
                "[0, 1]"
            )
        if not math.isclose(
            float(cell["log2_count"]), math.log2(int(cell["count"]))
        ):
            raise ValueError(
                f"scale cell {_cell_name(cell)} log2_count is "
                "inconsistent with count"
            )
    parity = report["parity"]
    check_section(parity, _SCALE_PARITY_KEYS, "scale report parity section")
    for key in ("object_digest", "bulk_digest"):
        check_digest(parity[key], f"scale parity {key}")
    match = parity["object_digest"] == parity["bulk_digest"]
    if bool(parity["digest_match"]) != match:
        raise ValueError(
            "scale parity digest_match is inconsistent with the digests"
        )
    ladder = parity["ladder"]
    if not isinstance(ladder, list) or len(ladder) < 2:
        raise ValueError("scale parity ladder needs at least two rungs")
    for rung in ladder:
        check_keys(
            rung,
            ("count", "dimension", "seconds", "nodes_per_sec"),
            "scale parity ladder rung",
        )
    speedup = float(parity["extrapolated_object_seconds"]) / float(
        parity["bulk_build_seconds"]
    )
    if not math.isclose(float(parity["speedup"]), speedup, rel_tol=1e-9):
        raise ValueError(
            "scale parity speedup is inconsistent with its terms"
        )
    if bool(parity["speedup_ok"]) != (speedup >= float(report["speedup_bar"])):
        raise ValueError(
            "scale parity speedup_ok is inconsistent with the speedup"
        )

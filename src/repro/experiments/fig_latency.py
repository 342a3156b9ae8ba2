"""fig-latency — end-to-end lookup milliseconds under a link model (§S25).

The paper's figures count hops; this experiment re-runs the Fig. 5-style
complete-overlay comparison under a seeded
:class:`~repro.sim.latency.LatencyModel` and reports *milliseconds*: the
same workload, the same overlays, but every record now carries the sum
of its path's modeled link delays.  Two extra Cycloid cells isolate what
neighbour selection buys:

* ``cycloid/random`` wires each node's outside leaf sets to a
  stable-hash-picked cycle member — the no-information baseline;
* ``cycloid/proximity`` picks the cycle member with the lowest modeled
  RTT from the observing node (:mod:`repro.core.network`,
  ``leaf_selection="proximity"``) — the paper §5's proximity-aware
  variant.

Every cell runs through :func:`repro.sim.parallel.run_sharded_lookups`,
so the report — including each cell's record ``digest`` — is
bit-identical at every worker count; the CI smoke job diffs a
``--workers 1`` run against ``--workers 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.network import CycloidNetwork
from repro.dht.identifiers import cycloid_space_size
from repro.dht.kernel import DEFAULT_BACKEND
from repro.dht.routing import TraceObserver
from repro.experiments.registry import PROTOCOLS, build_complete_network
from repro.sim.latency import LatencyModel
from repro.sim.parallel import (
    DEFAULT_SHARD_SIZE,
    plain_setup,
    run_sharded_lookups,
)
from repro.util.reports import check_cells, check_keys, check_report

__all__ = [
    "LATENCY_BENCH_SCHEMA",
    "LatencyPoint",
    "build_cycloid_variant",
    "run_latency_experiment",
    "latency_report",
    "validate_latency_report",
]

#: Schema tag of the ``BENCH_latency.json`` report.
LATENCY_BENCH_SCHEMA = "repro/latency-bench/v1"

#: Default link model of the experiment: 4 regions, 5 ms intra-region
#: floor, 40-160 ms inter-region bases, 10 ms per-link jitter.
DEFAULT_MODEL = LatencyModel(seed=7)


@dataclass(frozen=True)
class LatencyPoint:
    """One (overlay variant) milliseconds measurement."""

    label: str
    protocol: str
    selection: str
    dimension: int
    size: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_path_length: float
    failures: int
    #: sha256 over the cell's canonical records — the workers-parity pin.
    digest: str


def build_cycloid_variant(
    dimension: int,
    leaf_selection: str,
    latency: Optional[LatencyModel] = None,
) -> CycloidNetwork:
    """A complete Cycloid overlay wired with ``leaf_selection``.

    Module-level (and all arguments picklable) so ``functools.partial``
    over it crosses the process pool of a sharded run.
    """
    return CycloidNetwork.complete(
        dimension, leaf_selection=leaf_selection, latency=latency
    )


def run_latency_experiment(
    dimension: int = 8,
    protocols: Sequence[str] = PROTOCOLS,
    lookups: int = 2000,
    seed: int = 42,
    model: LatencyModel = DEFAULT_MODEL,
    observer: Optional[TraceObserver] = None,
    workers: int = 1,
    backend: str = DEFAULT_BACKEND,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> List[LatencyPoint]:
    """Measure modeled end-to-end lookup milliseconds per overlay.

    One cell per protocol at the complete ``dimension`` build (all on
    primary/default wiring), plus the ``cycloid/random`` and
    ``cycloid/proximity`` leaf-selection variants under the same
    ``model``.  Every cell's workload and merge runs through the
    sharded runner, so each point — digest included — is a pure
    function of the arguments, independent of ``workers``.
    """
    cells = [
        (
            protocol,
            protocol,
            "primary" if protocol.startswith("cycloid") else "default",
            partial(
                plain_setup,
                build_complete_network,
                protocol,
                dimension,
                seed=seed,
            ),
        )
        for protocol in protocols
    ]
    for selection in ("random", "proximity"):
        cells.append(
            (
                f"cycloid/{selection}",
                "cycloid",
                selection,
                partial(
                    plain_setup,
                    build_cycloid_variant,
                    dimension,
                    selection,
                    model,
                ),
            )
        )
    size = cycloid_space_size(dimension)
    points: List[LatencyPoint] = []
    for label, protocol, selection, setup in cells:
        merged = run_sharded_lookups(
            setup,
            lookups,
            seed + dimension,
            workers=workers,
            shard_size=shard_size,
            observer=observer,
            backend=backend,
            latency=model,
        )
        stats = merged.stats
        percentiles = stats.latency_percentiles()
        points.append(
            LatencyPoint(
                label=label,
                protocol=protocol,
                selection=selection,
                dimension=dimension,
                size=size,
                mean_ms=percentiles["mean"],
                p50_ms=percentiles["p50"],
                p95_ms=percentiles["p95"],
                p99_ms=percentiles["p99"],
                mean_path_length=stats.mean_path_length,
                failures=stats.failures,
                digest=stats.digest(),
            )
        )
    return points


def latency_report(
    points: Sequence[LatencyPoint],
    dimension: int,
    lookups: int,
    seed: int,
    model: LatencyModel,
    workers: int,
) -> Dict[str, object]:
    """The ``BENCH_latency.json`` document for one experiment run.

    ``workers`` is recorded for provenance only — every other field is
    independent of it, which is exactly what the CI smoke job checks by
    diffing two runs at different worker counts (after dropping the
    ``workers`` line).
    """
    by_label = {p.label: p for p in points}
    report: Dict[str, object] = {
        "schema": LATENCY_BENCH_SCHEMA,
        "model": model.to_config(),
        "dimension": dimension,
        "size": cycloid_space_size(dimension),
        "lookups": lookups,
        "seed": seed,
        "workers": workers,
        "cells": [
            {
                "label": p.label,
                "protocol": p.protocol,
                "selection": p.selection,
                "size": p.size,
                "mean_ms": p.mean_ms,
                "p50_ms": p.p50_ms,
                "p95_ms": p.p95_ms,
                "p99_ms": p.p99_ms,
                "mean_path_length": p.mean_path_length,
                "failures": p.failures,
                "digest": p.digest,
            }
            for p in points
        ],
    }
    random_cell = by_label.get("cycloid/random")
    proximity_cell = by_label.get("cycloid/proximity")
    if random_cell is not None and proximity_cell is not None:
        report["proximity"] = {
            "random_mean_ms": random_cell.mean_ms,
            "proximity_mean_ms": proximity_cell.mean_ms,
            "improvement_ms": random_cell.mean_ms - proximity_cell.mean_ms,
            #: the §S25 acceptance bar: proximity wiring must not lose.
            "proximity_wins": proximity_cell.mean_ms < random_cell.mean_ms,
        }
    return report


_LATENCY_REPORT_KEYS = (
    "schema",
    "model",
    "dimension",
    "size",
    "lookups",
    "seed",
    "cells",
)
_LATENCY_CELL_KEYS = (
    "label",
    "protocol",
    "selection",
    "size",
    "mean_ms",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "mean_path_length",
    "failures",
    "digest",
)


def validate_latency_report(report: Dict[str, object]) -> None:
    """Schema-guard a ``BENCH_latency.json`` document.

    Raises ``ValueError`` naming the first violation: missing keys,
    malformed cells, or digests that are not sha256 hex strings.
    """
    check_report(
        report, "latency", LATENCY_BENCH_SCHEMA, _LATENCY_REPORT_KEYS
    )
    # Round-trips iff the model block is well-formed.
    LatencyModel.from_config(report["model"])
    check_cells(report["cells"], _LATENCY_CELL_KEYS, "latency")
    proximity = report.get("proximity")
    if proximity is not None:
        check_keys(
            proximity,
            (
                "random_mean_ms",
                "proximity_mean_ms",
                "improvement_ms",
                "proximity_wins",
            ),
            "latency report proximity section",
        )
        wins = (
            proximity["proximity_mean_ms"] < proximity["random_mean_ms"]
        )
        if bool(proximity["proximity_wins"]) != wins:
            raise ValueError(
                "latency report proximity_wins is inconsistent with the "
                "means"
            )

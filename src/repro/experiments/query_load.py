"""E6 — query-load balance (Fig. 10).

Runs a random lookup workload on networks of 64 and 2048 nodes and
summarises how many queries each node *receives* as an intermediate or
final hop.  The paper's claim: Cycloid shows the smallest spread among
the constant-degree DHTs (Viceroy concentrates load on high levels,
Koorde on even identifiers).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.dht.identifiers import cycloid_space_size
from repro.dht.routing import TraceObserver
from repro.experiments.registry import build_complete_network
from repro.sim.parallel import plain_setup, run_sharded_lookups
from repro.util.stats import DistributionSummary, summarize

__all__ = ["QueryLoadPoint", "run_query_load_experiment"]

#: Fig. 10 uses 64- and 2048-node networks: dimensions 4 and 8.
DEFAULT_DIMENSIONS: Tuple[int, ...] = (4, 8)
DEFAULT_PROTOCOLS: Tuple[str, ...] = ("cycloid", "viceroy", "chord", "koorde")


@dataclass(frozen=True)
class QueryLoadPoint:
    """Per-node received-query distribution for one (protocol, size)."""

    protocol: str
    dimension: int
    size: int
    lookups: int
    summary: DistributionSummary

    @property
    def relative_spread(self) -> float:
        """p99 - p1 spread normalised by the mean load."""
        if self.summary.mean == 0:
            return 0.0
        return self.summary.spread / self.summary.mean


def run_query_load_experiment(
    dimensions: Sequence[int] = DEFAULT_DIMENSIONS,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    lookups_per_node: int = 4,
    seed: int = 42,
    observer: Optional[TraceObserver] = None,
    workers: int = 1,
) -> List[QueryLoadPoint]:
    """Measure the query-load spread for each protocol and size.

    Each shard routes on its own locally built network and reports a
    per-node received-query counter; the merge sums counters across
    shards, which is exact because query accounting is additive and
    never feeds back into routing.
    """
    points: List[QueryLoadPoint] = []
    for dimension in dimensions:
        for protocol in protocols:
            total_lookups = lookups_per_node * cycloid_space_size(dimension)
            merged = run_sharded_lookups(
                partial(
                    plain_setup,
                    build_complete_network,
                    protocol,
                    dimension,
                    seed=seed,
                ),
                total_lookups,
                seed + dimension,
                workers=workers,
                observer=observer,
            )
            summary = summarize(
                [float(c) for c in merged.query_counts.values()]
            )
            points.append(
                QueryLoadPoint(
                    protocol=protocol,
                    dimension=dimension,
                    size=merged.population,
                    lookups=total_lookups,
                    summary=summary,
                )
            )
    return points

"""E1/E2 — lookup path length vs network size and dimension (Figs 5-6).

Networks of ``n = d * 2^d`` nodes for d = 3..8; every DHT handles the
same lookup workload; the figure series are the mean hop counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.dht.identifiers import cycloid_space_size
from repro.dht.routing import TraceObserver
from repro.experiments.registry import PROTOCOLS, build_complete_network
from repro.sim.parallel import plain_setup, run_sharded_lookups
from repro.util.stats import DistributionSummary

__all__ = ["PathLengthPoint", "run_path_length_experiment"]

DEFAULT_DIMENSIONS: Tuple[int, ...] = (3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class PathLengthPoint:
    """One (protocol, network) measurement."""

    protocol: str
    dimension: int
    size: int
    mean_path_length: float
    summary: DistributionSummary
    failures: int


def run_path_length_experiment(
    dimensions: Sequence[int] = DEFAULT_DIMENSIONS,
    protocols: Sequence[str] = PROTOCOLS,
    lookups: int = 5000,
    seed: int = 42,
    observer: Optional[TraceObserver] = None,
    workers: int = 1,
    backend: str = "object",
) -> List[PathLengthPoint]:
    """Measure mean lookup path length for every protocol and dimension.

    Fig. 5 plots the result against network size, Fig. 6 against the
    dimension; both read off the same points.  Each (protocol,
    dimension) cell runs as deterministic shards fanned out over
    ``workers`` processes (:mod:`repro.sim.parallel`) — the points are
    bit-identical for every worker count, and for either lookup
    execution ``backend`` (DESIGN §S23).  ``observer`` receives the
    per-hop trace of every lookup across the whole sweep (and forces
    in-process execution).
    """
    points: List[PathLengthPoint] = []
    for dimension in dimensions:
        size = cycloid_space_size(dimension)
        for protocol in protocols:
            merged = run_sharded_lookups(
                partial(
                    plain_setup,
                    build_complete_network,
                    protocol,
                    dimension,
                    seed=seed,
                ),
                lookups,
                seed + dimension,
                workers=workers,
                observer=observer,
                backend=backend,
            )
            stats = merged.stats
            points.append(
                PathLengthPoint(
                    protocol=protocol,
                    dimension=dimension,
                    size=size,
                    mean_path_length=stats.mean_path_length,
                    summary=stats.path_length_summary(),
                    failures=stats.failures,
                )
            )
    return points

"""E7 — massive simultaneous departures without stabilisation
(Fig. 11 + Table 4).

A stable 2048-node network suffers graceful departures with per-node
probability p in {0.1..0.5}; 10 000 lookups with random sources and
destinations then measure the mean path length, the timeout
distribution (dead nodes contacted) and the number of lookups that
failed to reach the key's correct storing node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.dht.routing import TraceObserver
from repro.experiments.common import fail_nodes
from repro.experiments.registry import PROTOCOLS, build_complete_network
from repro.sim.parallel import run_sharded_lookups
from repro.util.rng import make_rng
from repro.util.stats import DistributionSummary

__all__ = ["FailurePoint", "run_mass_departure_experiment"]

DEFAULT_PROBABILITIES: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)


def departed_setup(
    protocol: str,
    dimension: int,
    seed: int,
    probability: float,
    departure_seed: int,
):
    """Shard setup: a complete network after seeded graceful departures.

    Module-level (and built with ``functools.partial``) so it pickles
    like every shard setup; every call yields the identical
    post-departure topology because both the build and the departure
    draw are pure functions of the seeds.
    """
    network = build_complete_network(protocol, dimension, seed=seed)
    fail_nodes(network, probability, make_rng(departure_seed))
    return network, None


@dataclass(frozen=True)
class FailurePoint:
    """One (protocol, departure probability) measurement."""

    protocol: str
    probability: float
    survivors: int
    mean_path_length: float
    timeout_summary: DistributionSummary
    lookup_failures: int
    lookups: int

    def timeout_row(self) -> str:
        """Table-4 style ``mean (p1, p99)`` cell."""
        return self.timeout_summary.as_row()


def run_mass_departure_experiment(
    probabilities: Sequence[float] = DEFAULT_PROBABILITIES,
    protocols: Sequence[str] = PROTOCOLS,
    dimension: int = 8,
    lookups: int = 10_000,
    seed: int = 42,
    observer: Optional[TraceObserver] = None,
    workers: int = 1,
) -> List[FailurePoint]:
    """Fig. 11 (mean path length vs p) and Table 4 (timeouts vs p).

    The path-length mean is taken over *completed* lookups — a lookup
    that dies at a dead end contributes to the failure count instead.
    """
    points: List[FailurePoint] = []
    for protocol in protocols:
        for probability in probabilities:
            merged = run_sharded_lookups(
                partial(
                    departed_setup,
                    protocol,
                    dimension,
                    seed,
                    probability,
                    seed + int(probability * 100),
                ),
                lookups,
                seed + 1,
                workers=workers,
                observer=observer,
            )
            stats = merged.stats
            completed = [r.hops for r in stats.records if r.success]
            mean_path = (
                sum(completed) / len(completed) if completed else 0.0
            )
            points.append(
                FailurePoint(
                    protocol=protocol,
                    probability=probability,
                    survivors=merged.population,
                    mean_path_length=mean_path,
                    timeout_summary=stats.timeout_summary(),
                    lookup_failures=stats.failures,
                    lookups=len(stats),
                )
            )
    return points

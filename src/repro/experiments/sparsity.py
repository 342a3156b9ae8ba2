"""E9 — impact of ID-space sparsity on lookup efficiency (Fig. 13).

The identifier space is pinned at 2048 ids; the live population drops
as the degree of sparsity (fraction of non-existent nodes) grows.  The
paper's claims: Cycloid's mean path *decreases slightly*, Viceroy is
flat (its [0, 1) space is always sparse), Koorde's path *increases* as
larger gaps force more successor hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.dht.routing import TraceObserver
from repro.experiments.registry import build_sized_network
from repro.sim.parallel import plain_setup, run_sharded_lookups
from repro.util.stats import DistributionSummary

__all__ = ["SparsityPoint", "run_sparsity_experiment"]

DEFAULT_SPARSITIES: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_PROTOCOLS: Tuple[str, ...] = ("cycloid", "viceroy", "chord", "koorde")


@dataclass(frozen=True)
class SparsityPoint:
    """One (protocol, sparsity) measurement."""

    protocol: str
    sparsity: float
    population: int
    mean_path_length: float
    summary: DistributionSummary
    lookup_failures: int


def run_sparsity_experiment(
    sparsities: Sequence[float] = DEFAULT_SPARSITIES,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    id_space: int = 2048,
    lookups: int = 10_000,
    seed: int = 42,
    observer: Optional[TraceObserver] = None,
    workers: int = 1,
) -> List[SparsityPoint]:
    """Fig. 13: mean path length vs degree of network sparsity."""
    bits = (id_space - 1).bit_length()
    if (1 << bits) != id_space:
        raise ValueError("id_space must be a power of two")
    cycloid_dimension = _dimension_for(id_space)
    points: List[SparsityPoint] = []
    for protocol in protocols:
        for sparsity in sparsities:
            if not 0.0 <= sparsity < 1.0:
                raise ValueError("sparsity must be in [0, 1)")
            population = max(2, round(id_space * (1.0 - sparsity)))
            stats = run_sharded_lookups(
                partial(
                    plain_setup,
                    build_sized_network,
                    protocol,
                    population,
                    seed=seed,
                    id_space_bits=bits,
                    cycloid_dimension=cycloid_dimension,
                ),
                lookups,
                seed + population,
                workers=workers,
                observer=observer,
            ).stats
            points.append(
                SparsityPoint(
                    protocol=protocol,
                    sparsity=sparsity,
                    population=population,
                    mean_path_length=stats.mean_path_length,
                    summary=stats.path_length_summary(),
                    lookup_failures=stats.failures,
                )
            )
    return points


def _dimension_for(id_space: int) -> int:
    dimension = 1
    while dimension * (1 << dimension) < id_space:
        dimension += 1
    if dimension * (1 << dimension) != id_space:
        raise ValueError(f"id_space {id_space} is not of the form d * 2^d")
    return dimension

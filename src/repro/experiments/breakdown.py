"""E3/E10 — per-phase path-length breakdowns (Figs 7 and 14).

Fig. 7 splits each DHT's lookup cost by routing phase on the complete
networks of Fig. 5: Cycloid and Viceroy into ascending / descending /
traverse, Koorde into de Bruijn vs successor hops.  Fig. 14 repeats the
Koorde split as the ID space grows sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dht.identifiers import cycloid_space_size
from repro.dht.routing import TraceObserver
from repro.experiments.registry import build_complete_network, build_sized_network
from repro.sim.parallel import plain_setup, run_sharded_lookups

__all__ = [
    "BreakdownPoint",
    "run_phase_breakdown_experiment",
    "run_koorde_sparsity_breakdown",
]

BREAKDOWN_PROTOCOLS: Tuple[str, ...] = ("cycloid", "viceroy", "koorde")


@dataclass(frozen=True)
class BreakdownPoint:
    """Mean hops per phase for one (protocol, network)."""

    protocol: str
    dimension: int
    size: int
    mean_hops_by_phase: Dict[str, float]
    fraction_by_phase: Dict[str, float]

    @property
    def total_mean_hops(self) -> float:
        return sum(self.mean_hops_by_phase.values())


def run_phase_breakdown_experiment(
    dimensions: Sequence[int] = (3, 4, 5, 6, 7, 8),
    protocols: Sequence[str] = BREAKDOWN_PROTOCOLS,
    lookups: int = 5000,
    seed: int = 42,
    observer: Optional[TraceObserver] = None,
    workers: int = 1,
    backend: str = "object",
) -> List[BreakdownPoint]:
    """Fig. 7(a)-(c): phase breakdown on complete networks."""
    points: List[BreakdownPoint] = []
    for dimension in dimensions:
        for protocol in protocols:
            stats = run_sharded_lookups(
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
            ).stats
            breakdown = stats.phase_breakdown()
            points.append(
                BreakdownPoint(
                    protocol=protocol,
                    dimension=dimension,
                    size=cycloid_space_size(dimension),
                    mean_hops_by_phase={
                        phase: breakdown.mean_hops(phase)
                        for phase in breakdown.phases()
                    },
                    fraction_by_phase=breakdown.fractions(),
                )
            )
    return points


def run_koorde_sparsity_breakdown(
    sparsities: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8),
    id_space: int = 2048,
    lookups: int = 5000,
    seed: int = 42,
    observer: Optional[TraceObserver] = None,
    workers: int = 1,
    backend: str = "object",
) -> List[BreakdownPoint]:
    """Fig. 14: Koorde's de Bruijn vs successor hop split vs sparsity.

    ``sparsity`` is the fraction of the 2048-id space left unoccupied.
    """
    bits = (id_space - 1).bit_length()
    if (1 << bits) != id_space:
        raise ValueError("id_space must be a power of two")
    points: List[BreakdownPoint] = []
    for sparsity in sparsities:
        if not 0.0 <= sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")
        count = max(2, round(id_space * (1.0 - sparsity)))
        stats = run_sharded_lookups(
            partial(
                plain_setup,
                build_sized_network,
                "koorde",
                count,
                seed=seed,
                id_space_bits=bits,
            ),
            lookups,
            seed + count,
            workers=workers,
            observer=observer,
            backend=backend,
        ).stats
        breakdown = stats.phase_breakdown()
        points.append(
            BreakdownPoint(
                protocol="koorde",
                dimension=bits,
                size=count,
                mean_hops_by_phase={
                    phase: breakdown.mean_hops(phase)
                    for phase in breakdown.phases()
                },
                fraction_by_phase=breakdown.fractions(),
            )
        )
    return points

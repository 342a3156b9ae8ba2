"""E13 (extension) — crash resilience: graceful vs ungraceful failure.

The paper's §4.3 failure experiment (Fig. 11/Table 4) departs nodes
*gracefully*: each leaver notifies its relatives, so survivors' routing
tables stay consistent and a lookup only times out on entries that
stabilisation has not yet refreshed.  Real failures are rarely that
polite.  This experiment crashes the same fraction of nodes
*ungracefully* through :class:`repro.sim.faults.FaultInjector` — no
notification, every pointer at the victim goes stale — optionally adds
seeded message loss, and measures how far the engine's fault-mode
machinery (reachability probes, ranked fallbacks, bounded retries and
:meth:`~repro.dht.base.Network.on_dead_entry` lazy repair) claws back
the lookup success rate.

Three modes per (protocol, probability) point:

``graceful``
    §4.3 baseline — ``fail_nodes`` (polite ``leave``), fault-free
    engine.
``crash``
    Ungraceful crashes + message loss, retry budget 0: the engine
    detects dead hops but cannot route around them.
``crash+retry``
    The same crash set (same fault seed), retry budget > 0: probes,
    fallbacks and lazy repair enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.dht.identifiers import cycloid_space_size
from repro.dht.routing import TraceObserver
from repro.experiments.failures import departed_setup
from repro.experiments.registry import ALL_PROTOCOLS, build_complete_network
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.parallel import run_sharded_lookups
from repro.util.stats import DistributionSummary

__all__ = [
    "CrashPoint",
    "run_crash_experiment",
    "MODE_GRACEFUL",
    "MODE_CRASH",
    "MODE_CRASH_RETRY",
]

DEFAULT_PROBABILITIES: Tuple[float, ...] = (0.1, 0.3, 0.5)

MODE_GRACEFUL = "graceful"
MODE_CRASH = "crash"
MODE_CRASH_RETRY = "crash+retry"
MODES = (MODE_GRACEFUL, MODE_CRASH, MODE_CRASH_RETRY)


def crashed_setup(protocol: str, dimension: int, seed: int, plan: FaultPlan):
    """Shard setup: a complete network after the plan's ungraceful
    crashes, plus the armed injector.

    Module-level so shard tasks pickle; the crash stream is derived
    from the plan seed alone, so every shard (in any process) kills the
    identical node set — :func:`repro.sim.parallel.merge_shards`
    asserts as much.  The engine's per-shard message-loss streams are
    derived later via :meth:`~repro.sim.faults.FaultInjector.for_shard`.
    """
    network = build_complete_network(protocol, dimension, seed=seed)
    injector = FaultInjector(plan)
    injector.crash_nodes(network)
    network.route_repairs = 0
    return network, injector


@dataclass(frozen=True)
class CrashPoint:
    """One (protocol, failure probability, mode) measurement."""

    protocol: str
    probability: float
    mode: str
    survivors: int
    departed: int
    success_rate: float
    mean_path_length: float
    timeout_summary: DistributionSummary
    retries: int
    route_repairs: int
    lookups: int

    def timeout_row(self) -> str:
        """Table-4 style ``mean (p1, p99)`` cell."""
        return self.timeout_summary.as_row()

    @property
    def mean_retries(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.retries / self.lookups


def run_crash_experiment(
    probabilities: Sequence[float] = DEFAULT_PROBABILITIES,
    protocols: Sequence[str] = ALL_PROTOCOLS,
    dimension: int = 8,
    lookups: int = 2000,
    seed: int = 42,
    message_loss: float = 0.05,
    retry_budget: int = 8,
    observer: Optional[TraceObserver] = None,
    workers: int = 1,
    backend: str = "object",
) -> List[CrashPoint]:
    """Sweep graceful/crash/crash+retry over every overlay.

    Each mode rebuilds the network from the same seed; the two crash
    modes share one :class:`FaultPlan` seed so they kill the *same*
    node set and drop messages from the same streams — the only
    difference between them is the retry budget.  The path-length mean
    is taken over completed lookups, matching Fig. 11's convention.

    Every (protocol, probability, mode) cell runs as deterministic
    shards; because lazy route repair mutates routing tables, each
    shard routes on its own freshly crashed network, so the sweep is
    bit-identical at any ``workers`` (the parallel-parity suite pins
    this with an enabled plan).
    """
    if retry_budget < 1:
        raise ValueError("retry_budget must be >= 1 for the retry mode")
    points: List[CrashPoint] = []
    size = cycloid_space_size(dimension)
    for protocol in protocols:
        for probability in probabilities:
            fault_seed = seed + int(probability * 100)
            for mode in MODES:
                if mode == MODE_GRACEFUL:
                    setup = partial(
                        departed_setup,
                        protocol,
                        dimension,
                        seed,
                        probability,
                        fault_seed,
                    )
                    budget = 0
                else:
                    plan = FaultPlan(
                        seed=fault_seed,
                        crash_probability=probability,
                        message_loss=message_loss,
                    )
                    setup = partial(
                        crashed_setup, protocol, dimension, seed, plan
                    )
                    budget = retry_budget if mode == MODE_CRASH_RETRY else 0
                merged = run_sharded_lookups(
                    setup,
                    lookups,
                    seed + 1,
                    workers=workers,
                    retry_budget=budget,
                    observer=observer,
                    backend=backend,
                )
                stats = merged.stats
                departed = (
                    merged.crashed
                    if mode != MODE_GRACEFUL
                    else size - merged.population
                )
                completed = [r.hops for r in stats.records if r.success]
                mean_path = (
                    sum(completed) / len(completed) if completed else 0.0
                )
                points.append(
                    CrashPoint(
                        protocol=protocol,
                        probability=probability,
                        mode=mode,
                        survivors=merged.population,
                        departed=departed,
                        success_rate=(
                            (len(stats) - stats.failures) / len(stats)
                            if len(stats)
                            else 0.0
                        ),
                        mean_path_length=mean_path,
                        timeout_summary=stats.timeout_summary(),
                        retries=stats.total_retries,
                        route_repairs=merged.route_repairs,
                        lookups=len(stats),
                    )
                )
    return points

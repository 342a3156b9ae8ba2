"""Shared experiment plumbing."""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.dht.base import Network
from repro.dht.kernel import DEFAULT_BACKEND, check_backend, compile_kernel
from repro.dht.metrics import LookupStats
from repro.dht.routing import TraceObserver
from repro.sim.faults import FaultInjector
from repro.sim.latency import LatencyModel
from repro.sim.parallel import (
    DEFAULT_SHARD_SIZE,
    ShardTask,
    plan_shards,
    route_shard,
)

__all__ = ["run_lookups", "fail_nodes"]


def run_lookups(
    network: Network,
    count: int,
    seed: Optional[int] = None,
    keys: Sequence[object] = (),
    observer: Optional[TraceObserver] = None,
    injector: Optional[FaultInjector] = None,
    retry_budget: int = 0,
    shard_size: int = DEFAULT_SHARD_SIZE,
    backend: str = DEFAULT_BACKEND,
    latency: Optional[LatencyModel] = None,
) -> LookupStats:
    """Execute ``count`` random lookups on ``network`` and gather records.

    The paper's Fig. 5 issues n/4 lookups from every node (~1M at
    d = 8); the mean path length is an expectation over uniform random
    (source, key) pairs, so a seeded sample estimates it — pass a larger
    ``count`` to tighten the estimate (see DESIGN.md §4).

    The workload is executed in deterministic shards (DESIGN.md §S20):
    shard ``k`` covers a contiguous slice of the global lookup indices
    and draws from ``shard_rng(seed, k)`` through the same shard body
    as :func:`repro.sim.parallel.run_sharded_lookups`
    (:func:`~repro.sim.parallel.route_shard`), which makes the record
    sequence identical to a sharded run of the same cell whenever
    routing carries no state between lookups (always true without an
    active injector).  ``seed`` is required — silent default seeds
    already bit us in ``fail_nodes``, so there is no unseeded fallback
    anywhere.

    All shards run in-process against the given ``network`` instance;
    ``observer`` (e.g. a :class:`~repro.dht.routing.JsonlTraceSink`)
    receives every per-hop trace event.  ``injector``/``retry_budget``
    switch the engine into fault mode (see :mod:`repro.sim.faults`);
    each shard draws message-loss verdicts from the injector's
    per-shard stream (:meth:`~repro.sim.faults.FaultInjector.for_shard`).
    ``backend`` selects the lookup execution strategy (``"object"`` or
    the bit-identical vectorized ``"columnar"`` kernel, DESIGN §S23).
    ``latency`` attaches a :class:`~repro.sim.latency.LatencyModel` so
    every record carries its modeled end-to-end milliseconds (§S25).
    """
    check_backend(backend)
    if seed is None:
        raise TypeError(
            "run_lookups() requires an explicit seed=... so the "
            "experiment is reproducible by construction"
        )
    keys = tuple(keys)
    stats = LookupStats()
    # Shards route one after another on the same network; without an
    # active injector it never changes, so one compile serves them all.
    kernel = compile_kernel(
        network, backend=backend, observer=observer, injector=injector
    )
    for spec in plan_shards(count, shard_size):
        task = ShardTask(
            spec=spec,
            seed=seed,
            keys=keys,
            retry_budget=retry_budget,
            backend=backend,
            latency=latency,
        )
        records, shard_injector = route_shard(
            task, network, injector, observer, kernel
        )
        stats.extend(records)
        if shard_injector is not None:
            injector.dropped += shard_injector.dropped
    return stats


def fail_nodes(
    network: Network, probability: float, rng: random.Random
) -> int:
    """Gracefully depart each node independently with ``probability``.

    The §4.3 massive-failure injection: departures are graceful (each
    leaver notifies its relatives) and no stabilisation runs afterwards.
    At least one node is always left alive.  Returns the departure count.

    ``rng`` is mandatory — seed it via :func:`repro.util.rng.make_rng`
    so every failure experiment is reproducible by construction.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be within [0, 1]")
    if rng is None:
        raise TypeError(
            "fail_nodes requires an explicit rng; pass make_rng(seed)"
        )
    victims = [node for node in network.live_nodes() if rng.random() < probability]
    departed = 0
    for node in victims:
        if network.size <= 1:
            break
        network.leave(node)
        departed += 1
    return departed

"""Serial/parallel parity: ``workers=1`` and ``workers=4`` bit-agree.

The contract of :func:`repro.sim.parallel.run_sharded_lookups` is that
the merged run is a pure function of ``(setup, count, seed, shard_size,
keys, retry_budget)`` and ``workers`` only chooses the fan-out.  These
tests pin that for every registered overlay at two (n, d) scales, and —
the hard case — with an enabled :class:`~repro.sim.faults.FaultPlan`,
where per-shard loss streams and lazy route repair would expose any
cross-shard state leak.  The runner builds each cell once and routes
every shard on a restored copy; :func:`fresh_build_reference` is the
referee that instead calls ``setup()`` afresh for every shard, and the
two must agree at every worker count.

``GOLDEN_DIGESTS`` re-baselines the sharded workload stream once: the
digests were captured from this implementation and must never drift
again, whatever the worker count.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.dht.metrics import LookupStats
from repro.dht.routing import TraceObserver
from repro.experiments.registry import ALL_PROTOCOLS, build_complete_network
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.parallel import (
    DEFAULT_SHARD_SIZE,
    ShardTask,
    execute_shard,
    merge_shards,
    plain_setup,
    plan_shards,
    run_sharded_lookups,
)

#: Small enough to stay fast, large enough for four non-trivial shards.
LOOKUPS = 120
SHARD_SIZE = 30
SEED = 42


def _setup(protocol: str, dimension: int):
    return partial(
        plain_setup, build_complete_network, protocol, dimension, seed=SEED
    )


def _fault_setup(protocol: str, dimension: int, plan: FaultPlan):
    network = build_complete_network(protocol, dimension, seed=SEED)
    injector = FaultInjector(plan)
    injector.crash_nodes(network)
    network.route_repairs = 0
    return network, injector


FAULT_PLAN = FaultPlan(seed=SEED + 30, crash_probability=0.3, message_loss=0.05)


def fresh_build_reference(
    setup, count, seed, *, shard_size=DEFAULT_SHARD_SIZE, retry_budget=0
):
    """The referee: every shard routes on its own ``setup()`` build.

    Nothing is captured, packed or restored, so a merged run that
    equals this one shows that restored copies are bit-exact
    substitutes for a fresh build.
    """
    return merge_shards(
        [
            execute_shard(
                ShardTask(spec=spec, seed=seed, retry_budget=retry_budget),
                prepared=setup(),
            )
            for spec in plan_shards(count, shard_size)
        ]
    )


def _assert_runs_equal(serial, parallel):
    assert serial.stats.digest() == parallel.stats.digest()
    assert serial.stats.records == parallel.stats.records
    assert serial.query_counts == parallel.query_counts
    assert serial.route_repairs == parallel.route_repairs
    assert serial.dropped_messages == parallel.dropped_messages
    assert serial.crashed == parallel.crashed
    assert serial.population == parallel.population
    assert serial.shards == parallel.shards == 4


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("dimension", [4, 5])
def test_parallel_matches_serial(protocol, dimension):
    serial = run_sharded_lookups(
        _setup(protocol, dimension),
        LOOKUPS,
        SEED + dimension,
        workers=1,
        shard_size=SHARD_SIZE,
    )
    parallel = run_sharded_lookups(
        _setup(protocol, dimension),
        LOOKUPS,
        SEED + dimension,
        workers=4,
        shard_size=SHARD_SIZE,
    )
    _assert_runs_equal(serial, parallel)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_parallel_matches_serial_under_faults(protocol):
    """The fault path: crashes, message loss, retries, lazy repair."""
    setup = partial(_fault_setup, protocol, 4, FAULT_PLAN)
    serial = run_sharded_lookups(
        setup,
        LOOKUPS,
        SEED,
        workers=1,
        shard_size=SHARD_SIZE,
        retry_budget=6,
    )
    parallel = run_sharded_lookups(
        setup,
        LOOKUPS,
        SEED,
        workers=4,
        shard_size=SHARD_SIZE,
        retry_budget=6,
    )
    _assert_runs_equal(serial, parallel)
    assert serial.crashed > 0  # the plan actually fired


def _assert_same_merged(a, b):
    assert a.stats.digest() == b.stats.digest()
    assert a.stats.records == b.stats.records
    assert a.query_counts == b.query_counts
    assert a.route_repairs == b.route_repairs
    assert a.dropped_messages == b.dropped_messages
    assert a.crashed == b.crashed
    assert a.population == b.population


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_snapshot_distribution_matches_rebuild(protocol, workers):
    """§S21: the build-once runner is bit-identical to a fresh build
    per shard at every worker count."""
    rebuild = fresh_build_reference(
        _setup(protocol, 4), LOOKUPS, SEED + 4, shard_size=SHARD_SIZE
    )
    snapshot = run_sharded_lookups(
        _setup(protocol, 4),
        LOOKUPS,
        SEED + 4,
        workers=workers,
        shard_size=SHARD_SIZE,
    )
    _assert_same_merged(rebuild, snapshot)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_snapshot_distribution_matches_rebuild_under_faults(
    protocol, workers
):
    """§S21 under an active FaultPlan: the injector is reattached from
    the plan seed on every restored copy, so crashes, loss streams and
    lazy repair must replay identically."""
    setup = partial(_fault_setup, protocol, 4, FAULT_PLAN)
    rebuild = fresh_build_reference(
        setup, LOOKUPS, SEED, shard_size=SHARD_SIZE, retry_budget=6
    )
    snapshot = run_sharded_lookups(
        setup,
        LOOKUPS,
        SEED,
        workers=workers,
        shard_size=SHARD_SIZE,
        retry_budget=6,
    )
    _assert_same_merged(rebuild, snapshot)
    assert rebuild.crashed > 0  # the plan actually fired


def _counting_setup(calls_path: str):
    """Fault-free setup that appends one line to ``calls_path`` per call
    (a file, so calls made in pool workers are counted too)."""
    with open(calls_path, "a", encoding="utf-8") as handle:
        handle.write("setup\n")
    return build_complete_network("cycloid", 4, seed=SEED), None


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "observer", [None, TraceObserver()], ids=["no-observer", "observer"]
)
def test_setup_runs_once_per_cell(tmp_path, workers, observer):
    """The build-once contract: a multi-shard cell calls ``setup``
    exactly once, whatever the fan-out and whether or not an observer
    forces in-process execution."""
    calls = tmp_path / "calls.txt"
    merged = run_sharded_lookups(
        partial(_counting_setup, str(calls)),
        LOOKUPS,
        SEED,
        workers=workers,
        shard_size=SHARD_SIZE,
        observer=observer,
    )
    assert merged.shards == 4
    assert calls.read_text(encoding="utf-8").splitlines() == ["setup"]


#: Golden digests of the sharded workload stream (captured once from
#: this implementation — the one deliberate re-baseline of the parallel
#: engine PR).  Any change to shard planning, stream derivation or
#: record layout shows up here at workers=1, before parity even runs.
GOLDEN_DIGESTS = {
    "cycloid": "3ef7e62637a20f615e5dbb4734a0ebe692046af7982c2bd3708d606e4eef9850",
    "chord": "228dd842026b2f862f46d168bd61f50502008d0a776b85f82fd907cb0d8c33d6",
    "koorde": "6debb00630e8b1e1050045c6933dec471983a42a7ede8b8e6bb3346c1b069bbf",
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN_DIGESTS))
def test_golden_digest(protocol):
    merged = run_sharded_lookups(
        _setup(protocol, 4),
        LOOKUPS,
        SEED + 4,
        workers=1,
        shard_size=SHARD_SIZE,
    )
    assert merged.stats.digest() == GOLDEN_DIGESTS[protocol]


class TestDigest:
    def test_empty_digest_is_stable(self):
        assert LookupStats().digest() == LookupStats().digest()

    def test_merge_order_changes_digest(self):
        serial = run_sharded_lookups(
            _setup("cycloid", 4),
            LOOKUPS,
            SEED,
            workers=1,
            shard_size=SHARD_SIZE,
        )
        reversed_stats = LookupStats()
        reversed_stats.extend(list(reversed(serial.stats.records)))
        assert serial.stats.digest() != reversed_stats.digest()

"""Serial/parallel parity: ``workers=1`` and ``workers=4`` bit-agree.

The contract of :func:`repro.sim.parallel.run_sharded_lookups` is that
the merged run is a pure function of ``(setup, count, seed, shard_size,
keys, retry_budget)`` and ``workers`` only chooses the fan-out.  These
tests pin that for every registered overlay at two (n, d) scales, and —
the hard case — with an enabled :class:`~repro.sim.faults.FaultPlan`,
where per-shard loss streams and lazy route repair would expose any
cross-shard state leak.  The runner builds each cell once, and every
shard in a process routes on that one network (and its compiled
kernel), rolling back its lazy repairs.  :func:`fresh_build_reference`
is the referee that instead calls ``setup()`` afresh for every shard,
and the two must agree at every worker count.

``GOLDEN_DIGESTS`` re-baselines the sharded workload stream once: the
digests were captured from this implementation and must never drift
again, whatever the worker count.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from functools import partial

import pytest

from repro.dht.kernel import (
    BACKENDS,
    ChordKernel,
    CycloidKernel,
    KoordeKernel,
    ViceroyKernel,
)
from repro.dht.metrics import LookupStats
from repro.dht.routing import TraceObserver
from repro.dht.snapshot import pack_network
from repro.experiments.crash import crashed_setup
from repro.experiments.failures import departed_setup
from repro.experiments.registry import (
    ALL_PROTOCOLS,
    PROTOCOLS,
    build_complete_network,
)
from repro.sim import parallel
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.latency import LatencyModel
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


def _counting_kernels(monkeypatch, calls_path: str) -> None:
    """Make every kernel compile append one line to ``calls_path`` (a
    file, so compiles in forked pool workers are counted too)."""
    for cls in (CycloidKernel, ChordKernel, KoordeKernel, ViceroyKernel):

        def counted(self, network, _compile=cls.__init__):
            with open(calls_path, "a", encoding="utf-8") as handle:
                handle.write(type(self).__name__ + "\n")
            _compile(self, network)

        monkeypatch.setattr(cls, "__init__", counted)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("protocol", ["cycloid", "chord", "koorde", "viceroy"])
def test_fault_free_cell_compiles_once_per_process(
    tmp_path, monkeypatch, protocol, workers
):
    """A fault-free multi-shard cell compiles one kernel in-process and
    at most one per pool worker, and still matches the referee."""
    calls = tmp_path / "compiles.txt"
    calls.touch()
    _counting_kernels(monkeypatch, str(calls))
    merged = run_sharded_lookups(
        _setup(protocol, 4),
        LOOKUPS,
        SEED + 4,
        workers=workers,
        shard_size=SHARD_SIZE,
        backend="columnar",
    )
    compiles = calls.read_text(encoding="utf-8").splitlines()
    assert merged.shards == 4
    if workers == 1:
        assert len(compiles) == 1
    else:
        assert len(compiles) <= workers
    reference = fresh_build_reference(
        _setup(protocol, 4), LOOKUPS, SEED + 4, shard_size=SHARD_SIZE
    )
    _assert_same_merged(reference, merged)


def _packed_bytes(network) -> bytes:
    """The network's packed routing state.  Query counters are
    per-shard tallies that every shard resets, so they are zeroed
    first."""
    network.reset_query_counts()
    return pickle.dumps(pack_network(network), pickle.HIGHEST_PROTOCOL)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario", ["built", "departed", "latency"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fault_free_cell_leaves_network_unchanged(protocol, scenario, backend):
    """The premise of sharing: a fault-free multi-shard cell leaves the
    packed network byte-identical, with stale pointers to departed
    nodes and with a latency model attached."""
    if scenario == "departed":
        network, _ = departed_setup(protocol, 4, SEED, 0.3, SEED + 30)
    else:
        network = build_complete_network(protocol, 4, seed=SEED)
    latency = LatencyModel(seed=SEED) if scenario == "latency" else None
    before = _packed_bytes(network)
    merged = run_sharded_lookups(
        lambda: (network, None),
        LOOKUPS,
        SEED,
        shard_size=SHARD_SIZE,
        backend=backend,
        latency=latency,
    )
    assert merged.shards == 4
    assert _packed_bytes(network) == before


def _counting_seams(monkeypatch) -> dict:
    counts = {"pack": 0, "unpack": 0}
    for name, attr in (("pack", "pack_network"), ("unpack", "unpack_network")):

        def counted(value, _name=name, _seam=getattr(parallel, attr)):
            counts[_name] += 1
            return _seam(value)

        monkeypatch.setattr(parallel, attr, counted)
    return counts


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_crash_cell_routes_on_one_network(monkeypatch, protocol, workers):
    """A crash+retry cell's shards share the prepared network: the
    serial path packs and unpacks nothing (nor does a fault-free cell),
    and each shard rolls back its lazy repairs, so the caller's network
    packs to the same bytes after the cell as before it (the pool path
    never touches it)."""
    counts = _counting_seams(monkeypatch)
    network, injector = _fault_setup(protocol, 4, FAULT_PLAN)
    before = _packed_bytes(network)
    merged = run_sharded_lookups(
        lambda: (network, injector),
        LOOKUPS,
        SEED,
        workers=workers,
        shard_size=SHARD_SIZE,
        retry_budget=6,
    )
    assert merged.shards == 4 and merged.crashed > 0
    assert _packed_bytes(network) == before
    if workers == 1:
        run_sharded_lookups(
            _setup(protocol, 4), LOOKUPS, SEED, shard_size=SHARD_SIZE
        )
        assert counts == {"pack": 0, "unpack": 0}


class _InlinePool:
    """``ProcessPoolExecutor`` stand-in: runs the initializer and the
    tasks in this process and records each task's pickled size."""

    def __init__(self, sizes, max_workers, initializer, initargs):
        self.sizes = sizes
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, tasks):
        self.sizes.extend(
            len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL)) for task in tasks
        )
        return map(fn, tasks)


@pytest.mark.parametrize("faulty", [False, True], ids=["fault-free", "faults"])
@pytest.mark.parametrize("protocol", ["cycloid", "chord"])
def test_pool_task_size_does_not_grow_with_population(
    monkeypatch, protocol, faulty
):
    """The cell's network reaches a pool worker through the initializer;
    a task carries only its shard, so its pickle is the same size at
    n=64 and n=2048."""
    monkeypatch.setattr(parallel, "_worker_cell", None)
    sizes = {}
    for dimension in (4, 8):
        sizes[dimension] = []
        monkeypatch.setattr(
            parallel,
            "ProcessPoolExecutor",
            partial(_InlinePool, sizes[dimension]),
        )
        setup = (
            partial(_fault_setup, protocol, dimension, FAULT_PLAN)
            if faulty
            else _setup(protocol, dimension)
        )
        merged = run_sharded_lookups(
            setup,
            LOOKUPS,
            SEED,
            workers=2,
            shard_size=SHARD_SIZE,
            retry_budget=6 if faulty else 0,
            backend="columnar",
        )
        assert merged.shards == 4
        assert merged.population + merged.crashed == dimension << dimension
        assert (merged.crashed > 0) == faulty
    assert len(sizes[4]) == 4
    assert sizes[4] == sizes[8]
    assert max(sizes[8]) < 1024


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


#: Golden digests of the fault-mode cascade: crash+retry cells at d=6
#: (30% ungraceful crashes, 5% message loss, retry budget 8, three
#: shards), hashed over the fields perfbench's crash digest covers.
#: Cycloid's ranked alternates, each listed overlay's ``fail`` and lazy
#: route repair (``on_dead_entry``) and the per-shard loss streams all feed
#: them; nothing else in tier 1 pins that path.
FAULT_GOLDEN_DIGESTS = {
    "cycloid": "ee906fd366692971558c1252a55a560ef1534a4beeb098223a273b3b85e43152",
    "cycloid-11": "dab07365f745c2b54eb4ed9d345c0ec7bfbbc2d6a881b6694e4d22ec7f08c462",
    "chord": "05739d652747ee47569d0410adc0e9c00b00aba8bd96dd51d7d3af5ffa0b4908",
    "koorde": "6a20b2223cec443c9f861c524778a1382cf33bdcebcc4b08a6dbdc410793dc23",
    "viceroy": "0ae58dbb720590750f1815675cf76b9d32ba402ad9cc3494a8be812b94951f92",
}


@pytest.mark.parametrize("protocol", sorted(FAULT_GOLDEN_DIGESTS))
def test_fault_mode_golden_digest(protocol):
    plan = FaultPlan(seed=SEED + 30, crash_probability=0.3, message_loss=0.05)
    merged = run_sharded_lookups(
        partial(crashed_setup, protocol, 6, SEED, plan),
        1200,
        SEED + 1,
        workers=1,
        shard_size=400,
        retry_budget=8,
    )
    assert merged.shards == 3
    assert merged.stats.total_retries > 0
    # Viceroy derives its links from the live membership, so crashes
    # never strand a lookup there; only loss retries fire.
    assert merged.stats.failures > 0 or protocol == "viceroy"
    payload = json.dumps(
        [
            merged.stats.digest(),
            merged.route_repairs,
            merged.crashed,
            merged.population,
            merged.dropped_messages,
        ]
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == FAULT_GOLDEN_DIGESTS[protocol]


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

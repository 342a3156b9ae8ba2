"""Backend parity: ``backend="columnar"`` bit-agrees with the object engine.

The contract of DESIGN §S23 is that the execution backend is invisible
in the results: the columnar kernel (:mod:`repro.dht.kernel`) must
produce byte-identical :class:`LookupRecord` streams, digests and
query-count tallies for every overlay configuration — natively compiled
for Cycloid, Chord, Koorde and Viceroy, via the documented
object-engine fallback everywhere else (Pastry, CAN, trace observers,
active fault plans).  These tests pin that equivalence across the full registry,
worker counts, fault plans and a hypothesis sweep of seeds, batch
sizes and worker counts, plus the actionable-error contract of the
``backend`` selector.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.dht.kernel import (
    BACKENDS,
    DEFAULT_BACKEND,
    KoordeKernel,
    ViceroyKernel,
    check_backend,
    columnar_protocols,
    compile_kernel,
    run_lookup_batch,
    supports_columnar,
)
from repro.dht.metrics import LookupStats
from repro.dht.routing import RecordingTracer
from repro.experiments.common import run_lookups
from repro.experiments.registry import ALL_PROTOCOLS, build_complete_network
from repro.koorde import KoordeNetwork
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.parallel import plain_setup, run_sharded_lookups
from repro.sim.workload import lookup_workload
from repro.util.rng import make_rng
from repro.viceroy import ViceroyNetwork
from repro.viceroy.node import ID_SCALE

#: Mirrors tests/sim/test_parallel_parity.py — four non-trivial shards.
LOOKUPS = 120
SHARD_SIZE = 30
SEED = 42
DIMENSION = 4

FAULT_PLAN = FaultPlan(seed=SEED + 30, crash_probability=0.3, message_loss=0.05)


def _setup(protocol: str, dimension: int = DIMENSION):
    return partial(
        plain_setup, build_complete_network, protocol, dimension, seed=SEED
    )


def _fault_setup(protocol: str):
    network = build_complete_network(protocol, DIMENSION, seed=SEED)
    injector = FaultInjector(FAULT_PLAN)
    injector.crash_nodes(network)
    network.route_repairs = 0
    return network, injector


def _departed(network):
    """Gracefully depart ~20% of nodes (seeded), no re-stabilisation —
    the resulting stale pointers exercise the kernel's dead-node
    columns, timeout accounting and by-id visited tracking."""
    rng = make_rng(SEED + 13)
    victims = [n for n in network.live_nodes() if rng.random() < 0.2]
    for node in victims:
        if network.size <= 1:
            break
        network.leave(node)
    return network


def _assert_same_merged(obj, col):
    assert obj.stats.digest() == col.stats.digest()
    assert obj.stats.records == col.stats.records
    assert obj.query_counts == col.query_counts
    assert obj.route_repairs == col.route_repairs
    assert obj.dropped_messages == col.dropped_messages
    assert obj.crashed == col.crashed
    assert obj.population == col.population


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_columnar_matches_object_sharded(protocol, workers):
    """Every overlay config, every worker count: identical digests."""
    obj = run_sharded_lookups(
        _setup(protocol),
        LOOKUPS,
        SEED + DIMENSION,
        workers=workers,
        shard_size=SHARD_SIZE,
        backend="object",
    )
    col = run_sharded_lookups(
        _setup(protocol),
        LOOKUPS,
        SEED + DIMENSION,
        workers=workers,
        shard_size=SHARD_SIZE,
        backend="columnar",
    )
    _assert_same_merged(obj, col)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_columnar_matches_object_under_faults(protocol, workers):
    """An active FaultPlan routes through the object-engine fallback —
    crashes, loss streams and lazy repair must replay identically."""
    setup = partial(_fault_setup, protocol)
    obj = run_sharded_lookups(
        setup,
        LOOKUPS,
        SEED,
        workers=workers,
        shard_size=SHARD_SIZE,
        retry_budget=6,
        backend="object",
    )
    col = run_sharded_lookups(
        setup,
        LOOKUPS,
        SEED,
        workers=workers,
        shard_size=SHARD_SIZE,
        retry_budget=6,
        backend="columnar",
    )
    _assert_same_merged(obj, col)
    assert obj.crashed > 0  # the plan actually fired


def _lookup_many_records(build, backend, count=80):
    network = build()
    pairs = list(lookup_workload(network, count, make_rng(SEED + 2)))
    records = network.lookup_many(pairs, backend=backend)
    return records, dict(network._query_counts)


#: Direct (unsharded) record equality, including departed networks
#: whose stale pointers produce timeouts on the compiled protocols.
DIRECT_CONFIGS = {
    "cycloid": lambda: build_complete_network("cycloid", DIMENSION, seed=SEED),
    "cycloid-11": lambda: build_complete_network(
        "cycloid-11", DIMENSION, seed=SEED
    ),
    "chord": lambda: build_complete_network("chord", DIMENSION, seed=SEED),
    "cycloid-departures": lambda: _departed(
        build_complete_network("cycloid", DIMENSION, seed=SEED)
    ),
    "chord-departures": lambda: _departed(
        build_complete_network("chord", DIMENSION, seed=SEED)
    ),
    "koorde": lambda: build_complete_network("koorde", DIMENSION, seed=SEED),
    "koorde-departures": lambda: _departed(
        build_complete_network("koorde", DIMENSION, seed=SEED)
    ),
    # Random ids on an 11-bit ring; node 8 has no node in (8, 16], so its
    # de Bruijn pointer is itself and its shifts are message-free.
    "koorde-sparse": lambda: KoordeNetwork.with_random_ids(300, 11, seed=1),
}


@pytest.mark.parametrize("config", sorted(DIRECT_CONFIGS))
def test_lookup_many_records_identical(config):
    build = DIRECT_CONFIGS[config]
    obj_records, obj_counts = _lookup_many_records(build, "object")
    col_records, col_counts = _lookup_many_records(build, "columnar")
    assert obj_records == col_records
    assert obj_counts == col_counts


def test_departed_networks_produce_timeouts():
    """The departure configs actually exercise the timeout path."""
    records, _ = _lookup_many_records(
        DIRECT_CONFIGS["cycloid-departures"], "columnar"
    )
    assert sum(record.timeouts for record in records) > 0


def test_koorde_configs_exercise_advances_and_timeouts():
    """The Koorde departures config times out on stale pointers, and
    the sparse config holds a node whose de Bruijn pointer is itself:
    its workload routes through the message-free ``advance`` decisions
    the kernel folds into a wave."""
    records, _ = _lookup_many_records(
        DIRECT_CONFIGS["koorde-departures"], "columnar"
    )
    assert sum(record.timeouts for record in records) > 0
    network = DIRECT_CONFIGS["koorde-sparse"]()
    assert any(node.debruijn is node for node in network.live_nodes())
    advances = 0
    next_hop = network.next_hop

    def counting(current, key_id, walk):
        nonlocal advances
        decision = next_hop(current, key_id, walk)
        advances += decision.node is None and not decision.terminal
        return decision

    network.next_hop = counting
    pairs = list(lookup_workload(network, 300, make_rng(SEED + 2)))
    network.lookup_many(pairs, backend="object")
    assert advances > 0


@settings(max_examples=8, deadline=None)
@given(
    protocol=st.sampled_from(columnar_protocols()),
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=1, max_value=60),
    workers=st.sampled_from((1, 2, 4)),
)
def test_backend_parity_property(protocol, seed, count, workers):
    """Property: backend choice never shows up in the merged results,
    whatever the seed, batch size or worker count."""
    obj = run_sharded_lookups(
        _setup(protocol, 3),
        count,
        seed,
        workers=workers,
        shard_size=16,
        backend="object",
    )
    col = run_sharded_lookups(
        _setup(protocol, 3),
        count,
        seed,
        workers=workers,
        shard_size=16,
        backend="columnar",
    )
    _assert_same_merged(obj, col)


def test_observer_forces_object_fallback_bit_exact():
    """A trace observer needs per-hop callbacks, so the columnar
    backend hands the batch to the object engine — same records, same
    event stream."""
    results = []
    for backend in BACKENDS:
        network = build_complete_network("cycloid", DIMENSION, seed=SEED)
        pairs = list(lookup_workload(network, 30, make_rng(7)))
        tracer = RecordingTracer()
        records = network.lookup_many(pairs, observer=tracer, backend=backend)
        results.append((records, tracer))
    (obj_records, obj_tracer), (col_records, col_tracer) = results
    assert obj_records == col_records
    assert obj_tracer.starts == col_tracer.starts
    assert obj_tracer.events == col_tracer.events
    assert obj_tracer.records == col_tracer.records
    assert col_tracer.events  # the observer really ran


def test_columnar_protocol_registry():
    assert columnar_protocols() == ("chord", "cycloid", "koorde", "viceroy")
    assert supports_columnar(
        build_complete_network("cycloid", 3, seed=SEED)
    )
    # The 11-entry variant shares protocol_name "cycloid" and compiles.
    assert supports_columnar(
        build_complete_network("cycloid-11", 3, seed=SEED)
    )
    assert supports_columnar(build_complete_network("koorde", 3, seed=SEED))
    for protocol in ("pastry", "can"):
        assert not supports_columnar(
            build_complete_network(protocol, 3, seed=SEED)
        )


class TestBackendErrors:
    """The unknown-``backend`` error names the bad value and lists the
    valid choices."""

    def test_default_backend_is_object(self):
        assert DEFAULT_BACKEND == "object"
        assert BACKENDS == ("object", "columnar")
        check_backend("object")
        check_backend("columnar")

    def test_check_backend_message(self):
        with pytest.raises(ValueError) as excinfo:
            check_backend("bogus")
        message = str(excinfo.value)
        assert "bogus" in message
        assert "object" in message and "columnar" in message

    def test_lookup_many_rejects_unknown_backend(self):
        network = build_complete_network("cycloid", 3, seed=SEED)
        pairs = list(lookup_workload(network, 2, make_rng(1)))
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            network.lookup_many(pairs, backend="bogus")

    def test_run_lookup_batch_rejects_unknown_backend(self):
        network = build_complete_network("cycloid", 3, seed=SEED)
        with pytest.raises(ValueError, match="expected one of"):
            run_lookup_batch(network, [], backend="bogus")

    def test_run_lookup_batch_rejects_another_networks_kernel(self):
        network = build_complete_network("cycloid", 3, seed=SEED)
        other = build_complete_network("cycloid", 3, seed=SEED)
        pairs = list(lookup_workload(network, 2, make_rng(1)))
        kernel = compile_kernel(other, backend="columnar")
        with pytest.raises(ValueError, match="different network"):
            run_lookup_batch(network, pairs, backend="columnar", kernel=kernel)

    def test_compile_kernel_follows_the_fallback_rules(self):
        network = build_complete_network("cycloid", 3, seed=SEED)
        assert compile_kernel(network, backend="columnar") is not None
        assert compile_kernel(network, backend="object") is None
        assert (
            compile_kernel(
                network, backend="columnar", observer=RecordingTracer()
            )
            is None
        )
        assert (
            compile_kernel(
                network,
                backend="columnar",
                injector=FaultInjector(FAULT_PLAN),
            )
            is None
        )
        koorde = build_complete_network("koorde", 3, seed=SEED)
        assert isinstance(
            compile_kernel(koorde, backend="columnar"), KoordeKernel
        )
        assert (
            compile_kernel(
                koorde, backend="columnar", observer=RecordingTracer()
            )
            is None
        )
        assert (
            compile_kernel(
                koorde, backend="columnar", injector=FaultInjector(FAULT_PLAN)
            )
            is None
        )
        for protocol in ("pastry", "can"):
            other = build_complete_network(protocol, 3, seed=SEED)
            assert compile_kernel(other, backend="columnar") is None

    def test_run_lookups_rejects_unknown_backend(self):
        network = build_complete_network("cycloid", 3, seed=SEED)
        with pytest.raises(ValueError, match="unknown backend"):
            run_lookups(network, 4, seed=1, backend="bogus")

    def test_run_sharded_lookups_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_sharded_lookups(
                _setup("cycloid", 3),
                8,
                SEED,
                workers=1,
                shard_size=4,
                backend="bogus",
            )

    def test_cli_rejects_unknown_backend(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig5", "--backend", "bogus"])
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "object" in err and "columnar" in err

    def test_cli_accepts_both_backends(self):
        parser = build_parser()
        for backend in BACKENDS:
            args = parser.parse_args(["fig5", "--backend", backend])
            assert args.backend == backend


# ----------------------------------------------------------------------
# Viceroy: the butterfly kernel against ViceroyNetwork.next_hop
# ----------------------------------------------------------------------


def _viceroy_departed(how: str, count: int = 150):
    """``leave`` or ``fail`` ~30% of a random population; both evict
    the node and re-level survivors through ``_readjust_levels``."""
    network = ViceroyNetwork.with_random_ids(count, seed=SEED)
    rng = make_rng(SEED + 13)
    for node in list(network.live_nodes()):
        if network.size > 1 and rng.random() < 0.3:
            getattr(network, how)(node)
    return network


def _viceroy_joined(count: int = 60, arrivals: int = 40):
    network = ViceroyNetwork.with_random_ids(count, seed=SEED)
    for index in range(arrivals):
        network.join(f"arrival-{index}")
    return network


VICEROY_CONFIGS = {
    **{
        f"complete-d{d}": partial(
            build_complete_network, "viceroy", d, seed=SEED
        )
        for d in range(3, 9)
    },
    **{
        f"random-{count}": partial(
            ViceroyNetwork.with_random_ids, count, seed=SEED
        )
        for count in (1, 2, 3, 40, 300)
    },
    "leave": partial(_viceroy_departed, "leave"),
    "fail": partial(_viceroy_departed, "fail"),
    "join": _viceroy_joined,
}


def _viceroy_lookups(network, count: int, seed: int):
    """``(source index, key id)`` pairs: a seeded workload plus, for up
    to 60 nodes, keys at and next to the node's id (``id - 1``, ``id``,
    ``id + 1``, wrapping: the (pred, id] and (id, succ] boundaries) and
    a lookup from the node itself for the key exactly one descend
    threshold clockwise of it (``id + ID_SCALE >> level``: a node with
    no up link descends at once, and at that distance must take the
    right link)."""
    nodes = network.live_nodes()
    position = {id(node): i for i, node in enumerate(nodes)}
    pairs = [
        (position[id(source)], network.key_id(key))
        for source, key in lookup_workload(network, count, make_rng(seed))
    ]
    rng = make_rng(seed + 1)
    for index, node in enumerate(nodes[:60]):
        for delta in (-1, 0, 1):
            pairs.append(
                (rng.randrange(len(nodes)), (node.id + delta) % ID_SCALE)
            )
        pairs.append((index, (node.id + (ID_SCALE >> node.level)) % ID_SCALE))
    return pairs


def _assert_viceroy_parity(build, count: int = 150, seed: int = SEED):
    """Object engine and kernel route the same lookups on two builds of
    one network: identical records, digests and query counters."""
    runs = []
    for backend in BACKENDS:
        network = build()
        nodes = network.live_nodes()
        pairs = [
            (nodes[source], key)
            for source, key in _viceroy_lookups(network, count, seed)
        ]
        if backend == "columnar":
            assert isinstance(
                compile_kernel(network, backend=backend), ViceroyKernel
            )
        records = network.route_many(pairs, backend=backend)
        runs.append((records, LookupStats(records).digest(), network))
    (obj_records, obj_digest, obj_net), (col_records, col_digest, col_net) = (
        runs
    )
    assert col_records == obj_records
    assert col_digest == obj_digest
    assert col_net._query_counts == obj_net._query_counts
    return obj_records


@pytest.mark.parametrize("config", sorted(VICEROY_CONFIGS))
def test_viceroy_kernel_matches_object_engine(config):
    records = _assert_viceroy_parity(VICEROY_CONFIGS[config])
    assert all(record.success for record in records)
    assert all(record.timeouts == 0 for record in records)


def test_viceroy_configs_cover_every_stage():
    """The parity configs route through all three butterfly stages, and
    the departures really re-levelled survivors."""
    totals = dict.fromkeys(ViceroyNetwork.ROUTING_PHASES, 0)
    for records in (
        _assert_viceroy_parity(VICEROY_CONFIGS["complete-d5"]),
        _assert_viceroy_parity(VICEROY_CONFIGS["fail"]),
    ):
        for record in records:
            for phase, hops in record.phase_hops.items():
                totals[phase] += hops
    assert all(totals.values()), totals
    assert _viceroy_departed("fail").maintenance_updates > 0


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**16),
    departures=st.sampled_from(("none", "leave", "fail")),
)
def test_viceroy_parity_property(count, seed, departures):
    """Property: whatever the population, seed and departure mode, the
    kernel's records equal the object engine's."""

    def build():
        network = ViceroyNetwork.with_random_ids(count, seed=seed)
        if departures != "none":
            rng = make_rng(seed + 7)
            for node in list(network.live_nodes()):
                if network.size > 1 and rng.random() < 0.25:
                    getattr(network, departures)(node)
        return network

    _assert_viceroy_parity(build, count=40, seed=seed)


def _node_or_void(kernel, node) -> int:
    return -1 if node is None else kernel.index[id(node)]


@pytest.mark.parametrize(
    "config", ["complete-d6", "random-1", "random-2", "leave", "fail", "join"]
)
def test_viceroy_link_columns_match_link_methods(config):
    """Every compiled link column equals the network's own link methods
    for every node (``-1`` where the method returns ``None``)."""
    network = VICEROY_CONFIGS[config]()
    kernel = ViceroyKernel(network)
    assert kernel.nodes == network.live_nodes()
    for i, node in enumerate(network.live_nodes()):
        left, right = network.down_links(node)
        level_prev, level_next = network.level_ring(node)
        pred, succ = network.general_ring(node)
        assert kernel.up[i] == _node_or_void(kernel, network.up_link(node))
        assert kernel.left[i] == _node_or_void(kernel, left)
        assert kernel.right[i] == _node_or_void(kernel, right)
        assert kernel.level_prev[i] == _node_or_void(kernel, level_prev)
        assert kernel.level_next[i] == _node_or_void(kernel, level_next)
        assert kernel.pred[i] == _node_or_void(kernel, pred)
        assert kernel.succ[i] == _node_or_void(kernel, succ)


def test_viceroy_kernel_rejects_departed_source():
    """A departed node is evicted from the ring, so it is absent from
    the compiled universe; routing from it raises like the engine."""
    network = ViceroyNetwork.with_random_ids(20, seed=SEED)
    gone = network.live_nodes()[3]
    network.leave(gone)
    for backend in BACKENDS:
        with pytest.raises(ValueError, match="must be alive"):
            network.route_many([(gone, 0)], backend=backend)


# ----------------------------------------------------------------------
# Koorde: the de Bruijn kernel against KoordeNetwork.next_hop
# ----------------------------------------------------------------------


def _koorde_departed():
    """A complete 6-bit ring after ~20% graceful departures: stale de
    Bruijn chains and successor runs, so timeouts and dead ends."""
    return _departed(KoordeNetwork.complete(6))


@pytest.mark.parametrize(
    "build",
    [partial(KoordeNetwork.complete, 6), _koorde_departed],
    ids=["complete-6", "departed-6"],
)
def test_koorde_kernel_matches_object_engine_on_every_pair(build):
    """Every (live source, key id) pair of a 6-bit ring routes to the
    same records and query counters on both backends."""
    runs = []
    for backend in BACKENDS:
        network = build()
        pairs = [
            (source, key)
            for source in network.live_nodes()
            for key in range(1 << network.bits)
        ]
        records = network.route_many(pairs, backend=backend)
        runs.append((records, network._query_counts))
    (obj_records, obj_counts), (col_records, col_counts) = runs
    assert col_records == obj_records
    assert col_counts == obj_counts
    if build is _koorde_departed:
        assert sum(record.timeouts for record in obj_records) > 0


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=200),
    bits=st.sampled_from((8, 11)),
    seed=st.integers(min_value=0, max_value=2**16),
    departures=st.sampled_from(("none", "leave", "fail")),
)
def test_koorde_parity_property(count, bits, seed, departures):
    """Property: whatever the population, ring size, seed and departure
    mode (``fail`` leaves successor runs and predecessors stale too),
    the kernel's records equal the object engine's."""
    runs = []
    for backend in BACKENDS:
        network = KoordeNetwork.with_random_ids(count, bits, seed=seed)
        if departures != "none":
            rng = make_rng(seed + 7)
            for node in list(network.live_nodes()):
                if network.size > 1 and rng.random() < 0.25:
                    getattr(network, departures)(node)
        pairs = list(lookup_workload(network, 40, make_rng(seed)))
        records = network.lookup_many(pairs, backend=backend)
        runs.append((records, network._query_counts))
    assert runs[0] == runs[1]

"""Live-vs-engine parity: wire lookups must be bit-exact.

The acceptance bar of DESIGN S22: for the same ``(source, key)``, a
lookup routed hop-by-hop across real sockets — continuation frames,
packed route state and all — must take *exactly* the hop path the
in-memory :class:`~repro.dht.routing.LookupEngine` takes, with
identical per-hop phases and timeout counts, identical totals, and the
identical terminal owner.
"""

import asyncio

import pytest

from repro.dht.routing import RecordingTracer
from repro.experiments.registry import (
    build_complete_network,
    build_sized_network,
)
from repro.net.cluster import LocalCluster
from repro.util.rng import make_rng


def run(coro):
    return asyncio.run(coro)


def workload(network, count, seed):
    rng = make_rng(seed)
    nodes = network.live_nodes()
    return [
        (
            str(nodes[rng.randrange(len(nodes))].name),
            f"key-{rng.getrandbits(64):016x}-{i}",
        )
        for i in range(count)
    ]


def engine_baseline(network, pairs):
    """Engine records + per-hop traces on a pristine clone."""
    reference = network.clone()
    by_name = {str(n.name): n for n in reference.live_nodes()}
    tracer = RecordingTracer()
    records = reference.lookup_many(
        ((by_name[source], key) for source, key in pairs), observer=tracer
    )
    baselines = []
    for index, record in enumerate(records):
        baselines.append(
            {
                "record": record,
                "hops": [
                    (str(e.node), e.phase, e.timeouts)
                    for e in tracer.events_for(index)
                ],
            }
        )
    return baselines


async def live_results(network, pairs, servers):
    """The live replies, plus the directory the cluster served them by."""
    async with LocalCluster(network, servers=servers) as cluster:
        async with cluster.client() as client:
            replies = [
                await client.lookup(key, source, lookup_id=index)
                for index, (source, key) in enumerate(pairs)
            ]
        return replies, dict(cluster.directory)


def assert_bit_exact(baseline, reply, context):
    record = baseline["record"]
    assert reply["hops"] == record.hops, context
    assert reply["timeouts"] == record.timeouts, context
    assert reply["success"] == record.success, context
    assert reply["owner"] == str(record.owner), context
    assert reply["path"] == [str(name) for name in record.path], context
    assert reply["phases"] == record.phase_hops, context
    live_hops = [
        (event["node"], event["phase"], event["timeouts"])
        for event in reply["trace"]
    ]
    assert live_hops == baseline["hops"], context
    assert [event["hop"] for event in reply["trace"]] == list(
        range(1, record.hops + 1)
    ), context


class TestGoldenCycloidParity:
    def test_d5_cycloid_hop_paths_are_bit_exact(self):
        """The golden case: d=5 complete Cycloid (160 nodes),
        multi-server, every hop crossing the wire where the partition
        demands it."""
        network = build_complete_network("cycloid", 5)
        pairs = workload(network, 60, seed=2024)
        baselines = engine_baseline(network, pairs)
        replies, directory = run(live_results(network, pairs, servers=4))
        crossings = 0
        for index, (baseline, reply) in enumerate(zip(baselines, replies)):
            assert_bit_exact(baseline, reply, f"lookup {index}: {pairs[index]}")
            path = reply["path"]
            crossings += sum(
                directory[a] != directory[b] for a, b in zip(path, path[1:])
            )
        # Some hops must have left their server's arc, so the parity
        # above covers STEP frames carrying packed route state.
        assert crossings > 0

    def test_parity_survives_single_server_hosting(self):
        network = build_complete_network("cycloid", 4)
        pairs = workload(network, 20, seed=5)
        baselines = engine_baseline(network, pairs)
        replies, _ = run(live_results(network, pairs, servers=1))
        for baseline, reply in zip(baselines, replies):
            assert_bit_exact(baseline, reply, "single-server")


class TestAllProtocolParity:
    @pytest.mark.parametrize(
        "protocol", ["cycloid-11", "chord", "koorde", "viceroy", "pastry", "can"]
    )
    def test_every_overlay_routes_bit_exactly_over_the_wire(self, protocol):
        network = build_sized_network(protocol, 30, seed=9)
        pairs = workload(network, 25, seed=77)
        baselines = engine_baseline(network, pairs)
        replies, _ = run(live_results(network, pairs, servers=3))
        for index, (baseline, reply) in enumerate(zip(baselines, replies)):
            assert_bit_exact(baseline, reply, f"{protocol} lookup {index}")


class TestRouteStateCodec:
    @pytest.mark.parametrize(
        "protocol", ["cycloid", "koorde", "viceroy", "pastry", "can"]
    )
    def test_pack_unpack_is_lossless_mid_route(self, protocol):
        """Packing the route state after the first decision and
        unpacking it must leave every later decision unchanged — the
        property the STEP continuation frames depend on."""
        from repro.dht.routing import step_route

        network = build_sized_network(protocol, 25, seed=4)
        rng = make_rng(31)
        nodes = network.live_nodes()
        checked = 0
        for index in range(12):
            source = nodes[rng.randrange(len(nodes))]
            key_id = network.key_id(f"probe-{index}")
            network.fault_detection = False
            state = network.begin_route(source, key_id)
            decision, _ = step_route(network, source, key_id, state)
            if decision.node is None or decision.terminal:
                continue
            # Serialise mid-route, as a STEP frame would.
            blob = network.pack_route_state(state)
            revived = network.unpack_route_state(blob, key_id)
            original = _finish(network, decision.node, key_id, state)
            replayed = _finish(network, decision.node, key_id, revived)
            assert original == replayed, protocol
            checked += 1
        assert checked > 0, f"{protocol}: workload never left the source"

    def test_chord_has_no_state_to_pack(self):
        network = build_sized_network("chord", 10, seed=1)
        assert network.pack_route_state(None) is None
        assert network.unpack_route_state(None, network.key_id("k")) is None


def _finish(network, current, key_id, state):
    """Drive a route to termination; returns the (path, final) tuple."""
    from repro.dht.routing import step_route

    path = []
    for _ in range(network.HOP_LIMIT):
        decision, _ = step_route(network, current, key_id, state)
        if decision.node is None:
            break
        current = decision.node
        path.append(str(current.name))
        if decision.terminal:
            break
    final = network.finish_route(current, key_id, state)
    if final is not None and final.node is not None:
        path.append(str(final.node.name))
    return tuple(path)

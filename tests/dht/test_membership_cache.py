"""The membership cache tracks every membership change.

Memoized owners, Viceroy's seven links and the leaf sets Cycloid's lazy
repair re-derives all live in the network's membership cache
(``Network._owner_cache``), which every join/leave/fail drops.  These
tests warm the cache, change the membership, and compare what the cache
serves with a fresh derivation: a missed invalidation would leave an
owner or a memo that disagrees.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.core.network import CycloidNetwork
from repro.dht.base import Node
from repro.dht.identifiers import CycloidId, cycloid_space_size
from repro.experiments.registry import ALL_PROTOCOLS, build_sized_network
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.parallel import run_sharded_lookups
from repro.viceroy.network import ViceroyNetwork
from repro.viceroy.node import ID_SCALE

SEED = 42
PLAN = FaultPlan(seed=SEED, crash_probability=0.3, message_loss=0.05)


def _memos(network):
    return {
        key: value
        for key, value in network._owner_cache.items()
        if isinstance(key, Node)
    }


def _route(network, injector, seed):
    merged = run_sharded_lookups(
        lambda: (network, injector),
        120,
        seed,
        shard_size=40,
        retry_budget=8,
    )
    assert merged.shards == 3


def _steps(network):
    """Membership changes interleaved with fault-mode lookups; yields
    after each step."""
    injector = FaultInjector(PLAN)
    assert injector.crash_nodes(network) > 0
    yield "crash"
    for step in range(3):
        _route(network, injector, SEED + step)
        yield f"lookups {step}"
        live = network.live_nodes()
        if step == 0:
            network.join(f"joiner-{step}")
            yield "join"
        elif step == 1:
            network.leave(live[len(live) // 2])
            yield "leave"
        else:
            network.fail(live[len(live) // 3])
            yield "fail"


def _viceroy_links(network, node):
    return (
        *network.general_ring(node),
        network.up_link(node),
        *network.down_links(node),
        *network.level_ring(node),
    )


def test_viceroy_link_memos_match_fresh_links():
    network = ViceroyNetwork.with_random_ids(256, seed=SEED)
    seen = 0
    for step in _steps(network):
        memos = _memos(network)
        if step.startswith("lookups"):
            assert memos, step  # the walk memoized the nodes it visited
        else:
            assert not memos, step  # the change dropped every memo
        for node, links in memos.items():
            assert node.alive, step
            assert links == _viceroy_links(network, node), (step, node)
        seen += len(memos)
    assert seen > 0


def _ids(runs):
    return [[node.id for node in run] for run in runs]


@pytest.mark.parametrize("leaf_radius", [1, 2])
def test_cycloid_leaf_memos_match_a_fresh_wiring(leaf_radius):
    network = CycloidNetwork.complete(5, leaf_radius=leaf_radius)
    seen = 0
    for step in _steps(network):
        memos = _memos(network)
        if not step.startswith("lookups"):
            assert not memos, step
        clone = network.clone()
        for node, leaves in memos.items():
            twin = clone.topology.get(node.cyclic, node.cubical)
            clone._wire_leaves(twin)
            fresh = (
                twin.inside_left,
                twin.inside_right,
                twin.outside_left,
                twin.outside_right,
            )
            assert _ids(leaves) == _ids(fresh), (step, node)
        seen += len(memos)
    assert seen > 0  # timeouts at dead leaves memoized some leaf sets


def _key_space(network):
    """Every key id of the network's (small) id space; a grid of it for
    Viceroy's 2^52 ring and CAN's torus."""
    protocol = network.protocol_name
    if protocol == "cycloid":
        size = cycloid_space_size(network.dimension)
        return [CycloidId.from_linear(i, network.dimension) for i in range(size)]
    if protocol == "viceroy":
        step = ID_SCALE // 256
        points = [i * step for i in range(256)]
        for node in network.live_nodes():
            points.extend((node.id, (node.id + 1) % ID_SCALE))
        return points
    if protocol == "can":
        step = network.modulus // 16
        axis = range(0, network.modulus, step)
        return list(product(axis, repeat=network.dimensions))
    return list(range(1 << network.bits))


def _join(network):
    network.join("coherence-joiner")


def _leave(network):
    live = network.live_nodes()
    network.leave(live[len(live) // 2])


def _fail(network):
    live = network.live_nodes()
    network.fail(live[len(live) // 3])


@pytest.mark.parametrize(
    "change", [_join, _leave, _fail], ids=["join", "leave", "fail"]
)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_cached_owners_follow_membership_changes(protocol, change):
    network = build_sized_network(protocol, 56, seed=SEED)
    keys = _key_space(network)
    for key_id in keys:
        network.cached_owner_of_id(key_id)
    assert network._owner_cache
    change(network)
    # A departure never serves a dead owner (the cache re-derives those),
    # so the drop itself is what shows the cache was not left stale.
    assert not network._owner_cache
    for key_id in keys:
        assert network.cached_owner_of_id(key_id) is network.owner_of_id(
            key_id
        ), key_id

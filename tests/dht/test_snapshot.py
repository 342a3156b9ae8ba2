"""Unit tests for the snapshot/clone codec (DESIGN.md §S21).

The parity suite (tests/sim) proves a sharded run on restored copies
is bit-identical to a fresh build per shard; this file pins the codec's
own contract: pickle round-trips for every overlay at two scales, dead
nodes captured through stale pointers, the owner cache excluded, and
unknown types rejected loudly.
"""

from __future__ import annotations

import pickle
import random
import sys

import pytest

from repro.dht.snapshot import clone_network, pack_network, unpack_network
from repro.experiments.common import run_lookups
from repro.experiments.registry import ALL_PROTOCOLS, build_complete_network
from repro.sim.faults import FaultInjector, FaultPlan

SEED = 42
LOOKUPS = 80


def _digest(network, seed=SEED + 1):
    return run_lookups(network, LOOKUPS, seed=seed).digest()


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("dimension", [3, 5])
class TestPickleRoundTrip:
    def test_round_trip_preserves_lookup_behaviour(self, protocol, dimension):
        network = build_complete_network(protocol, dimension, seed=SEED)
        payload = pickle.dumps(network, pickle.HIGHEST_PROTOCOL)
        restored = pickle.loads(payload)
        assert restored.protocol_name == network.protocol_name
        assert restored.size == network.size
        assert _digest(restored) == _digest(network)

    def test_clone_matches_round_trip(self, protocol, dimension):
        network = build_complete_network(protocol, dimension, seed=SEED)
        clone = clone_network(network)
        restored = pickle.loads(pickle.dumps(network, pickle.HIGHEST_PROTOCOL))
        assert _digest(clone) == _digest(restored) == _digest(network)

    def test_snapshot_restore_is_fresh_each_time(self, protocol, dimension):
        """One shipped packed form restores a fresh copy per unpack —
        the pool initializer's path."""
        payload = pickle.dumps(
            pack_network(build_complete_network(protocol, dimension, seed=SEED)),
            pickle.HIGHEST_PROTOCOL,
        )
        first = unpack_network(pickle.loads(payload))
        second = unpack_network(pickle.loads(payload))
        assert first is not second
        assert _digest(first) == _digest(second)
        live_a = {node.name for node in first.live_nodes()}
        live_b = {node.name for node in second.live_nodes()}
        assert live_a == live_b


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_crashed_network_round_trips(protocol):
    """Dead nodes reachable only through stale pointers are captured.

    After ``crash_nodes`` the survivors still hold references to dead
    neighbours; those produce the timeouts the failure experiments
    measure, so a clone that dropped them would change digests.
    """
    network = build_complete_network(protocol, 4, seed=SEED)
    injector = FaultInjector(
        FaultPlan(seed=SEED + 30, crash_probability=0.3, message_loss=0.0)
    )
    injector.crash_nodes(network)
    assert injector.crashed > 0
    clone = clone_network(network)
    assert clone.size == network.size
    assert {n.name for n in clone.live_nodes()} == {
        n.name for n in network.live_nodes()
    }
    assert _digest(clone) == _digest(network)


def test_owner_cache_not_captured():
    network = build_complete_network("chord", 4, seed=SEED)
    for key in range(32):
        network.owner_of_key(key)
    assert network._owner_cache
    packed = pack_network(network)
    assert "_owner_cache" not in packed.attrs
    restored = unpack_network(packed)
    assert restored._owner_cache == {}
    # The cache refills lazily and serves the same owners.
    for key in range(32):
        assert (
            restored.owner_of_key(key).name == network.owner_of_key(key).name
        )


def test_rng_state_is_copied_not_shared():
    network = build_complete_network("cycloid", 4, seed=SEED)
    clone = clone_network(network)
    rng_a = network._rng
    rng_b = clone._rng
    assert rng_a is not rng_b
    assert rng_a.getstate() == rng_b.getstate()
    rng_b.random()
    assert rng_a.getstate() != rng_b.getstate()


def test_unregistered_type_is_rejected():
    class Opaque:
        pass

    network = build_complete_network("chord", 3, seed=SEED)
    network.opaque = Opaque()
    try:
        with pytest.raises(TypeError, match="register the class"):
            pack_network(network)
    finally:
        del network.opaque


def test_packed_form_has_no_node_instances_at_top_level():
    """The packed columns are indices and atoms — pickling them never
    recurses through node-to-node pointers."""
    network = build_complete_network("koorde", 5, seed=SEED)
    packed = pack_network(network)
    assert packed.node_count == network.size
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(120)
        pickle.dumps(packed, pickle.HIGHEST_PROTOCOL)
    finally:
        sys.setrecursionlimit(limit)


def test_random_attribute_round_trips():
    rng = random.Random(7)
    rng.random()
    network = build_complete_network("chord", 3, seed=SEED)
    network._rng = rng
    clone = clone_network(network)
    assert clone._rng.getstate() == rng.getstate()

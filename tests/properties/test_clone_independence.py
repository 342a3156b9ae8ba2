"""Property: a cloned network is fully independent of its original.

Hypothesis drives a random membership-operation sequence against a
*clone* and asserts the original never changes: same membership, same
lookup digest, byte-identical packed form.  Mutating the original
instead and re-checking restores of a pre-taken packed form pins the
other direction.
This is the §S21 safety property — the parallel engine hands every
fault-mode shard (and every pool worker) a restored copy and relies on
restores never sharing mutable state with the prepared network or with
each other.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dht.snapshot import clone_network, pack_network, unpack_network
from repro.experiments.common import run_lookups
from repro.experiments.registry import ALL_PROTOCOLS, build_sized_network
from tests.properties.test_op_sequences import apply_operations

SEED = 42

# Each op: (kind, payload). Kinds: 0 join, 1 leave, 2 fail, 3 stabilize.
# Networks are sparse (30 nodes in a larger ID space) so joins have
# room; complete networks would raise on op kind 0.
operations = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 10_000)),
    min_size=1,
    max_size=15,
)


def _network(protocol):
    # Generous ID spaces (2^8 ring, d=5 cycloid) so up to 15 joins
    # never exhaust the identifier space.
    return build_sized_network(
        protocol, 30, seed=SEED, id_space_bits=8, cycloid_dimension=5
    )


def _fingerprint(network):
    live = tuple(sorted(str(node.name) for node in network.live_nodes()))
    digest = run_lookups(network, 40, seed=SEED + 9).digest()
    return live, digest


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=operations)
def test_mutating_clone_leaves_original_untouched(protocol, ops):
    network = _network(protocol)
    before = _fingerprint(network)
    # Lookups above touched the query counters; pack *after* them so
    # any later byte difference can only come from the clone leaking.
    before_bytes = pickle.dumps(pack_network(network))

    clone = clone_network(network)
    apply_operations(clone, ops, tag=f"clone-{protocol}")

    assert pickle.dumps(pack_network(network)) == before_bytes
    assert _fingerprint(network) == before


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=operations)
def test_mutating_original_leaves_snapshot_restores_untouched(protocol, ops):
    network = _network(protocol)
    packed = pack_network(network)
    reference = _fingerprint(unpack_network(packed))

    apply_operations(network, ops, tag=f"orig-{protocol}")

    assert _fingerprint(unpack_network(packed)) == reference

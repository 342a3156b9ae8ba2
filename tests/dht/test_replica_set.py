"""Differential test: neighbourhood ``replica_set`` vs a full ranking.

:func:`repro.dht.storage.replica_set` ranks only the key's
neighbourhood (the key's cycle plus the nearest non-empty cycles for
Cycloid, the ring successors for the ring overlays).  The referee below
is the definition it must reproduce: rank *every* live node by
:func:`~repro.dht.storage.closeness`, keep the first ``replicas``, and
force the owner in.  Both must return the identical list — same nodes,
same order — on complete, sparse, failed-into and departed-from
populations, down to one node and one lone cycle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.can import CanNetwork
from repro.chord import ChordNetwork
from repro.core import CycloidNetwork
from repro.dht.identifiers import CycloidId
from repro.dht.storage import closeness, replica_set
from repro.koorde import KoordeNetwork
from repro.pastry import PastryNetwork
from repro.util.rng import make_rng
from repro.viceroy import ViceroyNetwork

KEYS = [f"key-{i}" for i in range(24)]


def referee_replica_set(network, key, replicas):
    """The O(n) definition: rank the whole live population."""
    key_id = network.key_id(key)
    owner = network.owner_of_id(key_id)
    if replicas == 1:
        return [owner]
    ranked = sorted(
        network.live_nodes(),
        key=lambda node: closeness(network, key_id, node),
    )
    chosen = ranked[:replicas]
    if owner not in chosen:
        chosen[-1] = owner
    return chosen


def _thin(network, fraction, seed, how):
    """Remove ``fraction`` of the nodes by ``fail`` or ``leave``."""
    rng = make_rng(seed)
    live = list(network.live_nodes())
    for node in rng.sample(live, int(len(live) * fraction)):
        getattr(network, how)(node)
    return network


def _lone_cycle():
    ids = [CycloidId(cyclic, 5, 4) for cyclic in (0, 2, 3)]
    return CycloidNetwork.with_ids(ids, 4)


NETWORKS = {
    "cycloid7-complete": lambda: CycloidNetwork.complete(4),
    "cycloid7-sparse": lambda: CycloidNetwork.with_random_ids(90, 6, seed=7),
    "cycloid7-very-sparse": (
        lambda: CycloidNetwork.with_random_ids(12, 8, seed=3)
    ),
    "cycloid7-failed": lambda: _thin(
        CycloidNetwork.with_random_ids(90, 6, seed=8), 0.4, 1, "fail"
    ),
    "cycloid7-left": lambda: _thin(
        CycloidNetwork.with_random_ids(90, 6, seed=9), 0.4, 2, "leave"
    ),
    "cycloid11-complete": (
        lambda: CycloidNetwork.complete(3, leaf_radius=2)
    ),
    "cycloid11-sparse": lambda: CycloidNetwork.with_random_ids(
        40, 5, leaf_radius=2, seed=4
    ),
    "cycloid11-failed": lambda: _thin(
        CycloidNetwork.with_random_ids(60, 5, leaf_radius=2, seed=5),
        0.5, 3, "fail",
    ),
    "cycloid-one-node": lambda: CycloidNetwork.with_random_ids(1, 4, seed=1),
    "cycloid-lone-cycle": _lone_cycle,
    "chord-complete": lambda: ChordNetwork.complete(5),
    "chord-sparse": lambda: ChordNetwork.with_random_ids(60, 8, seed=7),
    "chord-failed": lambda: _thin(
        ChordNetwork.with_random_ids(60, 8, seed=8), 0.4, 4, "fail"
    ),
    "chord-left": lambda: _thin(
        ChordNetwork.with_random_ids(60, 8, seed=9), 0.4, 5, "leave"
    ),
    "chord-one-node": lambda: ChordNetwork.with_random_ids(1, 8, seed=1),
    "koorde-complete": lambda: KoordeNetwork.complete(5),
    "koorde-sparse": lambda: KoordeNetwork.with_random_ids(60, 8, seed=7),
    "koorde-failed": lambda: _thin(
        KoordeNetwork.with_random_ids(60, 8, seed=8), 0.4, 6, "fail"
    ),
    "koorde-left": lambda: _thin(
        KoordeNetwork.with_random_ids(60, 8, seed=9), 0.4, 7, "leave"
    ),
    "viceroy-sparse": lambda: ViceroyNetwork.with_random_ids(60, seed=7),
    "viceroy-failed": lambda: _thin(
        ViceroyNetwork.with_random_ids(60, seed=8), 0.4, 8, "fail"
    ),
    "viceroy-left": lambda: _thin(
        ViceroyNetwork.with_random_ids(60, seed=9), 0.4, 9, "leave"
    ),
    "viceroy-one-node": lambda: ViceroyNetwork.with_random_ids(1, seed=1),
    "pastry-sparse": lambda: PastryNetwork.with_random_ids(
        60, bits=8, seed=7
    ),
    "pastry-failed": lambda: _thin(
        PastryNetwork.with_random_ids(60, bits=8, seed=8), 0.4, 10, "fail"
    ),
    "pastry-left": lambda: _thin(
        PastryNetwork.with_random_ids(60, bits=8, seed=9), 0.4, 11, "leave"
    ),
    "pastry-one-node": lambda: PastryNetwork.with_random_ids(
        1, bits=8, seed=1
    ),
}


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_matches_full_ranking(name):
    network = NETWORKS[name]()
    population = network.size
    for replicas in (1, 2, 3, 5, population + 3):
        for key in KEYS:
            expected = referee_replica_set(network, key, replicas)
            assert replica_set(network, key, replicas) == expected, (
                name, key, replicas,
            )


def test_referee_covers_the_edge_populations():
    """The one-node and lone-cycle cases really are what they claim."""
    assert NETWORKS["cycloid-one-node"]().size == 1
    assert NETWORKS["chord-one-node"]().size == 1
    lone = _lone_cycle()
    assert lone.topology.cycle_count() == 1
    # Every node is in every replica set once replicas >= population.
    assert sorted(n.name for n in replica_set(lone, "k", 9)) == sorted(
        n.name for n in lone.live_nodes()
    )


@settings(deadline=None, max_examples=30)
@given(
    dimension=st.integers(min_value=2, max_value=7),
    fill=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
    leaf_radius=st.sampled_from([1, 2]),
    replicas=st.integers(min_value=2, max_value=6),
)
def test_sparse_cycloid_property(dimension, fill, seed, leaf_radius, replicas):
    space = dimension << dimension
    count = max(1, min(space, int(fill * min(space, 120))))
    network = CycloidNetwork.with_random_ids(
        count, dimension, leaf_radius=leaf_radius, seed=seed
    )
    for key in KEYS[:8]:
        assert replica_set(network, key, replicas) == referee_replica_set(
            network, key, replicas
        )


def test_can_rejects_replication():
    network = CanNetwork.with_random_zones(8, seed=1)
    assert replica_set(network, "k", 1) == [network.owner_of_key("k")]
    with pytest.raises(TypeError):
        replica_set(network, "k", 2)

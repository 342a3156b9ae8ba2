"""Tests for Cycloid routing internals: arc test, route state, handoff."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import CycloidNetwork
from repro.core.network import _RouteState, _in_cubical_arc
from repro.dht.identifiers import CycloidId
from repro.util.rng import make_rng


class TestInCubicalArc:
    def test_plain_arc(self):
        assert _in_cubical_arc(5, 3, 8, 16)
        assert _in_cubical_arc(3, 3, 8, 16)  # closed left
        assert _in_cubical_arc(8, 3, 8, 16)  # closed right
        assert not _in_cubical_arc(9, 3, 8, 16)

    def test_wrapping_arc(self):
        assert _in_cubical_arc(1, 14, 3, 16)
        assert _in_cubical_arc(14, 14, 3, 16)
        assert not _in_cubical_arc(8, 14, 3, 16)

    def test_degenerate_single_point(self):
        assert _in_cubical_arc(4, 4, 4, 16)
        assert not _in_cubical_arc(5, 4, 4, 16)

    @given(
        st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)
    )
    def test_matches_enumeration(self, point, left, right):
        members = {left}
        cursor = left
        while cursor != right:
            cursor = (cursor + 1) % 16
            members.add(cursor)
        if left == right:
            members = {left}
        assert _in_cubical_arc(point, left, right, 16) == (point in members)


class TestRouteState:
    def make_nodes(self):
        network = CycloidNetwork.complete(4)
        return network, network.live_nodes()

    def test_observe_tracks_best(self):
        network, nodes = self.make_nodes()
        key = CycloidId(2, 9, 4)
        state = _RouteState(key)
        for node in nodes[:10]:
            state.observe(node)
        best = min(nodes[:10], key=lambda n: key.distance_to(n.id))
        assert state.best is best

    def test_observe_ignores_dead(self):
        network, nodes = self.make_nodes()
        key = nodes[5].id
        state = _RouteState(key)
        network.fail(nodes[5])
        state.observe(nodes[5])
        assert state.best is None
        state.observe(nodes[6])
        assert state.best is nodes[6]

    def test_visited_and_explored_start_empty(self):
        state = _RouteState(CycloidId(0, 0, 4))
        assert not state.visited
        assert not state.explored_cycles

    def test_closeness_computed_once_per_node_per_route(self, monkeypatch):
        network = CycloidNetwork.with_random_ids(150, 6, seed=8)
        nodes = network.live_nodes()
        calls = Counter()
        packed = CycloidId.packed_distance_to

        def counting(key, other):
            calls[other.linear] += 1
            return packed(key, other)

        monkeypatch.setattr(CycloidId, "packed_distance_to", counting)
        for index in range(40):
            calls.clear()
            record = network.route(nodes[index], network.key_id(index))
            assert record.success
            assert calls and max(calls.values()) == 1


class TestBestObservedHandoff:
    def test_lookup_delivers_to_best_observed(self):
        """The terminating node hands the request to the closest live
        node the message saw (§3.1's termination check)."""
        network = CycloidNetwork.with_random_ids(120, 6, seed=3)
        rng = make_rng(4)
        nodes = network.live_nodes()
        for index in range(200):
            source = nodes[rng.randrange(len(nodes))]
            key = network.key_id(f"handoff-{index}")
            record = network.route(source, key)
            owner = network.owner_of_id(key)
            assert record.owner == owner.name
            # The delivered-to node is the distance-minimal node on the
            # path.
            by_name = {n.name: n for n in nodes}
            distances = [
                key.distance_to(by_name[name].id) for name in record.path
            ]
            assert min(distances) == key.distance_to(owner.id)

    def test_paths_never_revisit_nodes_when_stable(self):
        network = CycloidNetwork.complete(5)
        rng = make_rng(5)
        nodes = network.live_nodes()
        for index in range(300):
            source = nodes[rng.randrange(len(nodes))]
            target = nodes[rng.randrange(len(nodes))]
            record = network.route(source, target.id)
            assert len(record.path) == len(set(record.path)), record.path


class TestHopLimitSafety:
    def test_hop_limit_never_hit_in_stable_networks(self):
        for population, dimension in ((30, 5), (200, 7)):
            network = CycloidNetwork.with_random_ids(
                population, dimension, seed=6
            )
            rng = make_rng(7)
            nodes = network.live_nodes()
            for index in range(200):
                source = nodes[rng.randrange(len(nodes))]
                key = network.key_id(f"limit-{index}")
                record = network.route(source, key)
                assert record.hops < 6 * dimension

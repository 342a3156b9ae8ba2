"""Chord overlay network simulator.

Implements iterative Chord lookups with hop, timeout and query-load
accounting, graceful departures that notify only the immediate ring
neighbours (leaving fingers stale), joins that wire the joiner and its
ring neighbours, and an idealised full-round stabilisation that restores
every pointer from the live membership — the role periodic stabilisation
plays in the paper's §4.4 churn experiment.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.chord.node import ChordNode
from repro.dht.base import Network
from repro.dht.hashing import hash_to_ring
from repro.dht.ring import SortedRing, in_interval
from repro.dht.routing import RoutingDecision
from repro.util.rng import make_rng

__all__ = ["ChordNetwork"]

PHASE_FINGER = "finger"
PHASE_SUCCESSOR = "successor"


class ChordNetwork(Network):
    """A Chord ring over the ``2^bits`` identifier space.

    ``successor_list_size`` defaults to ``bits`` — Chord's design point of
    ``r = Theta(log n)`` backups, which is what lets it resolve every
    lookup under the paper's massive-departure experiment (§4.3) while
    the constant-degree DHTs make do with O(1) backups.
    """

    protocol_name = "chord"
    ROUTING_PHASES = (PHASE_FINGER, PHASE_SUCCESSOR)

    def __init__(
        self,
        bits: int,
        successor_list_size: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        if successor_list_size is None:
            successor_list_size = bits
        if successor_list_size < 1:
            raise ValueError("successor_list_size must be >= 1")
        self.bits = bits
        self.successor_list_size = successor_list_size
        self.ring: SortedRing[ChordNode] = SortedRing(bits)
        self._rng = make_rng(seed)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def with_ids(
        cls,
        node_ids: Iterable[int],
        bits: int,
        successor_list_size: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "ChordNetwork":
        """Build a stabilised network containing exactly ``node_ids``."""
        network = cls(bits, successor_list_size, seed)
        for node_id in node_ids:
            network._insert(ChordNode(f"n{node_id}", node_id, bits))
        network.stabilize()
        return network

    @classmethod
    def with_random_ids(
        cls,
        count: int,
        bits: int,
        successor_list_size: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "ChordNetwork":
        """Build a stabilised network of ``count`` distinct random ids."""
        space = 1 << bits
        if count > space:
            raise ValueError(f"{count} nodes exceed the 2^{bits} ID space")
        rng = make_rng(seed)
        ids = rng.sample(range(space), count)
        return cls.with_ids(ids, bits, successor_list_size, seed)

    @classmethod
    def complete(
        cls,
        bits: int,
        successor_list_size: Optional[int] = None,
    ) -> "ChordNetwork":
        """Every identifier occupied — the paper's dense configuration."""
        return cls.with_ids(range(1 << bits), bits, successor_list_size)

    def _insert(self, node: ChordNode) -> None:
        self.ring.add(node.id, node)

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------

    def live_nodes(self) -> Sequence[ChordNode]:
        return self.ring.nodes()

    @property
    def size(self) -> int:
        return len(self.ring)

    def key_id(self, key: object) -> int:
        return hash_to_ring(key, self.bits)

    def owner_of_id(self, key_id: int) -> ChordNode:
        """Ground truth: the key's live successor."""
        return self.ring.successor(key_id)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def next_hop(
        self, current: ChordNode, key_id: int, state: object
    ) -> RoutingDecision:
        if current.id == key_id or self._believes_responsible(
            current, key_id
        ):
            return RoutingDecision.terminate()
        node, phase, timeouts, final, alternates = self._choose_next(
            current, key_id
        )
        if node is None:
            # No live pointer toward the key: the lookup dies here.
            return RoutingDecision.dead_end(timeouts)
        if node is current:
            return RoutingDecision.terminate(timeouts)
        if final:
            # Delivered to the key's believed successor.
            return RoutingDecision.deliver(node, phase, timeouts, alternates)
        return RoutingDecision.forward(node, phase, timeouts, alternates)

    def _believes_responsible(self, node: ChordNode, key_id: int) -> bool:
        """True when the node's local state says it stores the key
        (key in (predecessor, node])."""
        predecessor = node.predecessor
        if predecessor is None:
            return not node.successors  # singleton owns everything
        return in_interval(key_id, predecessor.id, node.id, self.ring.modulus)

    def _choose_next(self, current: ChordNode, key_id: int):
        """One Chord routing decision at ``current``.

        Returns ``(next_node_or_None, phase, timeouts, final,
        alternates)``.  Dead entries the node attempts to contact each
        cost one timeout (§4.3).  ``final`` is set on the delivery step
        — the key fell in ``(current, successor]`` so the successor is
        responsible.

        In fault mode the preference order comes back unfiltered: the
        believed successor (backup list as alternates) on the delivery
        step, otherwise the best preceding pointer with the lower-ranked
        pointers and then the successor list as alternates, leaving
        dead-node detection to the engine's probe loop.
        """
        timeouts = 0
        dead_seen: Set[int] = set()
        fault_mode = self.fault_detection

        if not current.successors:
            # Singleton ring: current believes it owns the whole space.
            return current, PHASE_SUCCESSOR, 0, True, ()

        # Final-step rule: the node believes successors[0] is its
        # successor; if the key falls in (current, successors[0]] it
        # forwards there, walking the backup list on timeouts.
        believed = current.successors[0]
        if in_interval(key_id, current.id, believed.id, self.ring.modulus):
            if fault_mode:
                alternates = tuple(
                    (backup, PHASE_SUCCESSOR)
                    for backup in current.successors[1:5]
                )
                return believed, PHASE_SUCCESSOR, 0, True, alternates
            for candidate in current.successors:
                if candidate.alive:
                    return candidate, PHASE_SUCCESSOR, timeouts, True, ()
                if candidate.id not in dead_seen:
                    dead_seen.add(candidate.id)
                    timeouts += 1
            return None, PHASE_SUCCESSOR, timeouts, False, ()

        # Otherwise try the closest preceding pointers best-first; only
        # pointers actually contacted can incur a timeout.
        candidates = []
        for candidate, phase in self._pointer_candidates(current):
            if candidate.id == current.id:
                continue
            if not in_interval(
                candidate.id, current.id, key_id, self.ring.modulus
            ):
                continue  # would overshoot the key
            distance = (candidate.id - current.id) % self.ring.modulus
            candidates.append((distance, candidate, phase))
        candidates.sort(key=lambda item: item[0], reverse=True)
        if fault_mode:
            ordered = [(c, phase) for _, c, phase in candidates]
            offered = {c.id for c, _ in ordered}
            # The successor list is the last resort (the fault-free
            # cascade's live-successor delivery): append any entries the
            # preceding-pointer ranking did not already offer.
            for backup in current.successors:
                if backup.id != current.id and backup.id not in offered:
                    offered.add(backup.id)
                    ordered.append((backup, PHASE_SUCCESSOR))
            if not ordered:
                return None, PHASE_SUCCESSOR, 0, False, ()
            primary, phase = ordered[0]
            return primary, phase, 0, False, tuple(ordered[1:5])
        for _, candidate, phase in candidates:
            if candidate.alive:
                return candidate, phase, timeouts, False, ()
            if candidate.id not in dead_seen:
                dead_seen.add(candidate.id)
                timeouts += 1
        # Every pointer strictly preceding the key is dead.  The first
        # live successor must then cover the key (all list entries before
        # it were tried above), so this is a delivery step.
        live_successor = next(
            (s for s in current.successors if s.alive), None
        )
        if live_successor is None:
            return None, PHASE_SUCCESSOR, timeouts, False, ()
        return live_successor, PHASE_SUCCESSOR, timeouts, True, ()

    @staticmethod
    def _pointer_candidates(node: ChordNode):
        for finger in node.fingers:
            if finger is not None:
                yield finger, PHASE_FINGER
        for successor in node.successors:
            yield successor, PHASE_SUCCESSOR

    # ------------------------------------------------------------------
    # membership changes
    # ------------------------------------------------------------------

    def join(self, name: object) -> ChordNode:
        """Join via consistent hashing; wires the joiner and its neighbours.

        The joiner's own pointers are initialised correctly (in the real
        protocol it learns them by routing through any contact node) and
        its immediate ring neighbours are notified; everyone else's
        fingers stay stale until stabilisation, per the paper's model.
        """
        node_id = self._free_id_for(name)
        self.invalidate_owner_cache()
        node = ChordNode(name, node_id, self.bits)
        had_peers = len(self.ring) > 0
        self._insert(node)
        if had_peers:
            self._wire(node)
            successor = node.successor
            if successor is not None:
                successor.predecessor = node
                self.maintenance_updates += 1
            predecessor = node.predecessor
            if predecessor is not None:
                predecessor.successors = self._successor_list(predecessor)
                self.maintenance_updates += 1
        else:
            self._wire(node)
        return node

    def _free_id_for(self, name: object) -> int:
        """Hash ``name``; linear-probe past ids already in use."""
        node_id = hash_to_ring(name, self.bits)
        space = 1 << self.bits
        if len(self.ring) >= space:
            raise RuntimeError("identifier space exhausted")
        while node_id in self.ring:
            node_id = (node_id + 1) % space
        return node_id

    def leave(self, node: ChordNode) -> None:
        """Graceful departure: notify predecessor and successor only."""
        if not node.alive:
            raise ValueError(f"{node!r} already departed")
        self.invalidate_owner_cache()
        node.alive = False
        self.ring.remove(node.id)
        predecessor = node.predecessor
        # Notify the first *live* successor (the departing node walks its
        # backup list exactly as a lookup would).
        successor = next((s for s in node.successors if s.alive), None)
        if successor is not None and successor.predecessor is node:
            successor.predecessor = (
                predecessor
                if predecessor is not None and predecessor.alive
                else None
            )
            self.maintenance_updates += 1
        if predecessor is not None and predecessor.alive:
            # Splice the departed node out of the predecessor's list and
            # extend it with the departed node's knowledge.
            merged = [s for s in predecessor.successors if s is not node]
            for candidate in node.successors:
                if candidate is not predecessor and candidate not in merged:
                    merged.append(candidate)
            predecessor.successors = merged[: self.successor_list_size]
            self.maintenance_updates += 1

    def fail(self, node: ChordNode) -> None:
        """Silent failure: no ring splicing — successor lists and
        predecessor pointers stay stale until stabilisation."""
        if not node.alive:
            raise ValueError(f"{node!r} already departed")
        self.invalidate_owner_cache()
        node.alive = False
        self.ring.remove(node.id)

    def on_dead_entry(self, observer: ChordNode, dead: ChordNode) -> int:
        """Lazy repair after a timeout on ``dead``: splice it out of the
        successor list, clear a stale predecessor pointer, and re-point
        any finger at it to its interval's current live successor — the
        walk-down repair Chord performs when a finger probe fails."""
        repaired = 0
        if any(s is dead for s in observer.successors):
            observer.successors = [
                s for s in observer.successors if s is not dead
            ]
            repaired += 1
        if observer.predecessor is dead:
            observer.predecessor = None
            repaired += 1
        if dead in observer.fingers:
            space = 1 << self.bits
            fingers = list(observer.fingers)  # rebound, never written into
            for index, finger in enumerate(fingers):
                if finger is dead:
                    fingers[index] = self.ring.successor(
                        (observer.id + (1 << index)) % space
                    )
                    repaired += 1
            observer.fingers = fingers
        return repaired

    def stabilize(self) -> None:
        """Restore every live node's pointers from the live membership."""
        for node in self.ring.nodes():
            self._wire(node)

    def stabilize_node(self, node: ChordNode) -> None:
        """One node's stabilisation: refresh successors and fingers."""
        if node.alive:
            self._wire(node)

    def _wire(self, node: ChordNode) -> None:
        node.successors = self._successor_list(node)
        node.predecessor = (
            self.ring.predecessor(node.id) if len(self.ring) > 1 else None
        )
        space = 1 << self.bits
        node.fingers = [
            self.ring.successor((node.id + (1 << i)) % space)
            for i in range(self.bits)
        ]

    def _successor_list(self, node: ChordNode) -> List[ChordNode]:
        return self.ring.successor_run(node.id, self.successor_list_size)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        super().check_invariants()
        nodes = self.ring.nodes()
        for node in nodes:
            if len(nodes) == 1:
                assert node.successors == [], "singleton must have no successors"
                continue
            assert node.successors, f"{node!r} has an empty successor list"
            expected = self.ring.successor_id((node.id + 1) % self.ring.modulus)
            assert node.successor is not None
            assert node.successor.id == expected, (
                f"{node!r} successor {node.successor.id}, expected {expected}"
            )

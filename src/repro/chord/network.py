"""Chord overlay network simulator.

Implements iterative Chord lookups with hop, timeout and query-load
accounting, graceful departures that notify only the immediate ring
neighbours (leaving fingers stale), joins that wire the joiner and its
ring neighbours, and an idealised full-round stabilisation that restores
every pointer from the live membership — the role periodic stabilisation
plays in the paper's §4.4 churn experiment.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.chord.node import ChordNode
from repro.dht.ring import in_interval
from repro.dht.ring_overlay import SuccessorRingNetwork
from repro.dht.routing import RoutingDecision

__all__ = ["ChordNetwork"]

PHASE_FINGER = "finger"
PHASE_SUCCESSOR = "successor"


class ChordNetwork(SuccessorRingNetwork):
    """A Chord ring over the ``2^bits`` identifier space.

    ``successor_list_size`` defaults to ``bits`` — Chord's design point of
    ``r = Theta(log n)`` backups, which is what lets it resolve every
    lookup under the paper's massive-departure experiment (§4.3) while
    the constant-degree DHTs make do with O(1) backups.
    """

    protocol_name = "chord"
    ROUTING_PHASES = (PHASE_FINGER, PHASE_SUCCESSOR)
    node_class = ChordNode

    def __init__(
        self,
        bits: int,
        successor_list_size: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        if successor_list_size is None:
            successor_list_size = bits
        if successor_list_size < 1:
            raise ValueError("successor_list_size must be >= 1")
        super().__init__(bits, seed, successor_list_size=successor_list_size)

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
        return cls(bits, successor_list_size, seed)._populate(node_ids)

    @classmethod
    def with_random_ids(
        cls,
        count: int,
        bits: int,
        successor_list_size: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "ChordNetwork":
        """Build a stabilised network of ``count`` distinct random ids."""
        ids = cls._sample_ids(count, bits, seed)
        return cls.with_ids(ids, bits, successor_list_size, seed)

    @classmethod
    def complete(
        cls,
        bits: int,
        successor_list_size: Optional[int] = None,
    ) -> "ChordNetwork":
        """Every identifier occupied — the paper's dense configuration."""
        return cls.with_ids(range(1 << bits), bits, successor_list_size)

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
    # fingers (the ring itself is SuccessorRingNetwork's)
    # ------------------------------------------------------------------

    def _repair_long_links(self, observer: ChordNode, dead: ChordNode) -> int:
        """Re-point any finger at ``dead`` to its interval's current
        live successor — the walk-down repair Chord performs when a
        finger probe fails."""
        if dead not in observer.fingers:
            return 0
        repaired = 0
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

    def _wire_long_links(self, node: ChordNode) -> None:
        space = 1 << self.bits
        node.fingers = [
            self.ring.successor((node.id + (1 << i)) % space)
            for i in range(self.bits)
        ]

"""Ring overlays: one sorted ring of hashed integer ids as the membership.

:class:`RingNetwork` is what every overlay on the ``2^bits`` identifier
ring shares (Chord, Koorde, Pastry): the live population is one
:class:`~repro.dht.ring.SortedRing`, keys and joiners hash with
:func:`~repro.dht.hashing.hash_to_ring` (a joiner probes past taken
ids), a departure unlinks from the ring, and stabilisation re-wires
nodes from it.

:class:`SuccessorRingNetwork` is the Chord ring itself, the base Koorde
lays its de Bruijn graph over: a successor list and a predecessor per
node, keys stored at their successor, joins that notify both ring
neighbours, the graceful-leave splice, and the ring half of lazy
repair.  A subclass adds only its routing and its long-range pointers
(Chord's fingers, Koorde's de Bruijn chain), through
:meth:`~SuccessorRingNetwork._wire_long_links` and
:meth:`~SuccessorRingNetwork._repair_long_links`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.dht.base import Network, Node
from repro.dht.hashing import hash_to_ring
from repro.dht.ring import SortedRing
from repro.util.rng import make_rng

__all__ = ["RingNode", "RingNetwork", "SuccessorRingNetwork"]


class RingNode(Node):
    """A node at an integer id of the ``2^bits`` ring.

    Subclasses declare the ``successors`` and ``predecessor`` slots with
    the rest of their routing state: a node's own ``__slots__`` are what
    :meth:`~repro.sim.faults.FaultInjector.roll_back` restores.
    """

    __slots__ = ("id", "bits")

    def __init__(self, name: object, node_id: int, bits: int) -> None:
        super().__init__(name)
        if not 0 <= node_id < (1 << bits):
            raise ValueError(f"id {node_id} outside [0, 2^{bits})")
        self.id = node_id
        self.bits = bits

    @property
    def node_id(self) -> int:
        return self.id

    @property
    def successor(self) -> Optional["RingNode"]:
        return self.successors[0] if self.successors else None

    @property
    def degree(self) -> int:
        unique = {s.id for s in self.successors}
        unique.update(n.id for n in self.long_links() if n is not None)
        if self.predecessor is not None:
            unique.add(self.predecessor.id)
        unique.discard(self.id)
        return len(unique)

    def long_links(self) -> List[Optional["RingNode"]]:
        """The overlay's pointers beyond the ring (fingers, de Bruijn
        chain); ``None`` marks an unset entry."""
        raise NotImplementedError


class RingNetwork(Network):
    """Membership as one :class:`SortedRing` over ``2^bits`` hashed ids.

    Subclasses build their nodes in :meth:`_new_node` (by default
    ``node_class(name, node_id, bits)``) and rebuild one node's routing
    state from the live ring in :meth:`_wire`.
    """

    node_class: type

    def __init__(self, bits: int, seed: Optional[int], **params) -> None:
        super().__init__()
        self.bits = bits
        # Overlay parameters sit between ``bits`` and ``ring`` in the
        # attribute order, which the packed snapshot format records.
        for name, value in params.items():
            setattr(self, name, value)
        self.ring = SortedRing(bits)
        self._rng = make_rng(seed)

    @staticmethod
    def _sample_ids(count: int, bits: int, seed: Optional[int]) -> List[int]:
        """``count`` distinct random ids of the ``2^bits`` ring."""
        space = 1 << bits
        if count > space:
            raise ValueError(f"{count} nodes exceed the 2^{bits} ID space")
        return make_rng(seed).sample(range(space), count)

    def _populate(self, node_ids: Iterable[int]) -> "RingNetwork":
        """Insert a node ``n<id>`` per id, then stabilise (the
        ``with_ids`` builders)."""
        for node_id in node_ids:
            self._place(f"n{node_id}", node_id)
        self.stabilize()
        return self

    def live_nodes(self) -> Sequence[Node]:
        return self.ring.nodes()

    @property
    def size(self) -> int:
        return len(self.ring)

    def key_id(self, key: object) -> int:
        return hash_to_ring(key, self.bits)

    def _free_id_for(self, name: object) -> int:
        """Hash ``name``; linear-probe past ids already in use."""
        node_id = hash_to_ring(name, self.bits)
        space = 1 << self.bits
        if len(self.ring) >= space:
            raise RuntimeError("identifier space exhausted")
        while node_id in self.ring:
            node_id = (node_id + 1) % space
        return node_id

    def _new_node(self, name: object, node_id: int) -> Node:
        return self.node_class(name, node_id, self.bits)

    def _place(self, name: object, node_id: int) -> Node:
        node = self._new_node(name, node_id)
        self.ring.add(node_id, node)
        return node

    def _unlink(self, node: Node) -> None:
        self.ring.remove(node.id)

    def stabilize(self) -> None:
        """Restore every live node's pointers from the live membership."""
        for node in self.ring.nodes():
            self._wire(node)

    def stabilize_node(self, node: Node) -> None:
        """One node's stabilisation: re-wire it from the live ring."""
        if node.alive:
            self._wire(node)

    def _wire(self, node: Node) -> None:
        raise NotImplementedError


class SuccessorRingNetwork(RingNetwork):
    """Chord's ring: successor lists of ``successor_list_size`` backups,
    predecessors, and keys stored at their live successor.

    Joins wire the joiner and notify its two ring neighbours; graceful
    leaves notify the predecessor and the first live successor.  Every
    other pointer at a changed node (fingers, de Bruijn pointers) stays
    stale until stabilisation, per the paper's model.
    """

    successor_list_size: int

    def owner_of_id(self, key_id: int) -> RingNode:
        """Ground truth: the key's live successor."""
        return self.ring.successor(key_id)

    def _admit(self, name: object) -> RingNode:
        """Join via consistent hashing.  The joiner's own pointers are
        initialised correctly (in the real protocol it learns them by
        routing through any contact node)."""
        node = self._place(name, self._free_id_for(name))
        self._wire(node)
        if len(self.ring) > 1:
            node.successor.predecessor = node
            predecessor = node.predecessor
            predecessor.successors = self._successor_list(predecessor)
            self.maintenance_updates += 2
        return node

    def _notify_leave(self, node: RingNode) -> None:
        """Notify the predecessor and the first *live* successor (the
        leaver walks its backup list exactly as a lookup would)."""
        predecessor = node.predecessor
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

    def on_dead_entry(self, observer: RingNode, dead: RingNode) -> int:
        """Lazy repair after a timeout on ``dead``: splice it out of the
        successor list, clear a stale predecessor pointer, then let the
        overlay repair its long-range pointers."""
        repaired = 0
        if any(s is dead for s in observer.successors):
            observer.successors = [
                s for s in observer.successors if s is not dead
            ]
            repaired += 1
        if observer.predecessor is dead:
            observer.predecessor = None
            repaired += 1
        return repaired + self._repair_long_links(observer, dead)

    def _wire(self, node: RingNode) -> None:
        node.successors = self._successor_list(node)
        node.predecessor = (
            self.ring.predecessor(node.id) if len(self.ring) > 1 else None
        )
        self._wire_long_links(node)

    def _successor_list(self, node: RingNode) -> List[RingNode]:
        return self.ring.successor_run(node.id, self.successor_list_size)

    def _wire_long_links(self, node: RingNode) -> None:
        """Rebuild the overlay's long-range pointers from the live ring."""
        raise NotImplementedError

    def _repair_long_links(self, observer: RingNode, dead: RingNode) -> int:
        """Evict or replace ``dead`` among the long-range pointers
        (rebinding slots, never writing into them); returns the count."""
        raise NotImplementedError

    def check_invariants(self) -> None:
        super().check_invariants()
        nodes = self.ring.nodes()
        for node in nodes:
            if len(nodes) == 1:
                assert node.successors == [], "singleton must have no successors"
                continue
            assert node.successors, f"{node!r} has an empty successor list"
            expected = self.ring.successor_id((node.id + 1) % self.ring.modulus)
            assert node.successor.id == expected, (
                f"{node!r} successor {node.successor.id}, expected {expected}"
            )

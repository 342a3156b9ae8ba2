"""Koorde overlay network simulator.

Routing follows Kaashoek & Karger's imaginary-node walk: the current
node ``m`` maintains the invariant that it is the immediate real
predecessor of the imaginary de Bruijn node ``i``.  While the invariant
holds it takes a *de Bruijn hop* to ``pred(2m)``, shifting the next bit
of the key into ``i``; otherwise it takes *successor hops* until the
invariant is re-established.  The per-hop classification
(``de_bruijn`` vs ``successor``) is exactly what the paper's Figs 7(c)
and 14 break down.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.dht.ring import in_interval
from repro.dht.ring_overlay import SuccessorRingNetwork
from repro.dht.routing import RoutingDecision
from repro.koorde.node import KoordeNode

__all__ = ["KoordeNetwork"]

PHASE_DEBRUIJN = "de_bruijn"
PHASE_SUCCESSOR = "successor"

#: Paper §4: three successors and three de Bruijn backups -> 7 neighbours.
SUCCESSOR_LIST_SIZE = 3
DEBRUIJN_BACKUPS = 3


class _ImaginaryWalk:
    """Per-lookup state of Kaashoek & Karger's imaginary-node walk."""

    __slots__ = ("imaginary", "kshift", "bits_left")

    def __init__(self, imaginary: int, kshift: int, bits_left: int) -> None:
        self.imaginary = imaginary
        self.kshift = kshift
        self.bits_left = bits_left


class KoordeNetwork(SuccessorRingNetwork):
    """A Koorde ring over the ``2^bits`` identifier space."""

    protocol_name = "koorde"
    ROUTING_PHASES = (PHASE_DEBRUIJN, PHASE_SUCCESSOR)
    node_class = KoordeNode
    successor_list_size = SUCCESSOR_LIST_SIZE

    def __init__(self, bits: int, seed: Optional[int] = None) -> None:
        super().__init__(bits, seed)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def with_ids(
        cls, node_ids: Iterable[int], bits: int, seed: Optional[int] = None
    ) -> "KoordeNetwork":
        return cls(bits, seed)._populate(node_ids)

    @classmethod
    def with_random_ids(
        cls, count: int, bits: int, seed: Optional[int] = None
    ) -> "KoordeNetwork":
        return cls.with_ids(cls._sample_ids(count, bits, seed), bits, seed)

    @classmethod
    def complete(cls, bits: int) -> "KoordeNetwork":
        return cls.with_ids(range(1 << bits), bits)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def begin_route(
        self, source: KoordeNode, key_id: int
    ) -> _ImaginaryWalk:
        # Imaginary de Bruijn node: starts at the source itself, so the
        # host invariant i in [current, successor) holds immediately; all
        # `bits` bits of the key are then shifted in, after which
        # i == key_id.
        return _ImaginaryWalk(source.id, key_id, self.bits)

    def pack_route_state(self, state: _ImaginaryWalk) -> object:
        """Wire form of the imaginary-node walk (repro.net, DESIGN S22)."""
        return {
            "imaginary": state.imaginary,
            "kshift": state.kshift,
            "bits_left": state.bits_left,
        }

    def unpack_route_state(self, blob: object, key_id: int) -> _ImaginaryWalk:
        return _ImaginaryWalk(
            blob["imaginary"], blob["kshift"], blob["bits_left"]
        )

    def next_hop(
        self, current: KoordeNode, key_id: int, walk: _ImaginaryWalk
    ) -> RoutingDecision:
        modulus = self.ring.modulus
        if current.id == key_id:
            return RoutingDecision.terminate()
        if not current.successors:
            return RoutingDecision.terminate()  # singleton owns everything
        predecessor = current.predecessor
        if predecessor is not None and in_interval(
            key_id, predecessor.id, current.id, modulus
        ):
            # current's local state says it stores the key
            return RoutingDecision.terminate()
        believed = current.successors[0]
        fault_mode = self.fault_detection

        if in_interval(key_id, current.id, believed.id, modulus):
            # Delivery step: forward to the believed successor,
            # walking the backup list on timeouts.
            if fault_mode:
                return RoutingDecision.deliver(
                    believed,
                    PHASE_SUCCESSOR,
                    alternates=self._backup_alternates(
                        current.successors[1:], current, PHASE_SUCCESSOR
                    ),
                )
            node, timeouts = self._first_live(current.successors)
            if node is None:
                return RoutingDecision.dead_end(timeouts)
            return RoutingDecision.deliver(node, PHASE_SUCCESSOR, timeouts)

        # Host invariant: imaginary in [current, successor).
        hosts_imaginary = (
            (walk.imaginary - current.id) % modulus
            < (believed.id - current.id) % modulus
        )
        if walk.bits_left > 0 and hosts_imaginary:
            # Invariant holds: de Bruijn hop, shift in the next bit.
            # The walk state is consumed *before* the message leaves, so
            # in fault mode the engine must resolve this decision's
            # candidates without re-asking (it never re-asks; probe
            # exhaustion fails the lookup).
            chain = current.debruijn_chain()
            if fault_mode:
                node, timeouts = chain[0], 0
            else:
                node, timeouts = self._first_live(chain)
                if node is None:
                    # De Bruijn pointer and every backup dead: the lookup
                    # fails (paper §4.3).
                    return RoutingDecision.dead_end(timeouts)
            top_bit = (walk.kshift >> (self.bits - 1)) & 1
            walk.imaginary = ((walk.imaginary << 1) | top_bit) % modulus
            walk.kshift = (walk.kshift << 1) % modulus
            walk.bits_left -= 1
            if node is current:
                # A de Bruijn pointer can be the node itself (e.g.
                # node 0 in a dense ring); shifting then costs no
                # message.
                return RoutingDecision.advance(timeouts)
            if fault_mode:
                return RoutingDecision.forward(
                    node,
                    PHASE_DEBRUIJN,
                    alternates=self._backup_alternates(
                        chain[1:], current, PHASE_DEBRUIJN
                    ),
                )
            return RoutingDecision.forward(node, PHASE_DEBRUIJN, timeouts)

        # Correction step: walk successors toward pred(imaginary)
        # (or toward the key once all bits are consumed).
        if fault_mode:
            return RoutingDecision.forward(
                believed,
                PHASE_SUCCESSOR,
                alternates=self._backup_alternates(
                    current.successors[1:], current, PHASE_SUCCESSOR
                ),
            )
        node, timeouts = self._first_live(current.successors)
        if node is None:
            return RoutingDecision.dead_end(timeouts)
        return RoutingDecision.forward(node, PHASE_SUCCESSOR, timeouts)

    @staticmethod
    def _backup_alternates(
        backups: List[KoordeNode], current: KoordeNode, phase: str
    ) -> Tuple[Tuple[KoordeNode, str], ...]:
        """Fault-mode alternates: the backup chain, unfiltered, minus
        the current node (hopping to oneself is never a fallback)."""
        return tuple(
            (backup, phase) for backup in backups[:4] if backup is not current
        )

    @staticmethod
    def _first_live(
        chain: List[KoordeNode],
    ) -> Tuple[Optional[KoordeNode], int]:
        """First live node in ``chain``; one timeout per dead node tried."""
        timeouts = 0
        seen: Set[int] = set()
        for candidate in chain:
            if candidate.alive:
                return candidate, timeouts
            if candidate.id not in seen:
                seen.add(candidate.id)
                timeouts += 1
        return None, timeouts

    # ------------------------------------------------------------------
    # de Bruijn chain (the ring itself is SuccessorRingNetwork's)
    # ------------------------------------------------------------------
    #
    # Nodes holding a leaver as their de Bruijn pointer or backup are
    # *not* notified (they have no incoming-pointer knowledge); those
    # entries stay stale until stabilisation — the root cause of the
    # lookup failures the paper reports for p >= 0.3.

    def _repair_long_links(
        self, observer: KoordeNode, dead: KoordeNode
    ) -> int:
        """Re-derive the de Bruijn pointer with its backups when the
        chain held the corpse (the targeted version of what
        :meth:`stabilize_node` does on its 30 s timer, §4.4)."""
        if observer.debruijn is dead or any(
            backup is dead for backup in observer.debruijn_backups
        ):
            self._wire_long_links(observer)
            return 1
        return 0

    def _wire_long_links(self, node: KoordeNode) -> None:
        if len(self.ring) > 1:
            # "The first de Bruijn node of a node with ID m is the node
            # that immediately precedes 2m" — at-or-before, so that in a
            # complete network the pointer is node 2m itself (the paper
            # notes all de Bruijn pointers are even in a dense network).
            debruijn = self.ring.at_or_before((2 * node.id) % self.ring.modulus)
            node.debruijn = debruijn
            backups: List[KoordeNode] = []
            point = debruijn.id
            for _ in range(min(DEBRUIJN_BACKUPS, len(self.ring) - 1)):
                backup = self.ring.predecessor(point)
                backups.append(backup)
                point = backup.id
            node.debruijn_backups = backups
        else:
            node.debruijn = node
            node.debruijn_backups = []

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        super().check_invariants()
        if len(self.ring) == 1:
            return
        for node in self.ring.nodes():
            assert node.debruijn is not None
            expected = self.ring.at_or_before_id((2 * node.id) % self.ring.modulus)
            assert node.debruijn.id == expected, (
                f"{node!r} de Bruijn {node.debruijn.id}, expected {expected}"
            )

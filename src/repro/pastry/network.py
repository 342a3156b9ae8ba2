"""Pastry overlay network simulator.

Routing follows §2.1's description: correct one digit at a time in
left-to-right order via the prefix routing table; once the key falls
within leaf-set range, deliver to the numerically closest node.  When
the required table cell is void or dead, fall back to any known node
that shares at least as long a prefix and is numerically closer — the
"rare case" rule of the Pastry paper.

Key placement: the numerically closest node (ties clockwise), the rule
Cycloid §3.1 inherits.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Set, Tuple

from repro.dht.ring import in_interval
from repro.dht.ring_overlay import RingNetwork
from repro.dht.routing import RoutingDecision
from repro.pastry.node import PastryNode
from repro.util.bitops import circular_distance, clockwise_distance

__all__ = ["PastryNetwork"]

PHASE_PREFIX = "prefix"
PHASE_LEAF = "leaf"

DEFAULT_BITS = 16
DEFAULT_DIGIT_BITS = 2
DEFAULT_LEAF_SET = 8  # |L|: half smaller, half larger


class PastryNetwork(RingNetwork):
    """A Pastry overlay on a ``2^bits`` ring of base-``2^digit_bits``
    digit strings."""

    protocol_name = "pastry"
    ROUTING_PHASES = (PHASE_PREFIX, PHASE_LEAF)

    def __init__(
        self,
        bits: int = DEFAULT_BITS,
        digit_bits: int = DEFAULT_DIGIT_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET,
        seed: Optional[int] = None,
    ) -> None:
        if bits % digit_bits != 0:
            raise ValueError("bits must be a multiple of digit_bits")
        if leaf_set_size < 2 or leaf_set_size % 2 != 0:
            raise ValueError("leaf_set_size must be even and >= 2")
        super().__init__(
            bits, seed, digit_bits=digit_bits, leaf_set_size=leaf_set_size
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def with_ids(
        cls,
        node_ids: Iterable[int],
        bits: int = DEFAULT_BITS,
        digit_bits: int = DEFAULT_DIGIT_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET,
        seed: Optional[int] = None,
    ) -> "PastryNetwork":
        network = cls(bits, digit_bits, leaf_set_size, seed)
        return network._populate(node_ids)

    @classmethod
    def with_random_ids(
        cls,
        count: int,
        bits: int = DEFAULT_BITS,
        digit_bits: int = DEFAULT_DIGIT_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET,
        seed: Optional[int] = None,
    ) -> "PastryNetwork":
        return cls.with_ids(
            cls._sample_ids(count, bits, seed), bits, digit_bits,
            leaf_set_size, seed,
        )

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------

    def owner_of_id(self, key_id: int) -> PastryNode:
        """The numerically closest live node (ties clockwise)."""
        successor = self.ring.successor(key_id)
        predecessor = self.ring.at_or_before(key_id)
        return min(
            (successor, predecessor),
            key=lambda node: self._distance(key_id, node.id),
        )

    def _distance(self, key_id: int, node_id: int) -> Tuple[int, int]:
        modulus = self.ring.modulus
        return (
            circular_distance(node_id, key_id, modulus),
            0
            if clockwise_distance(key_id, node_id, modulus)
            <= modulus // 2
            else 1,
        )

    # ------------------------------------------------------------------
    # digits
    # ------------------------------------------------------------------

    def shared_prefix_digits(self, a: int, b: int) -> int:
        """Number of leading base-``2^digit_bits`` digits ``a``/``b`` share."""
        rows = self.bits // self.digit_bits
        for position in range(rows):
            shift = self.bits - (position + 1) * self.digit_bits
            if (a >> shift) != (b >> shift):
                return position
        return rows

    def digit_of(self, value: int, position: int) -> int:
        shift = self.bits - (position + 1) * self.digit_bits
        return (value >> shift) & ((1 << self.digit_bits) - 1)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def begin_route(self, source: PastryNode, key_id: int) -> Set[int]:
        return set()  # ids the message has passed through

    def pack_route_state(self, state: Set[int]) -> object:
        """Wire form of the visited-id set (repro.net, DESIGN S22);
        sorted only to keep frames canonical, routing tests membership."""
        return {"visited": sorted(state)}

    def unpack_route_state(self, blob: object, key_id: int) -> Set[int]:
        return set(blob["visited"])

    def next_hop(
        self, current: PastryNode, key_id: int, visited: Set[int]
    ) -> RoutingDecision:
        if current.id == key_id:
            return RoutingDecision.terminate()
        visited.add(current.id)
        node, phase, timeouts, alternates = self._choose_next(
            current, key_id, visited
        )
        if node is None:
            # current believes it is numerically closest
            return RoutingDecision.terminate(timeouts)
        return RoutingDecision.forward(node, phase, timeouts, alternates)

    def _choose_next(
        self, current: PastryNode, key_id: int, visited: Set[int]
    ) -> Tuple[
        Optional[PastryNode], str, int, Tuple[Tuple[PastryNode, str], ...]
    ]:
        """One Pastry decision: ``(node, phase, timeouts, alternates)``.

        In fault mode (``self.fault_detection``) the cascade collects
        its whole preference order unfiltered — leaf/prefix choice
        first, the rare-case fallbacks after — and the engine's probe
        loop performs the dead-node detection ``try_chain`` does here
        otherwise.
        """
        fault_mode = self.fault_detection
        collected: List[Tuple[PastryNode, str]] = []
        offered: Set[int] = set()
        timeouts = 0
        dead_tried: Set[int] = set()

        def try_chain(
            candidates: Iterable[PastryNode], phase: str
        ) -> Optional[Tuple[PastryNode, str]]:
            nonlocal timeouts
            if fault_mode:
                for candidate in candidates:
                    if candidate is current or candidate.id in visited:
                        continue
                    if candidate.id in offered:
                        continue
                    offered.add(candidate.id)
                    collected.append((candidate, phase))
                return None
            for candidate in candidates:
                if candidate is current or candidate.id in visited:
                    continue
                if not candidate.alive:
                    if candidate.id not in dead_tried:
                        dead_tried.add(candidate.id)
                        timeouts += 1
                    continue
                return candidate, phase
            return None

        def resolved() -> Tuple[
            Optional[PastryNode], str, int, Tuple[Tuple[PastryNode, str], ...]
        ]:
            if collected:
                primary, phase = collected[0]
                return primary, phase, timeouts, tuple(collected[1:5])
            return None, PHASE_LEAF, timeouts, ()

        current_distance = self._distance(key_id, current.id)
        leaves = current.leaf_entries()

        # Leaf-set range check: the key lies within the arc the leaf set
        # covers, so deliver to the numerically closest leaf.
        if self._within_leaf_range(current, key_id):
            closer = [
                leaf
                for leaf in leaves
                if self._distance(key_id, leaf.id) < current_distance
            ]
            closer.sort(key=lambda n: self._distance(key_id, n.id))
            found = try_chain(closer, PHASE_LEAF)
            if found is not None:
                return found[0], found[1], timeouts, ()
            return resolved()

        # Prefix routing: fix the next digit.
        shared = self.shared_prefix_digits(current.id, key_id)
        if shared < current.rows:
            wanted = self.digit_of(key_id, shared)
            entry = current.routing_rows[shared][wanted]
            if entry is not None:
                found = try_chain([entry], PHASE_PREFIX)
                if found is not None:
                    return found[0], found[1], timeouts, ()

        # Rare case: any known node with at least as long a prefix and
        # numerically closer to the key.
        fallback = []
        for candidate in list(leaves) + [
            entry
            for row in current.routing_rows
            for entry in row
            if entry is not None
        ]:
            if candidate is current:
                continue
            if self.shared_prefix_digits(candidate.id, key_id) < shared:
                continue
            if self._distance(key_id, candidate.id) >= current_distance:
                continue
            fallback.append(candidate)
        fallback.sort(key=lambda n: self._distance(key_id, n.id))
        found = try_chain(fallback, PHASE_LEAF)
        if found is not None:
            return found[0], found[1], timeouts, ()
        return resolved()

    def _within_leaf_range(self, node: PastryNode, key_id: int) -> bool:
        if len(self.ring) <= self.leaf_set_size:
            return True  # the leaf set covers the whole population
        if not node.leaf_smaller or not node.leaf_larger:
            return True
        left = node.leaf_smaller[-1].id
        right = node.leaf_larger[-1].id
        return in_interval(
            key_id, (left - 1) % self.ring.modulus, right, self.ring.modulus
        )

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def _new_node(self, name: object, node_id: int) -> PastryNode:
        return PastryNode(name, node_id, self.bits, self.digit_bits)

    def _admit(self, name: object) -> PastryNode:
        node = self._place(name, self._free_id_for(name))
        self._wire(node)
        self.maintenance_updates += self._refresh_leaves_near(
            node.id, exclude=node
        )
        return node

    def _notify_leave(self, node: PastryNode) -> None:
        """Graceful departure: leaf-set holders are notified; routing
        tables stay stale until stabilisation (the Pastry repair
        model).  A silent failure repairs nothing."""
        self.maintenance_updates += self._refresh_leaves_near(node.id)

    def on_dead_entry(self, observer: PastryNode, dead: PastryNode) -> int:
        """Lazy repair after a timeout on ``dead``: re-derive the leaf
        sets when it was a leaf (Pastry's contact-the-farthest-leaf
        repair, idealised) and null any routing-table cell holding it
        (refilled by stabilisation, as in the Pastry paper)."""
        repaired = 0
        if any(leaf is dead for leaf in observer.leaf_entries()):
            if self._wire_leaves(observer):
                repaired += 1
        rows = observer.routing_rows
        if any(dead in row for row in rows):
            repaired += sum(row.count(dead) for row in rows)
            observer.routing_rows = [  # rebound, never written into
                [None if entry is dead else entry for entry in row]
                for row in rows
            ]
        return repaired

    def _refresh_leaves_near(
        self, point: int, exclude: Optional[PastryNode] = None
    ) -> int:
        """Refresh leaf sets of the nodes numerically near ``point``
        (those whose leaf sets a membership change there can affect)."""
        if len(self.ring) == 0:
            return 0
        half = self.leaf_set_size // 2
        affected: List[PastryNode] = []
        cursor = point
        for _ in range(min(half + 1, len(self.ring))):
            node = self.ring.successor(cursor)
            affected.append(node)
            cursor = (node.id + 1) % self.ring.modulus
        cursor = point
        for _ in range(min(half + 1, len(self.ring))):
            node = self.ring.predecessor(cursor)
            if node not in affected:
                affected.append(node)
            cursor = node.id
        changed = 0
        for node in affected:
            if self._wire_leaves(node) and node is not exclude:
                changed += 1
        return changed

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _wire(self, node: PastryNode) -> None:
        self._wire_leaves(node)
        base = node.base
        for row in range(node.rows):
            prefix_bits = row * self.digit_bits
            suffix_bits = self.bits - prefix_bits - self.digit_bits
            prefix = node.id >> (self.bits - prefix_bits) if prefix_bits else 0
            own_digit = node.digit(row)
            for column in range(base):
                if column == own_digit:
                    node.routing_rows[row][column] = None
                    continue
                block_start = (
                    (prefix << self.digit_bits | column) << suffix_bits
                )
                anchor = block_start | (node.id & ((1 << suffix_bits) - 1))
                node.routing_rows[row][column] = self._pick_in_range(
                    block_start, 1 << suffix_bits, anchor
                )

    def _pick_in_range(
        self, start: int, size: int, anchor: int
    ) -> Optional[PastryNode]:
        """A live node with id in [start, start + size), nearest to
        ``anchor`` — the deterministic stand-in for Pastry's
        pick-by-proximity among the many eligible suffixes."""
        ids = self.ring.ids()
        lo = bisect.bisect_left(ids, start)
        hi = bisect.bisect_left(ids, start + size)
        if lo == hi:
            return None
        index = bisect.bisect_left(ids, anchor, lo, hi)
        best = None
        best_gap = None
        for candidate_index in (index - 1, index):
            if lo <= candidate_index < hi:
                candidate = ids[candidate_index]
                gap = abs(candidate - anchor)
                if best_gap is None or gap < best_gap:
                    best, best_gap = candidate, gap
        return self.ring.get(best) if best is not None else None

    def _wire_leaves(self, node: PastryNode) -> bool:
        before = (
            [n.id for n in node.leaf_smaller],
            [n.id for n in node.leaf_larger],
        )
        half = self.leaf_set_size // 2
        take = min(half, len(self.ring) - 1)
        smaller: List[PastryNode] = []
        cursor = node.id
        for _ in range(take):
            neighbor = self.ring.predecessor(cursor)
            smaller.append(neighbor)
            cursor = neighbor.id
        larger: List[PastryNode] = []
        cursor = (node.id + 1) % self.ring.modulus
        for _ in range(take):
            neighbor = self.ring.successor(cursor)
            larger.append(neighbor)
            cursor = (neighbor.id + 1) % self.ring.modulus
        node.leaf_smaller = smaller
        node.leaf_larger = larger
        after = (
            [n.id for n in node.leaf_smaller],
            [n.id for n in node.leaf_larger],
        )
        return before != after

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        super().check_invariants()
        for node in self.ring.nodes():
            if len(self.ring) > 1:
                assert node.leaf_smaller and node.leaf_larger
                assert node.leaf_smaller[0].id == self.ring.predecessor_id(
                    node.id
                )
            for leaf in node.leaf_entries():
                assert leaf.alive, f"{node!r} has dead leaf {leaf!r}"
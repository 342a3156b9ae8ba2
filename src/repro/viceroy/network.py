"""Viceroy overlay network simulator.

Routing follows the three phases of the Viceroy lookup (paper §2.4):

* **ascending** — climb the up links to a level-1 node;
* **descending** — at level ``l``, follow the *left* down link when the
  clockwise distance to the key is below ``2^-l``, otherwise the *right*
  down link (at identity ``+ 2^-l``); stop when no down link exists;
* **traverse** — approach the key's successor along level-ring and
  general-ring links.

Because joins and departures repair all incoming and outgoing links
(§4.3: "before a node leaves and after a node joins, all the related
nodes are updated"), links are derived from the live membership (and
memoized until the next membership change), lookups never observe a
stale pointer, and the timeout count is identically zero — the
behaviour Tables 4 and 5 report.  The flip side the paper
highlights is maintenance cost, which :meth:`ViceroyNetwork.join` /
:meth:`leave` account for via :attr:`maintenance_updates`.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dht.base import Network
from repro.dht.hashing import consistent_hash
from repro.dht.ring import SortedRing, in_interval
from repro.dht.routing import RoutingDecision
from repro.util.bitops import clockwise_distance
from repro.util.rng import make_rng
from repro.viceroy.node import ID_BITS, ID_SCALE, ViceroyNode

__all__ = ["ViceroyNetwork"]

PHASE_ASCENDING = "ascending"
PHASE_DESCENDING = "descending"
PHASE_TRAVERSE = "traverse"

#: Lookup stages, advanced monotonically by the step function.
_STAGE_ASCEND = 0
_STAGE_DESCEND = 1
_STAGE_TRAVERSE = 2


class _ButterflyWalk:
    """Per-lookup stage cursor: ascend, then descend, then traverse."""

    __slots__ = ("stage",)

    def __init__(self) -> None:
        self.stage = _STAGE_ASCEND


class ViceroyNetwork(Network):
    """A Viceroy butterfly over the discretised [0, 1) identifier ring."""

    protocol_name = "viceroy"
    ROUTING_PHASES = (PHASE_ASCENDING, PHASE_DESCENDING, PHASE_TRAVERSE)

    def __init__(self, seed: Optional[int] = None) -> None:
        super().__init__()
        self.ring: SortedRing[ViceroyNode] = SortedRing(ID_BITS)
        #: level -> sorted identities of nodes on that level
        self._levels: Dict[int, List[int]] = {}
        self._rng = make_rng(seed)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def with_random_ids(
        cls, count: int, seed: Optional[int] = None
    ) -> "ViceroyNetwork":
        """``count`` nodes with uniform identities and uniform levels in
        ``[1, round(log2 count)]`` (the paper's level-selection rule with
        the network size as the estimate)."""
        network = cls(seed)
        max_level = max(1, round(math.log2(count))) if count > 1 else 1
        for index in range(count):
            node_id = network._free_id(f"v{index}")
            level = network._rng.randint(1, max_level)
            network._insert(ViceroyNode(f"v{index}", node_id, level))
        return network

    def _free_id(self, name: object) -> int:
        node_id = consistent_hash(name) % ID_SCALE
        while node_id in self.ring:
            node_id = (node_id + 1) % ID_SCALE
        return node_id

    def _insert(self, node: ViceroyNode) -> None:
        self.ring.add(node.id, node)
        row = self._levels.setdefault(node.level, [])
        bisect.insort(row, node.id)

    def _evict(self, node: ViceroyNode) -> None:
        self.ring.remove(node.id)
        row = self._levels[node.level]
        row.remove(node.id)
        if not row:
            del self._levels[node.level]

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------

    def live_nodes(self) -> Sequence[ViceroyNode]:
        return self.ring.nodes()

    @property
    def size(self) -> int:
        return len(self.ring)

    def key_id(self, key: object) -> int:
        return consistent_hash(key) % ID_SCALE

    def owner_of_id(self, key_id: int) -> ViceroyNode:
        """Keys are stored at their successor (paper Table 3)."""
        return self.ring.successor(key_id)

    # ------------------------------------------------------------------
    # links (always consistent with the membership; see module docs)
    # ------------------------------------------------------------------

    def _links(self, node: ViceroyNode) -> Tuple[Optional[ViceroyNode], ...]:
        """(predecessor, successor, up, left down, right down, level
        previous, level next): the seven links :meth:`next_hop` reads."""
        return (
            *self.general_ring(node),
            self.up_link(node),
            *self.down_links(node),
            *self.level_ring(node),
        )

    def up_link(self, node: ViceroyNode) -> Optional[ViceroyNode]:
        """The nearest level ``l-1`` node clockwise of the identity."""
        if node.level <= 1:
            return None
        return self._level_successor(node.level - 1, node.id)

    def down_links(
        self, node: ViceroyNode
    ) -> Tuple[Optional[ViceroyNode], Optional[ViceroyNode]]:
        """(left, right) down links into level ``l+1``.

        Left sits near the node's identity; right near identity +
        ``2^-l`` — the butterfly's long-range edge.
        """
        left = self._level_successor(node.level + 1, node.id)
        offset = ID_SCALE >> min(node.level, ID_BITS)
        right = self._level_successor(
            node.level + 1, (node.id + offset) % ID_SCALE
        )
        return left, right

    def level_ring(
        self, node: ViceroyNode
    ) -> Tuple[Optional[ViceroyNode], Optional[ViceroyNode]]:
        """(previous, next) on the node's level ring; ``None`` if alone."""
        row = self._levels.get(node.level, ())
        if len(row) < 2:
            return None, None
        index = bisect.bisect_left(row, node.id)
        prev_id = row[(index - 1) % len(row)]
        next_id = row[(index + 1) % len(row)]
        return self.ring.get(prev_id), self.ring.get(next_id)

    def general_ring(
        self, node: ViceroyNode
    ) -> Tuple[Optional[ViceroyNode], Optional[ViceroyNode]]:
        """(predecessor, successor) on the general ring; ``None`` if alone."""
        if len(self.ring) < 2:
            return None, None
        return (
            self.ring.predecessor(node.id),
            self.ring.successor((node.id + 1) % ID_SCALE),
        )

    def _level_successor(
        self, level: int, point: int
    ) -> Optional[ViceroyNode]:
        row = self._levels.get(level)
        if not row:
            return None
        index = bisect.bisect_left(row, point % ID_SCALE)
        return self.ring.get(row[index % len(row)])

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def begin_route(
        self, source: ViceroyNode, key_id: int
    ) -> _ButterflyWalk:
        return _ButterflyWalk()

    def pack_route_state(self, state: _ButterflyWalk) -> object:
        """Wire form of the stage cursor (repro.net, DESIGN S22)."""
        return {"stage": state.stage}

    def unpack_route_state(self, blob: object, key_id: int) -> _ButterflyWalk:
        walk = _ButterflyWalk()
        walk.stage = blob["stage"]
        return walk

    def next_hop(
        self, current: ViceroyNode, key_id: int, walk: _ButterflyWalk
    ) -> RoutingDecision:
        # Timeouts are identically zero: joins/leaves repair every
        # incoming link (§4.3), so no hop ever contacts a dead node.
        # The links are memoized until the next membership change.
        predecessor, successor, up, left, right, level_prev, level_next = (
            self._membership_memo(current, self._links)
        )
        if predecessor is None or in_interval(
            key_id, predecessor.id, current.id, ID_SCALE
        ):
            return RoutingDecision.terminate()  # responsible, or singleton

        # Phase 1: ascend to a level-1 node.
        if walk.stage == _STAGE_ASCEND:
            if up is not None and up is not current:  # None at level 1
                return RoutingDecision.forward(up, PHASE_ASCENDING)
            walk.stage = _STAGE_DESCEND

        # Phase 2: descend the butterfly until no down link exists.
        if walk.stage == _STAGE_DESCEND:
            distance = clockwise_distance(current.id, key_id, ID_SCALE)
            threshold = ID_SCALE >> min(current.level, ID_BITS)
            target = left if distance < threshold else right
            if target is not None and target is not current:
                return RoutingDecision.forward(target, PHASE_DESCENDING)
            walk.stage = _STAGE_TRAVERSE

        # Phase 3: traverse via level-ring and general-ring links,
        # moving whichever direction around the ring is shorter and
        # never stepping past the key (the leaf-set-style wrap guard).
        if in_interval(key_id, current.id, successor.id, ID_SCALE):
            return RoutingDecision.forward(successor, PHASE_TRAVERSE)
        cw = clockwise_distance(current.id, key_id, ID_SCALE)
        ranked: List[Tuple[int, ViceroyNode]] = []
        offered = set()
        if cw <= ID_SCALE - cw:
            # Clockwise: candidates strictly between current and key.
            for candidate in (successor, level_next):
                if candidate is None or candidate is current:
                    continue
                if candidate.id in offered:
                    continue
                if not in_interval(
                    candidate.id, current.id, key_id, ID_SCALE
                ):
                    continue
                offered.add(candidate.id)
                ranked.append(
                    (
                        clockwise_distance(current.id, candidate.id, ID_SCALE),
                        candidate,
                    )
                )
        else:
            # Counter-clockwise (a down link overshot the key):
            # candidates in [key, current) — no node sits strictly
            # between the key and its successor, so this cannot skip
            # the owner.
            for candidate in (predecessor, level_prev):
                if candidate is None or candidate is current:
                    continue
                if candidate.id in offered:
                    continue
                if not in_interval(
                    candidate.id,
                    (key_id - 1) % ID_SCALE,
                    (current.id - 1) % ID_SCALE,
                    ID_SCALE,
                ):
                    continue
                offered.add(candidate.id)
                ranked.append(
                    (
                        clockwise_distance(candidate.id, current.id, ID_SCALE),
                        candidate,
                    )
                )
        if not ranked:
            return RoutingDecision.terminate()  # no progress; deliver here
        # Stable reverse sort: on equal progress the first-consulted
        # link keeps priority, matching the pre-fault tie-break.
        ranked.sort(key=lambda item: item[0], reverse=True)
        best = ranked[0][1]
        if self.fault_detection and len(ranked) > 1:
            # Links are always live here, but under message loss the
            # lower-progress link is still a useful ranked fallback.
            return RoutingDecision.forward(
                best,
                PHASE_TRAVERSE,
                alternates=tuple(
                    (candidate, PHASE_TRAVERSE) for _, candidate in ranked[1:]
                ),
            )
        return RoutingDecision.forward(best, PHASE_TRAVERSE)

    # ------------------------------------------------------------------
    # membership changes
    # ------------------------------------------------------------------

    def _admit(self, name: object) -> ViceroyNode:
        """Arrival: pick an identity and a level, splice into the rings,
        and repair every link that should now point at the newcomer."""
        node_id = self._free_id(name)
        size = len(self.ring) + 1
        max_level = max(1, round(math.log2(size))) if size > 1 else 1
        node = ViceroyNode(name, node_id, self._rng.randint(1, max_level))
        self._insert(node)
        self.maintenance_updates += self._affected_by(node)
        return node

    def _unlink(self, node: ViceroyNode) -> None:
        """Departure, graceful or silent: every node holding a link to
        the leaver is repaired (why Viceroy shows zero timeouts but a
        high connectivity-maintenance bill).  Links derive from the live
        membership, so they can never be stale; a silent failure's bill
        is paid by failure detection instead of goodbye messages, and is
        charged to :attr:`maintenance_updates` all the same, as the
        paper's critique of Viceroy's maintenance cost would."""
        self.maintenance_updates += self._affected_by(node)
        self._evict(node)
        self._readjust_levels()

    def _readjust_levels(self) -> None:
        """Demote nodes whose level exceeds ``log2`` of the shrunken
        network — the level adjustment the paper notes "a node may need
        ... during its life time in the system" and charges to Viceroy's
        maintenance bill."""
        size = len(self.ring)
        if size < 1:
            return
        max_level = max(1, round(math.log2(size))) if size > 1 else 1
        too_deep = [level for level in self._levels if level > max_level]
        for level in too_deep:
            for node_id in list(self._levels[level]):
                node = self.ring.get(node_id)
                row = self._levels[level]
                row.remove(node_id)
                if not row:
                    del self._levels[level]
                node.level = self._rng.randint(1, max_level)
                bisect.insort(
                    self._levels.setdefault(node.level, []), node_id
                )
                self.maintenance_updates += 1

    def _affected_by(self, node: ViceroyNode) -> int:
        """Count nodes whose link set includes ``node`` (in-degree): its
        ring and level-ring neighbours plus every node whose up or down
        link resolves to it."""
        affected = 0
        for neighbor in self.general_ring(node):
            if neighbor is not None:
                affected += 1
        for neighbor in self.level_ring(node):
            if neighbor is not None:
                affected += 1
        # Up/down links are "first node of level L clockwise of a point";
        # the nodes pointing at `node` live on the adjacent levels only.
        for row_id in self._levels.get(node.level + 1, ()):
            other = self.ring.get(row_id)
            if other is not node and self.up_link(other) is node:
                affected += 1
        if node.level > 1:
            for row_id in self._levels.get(node.level - 1, ()):
                other = self.ring.get(row_id)
                if other is node:
                    continue
                left, right = self.down_links(other)
                if left is node or right is node:
                    affected += 1
        return affected

    def on_dead_entry(self, observer: ViceroyNode, dead: ViceroyNode) -> int:
        """Nothing to repair: Viceroy links are derived from the live
        membership (memoized only until it changes), so no per-node
        routing state can hold ``dead`` — a failed node is evicted from
        the rings by :meth:`fail` before any lookup can probe it.  Only message-loss
        retries, never dead-entry timeouts, occur under fault injection."""
        return 0

    def stabilize(self) -> None:
        """No-op: Viceroy repairs eagerly on join/leave, it does not run
        periodic stabilisation (paper §4.4)."""

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        super().check_invariants()
        total = 0
        for level, row in self._levels.items():
            assert row == sorted(row), f"level {level} ring out of order"
            total += len(row)
            for node_id in row:
                node = self.ring.get(node_id)
                assert node.level == level
        assert total == len(self.ring), "level rings disagree with ring"

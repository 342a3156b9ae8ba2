"""CAN overlay network simulator.

Routing is greedy geographic forwarding: each hop moves to the
neighbour whose zone is closest (torus distance) to the key's point,
terminating at the node whose zone contains it — O(d * n^(1/d)) hops
with O(d) neighbours per node (paper §2.3 / Table 1).

Joins follow the CAN bootstrap: hash the newcomer to a random point,
route to the zone owner, split that zone in half along its widest axis
and hand the newcomer the half containing the point.  A graceful leave
hands the zones to the buddy (when the union is a box again) or to the
smallest-volume neighbour, which holds them until buddies coalesce —
the CAN takeover rule.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.can.node import CanNode, Zone
from repro.dht.base import Network
from repro.dht.hashing import consistent_hash
from repro.dht.routing import RoutingDecision
from repro.util.bitops import circular_distance
from repro.util.rng import make_rng

__all__ = ["CanNetwork"]

PHASE_GREEDY = "greedy"

DEFAULT_DIMENSIONS = 2
RESOLUTION_BITS = 20  # grid cells per axis: 2^20


class CanNetwork(Network):
    """A CAN over the ``[0, 2^RESOLUTION_BITS)^dimensions`` torus."""

    protocol_name = "can"
    ROUTING_PHASES = (PHASE_GREEDY,)

    def __init__(
        self, dimensions: int = DEFAULT_DIMENSIONS, seed: Optional[int] = None
    ) -> None:
        super().__init__()
        if dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        self.dimensions = dimensions
        self.modulus = 1 << RESOLUTION_BITS
        self._nodes: List[CanNode] = []
        self._rng = make_rng(seed)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def with_random_zones(
        cls,
        count: int,
        dimensions: int = DEFAULT_DIMENSIONS,
        seed: Optional[int] = None,
    ) -> "CanNetwork":
        """Grow a network of ``count`` nodes by successive joins."""
        network = cls(dimensions, seed)
        for index in range(count):
            network.join(f"can-{index}")
        return network

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------

    def live_nodes(self) -> Sequence[CanNode]:
        return list(self._nodes)

    @property
    def size(self) -> int:
        return len(self._nodes)

    def key_id(self, key: object) -> Tuple[int, ...]:
        """Hash a key to a point on the torus (one hash per axis)."""
        digest = consistent_hash(key)
        point = []
        for axis in range(self.dimensions):
            point.append(
                (digest >> (axis * RESOLUTION_BITS)) % self.modulus
            )
        return tuple(point)

    def owner_of_id(self, key_id: Tuple[int, ...]) -> CanNode:
        for node in self._nodes:
            if node.owns(key_id):
                return node
        raise LookupError("empty network" if not self._nodes else
                          f"no zone contains {key_id}")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _torus_distance(self, a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
        return sum(
            circular_distance(x, y, self.modulus) for x, y in zip(a, b)
        )

    def _node_distance(self, node: CanNode, point: Tuple[int, ...]) -> int:
        return min(
            self._torus_distance(self._clamp(zone, point), point)
            for zone in node.zones
        )

    def _clamp(self, zone: Zone, point: Tuple[int, ...]) -> Tuple[int, ...]:
        """The point of ``zone`` nearest to ``point`` on the torus."""
        clamped = []
        for axis in range(self.dimensions):
            lo, hi = zone.lo[axis], zone.hi[axis] - 1
            x = point[axis]
            if lo <= x <= hi:
                clamped.append(x)
            else:
                d_lo = circular_distance(x, lo, self.modulus)
                d_hi = circular_distance(x, hi, self.modulus)
                clamped.append(lo if d_lo <= d_hi else hi)
        return tuple(clamped)

    def begin_route(
        self, source: CanNode, key_id: Tuple[int, ...]
    ) -> Set[object]:
        return set()  # names of nodes the message has passed through

    def pack_route_state(self, state: Set[object]) -> object:
        """Wire form of the visited-name set (repro.net, DESIGN S22)."""
        return {"visited": sorted(state, key=repr)}

    def unpack_route_state(
        self, blob: object, key_id: Tuple[int, ...]
    ) -> Set[object]:
        return set(blob["visited"])

    def next_hop(
        self, current: CanNode, key_id: Tuple[int, ...], visited: Set[object]
    ) -> RoutingDecision:
        if current.owns(key_id):
            return RoutingDecision.terminate()
        visited.add(current.name)
        current_distance = self._node_distance(current, key_id)
        ranked = sorted(
            (
                neighbor
                for neighbor in current.neighbors
                if neighbor.name not in visited
            ),
            key=lambda n: self._node_distance(n, key_id),
        )
        if self.fault_detection:
            # Unfiltered greedy ranking; the engine probes for liveness.
            if not ranked:
                return RoutingDecision.terminate()
            return RoutingDecision.forward(
                ranked[0],
                PHASE_GREEDY,
                alternates=tuple(
                    (candidate, PHASE_GREEDY) for candidate in ranked[1:5]
                ),
            )
        timeouts = 0
        for candidate in ranked:
            if not candidate.alive:
                timeouts += 1
                continue
            if self._node_distance(candidate, key_id) >= current_distance:
                # Greedy progress stalled (possible after failures);
                # CAN would fall back to perimeter routing — we
                # allow one sideways hop to an unvisited neighbour.
                pass
            return RoutingDecision.forward(candidate, PHASE_GREEDY, timeouts)
        return RoutingDecision.terminate(timeouts)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def _admit(self, name: object) -> CanNode:
        point = self.key_id(name)
        if not self._nodes:
            full = Zone(
                (0,) * self.dimensions, (self.modulus,) * self.dimensions
            )
            node = CanNode(name, full)
            self._nodes.append(node)
            return node
        holder = self.owner_of_id(point)
        zone_index = next(
            i for i, zone in enumerate(holder.zones) if zone.contains(point)
        )
        zone = holder.zones[zone_index]
        lower, upper = zone.split(zone.widest_axis())
        keep, give = (lower, upper) if lower.contains(point) else (upper, lower)
        # The newcomer takes the half containing its point; the holder
        # keeps the other half.
        holder.zones[zone_index] = give
        node = CanNode(name, keep)
        self._nodes.append(node)
        self.maintenance_updates += self._refresh_neighbors_around(
            [zone], exclude=node
        )
        return node

    def _unlink(self, node: CanNode) -> None:
        """Zones hand over to the buddy or to the smallest neighbour
        (CAN's takeover), which coalesces buddies.  A silent failure
        stops here (CAN recovers ownership via its takeover timers):
        neighbour lists elsewhere stay stale until stabilisation."""
        self._nodes.remove(node)
        if not self._nodes:
            return
        for zone in node.zones:
            taker = self._taker_for(zone, node)
            taker.zones.append(zone)
            self._coalesce(taker)

    def _notify_leave(self, node: CanNode) -> None:
        """Graceful departure: the nodes around the handed-over zones
        refresh their neighbour lists."""
        self.maintenance_updates += self._refresh_neighbors_around(
            node.zones
        )

    def on_dead_entry(self, observer: CanNode, dead: CanNode) -> int:
        """Lazy repair after a timeout on ``dead``: drop it from the
        neighbour list (the zone takeover already moved its space to a
        live owner; stabilisation re-wires the new abutment)."""
        if any(neighbor is dead for neighbor in observer.neighbors):
            observer.neighbors = [
                neighbor
                for neighbor in observer.neighbors
                if neighbor is not dead
            ]
            return 1
        return 0

    def _taker_for(self, zone: Zone, leaver: CanNode) -> CanNode:
        """The buddy owner if the union forms a box, else the
        smallest-volume abutting neighbour."""
        candidates = [
            other
            for other in self._nodes
            if other is not leaver
            and any(
                zone.abuts(other_zone, self.modulus)
                or zone.buddy_of(other_zone)
                for other_zone in other.zones
            )
        ]
        if not candidates:
            raise RuntimeError(f"no taker found for zone {zone}")
        for other in candidates:
            if any(zone.buddy_of(other_zone) for other_zone in other.zones):
                return other
        return min(candidates, key=lambda n: n.total_volume())

    @staticmethod
    def _coalesce(node: CanNode) -> None:
        merged = True
        while merged:
            merged = False
            for i in range(len(node.zones)):
                for j in range(i + 1, len(node.zones)):
                    if node.zones[i].buddy_of(node.zones[j]):
                        union = node.zones[i].merge(node.zones[j])
                        node.zones[j:j + 1] = []
                        node.zones[i] = union
                        merged = True
                        break
                if merged:
                    break

    def _refresh_neighbors_around(
        self, zones: Iterable[Zone], exclude: Optional[CanNode] = None
    ) -> int:
        """Recompute neighbour lists of every node abutting ``zones``
        (plus their owners); returns how many changed."""
        affected: List[CanNode] = []
        for node in self._nodes:
            for zone in zones:
                if any(
                    zone.abuts(own, self.modulus)
                    or self._zones_overlap(zone, own)
                    for own in node.zones
                ):
                    affected.append(node)
                    break
        changed = 0
        for node in affected:
            if self._wire_neighbors(node) and node is not exclude:
                changed += 1
        return changed

    def _zones_overlap(self, a: Zone, b: Zone) -> bool:
        return all(
            min(a.hi[axis], b.hi[axis]) - max(a.lo[axis], b.lo[axis]) > 0
            for axis in range(self.dimensions)
        )

    def stabilize(self) -> None:
        for node in self._nodes:
            self._wire_neighbors(node)

    def stabilize_node(self, node: CanNode) -> None:
        if node.alive:
            self._wire_neighbors(node)

    def _wire_neighbors(self, node: CanNode) -> bool:
        before = {id(n) for n in node.neighbors}
        neighbors = []
        for other in self._nodes:
            if other is node:
                continue
            if any(
                mine.abuts(theirs, self.modulus)
                for mine in node.zones
                for theirs in other.zones
            ):
                neighbors.append(other)
        node.neighbors = neighbors
        return before != {id(n) for n in neighbors}

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        super().check_invariants()
        if not self._nodes:
            return
        total = sum(node.total_volume() for node in self._nodes)
        assert total == self.modulus ** self.dimensions, (
            "zones do not partition the torus"
        )
        for node in self._nodes:
            for neighbor in node.neighbors:
                assert neighbor.alive, f"{node!r} has dead neighbour"
            if len(self._nodes) > 1:
                assert node.neighbors, f"{node!r} is isolated"
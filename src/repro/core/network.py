"""Cycloid overlay network simulator (paper §3).

Routing implements the three phases of Fig. 3:

* **ascending** — while the cyclic index is below the MSDB (most
  significant different cubical bit with the key), climb via the outside
  leaf set toward a primary node, choosing the side whose cubical index
  is numerically closest to the destination;
* **descending** — when ``k == MSDB`` take the cubical neighbour (fixing
  bit ``k``, Pastry-style left-to-right prefix correction); when
  ``k > MSDB`` take a cyclic neighbour or inside-leaf node with cyclic
  index in ``[MSDB, k)``, whichever is cubically closest to the key;
* **traverse-cycle** — once the key's cubical index is within leaf-set
  range, greedily forward to the numerically closest leaf entry until
  the closest node is the current node itself.

Whenever a preferred entry is void or dead, "the node that is
numerically closer to the destination among the leaf sets is chosen"
(§3.2), at the cost of one timeout per dead node contacted (§4.3).

Join and graceful leave keep every affected *leaf set* fresh (the
notifications of §3.3) but deliberately leave cubical/cyclic neighbours
of other nodes stale: "updating cubical and cyclic neighbors are the
responsibility of system stabilization, as in Chord."
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.node import CycloidNode
from repro.core.topology import CycloidTopology
from repro.dht.base import Network
from repro.dht.hashing import hash_to_cycloid
from repro.dht.identifiers import (
    CycloidId,
    cycloid_cube_unit,
    cycloid_space_size,
)
from repro.dht.routing import RoutingDecision
from repro.sim.latency import LatencyModel, stable_unit
from repro.util.bitops import circular_distance
from repro.util.rng import make_rng

__all__ = ["CycloidNetwork", "LEAF_SELECTIONS"]

#: How a node picks its outside-leaf representative of a remote cycle
#: (DESIGN §S25).  ``"primary"`` is the paper's rule (largest cyclic
#: index) and the bit-exact default; ``"random"`` picks a deterministic
#: stable-hash member (the proximity baseline); ``"proximity"`` picks
#: the member with the lowest modeled RTT from the observer (requires a
#: :class:`~repro.sim.latency.LatencyModel`).
LEAF_SELECTIONS = ("primary", "random", "proximity")

PHASE_ASCENDING = "ascending"
PHASE_DESCENDING = "descending"
PHASE_TRAVERSE = "traverse"

#: Sort key of a ``(packed closeness, linear id, node)`` candidate
#: record; a key function keeps equal-id duplicates in stable order.
_closeness = itemgetter(0)


def _same_ids(old: List[CycloidNode], new: List[CycloidNode]) -> bool:
    """Whether two leaf runs hold the same identifiers in order.  Nodes
    compare by identity, so the common case is one list comparison; a
    node that rejoined under the same id still matches, by id."""
    return old == new or (
        len(old) == len(new) and all(a.id == b.id for a, b in zip(old, new))
    )


def _in_cubical_arc(point: int, left: int, right: int, modulus: int) -> bool:
    """True iff ``point`` lies on the closed clockwise arc [left, right].

    A single-cycle network degenerates to ``left == right``, covering
    only that cubical index.
    """
    if left == right:
        return point == left
    return (point - left) % modulus <= (right - left) % modulus


class _RouteState:
    """Per-lookup bookkeeping carried by the (simulated) message.

    Nodes are keyed by linear identifier, never by node object: a stale
    pointer and the node that later rejoined under its id are one node
    to the route.  ``memo`` holds each met node's §3.1 closeness to the
    key as one packed int (:meth:`CycloidId.packed_distance_to`), so a
    route computes it at most once per node.
    """

    __slots__ = (
        "key_id", "visited", "explored_cycles", "best", "best_distance", "memo"
    )

    def __init__(self, key_id: CycloidId) -> None:
        self.key_id = key_id
        #: linear ids of the nodes the message has passed through
        self.visited: Set[int] = set()
        #: cycles already examined during last-mile tie exploration
        self.explored_cycles: Set[int] = set()
        #: numerically closest live node observed so far
        self.best: Optional[CycloidNode] = None
        self.best_distance: Optional[int] = None
        #: linear id -> packed closeness to the key
        self.memo: Dict[int, int] = {}

    def closeness(self, node_id: CycloidId) -> Tuple[int, int]:
        """``(packed closeness to the key, linear id)`` of ``node_id``."""
        linear = node_id.cubical * node_id.dimension + node_id.cyclic
        packed = self.memo.get(linear)
        if packed is None:
            packed = self.memo[linear] = self.key_id.packed_distance_to(node_id)
        return packed, linear

    def observe(self, node: CycloidNode) -> None:
        if not node.alive:
            return
        distance = self.closeness(node.id)[0]
        if self.best_distance is None or distance < self.best_distance:
            self.best = node
            self.best_distance = distance


class CycloidNetwork(Network):
    """A Cycloid overlay of dimension ``d`` (ID space ``d * 2^d``).

    ``leaf_radius=1`` gives the seven-entry DHT of the paper's §3;
    ``leaf_radius=2`` the eleven-entry variant evaluated alongside it.

    ``leaf_selection`` chooses which member of a remote cycle each
    outside-leaf slot points at (:data:`LEAF_SELECTIONS`); the paper's
    ``"primary"`` rule is the default, and everything else about
    routing is member-invariant (the traverse-arc test and the
    ascending cube-distance metric consult only the cubical index), so
    non-default selections change which links the ascent rides, never
    whether lookups resolve.  ``"proximity"`` requires ``latency``, the
    :class:`~repro.sim.latency.LatencyModel` whose RTTs it minimises.
    """

    protocol_name = "cycloid"
    ROUTING_PHASES = (PHASE_ASCENDING, PHASE_DESCENDING, PHASE_TRAVERSE)

    def __init__(
        self,
        dimension: int,
        leaf_radius: int = 1,
        seed: Optional[int] = None,
        leaf_selection: str = "primary",
        latency: Optional[LatencyModel] = None,
    ) -> None:
        super().__init__()
        if leaf_radius < 1:
            raise ValueError("leaf_radius must be >= 1")
        if leaf_selection not in LEAF_SELECTIONS:
            raise ValueError(
                f"unknown leaf_selection {leaf_selection!r}; "
                f"expected one of {LEAF_SELECTIONS}"
            )
        if leaf_selection == "proximity" and latency is None:
            raise ValueError(
                "leaf_selection='proximity' needs a LatencyModel to "
                "rank neighbours by"
            )
        self.dimension = dimension
        self.leaf_radius = leaf_radius
        self.leaf_selection = leaf_selection
        self.latency = latency
        self.topology = CycloidTopology(dimension)
        self._rng = make_rng(seed)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def with_ids(
        cls,
        node_ids: Iterable[CycloidId],
        dimension: int,
        leaf_radius: int = 1,
        seed: Optional[int] = None,
        leaf_selection: str = "primary",
        latency: Optional[LatencyModel] = None,
    ) -> "CycloidNetwork":
        """Build a fully-stabilised network containing ``node_ids``."""
        network = cls(dimension, leaf_radius, seed, leaf_selection, latency)
        for node_id in node_ids:
            network._place(f"n{node_id.linear}", node_id)
        network.stabilize()
        return network

    @classmethod
    def with_random_ids(
        cls,
        count: int,
        dimension: int,
        leaf_radius: int = 1,
        seed: Optional[int] = None,
        leaf_selection: str = "primary",
        latency: Optional[LatencyModel] = None,
    ) -> "CycloidNetwork":
        """``count`` distinct uniformly-random identifiers."""
        space = cycloid_space_size(dimension)
        if count > space:
            raise ValueError(f"{count} nodes exceed the {space}-id space")
        rng = make_rng(seed)
        ids = [
            CycloidId.from_linear(value, dimension)
            for value in rng.sample(range(space), count)
        ]
        return cls.with_ids(
            ids, dimension, leaf_radius, seed, leaf_selection, latency
        )

    @classmethod
    def complete(
        cls,
        dimension: int,
        leaf_radius: int = 1,
        leaf_selection: str = "primary",
        latency: Optional[LatencyModel] = None,
    ) -> "CycloidNetwork":
        """The complete CCC: all ``d * 2^d`` identifiers occupied."""
        space = cycloid_space_size(dimension)
        ids = (CycloidId.from_linear(value, dimension) for value in range(space))
        return cls.with_ids(
            ids, dimension, leaf_radius, leaf_selection=leaf_selection,
            latency=latency,
        )

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------

    def live_nodes(self) -> Sequence[CycloidNode]:
        return list(self.topology.nodes())

    @property
    def size(self) -> int:
        return len(self.topology)

    def key_id(self, key: object) -> CycloidId:
        return hash_to_cycloid(key, self.dimension)

    def owner_of_id(self, key_id: CycloidId) -> CycloidNode:
        """Ground truth: the live node numerically closest to the key —
        first in cubical index, then in cyclic index, ties to the key's
        successor (§3.1)."""
        if len(self.topology) == 0:
            raise LookupError("empty network")
        exact = self.topology.try_get(key_id.cyclic, key_id.cubical)
        if exact is not None:
            return exact  # type: ignore[return-value]
        best: Optional[CycloidNode] = None
        best_distance: Optional[Tuple[int, int, int, int]] = None
        for cubical in self._nearest_cubicals(key_id.cubical):
            for cyclic in self.topology.cycle_members(cubical):
                node = self.topology.get(cyclic, cubical)
                distance = key_id.distance_to(node.id)  # type: ignore[attr-defined]
                if best_distance is None or distance < best_distance:
                    best, best_distance = node, distance  # type: ignore[assignment]
        assert best is not None
        return best

    def _nearest_cubicals(self, cubical: int) -> List[int]:
        """Non-empty cubical indices at minimal circular distance."""
        if self.topology.cycle_members(cubical):
            return [cubical]
        modulus = 1 << self.dimension
        after = self.topology.succeeding_cycles(cubical, 1)
        before = self.topology.preceding_cycles(cubical, 1)
        candidates = {c for c in after + before}
        if not candidates:
            return []
        best = min(
            circular_distance(c, cubical, modulus) for c in candidates
        )
        return [
            c
            for c in candidates
            if circular_distance(c, cubical, modulus) == best
        ]

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def begin_route(
        self, source: CycloidNode, key_id: CycloidId
    ) -> "_RouteState":
        state = _RouteState(key_id)
        state.observe(source)
        return state

    def next_hop(
        self, current: CycloidNode, key_id: CycloidId, state: "_RouteState"
    ) -> RoutingDecision:
        distance, linear = state.closeness(current.id)
        if distance == 0:  # current.id == key_id
            return RoutingDecision.terminate()
        state.visited.add(linear)
        node, phase, timeouts, alternates = self._choose_next(
            current, key_id, state, distance
        )
        if node is None:
            # No live entry improves on what has been seen.
            return RoutingDecision.terminate(timeouts)
        return RoutingDecision.forward(node, phase, timeouts, alternates)

    def finish_route(
        self, current: CycloidNode, key_id: CycloidId, state: "_RouteState"
    ) -> Optional[RoutingDecision]:
        """The lookup message tracked the numerically closest live node
        it observed ("the leaf sets help ... check the termination
        condition", §3.1); if the walk ended elsewhere, one direct hop
        hands the request over."""
        best = state.best
        if best is not current and best is not None and best.alive:
            return RoutingDecision.deliver(best, PHASE_TRAVERSE)
        return None

    def pack_route_state(self, state: "_RouteState") -> object:
        """Wire form of the §3.1 message state (repro.net, DESIGN S22).

        Everything is reduced to linear identifiers; membership sets are
        sorted only to keep frames canonical — routing consults them by
        membership, never by order.
        """
        return {
            "visited": sorted(state.visited),
            "explored": sorted(state.explored_cycles),
            "best": None if state.best is None else state.best.id.linear,
        }

    def unpack_route_state(
        self, blob: object, key_id: CycloidId
    ) -> "_RouteState":
        state = _RouteState(key_id)
        state.visited = set(blob["visited"])
        state.explored_cycles = set(blob["explored"])
        if blob["best"] is not None:
            best_id = CycloidId.from_linear(blob["best"], self.dimension)
            best = self.topology.try_get(best_id.cyclic, best_id.cubical)
            if best is not None:
                # observe() recomputes best_distance exactly as the
                # original observation did (the closeness is pure).
                state.observe(best)
        return state

    def _choose_next(
        self,
        current: CycloidNode,
        key_id: CycloidId,
        state: "_RouteState",
        current_distance: int,
    ) -> Tuple[
        Optional[CycloidNode],
        str,
        int,
        Tuple[Tuple[CycloidNode, str], ...],
    ]:
        """One Cycloid routing decision (Fig. 3 + the §3.2 fallback).

        Returns ``(node, phase, timeouts, alternates)``.  In fault mode
        (``self.fault_detection``) the decision cascade keeps collecting
        instead of returning at the first live candidate: the whole
        preference order — ascending/descending choice first, then the
        traverse-cycle leaf fallback — comes back unfiltered as primary
        plus ranked alternates, and the engine's probe loop does the
        dead-node detection that ``try_candidates`` does here otherwise.

        Candidates travel as ``(packed closeness, linear id, node)``
        records.  The packed int orders by cubical distance first, so
        every cubical-distance test is a range test on it:
        ``cube_floor <= packed < cube_ceiling`` holds exactly for nodes
        as cubically far from the key as ``current``.
        """
        fault_mode = self.fault_detection
        collected: List[Tuple[CycloidNode, str]] = []
        offered: Set[int] = set()
        timeouts = 0
        dead_tried: Set[int] = set()
        visited = state.visited
        d = self.dimension
        modulus = 1 << d
        kcub = key_id.cubical
        cur_cub = current.id.cubical
        cur_cyc = current.id.cyclic
        cube_unit = cycloid_cube_unit(d)
        current_cube = current_distance // cube_unit
        cube_floor = current_cube * cube_unit
        cube_ceiling = cube_floor + cube_unit

        def try_candidates(
            records: List[tuple], phase: str, allow_visited: bool = False
        ) -> Optional[Tuple[CycloidNode, str]]:
            nonlocal timeouts
            for distance, linear, candidate in records:
                if not candidate.alive:
                    if not fault_mode:
                        if linear not in dead_tried:
                            dead_tried.add(linear)
                            timeouts += 1
                        continue
                elif (
                    state.best_distance is None
                    or distance < state.best_distance
                ):
                    state.best, state.best_distance = candidate, distance
                if linear in visited and not allow_visited:
                    continue
                if not fault_mode:
                    return candidate, phase
                # Collect unfiltered (the engine probes for liveness);
                # returning None keeps the cascade going so later
                # branches contribute the lower-ranked fallbacks.
                if linear not in offered:
                    offered.add(linear)
                    collected.append((candidate, phase))
            return None

        # One pass over the leaf slots: closeness from the memo, the
        # keep-first dedup by id and the best-observed update.
        memo = state.memo
        best, best_distance = state.best, state.best_distance
        seen: Set[int] = set()
        leaves = []
        sides = []
        outside_left = current.outside_left
        outside_right = current.outside_right
        for side in (
            current.inside_left + current.inside_right,
            outside_left + outside_right,
        ):
            records = []
            for leaf in side:
                if leaf is current:
                    continue
                leaf_id = leaf.id
                linear = leaf_id.cubical * d + leaf_id.cyclic
                distance = memo.get(linear)
                if distance is None:
                    distance = memo[linear] = key_id.packed_distance_to(leaf_id)
                records.append((distance, linear, leaf))
                if linear not in seen:
                    seen.add(linear)
                    leaves.append(records[-1])
                    if leaf.alive and (
                        best_distance is None or distance < best_distance
                    ):
                        best, best_distance = leaf, distance
            sides.append(records)
        inside, outside = sides
        state.best, state.best_distance = best, best_distance

        # Traverse-cycle trigger: the key's cubical index falls within
        # the arc of the large cycle covered by the outside leaf set.
        # The outside leaves are the *nearest* non-empty cycles on each
        # side, so a key inside the arc is owned by a node in the
        # current cycle or a leaf cycle — no cubical descent can help,
        # and leaving the arc (as prefix-correction might) would move
        # away from the owner.
        arc_left = outside_left[-1].cubical if outside_left else cur_cub
        arc_right = outside_right[-1].cubical if outside_right else cur_cub

        if not _in_cubical_arc(kcub, arc_left, arc_right, modulus):
            bit = (cur_cub ^ kcub).bit_length() - 1  # the MSDB
            if cur_cyc < bit:
                # Ascending via the outside leaf set, preferring the
                # side cubically closest to the destination; a hop must
                # make cubical progress.
                candidates = [r for r in outside if r[0] < cube_floor]
                candidates.sort(
                    key=lambda r: (r[0] // cube_unit, -(r[1] % d), r[1] // d)
                )
                found = try_candidates(candidates, PHASE_ASCENDING)
                if found is not None:
                    return found[0], found[1], timeouts, ()
            elif cur_cyc == bit:
                # Descending: the cubical neighbour corrects bit `k`.
                # Convergence criterion from §3.2: the next node either
                # shares a longer prefix with the key, or shares as long
                # a prefix but is numerically closer.
                neighbor = current.cubical_neighbor
                if neighbor is not None:
                    distance, linear = state.closeness(neighbor.id)
                    prefix = (neighbor.id.cubical ^ kcub).bit_length() - 1
                    if prefix < bit or (prefix == bit and distance < cube_floor):
                        found = try_candidates(
                            [(distance, linear, neighbor)], PHASE_DESCENDING
                        )
                        if found is not None:
                            return found[0], found[1], timeouts, ()
            else:
                # Descending: cyclic neighbours / inside leaves lower the
                # cyclic index toward the MSDB without losing prefix or
                # cubical progress, "whichever is closer to the target"
                # (§3.2).  Closeness is a strict order and a node's side
                # follows from its id, so the paper's clockwise rule for
                # picking between the two cyclic neighbours is implied.
                routing = [
                    (*state.closeness(entry.id), entry)
                    for entry in (current.cyclic_larger, current.cyclic_smaller)
                    if entry is not None and entry is not current
                ]
                ranked = []
                for record in routing + inside:
                    if not bit <= record[1] % d < cur_cyc:
                        continue
                    prefix = ((record[1] // d) ^ kcub).bit_length() - 1
                    if prefix > bit or (
                        prefix == bit and record[0] >= cube_ceiling
                    ):
                        continue  # would lose corrected-prefix progress
                    ranked.append(record)
                ranked.sort(key=_closeness)
                found = try_candidates(ranked, PHASE_DESCENDING)
                if found is not None:
                    return found[0], found[1], timeouts, ()

        # Traverse-cycle / fallback: the numerically closest leaf entry
        # that makes strict progress toward the key.  Deduplicated
        # leaves have distinct closeness, so tuples sort by it alone.
        closer = [r for r in leaves if r[0] < current_distance]
        closer.sort()
        found = try_candidates(closer, PHASE_TRAVERSE)
        if found is not None:
            return found[0], found[1], timeouts, ()

        # Last-mile resolution.  The owner lives in one of the cycles
        # with minimal cubical distance to the key; when greedy progress
        # stalls, examine the not-yet-explored tied cycle across the key
        # (via its primary in the outside leaf set) and the unvisited
        # members of the current cycle, relying on the best-observed
        # handoff in :meth:`route` for the final delivery.
        live_outside = [r for r in outside if r[2].alive]
        if all(r[0] >= cube_floor for r in live_outside):
            inside_unvisited = [r for r in inside if r[1] not in visited]
            inside_unvisited.sort(key=_closeness)
            found = try_candidates(inside_unvisited, PHASE_TRAVERSE)
            if found is not None:
                return found[0], found[1], timeouts, ()
            explored = state.explored_cycles
            tied_cycles = [
                r
                for r in live_outside
                if r[0] < cube_ceiling and r[1] // d not in explored
            ]
            tied_cycles.sort(key=_closeness)
            explored.add(cur_cub)
            # Re-entering an already-visited primary is allowed here:
            # the walk may have skimmed a tied cycle without examining
            # its members, and the explored_cycles guard bounds each
            # cycle to one tie-hop per lookup.
            found = try_candidates(
                tied_cycles, PHASE_TRAVERSE, allow_visited=True
            )
            if found is not None:
                return found[0], found[1], timeouts, ()

        if collected:
            primary, phase = collected[0]
            return primary, phase, timeouts, tuple(collected[1:5])
        return None, PHASE_TRAVERSE, timeouts, ()

    # ------------------------------------------------------------------
    # membership changes (§3.3)
    # ------------------------------------------------------------------

    def _admit(self, name: object) -> CycloidNode:
        """Node arrival: wire the joiner, notify affected leaf sets.

        The joiner's routing table and leaf sets are initialised from
        the network (the §3.3.1 local-remote search finds the same
        entries); nodes in its own and neighbouring cycles refresh their
        leaf sets — everyone else's cubical/cyclic neighbours stay stale
        until stabilisation.
        """
        node = self._place(name, self._free_id_for(name))
        self._wire_routing(node)
        self.maintenance_updates += self._refresh_leaves_around(
            node.cubical, exclude=node
        )
        return node

    def _place(self, name: object, node_id: CycloidId) -> CycloidNode:
        node = CycloidNode(name, node_id)
        self.topology.add(node_id, node)
        return node

    def _unlink(self, node: CycloidNode) -> None:
        """A silent failure (paper §5 future work) stops here: no
        notifications at all — even leaf sets go stale until the next
        stabilisation, so lookups survive on timeouts and fallbacks."""
        self.topology.remove(node.id)

    def _notify_leave(self, node: CycloidNode) -> None:
        """Graceful departure (§3.3.2): inside leaf set always notified;
        outside leaf sets notified when the leaver was a primary node.
        Cubical/cyclic neighbours of other nodes are left stale."""
        self.maintenance_updates += self._refresh_leaves_around(
            node.id.cubical
        )

    def on_dead_entry(self, observer: CycloidNode, dead: CycloidNode) -> int:
        """Lazy repair after a timeout on ``dead``: null the stale
        cubical/cyclic neighbour pointers (stabilisation's job to
        replace, as with Chord fingers) and re-derive the leaf sets
        from the live membership when a leaf entry was the casualty —
        the §3.2 leaf-set successor fallback made durable.  The leaf
        sets are memoized until the next membership change."""
        repaired = 0
        if observer.cubical_neighbor is dead:
            observer.cubical_neighbor = None
            repaired += 1
        if observer.cyclic_larger is dead:
            observer.cyclic_larger = None
            repaired += 1
        if observer.cyclic_smaller is dead:
            observer.cyclic_smaller = None
            repaired += 1
        if any(leaf is dead for leaf in observer.leaf_entries()):
            leaves = self._membership_memo(observer, self._leaf_sets)
            if self._wire_leaves(observer, leaves):
                repaired += 1
        return repaired

    def _free_id_for(self, name: object) -> CycloidId:
        node_id = hash_to_cycloid(name, self.dimension)
        space = cycloid_space_size(self.dimension)
        if len(self.topology) >= space:
            raise RuntimeError("identifier space exhausted")
        linear = node_id.linear
        while node_id in self.topology:
            linear = (linear + 1) % space
            node_id = CycloidId.from_linear(linear, self.dimension)
        return node_id

    def _refresh_leaves_around(
        self, cubical: int, exclude: Optional[CycloidNode] = None
    ) -> int:
        """Re-derive leaf sets for every node whose leaf sets the §3.3
        notifications would have updated: the changed cycle plus the
        ``leaf_radius`` nearest non-empty cycles on each side.

        Returns the number of nodes (other than ``exclude``) whose leaf
        sets actually changed — the notification fan-out of the event.
        """
        affected = set()
        if self.topology.cycle_members(cubical):
            affected.add(cubical)
        affected.update(
            self.topology.preceding_cycles(cubical, self.leaf_radius)
        )
        affected.update(
            self.topology.succeeding_cycles(cubical, self.leaf_radius)
        )
        changed = 0
        for cycle in affected:
            for cyclic in self.topology.cycle_members(cycle):
                node = self.topology.get(cyclic, cycle)
                if self._wire_leaves(node) and node is not exclude:
                    changed += 1
        return changed

    def stabilize(self) -> None:
        """Restore every node's routing table and leaf sets."""
        for node in list(self.topology.nodes()):
            self._wire_routing(node)

    def stabilize_node(self, node: CycloidNode) -> None:
        """One node's stabilisation: refresh cubical/cyclic neighbours
        (leaf sets are already maintained by the §3.3 notifications)."""
        if node.alive:
            self._wire_routing(node)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _wire_routing(self, node: CycloidNode) -> None:
        """Cubical and cyclic neighbours (§3.1), then the leaf sets."""
        k = node.cyclic
        a = node.cubical
        if k == 0:
            # "The node with a cyclic index k = 0 has no cubical
            # neighbor and cyclic neighbors."
            node.cubical_neighbor = None
            node.cyclic_larger = None
            node.cyclic_smaller = None
        else:
            block = 1 << k
            flipped_base = ((a >> k) ^ 1) << k
            anchor = flipped_base | (a & (block - 1))
            cubical = self.topology.in_block(k - 1, flipped_base, block, anchor)
            if cubical is None:
                # Exact block empty: the §3.3.1 local-remote search fills
                # the slot with the nearest node of cyclic index k-1.
                cubical = self.topology.nearest_in_row(k - 1, anchor)
            node.cubical_neighbor = (
                None if cubical is node else cubical  # type: ignore[assignment]
            )
            shared_base = (a >> k) << k
            larger, smaller = self.topology.block_bounds(
                k - 1, shared_base, block, a
            )
            if larger is None:
                larger = self.topology.row_bound(k - 1, a, clockwise=True)
            if smaller is None:
                smaller = self.topology.row_bound(k - 1, a, clockwise=False)
            node.cyclic_larger = larger  # type: ignore[assignment]
            node.cyclic_smaller = smaller  # type: ignore[assignment]
        self._wire_leaves(node)

    def _wire_leaves(self, node: CycloidNode, leaves=None) -> bool:
        """Inside and outside leaf sets from the live membership, or
        from ``leaves`` (a memoized :meth:`_leaf_sets`) when given.

        Returns whether anything changed (used for maintenance-cost
        accounting: an unchanged node would not have been messaged).
        """
        # The wiring below assigns fresh lists, never mutates the old
        # ones, so these references keep the previous runs.
        before = (
            node.inside_left,
            node.inside_right,
            node.outside_left,
            node.outside_right,
        )
        if leaves is None:
            leaves = self._leaf_sets(node)
        else:  # copies: a memo is never handed out
            leaves = [list(run) for run in leaves]
        (
            node.inside_left,
            node.inside_right,
            node.outside_left,
            node.outside_right,
        ) = leaves
        return not all(map(_same_ids, before, leaves))

    def _leaf_sets(self, node: CycloidNode) -> Tuple[List[CycloidNode], ...]:
        """``node``'s inside left/right and outside left/right leaf runs,
        a pure function of the live membership."""
        cycle = self.topology.cycle_members(node.cubical)
        radius = self.leaf_radius
        index = cycle.index(node.cyclic)
        size = len(cycle)
        if size == 1:
            # "two nodes in X's inside leaf set are X itself"
            inside_left = [node]
            inside_right = [node]
        else:
            take = min(radius, size - 1)
            inside_left = [
                self.topology.get(cycle[(index - 1 - i) % size], node.cubical)
                for i in range(take)
            ]
            inside_right = [
                self.topology.get(cycle[(index + 1 + i) % size], node.cubical)
                for i in range(take)
            ]
        outside_left = [
            self._outside_pick(node, c)
            for c in self.topology.preceding_cycles(node.cubical, radius)
        ]
        outside_right = [
            self._outside_pick(node, c)
            for c in self.topology.succeeding_cycles(node.cubical, radius)
        ]
        return inside_left, inside_right, outside_left, outside_right

    def _outside_pick(self, node: CycloidNode, cubical: int) -> CycloidNode:
        """The outside-leaf representative of remote cycle ``cubical``
        as seen by ``node`` (:data:`LEAF_SELECTIONS`).

        All three rules are pure functions of the live membership (plus
        the observer's name and the latency seed), never of an RNG
        stream — re-wiring after churn reproduces the same choices, and
        snapshot restores re-derive nothing.
        """
        selection = self.leaf_selection
        if selection == "primary":
            return self.topology.primary_of(cubical)  # type: ignore[return-value]
        members = self.topology.cycle_members(cubical)
        if selection == "random":
            # Stable-hash pick, keyed per (observer, cycle): arbitrary
            # but deterministic, and independent of any latency model —
            # the fair baseline proximity selection is measured against.
            pick = int(
                stable_unit(0, "leaf-pick", str(node.name), cubical)
                * len(members)
            )
            return self.topology.get(members[pick], cubical)  # type: ignore[return-value]
        # "proximity": the member with the lowest modeled RTT from the
        # observer; ties (same link delay never happens, but be exact)
        # fall back to the paper's primary preference (highest cyclic).
        delay_ms = self.latency.delay_ms
        name = node.name
        best = None
        best_key = None
        for cyclic in members:
            member = self.topology.get(cyclic, cubical)
            key = (delay_ms(name, member.name), -cyclic)
            if best_key is None or key < best_key:
                best, best_key = member, key
        return best  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        super().check_invariants()
        for node in self.topology.nodes():
            assert isinstance(node, CycloidNode)
            pred, succ = self.topology.cycle_neighbors(
                node.cyclic, node.cubical
            )
            if node.inside_left and node.inside_left[0] is not node:
                assert node.inside_left[0] is pred, (
                    f"{node!r} inside-left {node.inside_left[0]!r} != {pred!r}"
                )
            if node.inside_right and node.inside_right[0] is not node:
                assert node.inside_right[0] is succ, (
                    f"{node!r} inside-right {node.inside_right[0]!r} != {succ!r}"
                )
            for leaf in node.leaf_entries():
                assert leaf.alive, f"{node!r} has dead leaf {leaf!r}"
            assert node.state_size <= 3 + 4 * self.leaf_radius
"""Abstract node / network protocol shared by all four DHTs.

Each overlay (Cycloid, Chord, Koorde, Viceroy) subclasses
:class:`Network` and :class:`Node`, so every experiment in
:mod:`repro.experiments` is written once against this interface.

The simulation model follows the paper's Java simulators: a *network*
object holds all node state centrally; a *lookup* is executed as a
sequence of routing-table consultations, counting one hop per forward and
one timeout per contact with a departed node (§4.3).  There is no packet
loss or latency model — the paper's metrics are hop counts, timeouts,
key counts and query counts, all topology-level quantities.
"""

from __future__ import annotations

import abc
import enum
from collections import Counter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.dht.metrics import LookupRecord
from repro.dht.routing import LookupEngine, RoutingDecision, TraceObserver
from repro.dht.snapshot import clone_network, pack_network, unpack_network

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.sim.faults import FaultInjector
    from repro.sim.latency import LatencyModel

__all__ = ["LookupOutcome", "Node", "Network"]

#: Upper bound on entries in a network's membership cache.  Ring
#: overlays draw key ids from spaces as large as 2**52 (Viceroy), so an
#: unbounded cache could grow without limit under adversarial
#: workloads; paper-scale experiments stay far below this.
OWNER_CACHE_LIMIT = 65536


class LookupOutcome(enum.Enum):
    """Terminal state of a lookup."""

    SUCCESS = "success"  # reached the key's correct storing node
    WRONG_OWNER = "wrong_owner"  # terminated on a live but incorrect node
    DEAD_END = "dead_end"  # no live next hop (Koorde under failures)
    HOP_LIMIT = "hop_limit"  # safety valve; indicates a routing bug


class Node(abc.ABC):
    """A participant in an overlay.

    Concrete nodes carry their protocol's routing state.  ``alive`` is
    flipped by graceful departures; stale pointers to dead nodes are what
    produce timeouts until stabilisation repairs them.
    """

    __slots__ = ("name", "alive")

    def __init__(self, name: object) -> None:
        self.name = name
        self.alive = True

    @property
    @abc.abstractmethod
    def node_id(self) -> object:
        """The node's identifier in its overlay's ID space."""

    @property
    @abc.abstractmethod
    def degree(self) -> int:
        """Number of distinct routing-state entries currently held."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "" if self.alive else " dead"
        return f"<{type(self).__name__} {self.node_id}{status}>"


class Network(abc.ABC):
    """An overlay network: the node population plus protocol operations.

    Subclasses must populate :attr:`protocol_name` and implement the
    abstract operations.  The base class provides query-load accounting,
    which Fig. 10 needs uniformly across protocols: every node that
    *receives* a lookup message (every hop target, including the final
    owner, excluding the source) has its query counter incremented.
    """

    protocol_name: str = "abstract"

    #: Safety bound on routing steps; generous multiple of any correct
    #: path so hitting it flags a routing bug rather than masking one.
    HOP_LIMIT = 4096

    #: Every phase label :meth:`next_hop` may emit, in reporting order.
    #: The lookup engine zero-fills these in ``LookupRecord.phase_hops``
    #: so the per-phase breakdown (Figs 7/14) always sees every phase.
    ROUTING_PHASES: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._query_counts: Counter = Counter()
        #: the membership cache: memoized ``key_id -> owner`` and
        #: per-node memos (:meth:`_membership_memo`); every membership
        #: change (join/leave/fail/insert_at) drops it.
        self._owner_cache: Dict[object, object] = {}
        #: running count of *other* nodes whose routing state a join or
        #: graceful leave updated — the connectivity-maintenance cost
        #: the paper's conclusion weighs across designs.
        self.maintenance_updates: int = 0
        #: set by the lookup engine on every run: ``True`` while an
        #: active fault injector drives the probe loop, in which case
        #: :meth:`next_hop` must return its first-preference candidate
        #: *unfiltered* (plus ranked alternates) and leave dead-node
        #: detection to the engine.  ``False`` restores the classic
        #: filter-inside-the-step behaviour.
        self.fault_detection: bool = False
        #: running count of stale routing entries lazily evicted or
        #: replaced via :meth:`on_dead_entry` (fault mode only).
        self.route_repairs: int = 0

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def live_nodes(self) -> Sequence[Node]:
        """All currently-live nodes (stable iteration order)."""

    @property
    def size(self) -> int:
        """Live population count.

        The base implementation materialises :meth:`live_nodes`; every
        concrete overlay overrides it with an O(1) answer from its own
        index (ring/topology/zone list), which the per-hop paths and the
        experiment drivers rely on.
        """
        return len(self.live_nodes())

    # -- the membership lifecycle --------------------------------------
    #
    # ``join``/``leave``/``fail`` own the bookkeeping every overlay
    # shares: the liveness check, the membership-cache drop and the
    # ``alive`` flip.  Overlays implement only the hooks below them.

    def join(self, name: object) -> Node:
        """Add a node for ``name`` via the protocol's join procedure."""
        self.invalidate_owner_cache()
        return self._admit(name)

    def leave(self, node: Node) -> None:
        """Graceful departure: notify per-protocol relatives, then die.

        Pointers the protocol does not notify (fingers, cubical/cyclic
        neighbours, de Bruijn pointers) are left stale deliberately —
        repairing them is stabilisation's job (§3.3.2).
        """
        self._depart(node)
        self._notify_leave(node)

    def fail(self, node: Node) -> None:
        """Ungraceful failure: the node vanishes without notifying anyone.

        The paper's §3.4 scopes this out of the routing design ("nodes
        must notify others before leaving") and §5 flags handling it as
        future work; this extension point injects exactly that scenario
        so the robustness of each design can be measured.  Every pointer
        anywhere that references the node goes stale until
        stabilisation.
        """
        self._depart(node)

    def insert_at(self, name: object, node_id: object) -> Node:
        """Insert a node for ``name`` at a chosen ``node_id`` without
        running the join protocol: nobody is wired or notified, so the
        caller stabilises afterwards (a sybil that picked its own id)."""
        self.invalidate_owner_cache()
        return self._place(name, node_id)

    def _depart(self, node: Node) -> None:
        if not node.alive:
            raise ValueError(f"{node!r} already departed")
        self.invalidate_owner_cache()
        node.alive = False
        self._unlink(node)

    def _admit(self, name: object) -> Node:
        """Join hook: pick the joiner's id, insert and wire it, notify
        its relatives (adding their count to
        :attr:`maintenance_updates`); returns the new node."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support joins"
        )

    def _place(self, name: object, node_id: object) -> Node:
        """Build an unwired node for ``name`` at ``node_id`` and add it to
        the membership index (:meth:`insert_at`)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support chosen-id insertion"
        )

    def _unlink(self, node: Node) -> None:
        """Departure hook, graceful or not: ``node`` is already marked
        dead and the membership cache dropped; remove it from the
        membership index, plus whatever the protocol does on either
        kind of departure (memoizing nothing about the old membership)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support departures"
        )

    def _notify_leave(self, node: Node) -> None:
        """Graceful-leave hook, after :meth:`_unlink`: notify the
        relatives the protocol tells (adding their count to
        :attr:`maintenance_updates`).  Default: nobody."""

    @abc.abstractmethod
    def stabilize(self) -> None:
        """One full round of the protocol's stabilisation over all nodes."""

    def stabilize_node(self, node: Node) -> None:
        """One node's periodic stabilisation step (§4.4 runs these on
        per-node 30 s timers).  Default: protocols without periodic
        stabilisation (Viceroy) do nothing."""

    # ------------------------------------------------------------------
    # keys and lookups
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def key_id(self, key: object) -> object:
        """Hash an application key into this overlay's ID space."""

    @abc.abstractmethod
    def owner_of_id(self, key_id: object) -> Node:
        """Ground truth: the live node responsible for ``key_id``.

        Computed globally (not by routing); lookups are checked against
        it to count failures.
        """

    def cached_owner_of_id(self, key_id: object) -> Node:
        """Memoized :meth:`owner_of_id`.

        ``owner_of_id`` is deterministic between membership changes, so
        the cached node is *the same object* a fresh derivation would
        return — the engine's identity-based success check is
        unaffected.  An entry whose node has since died (possible only
        if an overlay misses an invalidation) is recomputed, never
        served stale.
        """
        cache = self._owner_cache
        node = cache.get(key_id)
        if node is None or not node.alive:
            node = self.owner_of_id(key_id)
            if len(cache) < OWNER_CACHE_LIMIT:
                cache[key_id] = node
        return node

    def _membership_memo(self, node: Node, derive) -> object:
        """``derive(node)`` for state that is a pure function of the
        live membership (Viceroy's links, Cycloid's leaf sets),
        memoized until the next join/leave/fail."""
        cache = self._owner_cache
        value = cache.get(node)
        if value is None:
            value = derive(node)
            if len(cache) < OWNER_CACHE_LIMIT:
                cache[node] = value
        return value

    def invalidate_owner_cache(self) -> None:
        """Drop the membership cache — memoized owners and every
        per-node memo; the membership lifecycle above calls it on every
        change."""
        self._owner_cache.clear()

    def owner_of_key(self, key: object) -> Node:
        return self.cached_owner_of_id(self.key_id(key))

    # -- the routing step contract -------------------------------------
    #
    # Protocols no longer implement the lookup loop themselves: they
    # expose a pure per-hop decision and the shared engine
    # (:mod:`repro.dht.routing`) drives it, counting hops/timeouts,
    # recording query load and emitting trace events.

    @abc.abstractmethod
    def next_hop(
        self, current: Node, key_id: object, state: object
    ) -> RoutingDecision:
        """One protocol routing decision at ``current``.

        ``state`` is whatever :meth:`begin_route` returned for this
        lookup.  The decision carries the next node (or a terminal
        outcome), the phase label of the hop, and the number of dead
        nodes contacted while deciding (one timeout each, paper §4.3).
        """

    def begin_route(self, source: Node, key_id: object) -> object:
        """Per-lookup scratch state handed to every :meth:`next_hop`
        call.  Default: stateless protocols return ``None``."""
        return None

    def pack_route_state(self, state: object) -> object:
        """Encode per-lookup routing state for the live wire (S22).

        The live cluster (:mod:`repro.net`) routes hop-by-hop across
        node servers, so whatever :meth:`begin_route` returned has to
        cross a socket inside the forwarded frame as JSON.  Stateless
        protocols (the ``None`` default) need nothing; overlays that
        carry scratch state override this pair with a loss-free
        name/index encoding.  The contract: ``unpack_route_state`` must
        reconstruct an object under which every subsequent
        :meth:`next_hop` decision is bit-identical to the uninterrupted
        in-memory walk — the live-vs-engine parity suite pins exactly
        that.
        """
        if state is None:
            return None
        raise NotImplementedError(
            f"{type(self).__name__} carries routing state but does not "
            "implement pack_route_state/unpack_route_state for live "
            "serving"
        )

    def unpack_route_state(self, blob: object, key_id: object) -> object:
        """Rebuild :meth:`begin_route` state from its wire form."""
        if blob is None:
            return None
        raise NotImplementedError(
            f"{type(self).__name__} carries routing state but does not "
            "implement pack_route_state/unpack_route_state for live "
            "serving"
        )

    def on_dead_entry(self, observer: Node, dead: Node) -> int:
        """Lazy route repair: ``observer`` just timed out contacting
        ``dead`` (engine fault mode), so evict or replace the stale
        pointer(s) in ``observer``'s routing state — the leaf-set
        successor fallback for Cycloid, the finger walk-down for Chord,
        and so on per overlay.  Returns the number of entries repaired
        (the engine accumulates it in :attr:`route_repairs`).  Repairs
        rebind slots and never write into the lists they hold, which is
        what lets :meth:`~repro.sim.faults.FaultInjector.roll_back` undo
        them.  Default: overlays without repairable state do nothing.
        """
        return 0

    def finish_route(
        self, current: Node, key_id: object, state: object
    ) -> Optional[RoutingDecision]:
        """An optional final delivery hop once the walk has stopped
        (Cycloid's best-observed handoff).  Default: none."""
        return None

    def route(self, source: Node, key_id: object) -> LookupRecord:
        """Route a lookup from ``source`` toward ``key_id`` via the
        shared engine."""
        return LookupEngine(self).run(source, key_id)

    def lookup(self, source: Node, key: object) -> LookupRecord:
        """Route a lookup for an application ``key`` from ``source``."""
        return LookupEngine(self).run(source, self.key_id(key))

    def lookup_many(
        self,
        pairs: Iterable[Tuple[Node, object]],
        observer: Optional[TraceObserver] = None,
        injector: Optional["FaultInjector"] = None,
        retry_budget: int = 0,
        backend: str = "object",
        latency: Optional["LatencyModel"] = None,
    ) -> List[LookupRecord]:
        """Route a batch of ``(source, application key)`` lookups.

        One engine (and its scratch state) is reused across the whole
        batch, and ``observer`` — e.g. a
        :class:`~repro.dht.routing.JsonlTraceSink` — receives every
        per-hop trace event with lookup ids numbered from 0.  An active
        ``injector`` arms the engine's fault mode with the given
        per-lookup ``retry_budget``.

        ``backend`` selects the execution strategy (DESIGN §S23):
        ``"object"`` walks the node graph hop-at-a-time via the shared
        engine; ``"columnar"`` dispatches to the vectorized kernel in
        :mod:`repro.dht.kernel`, which is bit-identical and falls back
        to the object engine where required.

        ``latency`` attaches a :class:`~repro.sim.latency.LatencyModel`
        so each record carries the modeled end-to-end ``latency_ms``
        (DESIGN §S25); ``None`` keeps records bit-identical to the
        latency-free engine.
        """
        if backend != "object":
            from repro.dht.kernel import run_lookup_batch

            return run_lookup_batch(
                self,
                pairs,
                backend=backend,
                observer=observer,
                injector=injector,
                retry_budget=retry_budget,
                latency=latency,
            )
        engine = LookupEngine(self, observer, injector, retry_budget, latency)
        key_id = self.key_id
        return [engine.run(source, key_id(key)) for source, key in pairs]

    def route_many(
        self,
        pairs: Iterable[Tuple[Node, object]],
        observer: Optional[TraceObserver] = None,
        injector: Optional["FaultInjector"] = None,
        retry_budget: int = 0,
        backend: str = "object",
        latency: Optional["LatencyModel"] = None,
    ) -> List[LookupRecord]:
        """Route a batch of ``(source, key id)`` lookups (pre-hashed
        variant of :meth:`lookup_many`, same ``backend`` and ``latency``
        selection)."""
        if backend != "object":
            from repro.dht.kernel import run_lookup_batch

            return run_lookup_batch(
                self,
                pairs,
                backend=backend,
                observer=observer,
                injector=injector,
                retry_budget=retry_budget,
                hashed=True,
                latency=latency,
            )
        return LookupEngine(
            self, observer, injector, retry_budget, latency
        ).run_batch(pairs)

    def assign_keys(self, keys: Iterable[object]) -> Dict[Node, int]:
        """Distribute a key corpus; returns keys-per-node counts (Figs 8-9).

        Every live node appears in the result, including zero-key nodes —
        the 1st percentile in the paper's figures depends on them.
        """
        counts: Dict[Node, int] = {node: 0 for node in self.live_nodes()}
        for key in keys:
            counts[self.owner_of_key(key)] += 1
        return counts

    # ------------------------------------------------------------------
    # query-load accounting (Fig. 10)
    # ------------------------------------------------------------------

    def _record_visit(self, node: Node) -> None:
        self._query_counts[node.name] += 1

    def reset_query_counts(self) -> None:
        self._query_counts.clear()

    def query_counts(self) -> List[int]:
        """Per-live-node query counts, zero-filled for unvisited nodes."""
        counts = self._query_counts
        return [counts[node.name] for node in self.live_nodes()]

    # ------------------------------------------------------------------
    # clone (DESIGN §S21)
    # ------------------------------------------------------------------

    def clone(self) -> "Network":
        """Fast in-process deep clone (no serialisation round-trip)."""
        return clone_network(self)

    def __getstate__(self):
        # Pickle via the flat packed form: overlay node graphs are
        # linked structures with O(n) pointer-chain depth, so default
        # pickling recurses past the interpreter limit at paper scale.
        return pack_network(self)

    def __setstate__(self, packed) -> None:
        restored = unpack_network(packed)
        self.__dict__.update(restored.__dict__)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if protocol invariants are violated.

        Subclasses override with structural checks (ring consistency,
        leaf-set symmetry, ...); used heavily by the test suite. The base
        check is that live nodes report themselves alive.
        """
        for node in self.live_nodes():
            assert node.alive, f"live_nodes() returned dead node {node!r}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} n={self.size}>"


def filter_alive(nodes: Iterable[Optional[Node]]) -> List[Node]:
    """Utility: drop ``None`` and dead entries from a pointer list."""
    return [n for n in nodes if n is not None and n.alive]

"""The shared lookup execution engine.

Every overlay used to re-implement the same ``route()`` driver loop —
hop counting, ``HOP_LIMIT`` enforcement, timeout accounting, query-load
recording, ``phase_hops`` bookkeeping — around its protocol-specific
next-hop choice.  This module hoists that loop into one place:

* a protocol exposes a *pure step function*
  ``Network.next_hop(current, key_id, state) -> RoutingDecision`` plus
  optional ``begin_route`` (per-lookup scratch state) and
  ``finish_route`` (a final delivery hop, e.g. Cycloid's best-observed
  handoff);
* :class:`LookupEngine` drives the loop once for everyone, enforcing
  ``HOP_LIMIT``, accumulating the :class:`~repro.dht.metrics.LookupRecord`,
  doing query-load accounting, and asserting the phase-sum invariant
  (``sum(phase_hops.values()) == hops``) that
  :class:`~repro.dht.metrics.LookupRecord` can only check when the phase
  dict is populated;
* per-hop :class:`TraceEvent` objects go to a pluggable
  :class:`TraceObserver`.  The default is no observer at all — the hot
  path pays a single ``is None`` test per hop.

The engine is deliberately tolerant of protocols that consume routing
state without sending a message (Koorde's de Bruijn self-shift):
a decision with neither a node nor a terminal flag re-enters the loop
without counting a hop.

**Fault mode.**  When the engine is built with an *active*
:class:`~repro.sim.faults.FaultInjector`, it flips
``network.fault_detection`` on for the duration of each lookup.  Step
functions then return their first-preference candidate *without*
filtering dead entries (plus a ranked ``alternates`` list), and the
engine takes over failure detection: every prospective hop is probed
through the injector, a dead target costs one timeout and triggers the
overlay's :meth:`~repro.dht.base.Network.on_dead_entry` lazy repair
before falling through to the next alternate, a dropped message costs
one timeout and re-probes the same target, and each continuation after
a failed probe consumes one unit of the per-lookup ``retry_budget``.
Failed probes appear on the trace stream as :class:`TraceEvent`\\ s
with ``kind`` ``"timeout"`` (dead target) or ``"retry"`` (message
lost).  Without an injector — or with an inactive plan — none of this
runs and routing is bit-exact with the pre-fault engine (pinned by the
golden parity tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    IO,
    TYPE_CHECKING,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.dht.metrics import LookupRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.dht.base import Network, Node
    from repro.sim.faults import FaultInjector
    from repro.sim.latency import LatencyModel

__all__ = [
    "RoutingDecision",
    "TraceEvent",
    "TraceObserver",
    "JsonlTraceSink",
    "RecordingTracer",
    "LookupEngine",
    "execute_lookup",
    "step_route",
]


class RoutingDecision:
    """One protocol routing step, as seen by the engine.

    The four meaningful shapes (use the factory methods):

    ========================  =========================================
    ``forward(node, phase)``  hop to ``node``, keep routing
    ``deliver(node, phase)``  hop to ``node``, then stop (delivery step)
    ``terminate()``           stop at the current node
    ``dead_end()``            stop; the lookup failed (no live pointer)
    ``advance()``             consume routing state, no message sent
    ========================  =========================================

    ``timeouts`` counts dead nodes contacted while making the decision
    (paper §4.3); the engine accumulates it in every case, including
    terminal ones.

    ``alternates`` is a ranked tuple of ``(node, phase)`` fallback
    candidates, populated only when the network is in fault-detection
    mode (``network.fault_detection``): if the engine's probe of the
    primary target fails, it falls through these in order.  In the
    fault-free path it is always empty and never consulted.
    """

    __slots__ = ("node", "phase", "timeouts", "terminal", "failed", "alternates")

    def __init__(
        self,
        node: Optional["Node"],
        phase: str,
        timeouts: int,
        terminal: bool,
        failed: bool,
        alternates: Tuple[Tuple["Node", str], ...] = (),
    ) -> None:
        self.node = node
        self.phase = phase
        self.timeouts = timeouts
        self.terminal = terminal
        self.failed = failed
        self.alternates = alternates

    @staticmethod
    def forward(
        node: "Node",
        phase: str,
        timeouts: int = 0,
        alternates: Tuple[Tuple["Node", str], ...] = (),
    ) -> "RoutingDecision":
        """Hop to ``node`` (one message) and keep routing."""
        return RoutingDecision(node, phase, timeouts, False, False, alternates)

    @staticmethod
    def deliver(
        node: "Node",
        phase: str,
        timeouts: int = 0,
        alternates: Tuple[Tuple["Node", str], ...] = (),
    ) -> "RoutingDecision":
        """Hop to ``node`` and terminate — the delivery step."""
        return RoutingDecision(node, phase, timeouts, True, False, alternates)

    @staticmethod
    def terminate(timeouts: int = 0) -> "RoutingDecision":
        """Stop at the current node (it believes it is responsible, or
        no entry improves on what has been seen)."""
        return RoutingDecision(None, "", timeouts, True, False)

    @staticmethod
    def dead_end(timeouts: int = 0) -> "RoutingDecision":
        """Stop at the current node; the lookup failed outright."""
        return RoutingDecision(None, "", timeouts, True, True)

    @staticmethod
    def advance(timeouts: int = 0) -> "RoutingDecision":
        """Consume routing state without sending a message (Koorde's
        self-pointing de Bruijn shift); the engine loops again without
        counting a hop."""
        return RoutingDecision(None, "", timeouts, False, False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = self.node if self.node is not None else "-"
        kind = "terminal" if self.terminal else "forward"
        return (
            f"<RoutingDecision {kind} {target} phase={self.phase!r} "
            f"timeouts={self.timeouts} failed={self.failed}>"
        )


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One routed hop, as emitted to trace observers.

    ``hop`` is 1-based; ``timeouts`` counts the dead nodes contacted
    while deciding this hop (not a running total).

    ``kind`` is ``"hop"`` for every counted hop.  In fault mode the
    engine additionally reports failed probes on the same stream:
    ``"timeout"`` (probe hit a dead node; ``node`` is the dead target,
    ``hop`` the prospective hop index that was being attempted) and
    ``"retry"`` (the message to a live target was lost; the engine
    re-probes it while retry budget remains).  Failed-probe events
    never count as hops.

    ``latency_ms`` is this hop's modeled link delay when the engine was
    built with a :class:`~repro.sim.latency.LatencyModel`; it stays
    ``None`` on latency-free runs and on failed-probe events (latency is
    charged only on counted hops, so a record's total always equals the
    sum over its path).
    """

    lookup_id: int
    hop: int
    node: object
    phase: str
    timeouts: int
    kind: str = "hop"
    latency_ms: Optional[float] = None


class TraceObserver:
    """Receiver of per-lookup trace callbacks.  All methods are no-ops;
    subclass and override what you need.  Passing ``observer=None`` to
    the engine (the default) skips event construction entirely."""

    def on_lookup_start(
        self, lookup_id: int, source: "Node", key_id: object
    ) -> None:
        """A lookup is about to be routed."""

    def on_hop(self, event: TraceEvent) -> None:
        """One hop was taken (exactly one call per counted hop)."""

    def on_lookup_end(self, lookup_id: int, record: LookupRecord) -> None:
        """The lookup terminated; ``record`` is its final accounting."""


class JsonlTraceSink(TraceObserver):
    """Write one JSON line per hop to ``stream`` (the ``--trace`` format).

    Every line carries the lookup id, the 1-based hop index, the node
    hopped to, the phase label and the step's timeout count; node names
    and ids are stringified so any overlay's identifiers serialise.
    Failed-probe events (fault mode only) additionally carry a ``kind``
    key (``"timeout"`` or ``"retry"``); plain hops omit it, keeping the
    fault-free line format unchanged.  Likewise a hop routed under a
    latency model carries its modeled ``latency_ms``, and latency-free
    hops omit the key.
    """

    def __init__(self, stream: IO[str]) -> None:
        self.stream = stream
        self.events_written = 0

    def on_hop(self, event: TraceEvent) -> None:
        line = {
            "lookup": event.lookup_id,
            "hop": event.hop,
            "node": str(event.node),
            "phase": event.phase,
            "timeouts": event.timeouts,
        }
        if event.kind != "hop":
            line["kind"] = event.kind
        if event.latency_ms is not None:
            line["latency_ms"] = event.latency_ms
        self.stream.write(json.dumps(line))
        self.stream.write("\n")
        self.events_written += 1


class RecordingTracer(TraceObserver):
    """Keep every event in memory — the test/debugging observer."""

    def __init__(self) -> None:
        self.starts: List[Tuple[int, object, object]] = []
        self.events: List[TraceEvent] = []
        self.records: List[Tuple[int, LookupRecord]] = []

    def on_lookup_start(
        self, lookup_id: int, source: "Node", key_id: object
    ) -> None:
        self.starts.append((lookup_id, source.name, key_id))

    def on_hop(self, event: TraceEvent) -> None:
        self.events.append(event)

    def on_lookup_end(self, lookup_id: int, record: LookupRecord) -> None:
        self.records.append((lookup_id, record))

    def events_for(self, lookup_id: int) -> List[TraceEvent]:
        return [e for e in self.events if e.lookup_id == lookup_id]


def step_route(
    network: "Network", current: "Node", key_id: object, state: object
) -> Tuple[RoutingDecision, int]:
    """One engine-equivalent routing step at ``current``.

    Calls :meth:`~repro.dht.base.Network.next_hop` repeatedly until the
    protocol either names a hop target or terminates, absorbing any
    message-free ``advance()`` decisions (Koorde's de Bruijn self-shift)
    in between.  Returns the hop-or-terminal decision plus the timeouts
    the absorbed advances accumulated (the final decision's own
    ``timeouts`` are *not* included — they stay attributed to the hop,
    exactly as the engine traces them).

    This is the single step primitive shared by :class:`LookupEngine`
    and the live cluster serving layer (:mod:`repro.net.server`), which
    routes the same decisions hop-by-hop over real sockets; keeping both
    on one code path is what makes the live-vs-engine parity suite
    meaningful.
    """
    advance_timeouts = 0
    while True:
        decision = network.next_hop(current, key_id, state)
        if decision.node is not None or decision.terminal:
            return decision, advance_timeouts
        advance_timeouts += decision.timeouts


class LookupEngine:
    """The single driver loop shared by all overlays.

    One engine instance carries reusable scratch across a batch of
    lookups: the observer, the running lookup id, and the zeroed
    phase-dict template (``Network.ROUTING_PHASES``) copied per lookup
    so records keep the pre-refactor shape of every phase present even
    at zero hops.

    ``injector`` + ``retry_budget`` arm fault mode (see the module
    docstring); with the default ``injector=None`` the engine is the
    bit-exact fault-free driver.

    ``latency`` attaches a :class:`~repro.sim.latency.LatencyModel`:
    every counted hop is then charged the model's link delay, traced on
    its :class:`TraceEvent`, and summed into the record's
    ``latency_ms``.  The total is a pure function of the record's
    ``path``, so any executor that reproduces the path (the columnar
    kernel, the live cluster) reproduces the milliseconds bit-exactly.
    With the default ``latency=None`` records carry ``latency_ms=None``
    and are bit-identical to the pre-latency engine.
    """

    __slots__ = (
        "network",
        "observer",
        "injector",
        "retry_budget",
        "latency",
        "_fault_mode",
        "_next_id",
        "_phase_template",
    )

    def __init__(
        self,
        network: "Network",
        observer: Optional[TraceObserver] = None,
        injector: Optional["FaultInjector"] = None,
        retry_budget: int = 0,
        latency: Optional["LatencyModel"] = None,
    ) -> None:
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        self.network = network
        self.observer = observer
        self.injector = injector
        self.retry_budget = retry_budget
        self.latency = latency
        self._fault_mode = injector is not None and injector.active
        self._next_id = 0
        self._phase_template = dict.fromkeys(network.ROUTING_PHASES, 0)

    def _probe(
        self,
        lookup_id: int,
        hop_index: int,
        current: "Node",
        decision: RoutingDecision,
        budget: int,
    ) -> Tuple[Optional["Node"], str, int, int, int]:
        """Resolve a decision's target under fault injection.

        Walks the primary candidate then the ranked alternates: a lost
        message re-probes the same target, a dead target triggers the
        overlay's :meth:`~repro.dht.base.Network.on_dead_entry` lazy
        repair (journaled first, so that
        :meth:`~repro.sim.faults.FaultInjector.roll_back` can undo it)
        and falls through to the next candidate.  Every failed
        probe costs one timeout and is traced; every continuation after
        a failed probe spends one unit of the per-lookup retry budget.

        Returns ``(node, phase, timeouts, retries, budget_left)``;
        ``node`` is ``None`` when the budget or candidates ran out.
        """
        network = self.network
        injector = self.injector
        observer = self.observer
        candidates = [(decision.node, decision.phase)]
        candidates.extend(decision.alternates)
        timeouts = 0
        retries = 0
        index = 0
        while index < len(candidates):
            node, phase = candidates[index]
            if node.alive and injector.delivered(current, node):
                return node, phase, timeouts, retries, budget
            timeouts += 1
            if node.alive:
                kind = "retry"  # message lost; same target again
            else:
                kind = "timeout"
                injector.note_repair(current)
                network.route_repairs += network.on_dead_entry(current, node)
                index += 1
            if observer is not None:
                observer.on_hop(
                    TraceEvent(lookup_id, hop_index, node.name, phase, 1, kind)
                )
            if budget <= 0:
                break
            budget -= 1
            retries += 1
        return None, "", timeouts, retries, budget

    def run(self, source: "Node", key_id: object) -> LookupRecord:
        """Route one lookup from ``source`` toward ``key_id``."""
        network = self.network
        observer = self.observer
        fault_mode = self._fault_mode
        latency = self.latency
        total_ms = 0.0
        # Step functions consult this flag to decide whether to filter
        # dead entries themselves (fault-free) or hand the engine an
        # unfiltered primary plus alternates (fault mode).  Set on every
        # run so a fault engine never leaks the flag into later
        # fault-free engines on the same network.
        network.fault_detection = fault_mode
        budget = self.retry_budget
        lookup_id = self._next_id
        self._next_id += 1
        if not source.alive:
            raise ValueError("lookup source must be alive")
        owner = network.cached_owner_of_id(key_id)
        phases = dict(self._phase_template)
        state = network.begin_route(source, key_id)
        current = source
        hops = 0
        timeouts = 0
        retries = 0
        failed = False
        path = [source.name]
        if observer is not None:
            observer.on_lookup_start(lookup_id, source, key_id)
        record_visit = network._record_visit
        limit = network.HOP_LIMIT

        while hops < limit:
            decision, advance_timeouts = step_route(
                network, current, key_id, state
            )
            timeouts += advance_timeouts + decision.timeouts
            node = decision.node
            phase = decision.phase
            if node is None:
                failed = decision.failed
                break
            if fault_mode:
                node, phase, probe_timeouts, probe_retries, budget = (
                    self._probe(lookup_id, hops + 1, current, decision, budget)
                )
                timeouts += probe_timeouts
                retries += probe_retries
                if node is None:
                    # Could not reach any candidate: the message is
                    # stuck at ``current`` and the lookup fails.
                    failed = True
                    break
            hop_ms = None
            if latency is not None:
                hop_ms = latency.delay_ms(current.name, node.name)
                total_ms += hop_ms
            current = node
            hops += 1
            phases[phase] += 1
            path.append(node.name)
            record_visit(node)
            if observer is not None:
                observer.on_hop(
                    TraceEvent(
                        lookup_id,
                        hops,
                        node.name,
                        phase,
                        decision.timeouts,
                        latency_ms=hop_ms,
                    )
                )
            if decision.terminal:
                break

        # A protocol may owe one final delivery hop once the walk stops
        # (Cycloid hands the request to the closest live node the
        # message observed, §3.1); this runs even when the loop exhausted
        # HOP_LIMIT, exactly as the pre-engine implementations did.
        final = network.finish_route(current, key_id, state)
        if final is not None and final.node is not None:
            timeouts += final.timeouts
            node = final.node
            phase = final.phase
            if fault_mode:
                node, phase, probe_timeouts, probe_retries, budget = (
                    self._probe(lookup_id, hops + 1, current, final, budget)
                )
                timeouts += probe_timeouts
                retries += probe_retries
            if node is not None:
                hop_ms = None
                if latency is not None:
                    hop_ms = latency.delay_ms(current.name, node.name)
                    total_ms += hop_ms
                current = node
                hops += 1
                phases[phase] += 1
                path.append(current.name)
                record_visit(current)
                if observer is not None:
                    observer.on_hop(
                        TraceEvent(
                            lookup_id,
                            hops,
                            current.name,
                            phase,
                            final.timeouts,
                            latency_ms=hop_ms,
                        )
                    )

        assert sum(phases.values()) == hops, (
            f"{network.protocol_name}: phase hops {phases} do not sum to "
            f"{hops} total hops"
        )
        record = LookupRecord(
            hops=hops,
            success=(not failed) and current is owner,
            timeouts=timeouts,
            phase_hops=phases,
            source=source.name,
            key=key_id,
            owner=current.name,
            path=path,
            retries=retries,
            latency_ms=total_ms if latency is not None else None,
        )
        if observer is not None:
            observer.on_lookup_end(lookup_id, record)
        return record

    def run_batch(
        self, pairs: Iterable[Tuple["Node", object]]
    ) -> List[LookupRecord]:
        """Route ``(source, key_id)`` pairs, reusing this engine's state."""
        run = self.run
        return [run(source, key_id) for source, key_id in pairs]


def execute_lookup(
    network: "Network",
    source: "Node",
    key_id: object,
    observer: Optional[TraceObserver] = None,
    injector: Optional["FaultInjector"] = None,
    retry_budget: int = 0,
    latency: Optional["LatencyModel"] = None,
) -> LookupRecord:
    """Convenience wrapper: route a single lookup through a fresh engine."""
    return LookupEngine(network, observer, injector, retry_budget, latency).run(
        source, key_id
    )

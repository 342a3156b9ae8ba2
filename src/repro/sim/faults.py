"""Deterministic fault injection: crashes, message loss, flaky nodes.

The paper scopes ungraceful failures out of the routing design ("nodes
must notify others before leaving", §3.4) and lists handling them as
future work (§5).  This module injects exactly that scenario in a
reproducible way:

* **ungraceful crashes** — a node vanishes via :meth:`Network.fail`
  without notifying anyone, so every pointer to it anywhere goes stale
  (unlike :func:`repro.experiments.common.fail_nodes`, whose departures
  are graceful and keep leaf sets / successor lists fresh);
* **message loss** — any routed message is dropped with a seeded
  probability, indistinguishable to the sender from a dead target;
* **flaky nodes** — a seeded subset of nodes drops inbound messages at
  a (much higher) per-node rate, modelling overloaded or half-dead
  peers.

A :class:`FaultPlan` is pure configuration; a :class:`FaultInjector`
carries the seeded random streams and the drop/crash decisions.  Every
stream is derived from the plan's single mandatory ``seed``, so a fault
schedule is a pure function of the plan — two injectors built from the
same plan crash the same nodes and drop the same messages.

When the plan is *disabled* (all probabilities zero) the injector is
inert: :class:`repro.dht.routing.LookupEngine` then routes exactly as
it does with no injector at all, which the golden parity tests pin
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.util.rng import derive_rng, make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.dht.base import Network, Node

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultState",
    "RetryPolicy",
    "ChurnEvent",
    "ChurnPlan",
]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")


@dataclass(frozen=True)
class FaultPlan:
    """Configuration of one fault schedule.

    ``seed`` is mandatory by construction: every failure experiment
    must be reproducible, so there is no unseeded fallback anywhere in
    the fault path.
    """

    seed: int
    #: per-node probability of an ungraceful crash (no notifications).
    crash_probability: float = 0.0
    #: per-message drop probability on every link.
    message_loss: float = 0.0
    #: fraction of nodes marked flaky by :meth:`FaultInjector.mark_flaky`.
    flaky_fraction: float = 0.0
    #: inbound drop probability at a flaky node (replaces, not stacks
    #: with, ``message_loss`` for messages to that node).
    flaky_loss: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise TypeError("FaultPlan.seed must be an int")
        _check_probability("crash_probability", self.crash_probability)
        _check_probability("message_loss", self.message_loss)
        _check_probability("flaky_fraction", self.flaky_fraction)
        _check_probability("flaky_loss", self.flaky_loss)

    @property
    def active(self) -> bool:
        """Whether this plan injects any fault at all.  An inactive plan
        makes the lookup engine behave exactly as if no injector were
        attached (the bit-exact fault-free path)."""
        return (
            self.crash_probability > 0.0
            or self.message_loss > 0.0
            or self.flaky_fraction > 0.0
        )


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled membership change of a live churn run (S24)."""

    #: seconds after the run's start at which the event fires.
    time: float
    #: ``"crash"`` (ungraceful kill) or ``"join"`` (rejoin of a victim).
    action: str
    #: the virtual node the event targets.
    node: str


@dataclass(frozen=True)
class ChurnPlan:
    """A seeded kill/rejoin schedule for the live churn harness (S24).

    Like :class:`FaultPlan`, the plan is pure configuration with a
    mandatory ``seed``: :meth:`schedule` is a pure function of
    ``(plan, names, duration)``, so two churn runs over the same
    cluster replay byte-identical membership timelines — which is what
    makes the zero-acknowledged-write-loss acceptance test
    deterministic.
    """

    seed: int
    #: how many distinct victims are ungracefully crashed.
    kills: int = 3
    #: whether each victim rejoins (same name, fresh join protocol)
    #: midway between its kill and the next one.
    rejoin: bool = True
    #: fraction of the run duration where the first kill fires.
    start: float = 0.2
    #: fraction of the run duration where churn ends.
    end: float = 0.8

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise TypeError("ChurnPlan.seed must be an int")
        if self.kills < 0:
            raise ValueError("kills must be >= 0")
        if not 0.0 <= self.start < self.end <= 1.0:
            raise ValueError(
                "churn window must satisfy 0 <= start < end <= 1, got "
                f"[{self.start}, {self.end}]"
            )

    def schedule(
        self, names: Sequence[str], duration: float
    ) -> List[ChurnEvent]:
        """The deterministic event timeline for one run.

        Victims are a seeded sample of ``names`` (at most
        ``len(names) - 1`` — someone must survive); kills are spread
        evenly across the ``[start, end]`` window with seeded jitter,
        and each rejoin fires halfway to the next kill so the
        population recovers between blows.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        pool = sorted(str(name) for name in names)
        kills = min(self.kills, max(0, len(pool) - 1))
        if not kills:
            return []
        rng = make_rng(self.seed)
        victims = rng.sample(pool, kills)
        window = (self.end - self.start) * duration
        spacing = window / kills
        events: List[ChurnEvent] = []
        for index, victim in enumerate(victims):
            jitter = (rng.random() - 0.5) * 0.2 * spacing
            at = self.start * duration + index * spacing + jitter
            at = min(max(at, 0.0), duration)
            events.append(ChurnEvent(at, "crash", victim))
            if self.rejoin:
                events.append(
                    ChurnEvent(
                        min(at + 0.5 * spacing, duration), "join", victim
                    )
                )
        events.sort(key=lambda event: (event.time, event.action, event.node))
        return events


@dataclass(frozen=True)
class RetryPolicy:
    """The shared retry semantics of the fault harness (S19/S22).

    ``budget`` has exactly the meaning of the lookup engine's
    ``retry_budget``: the number of *continuations after a failed
    attempt* a single operation may spend — an exhausted budget fails
    the operation on the spot, so a budget of ``b`` allows at most
    ``b + 1`` attempts in total.  The simulated engine
    (:class:`repro.dht.routing.LookupEngine`) charges the budget per
    failed probe with zero delay (simulated time); the live
    :class:`repro.net.client.ClusterClient` charges it per timed-out or
    failed RPC and sleeps :meth:`delay` in between — capped exponential
    backoff, the wall-clock counterpart of the engine's probe loop.
    """

    budget: int = 8
    #: sleep before the first re-attempt (seconds).
    base_delay: float = 0.02
    #: backoff growth factor per consecutive failure.
    multiplier: float = 2.0
    #: upper bound on any single sleep (seconds).
    max_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("retry budget must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("retry delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("retry multiplier must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before re-attempt ``attempt`` (0-based): capped
        ``base_delay * multiplier**attempt``."""
        if attempt < 0:
            raise ValueError("attempt index must be >= 0")
        return min(
            self.base_delay * self.multiplier**attempt, self.max_delay
        )

    def delays(self) -> Tuple[float, ...]:
        """The full backoff schedule, one entry per budget unit."""
        return tuple(self.delay(i) for i in range(self.budget))


class FaultInjector:
    """Executes a :class:`FaultPlan` with independent seeded streams.

    Crash selection, message loss and flaky-node selection each draw
    from their own derived stream, so e.g. raising the lookup count
    never changes which nodes crash.
    """

    __slots__ = (
        "plan",
        "_crash_rng",
        "_loss_rng",
        "_flaky_rng",
        "flaky_nodes",
        "crashed",
        "dropped",
        "journal",
    )

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        root = make_rng(plan.seed)
        self._crash_rng = derive_rng(root, 1)
        self._loss_rng = derive_rng(root, 2)
        self._flaky_rng = derive_rng(root, 3)
        #: names of nodes marked flaky by :meth:`mark_flaky`.
        self.flaky_nodes: Set[object] = set()
        #: nodes crashed so far (for experiment reporting).
        self.crashed = 0
        #: messages dropped so far (loss + flaky).
        self.dropped = 0
        #: node -> its slot values from before the first lazy repair
        #: the engine made on it under this injector (:meth:`roll_back`).
        self.journal: Dict["Node", List[object]] = {}

    @property
    def active(self) -> bool:
        return self.plan.active

    def for_shard(self, shard: int) -> "FaultInjector":
        """An injector for one shard of a sharded lookup workload.

        The child shares this injector's *decisions* — same plan, same
        crash/flaky streams, and a copy of the flaky set — but draws
        message-loss verdicts from a stream derived from ``(plan.seed,
        shard)``, so each shard's drops are a pure function of the plan
        and the shard index, independent of how many lookups other
        shards routed first.  Shard 0 is bit-identical to the parent,
        so a single-shard workload matches a direct (unsharded) run.
        """
        if shard < 0:
            raise ValueError("shard index must be non-negative")
        child = FaultInjector(self.plan)
        if shard:
            child._loss_rng = derive_rng(child._loss_rng, shard)
        child.flaky_nodes = set(self.flaky_nodes)
        return child

    def note_repair(self, node: "Node") -> None:
        """Journal ``node``'s own ``__slots__`` (its routing state), once;
        the engine calls this before every lazy repair."""
        if node not in self.journal:
            self.journal[node] = [getattr(node, s) for s in node.__slots__]

    def roll_back(self) -> None:
        """Undo every lazy repair made while routing with this injector.

        Lazy repair (:meth:`~repro.dht.base.Network.on_dead_entry`) is
        the only change fault-mode routing makes to routing tables, and
        it only rebinds slots, so the journaled values restore them.
        The shards of a cell rely on this to share one network.
        """
        for node, values in self.journal.items():
            for slot, value in zip(node.__slots__, values):
                setattr(node, slot, value)
        self.journal.clear()

    # ------------------------------------------------------------------
    # topology-level faults (applied before or between lookups)
    # ------------------------------------------------------------------

    def crash_nodes(self, network: "Network") -> int:
        """Ungracefully crash each live node with the plan's probability.

        Crashes go through :meth:`Network.fail` — no relatives are
        notified, so routing state all over the overlay goes stale.  At
        least one node is always left alive.  Returns the crash count.
        """
        probability = self.plan.crash_probability
        rng = self._crash_rng
        victims = [
            node for node in network.live_nodes() if rng.random() < probability
        ]
        crashed = 0
        for node in victims:
            if network.size <= 1:
                break
            network.fail(node)
            crashed += 1
        self.crashed += crashed
        return crashed

    def mark_flaky(self, network: "Network") -> int:
        """Mark a seeded ``flaky_fraction`` of live nodes flaky.

        Flaky nodes stay in the overlay but drop inbound messages with
        ``flaky_loss`` probability.  Returns how many were marked.
        """
        fraction = self.plan.flaky_fraction
        rng = self._flaky_rng
        marked = 0
        for node in network.live_nodes():
            if rng.random() < fraction:
                self.flaky_nodes.add(node.name)
                marked += 1
        return marked

    # ------------------------------------------------------------------
    # message-level faults (probed per attempted hop by the engine)
    # ------------------------------------------------------------------

    def delivered(self, sender: "Node", receiver: "Node") -> bool:
        """Whether one message from ``sender`` reaches ``receiver``.

        Draws from the loss stream only when a drop is possible, so an
        all-zero plan consumes no randomness.
        """
        probability = self.plan.message_loss
        if receiver.name in self.flaky_nodes:
            probability = self.plan.flaky_loss
        if probability <= 0.0:
            return True
        if self._loss_rng.random() < probability:
            self.dropped += 1
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector seed={self.plan.seed} "
            f"crash={self.plan.crash_probability} "
            f"loss={self.plan.message_loss} crashed={self.crashed} "
            f"dropped={self.dropped}>"
        )


@dataclass(frozen=True)
class FaultState:
    """Post-setup injector state, reattachable after a snapshot restore.

    An injector is never serialised with a network snapshot (DESIGN
    §S21): ``random.Random`` stream positions consumed during setup are
    irrelevant once crashes and flaky marks are baked into the network,
    and :meth:`FaultInjector.for_shard` derives every per-shard loss
    stream fresh from ``plan.seed`` alone.  So the whole post-setup
    injector is a pure function of ``(plan, flaky_nodes, crashed)`` —
    which is exactly what this dataclass carries.  :meth:`rebuild`
    therefore yields an injector whose shard children are bit-identical
    to the original's, making the snapshot path's fault schedule
    indistinguishable from the rebuild path's.
    """

    plan: FaultPlan
    flaky_nodes: FrozenSet[object] = field(default_factory=frozenset)
    crashed: int = 0

    @classmethod
    def capture(cls, injector: FaultInjector) -> "FaultState":
        return cls(
            plan=injector.plan,
            flaky_nodes=frozenset(injector.flaky_nodes),
            crashed=injector.crashed,
        )

    def rebuild(self) -> FaultInjector:
        injector = FaultInjector(self.plan)
        injector.flaky_nodes = set(self.flaky_nodes)
        injector.crashed = self.crashed
        return injector

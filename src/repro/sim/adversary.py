"""Deterministic adversarial membership: sybil clustering + eclipse
poisoning (DESIGN §S27).

Every workload elsewhere in the reproduction is honest; this module
injects the two classic structured-overlay attacks in a seeded,
reproducible way, mirroring the :class:`repro.sim.faults.FaultPlan`
design:

* **sybil ID clustering** — the adversary inserts ``sybils`` virtual
  nodes whose identifiers are *crafted*, not hashed: they surround the
  target key's identifier (consecutive ring ids clockwise from the key
  for Chord/Koorde; the nearest free slots of the key's Cycloid cycle,
  spilling into adjacent cycles).  The attackers join politely and wait
  for a full stabilisation round, so the honest overlay wires them in
  exactly as it would any member — the attack is in the *placement*,
  which consistent hashing is supposed to forbid.
* **eclipse routing-table poisoning** — after infiltration, a seeded
  fraction of honest nodes have their repairable routing entries (the
  same entries :meth:`~repro.dht.base.Network.on_dead_entry` mutates:
  cubical/cyclic neighbours and outside leaf sets for Cycloid, fingers
  for Chord, de Bruijn pointers for Koorde) rewired toward attacker
  nodes.  Ground-truth structures — inside leaf sets, successor lists,
  predecessors — are left intact, so the overlay still *owns* keys
  correctly; it just can no longer route honestly.

An :class:`AdversaryPlan` is pure configuration with a mandatory
``seed``; an :class:`Adversary` executes it.  Every decision (victim
selection, per-entry attacker choice) is a pure stable-hash function of
``(seed, name, slot)`` via :func:`repro.sim.latency.stable_unit` — no
RNG streams, no iteration-order dependence — so two applications of one
plan to identically-built networks produce bit-identical poisoned
topologies, in any process.  A *disabled* plan (no sybils, zero eclipse
fraction) leaves the network untouched — not even a stabilisation round
runs — which the golden parity tests pin bit-exactly.

Attack metrics are overlay-generic:

* :func:`capture_fraction` — the fraction of the keyspace whose
  ground-truth owner is an attacker, estimated by seeded key probes
  against :meth:`~repro.dht.base.Network.owner_of_id`;
* :func:`interception_rate` — the fraction of routed lookups whose path
  crosses an attacker node, computed from the engine's recorded paths
  (or live via :class:`InterceptionTracer`, a
  :class:`~repro.dht.routing.TraceObserver` — the two agree exactly,
  and because the columnar kernel reproduces paths bit-identically,
  both backends report the same numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    FrozenSet,
    Iterable,
    List,
    Sequence,
    Set,
)

from repro.sim.latency import stable_unit

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.dht.base import Network, Node
    from repro.dht.metrics import LookupRecord

from repro.dht.routing import TraceEvent, TraceObserver

__all__ = [
    "AdversaryPlan",
    "Adversary",
    "attacker_name",
    "capture_fraction",
    "interception_rate",
    "InterceptionTracer",
]

#: Name prefix of adversary-controlled virtual nodes.
ATTACKER_PREFIX = "evil-"


def attacker_name(index: int) -> str:
    """The (deterministic) name of the ``index``-th sybil node."""
    return f"{ATTACKER_PREFIX}{index}"


@dataclass(frozen=True)
class AdversaryPlan:
    """Configuration of one adversarial-membership scenario.

    Like :class:`~repro.sim.faults.FaultPlan`, the ``seed`` is mandatory
    by construction — an attack schedule must be reproducible or it is
    useless for parity testing.  The plan is pure data: it pickles, it
    round-trips through :meth:`to_config`/:meth:`from_config` (for JSON
    reports and cluster specs), and :meth:`for_shard` lets the sharded
    runner treat it like every other plan object.
    """

    seed: int
    #: number of attacker virtual nodes inserted with crafted ids.
    sybils: int = 0
    #: the application key the sybil cluster surrounds.
    target_key: str = "target"
    #: fraction of honest nodes whose routing entries are poisoned.
    eclipse_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise TypeError("AdversaryPlan.seed must be an int")
        if self.sybils < 0:
            raise ValueError("sybils must be >= 0")
        if not 0.0 <= self.eclipse_fraction <= 1.0:
            raise ValueError(
                "eclipse_fraction must be within [0, 1], got "
                f"{self.eclipse_fraction!r}"
            )

    @property
    def active(self) -> bool:
        """Whether this plan mutates the network at all.  An inactive
        plan leaves every overlay bit-exact (the golden parity bar)."""
        return self.sybils > 0 or self.eclipse_fraction > 0.0

    def attacker_names(self) -> FrozenSet[str]:
        """The names of every sybil this plan would insert."""
        return frozenset(attacker_name(i) for i in range(self.sybils))

    def to_config(self) -> dict:
        """The plan as a plain JSON-serialisable dict."""
        return {
            "seed": self.seed,
            "sybils": self.sybils,
            "target_key": self.target_key,
            "eclipse_fraction": self.eclipse_fraction,
        }

    @classmethod
    def from_config(cls, config: dict) -> "AdversaryPlan":
        """Rebuild a plan from :meth:`to_config` output."""
        return cls(
            seed=int(config["seed"]),
            sybils=int(config.get("sybils", 0)),
            target_key=str(config.get("target_key", "target")),
            eclipse_fraction=float(config.get("eclipse_fraction", 0.0)),
        )

    def for_shard(self, index: int) -> "AdversaryPlan":
        """The plan as seen by shard ``index`` of a sharded run.

        Adversarial mutations are applied at *setup time* — before any
        lookup routes — and every decision is a pure stable-hash
        function of the seed, so every shard must see the identical
        poisoned topology and the method returns ``self`` (exactly like
        :meth:`repro.sim.latency.LatencyModel.for_shard`).  The
        hypothesis suite pins the resulting worker-count invariance.
        """
        if index < 0:
            raise ValueError("shard index must be non-negative")
        return self


class Adversary:
    """Executes an :class:`AdversaryPlan` against a built network.

    Usage: build the honest overlay, then ``Adversary(plan).apply(net)``.
    After :meth:`apply`, :attr:`attacker_names` holds the inserted sybil
    names (in insertion order) and the counters describe what happened.
    The executor is deliberately stateless between networks — applying
    one adversary to two identically-built networks yields bit-identical
    results, which is what lets a sharded run on restored snapshots
    agree with a fresh build per shard.
    """

    __slots__ = (
        "plan",
        "attacker_names",
        "inserted",
        "victims",
        "poisoned_entries",
    )

    def __init__(self, plan: AdversaryPlan) -> None:
        self.plan = plan
        #: sybil names actually inserted, in insertion order.
        self.attacker_names: List[str] = []
        self.inserted = 0
        self.victims = 0
        self.poisoned_entries = 0

    @property
    def active(self) -> bool:
        return self.plan.active

    def apply(self, network: "Network") -> None:
        """Infiltrate then poison.  A no-op for an inactive plan — the
        network is left bit-exact, stabilisation included."""
        if not self.plan.active:
            return
        self.infiltrate(network)
        self.poison(network)

    # ------------------------------------------------------------------
    # sybil ID clustering
    # ------------------------------------------------------------------

    def infiltrate(self, network: "Network") -> int:
        """Insert the plan's sybils at crafted identifiers.

        The attackers enter through :meth:`Network.insert_at`
        (modelling joins whose node-id the adversary chose), then one
        full stabilisation round wires everyone — attacker and honest
        node alike — from the new membership, exactly as the overlay's
        periodic stabilisation would.  Returns how many sybils were
        inserted (fewer than planned only when the crafted region of
        the id space runs out of free slots).
        """
        count = self.plan.sybils
        if count == 0:
            return 0
        from repro.core.network import CycloidNetwork
        from repro.dht.ring_overlay import SuccessorRingNetwork

        if isinstance(network, CycloidNetwork):
            slots = self._cycloid_slots(network, count)
        elif isinstance(network, SuccessorRingNetwork):
            slots = self._ring_slots(network, count)
        else:
            raise ValueError(
                f"{type(network).__name__} does not support sybil "
                "infiltration; supported overlays: Cycloid, Chord, Koorde"
            )
        for node_id in slots:
            name = attacker_name(len(self.attacker_names))
            network.insert_at(name, node_id)
            self.attacker_names.append(name)
        if slots:
            network.stabilize()
        self.inserted += len(slots)
        return len(slots)

    def _cycloid_slots(self, network, count: int) -> List[object]:
        """Fill the target key's local cycle first, then spiral outward
        through the nearest cycles on the large cycle — the id-space
        clustering that saturates the owner's neighbourhood."""
        from repro.dht.identifiers import CycloidId
        from repro.util.bitops import circular_distance

        target = network.key_id(self.plan.target_key)
        dimension = network.dimension
        modulus = 1 << dimension
        topology = network.topology
        slots: List[CycloidId] = []
        seen_cubicals: Set[int] = set()
        for distance in range(modulus):
            for cubical in (
                (target.cubical + distance) % modulus,
                (target.cubical - distance) % modulus,
            ):
                if cubical in seen_cubicals:
                    continue
                seen_cubicals.add(cubical)
                cyclics = sorted(
                    range(dimension),
                    key=lambda k: (
                        circular_distance(k, target.cyclic, dimension),
                        k,
                    ),
                )
                for cyclic in cyclics:
                    node_id = CycloidId(cyclic, cubical, dimension)
                    if node_id not in topology:
                        slots.append(node_id)
                        if len(slots) == count:
                            break
                if len(slots) == count:
                    break
            if len(slots) == count:
                break
        return slots

    def _ring_slots(self, network, count: int) -> List[int]:
        """Consecutive free ring ids clockwise from the target key: the
        first sybil becomes the key's successor (its owner), the rest
        wall off the arc behind it."""
        target = network.key_id(self.plan.target_key)
        space = 1 << network.bits
        ring = network.ring
        ids: List[int] = []
        candidate = target
        for _ in range(space):
            if candidate not in ring:
                ids.append(candidate)
                if len(ids) == count:
                    break
            candidate = (candidate + 1) % space
        return ids

    # ------------------------------------------------------------------
    # eclipse routing-table poisoning
    # ------------------------------------------------------------------

    def poison(self, network: "Network") -> int:
        """Rewire a seeded fraction of honest nodes' routing entries
        toward attacker nodes.

        Victim selection and the per-entry attacker choice are pure
        stable-hash functions of ``(seed, victim name, slot label)``;
        only the entries lazy repair already mutates are touched, and
        the ground-truth membership structures stay honest, so the
        poisoned network still *owns* keys correctly — it just routes
        through the adversary.  (Strict pointer-consistency checks like
        Chord's finger audit will of course flag poisoned entries as
        stale: that is the attack.)  Returns the number of entries
        rewired.  No-op without attackers or with a zero eclipse
        fraction.
        """
        fraction = self.plan.eclipse_fraction
        if fraction <= 0.0 or not self.attacker_names:
            return 0
        from repro.chord.network import ChordNetwork
        from repro.core.network import CycloidNetwork
        from repro.koorde.network import KoordeNetwork

        attacker_set = set(self.attacker_names)
        attackers = [
            node
            for node in network.live_nodes()
            if str(node.name) in attacker_set
        ]
        attackers.sort(key=lambda node: str(node.name))
        seed = self.plan.seed
        poisoned = 0
        victims = 0
        for node in network.live_nodes():
            name = str(node.name)
            if name in attacker_set:
                continue
            if stable_unit(seed, "victim", name) >= fraction:
                continue
            victims += 1
            if isinstance(network, CycloidNetwork):
                poisoned += self._poison_cycloid(node, name, attackers)
            elif isinstance(network, ChordNetwork):
                poisoned += self._poison_chord(node, name, attackers)
            elif isinstance(network, KoordeNetwork):
                poisoned += self._poison_koorde(node, name, attackers)
            else:
                raise ValueError(
                    f"{type(network).__name__} does not support eclipse "
                    "poisoning; supported overlays: Cycloid, Chord, Koorde"
                )
        self.victims += victims
        self.poisoned_entries += poisoned
        return poisoned

    def _pick(self, victim: str, slot: str, attackers: Sequence["Node"]):
        """The seeded attacker this victim's ``slot`` is rewired to."""
        index = int(
            stable_unit(self.plan.seed, "poison", victim, slot)
            * len(attackers)
        )
        return attackers[index]

    def _poison_cycloid(self, node, name: str, attackers) -> int:
        """Cubical/cyclic neighbours and outside leaf entries — the
        slots :meth:`CycloidNetwork.on_dead_entry` repairs.  Inside
        leaf sets (the cycle ground truth) stay honest."""
        poisoned = 0
        if node.cubical_neighbor is not None:
            node.cubical_neighbor = self._pick(name, "cubical", attackers)
            poisoned += 1
        if node.cyclic_larger is not None:
            node.cyclic_larger = self._pick(name, "cyclic+", attackers)
            poisoned += 1
        if node.cyclic_smaller is not None:
            node.cyclic_smaller = self._pick(name, "cyclic-", attackers)
            poisoned += 1
        for side, leaves in (
            ("ol", node.outside_left),
            ("or", node.outside_right),
        ):
            for index in range(len(leaves)):
                leaves[index] = self._pick(name, f"{side}{index}", attackers)
                poisoned += 1
        return poisoned

    def _poison_chord(self, node, name: str, attackers) -> int:
        """Fingers only — successor lists and the predecessor are the
        ring's ground truth and stay honest."""
        poisoned = 0
        for index in range(len(node.fingers)):
            if node.fingers[index] is not None:
                node.fingers[index] = self._pick(
                    name, f"finger{index}", attackers
                )
                poisoned += 1
        return poisoned

    def _poison_koorde(self, node, name: str, attackers) -> int:
        """The de Bruijn pointer and its backups — successors stay
        honest."""
        poisoned = 0
        if node.debruijn is not None:
            node.debruijn = self._pick(name, "debruijn", attackers)
            poisoned += 1
        for index in range(len(node.debruijn_backups)):
            node.debruijn_backups[index] = self._pick(
                name, f"db{index}", attackers
            )
            poisoned += 1
        return poisoned

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Adversary seed={self.plan.seed} sybils={self.inserted} "
            f"victims={self.victims} poisoned={self.poisoned_entries}>"
        )


# ----------------------------------------------------------------------
# attack metrics
# ----------------------------------------------------------------------

def capture_fraction(
    network: "Network",
    attacker_names: Iterable[object],
    probes: int = 512,
    salt: int = 0,
) -> float:
    """Estimated fraction of the keyspace owned by attacker nodes.

    ``probes`` seeded application keys are hashed into the overlay's id
    space and resolved against the ground-truth
    :meth:`~repro.dht.base.Network.owner_of_id` — no routing involved,
    so the estimate is identical for every backend and worker count.
    ``salt`` decouples the probe corpus from other workloads.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    names = {str(name) for name in attacker_names}
    if not names:
        return 0.0
    hits = 0
    for index in range(probes):
        key_id = network.key_id(f"capture-probe-{salt}-{index}")
        if str(network.owner_of_id(key_id).name) in names:
            hits += 1
    return hits / probes


def interception_rate(
    records: Sequence["LookupRecord"],
    attacker_names: Iterable[object],
) -> float:
    """Fraction of lookups whose path crossed an attacker node.

    A lookup is *intercepted* when any hop target (``path[1:]`` — every
    node that received the message, the final owner included, the
    source excluded) is adversary-controlled.  Paths are part of the
    engine's canonical records, reproduced bit-identically by the
    columnar kernel and at every worker count, so this rate is too.
    """
    names = {str(name) for name in attacker_names}
    if not records or not names:
        return 0.0
    intercepted = sum(
        1
        for record in records
        if any(str(name) in names for name in record.path[1:])
    )
    return intercepted / len(records)


class InterceptionTracer(TraceObserver):
    """Streaming interception accounting via engine trace callbacks.

    Counts exactly what :func:`interception_rate` counts — the per-hop
    ``on_hop`` targets are the records' ``path[1:]`` — but without
    retaining records, so it can ride along live runs and JSONL traces.
    The equivalence is pinned by a test.
    """

    def __init__(self, attacker_names: Iterable[object]) -> None:
        self.attacker_names = {str(name) for name in attacker_names}
        self.lookups = 0
        self.intercepted = 0
        self._hit = False

    def on_lookup_start(self, lookup_id, source, key_id) -> None:
        self.lookups += 1
        self._hit = False

    def on_hop(self, event: TraceEvent) -> None:
        if event.kind != "hop":
            return  # failed probes never count as hops
        if str(event.node) in self.attacker_names:
            self._hit = True

    def on_lookup_end(self, lookup_id, record) -> None:
        if self._hit:
            self.intercepted += 1
        self._hit = False

    @property
    def rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.intercepted / self.lookups

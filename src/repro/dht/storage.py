"""Key-value storage on top of any overlay.

The paper's DHTs *assign* keys to nodes; a usable system also has to
move the data when the assignment changes.  :class:`KeyValueStore`
layers put/get on a :class:`~repro.dht.base.Network` and migrates
key-value pairs on joins and departures, mirroring how Pastry/Chord
implementations hand off state:

* ``put`` routes to the key's owner and stores there (counting hops);
* ``join`` pulls the keys the newcomer now owns from their previous
  holders;
* a graceful ``leave`` pushes the departing node's keys to their new
  owners;
* an *ungraceful* failure loses the node's replica-less keys — unless
  ``replicas > 1``, in which case leaf-set-style neighbour replicas
  cover the loss (the paper's future-work direction, §5).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.dht.base import Network, Node
from repro.dht.metrics import LookupRecord

__all__ = [
    "KeyValueStore",
    "StoreResult",
    "StorageShard",
    "closeness",
    "replica_set",
]


def closeness(network: Network, key_id: object, node: Node) -> object:
    """Distance of ``node`` to ``key_id`` in the overlay's own metric."""
    node_id = node.node_id
    distance = getattr(key_id, "distance_to", None)
    if distance is not None:  # Cycloid's composite metric
        return distance(node_id)
    # Ring DHTs: clockwise distance from key to node.
    modulus = getattr(network, "ring", None)
    if modulus is not None:
        return (node_id - key_id) % network.ring.modulus
    raise TypeError(f"unsupported network {type(network).__name__}")


def replica_set(network: Network, key: object, replicas: int) -> List[Node]:
    """The key's owner plus its ``replicas - 1`` closest live peers.

    One definition shared by the in-memory :class:`KeyValueStore` and
    the live serving path (:mod:`repro.net.server`), so a wire replica
    push lands on exactly the nodes the in-memory store would choose.
    The owner is always a member; the rest are the live nodes that rank
    first under :func:`closeness`, the overlay's own metric.

    Only the key's neighbourhood is ranked (:func:`_neighbourhood`), and
    it always holds the ``replicas`` closest live nodes, so the list is
    the one a ranking of the whole live population gives.  Cost: O(r·d)
    for Cycloid, O(log n + r) for the ring overlays, plus the owner
    lookup; CAN, which has neither structure, raises ``TypeError`` for
    ``replicas > 1``.
    """
    key_id = network.key_id(key)
    owner = network.owner_of_id(key_id)
    if replicas == 1:
        return [owner]
    chosen = sorted(
        _neighbourhood(network, key_id, replicas),
        key=lambda node: closeness(network, key_id, node),
    )[:replicas]
    if owner not in chosen:
        chosen[-1] = owner
    return chosen


def _neighbourhood(
    network: Network, key_id: object, replicas: int
) -> List[Node]:
    """Live nodes that include the ``replicas`` closest to ``key_id``.

    * Cycloid: the key's own cycle plus the ``replicas`` nearest
      non-empty cycles on each side.  A node outside them lies on the
      side where its cube distance is measured, behind ``replicas``
      non-empty cycles whose nodes are all strictly closer in cube
      distance — so it cannot rank in the top ``replicas``.
    * Ring overlays: the ``replicas`` live ids at or clockwise after
      ``key_id``, which are exactly the smallest clockwise distances.
    """
    topology = getattr(network, "topology", None)
    if topology is not None:
        cubical = key_id.cubical  # type: ignore[attr-defined]
        cycles = dict.fromkeys(
            [cubical]
            + topology.succeeding_cycles(cubical, replicas)
            + topology.preceding_cycles(cubical, replicas)
        )
        return [
            topology.get(cyclic, cycle)
            for cycle in cycles
            for cyclic in topology.cycle_members(cycle)
        ]
    ring = getattr(network, "ring", None)
    if ring is None:
        raise TypeError(f"unsupported network {type(network).__name__}")
    ids = ring.ids()
    start = bisect.bisect_left(ids, key_id % ring.modulus)  # type: ignore
    run = ids[start : start + replicas]
    if len(run) < replicas:
        run = run + ids[: min(replicas - len(run), start)]
    return [ring.get(node_id) for node_id in run]


class StorageShard:
    """Per-server key/value shelves for the live cluster (repro.net).

    A :class:`~repro.net.server.NodeService` keeps one shard holding
    the pairs whose owning virtual nodes it hosts; PUT/GET frames route
    to the owner over the wire and land here.  This is the wire-level
    counterpart of :class:`KeyValueStore`'s per-node shelves; a
    replicated PUT lands on every hosted member of the key's
    :func:`replica_set`.
    """

    __slots__ = ("_shelves",)

    def __init__(self) -> None:
        #: node name -> {key: value}
        self._shelves: Dict[str, Dict[str, object]] = {}

    def put(self, node_name: str, key: str, value: object) -> None:
        self._shelves.setdefault(node_name, {})[key] = value

    def get(self, node_name: str, key: str) -> Tuple[bool, object]:
        """``(found, value)`` for ``key`` on ``node_name``'s shelf."""
        shelf = self._shelves.get(node_name, {})
        if key in shelf:
            return True, shelf[key]
        return False, None

    def keys_on(self, node_name: str) -> List[str]:
        return list(self._shelves.get(node_name, {}))

    def drop_pair(self, node_name: str, key: str) -> bool:
        """Discard one pair from ``node_name``'s shelf (rereplication
        moved it elsewhere); returns whether it was present."""
        shelf = self._shelves.get(node_name)
        if shelf is None or key not in shelf:
            return False
        del shelf[key]
        if not shelf:
            del self._shelves[node_name]
        return True

    def drop_node(self, node_name: str) -> int:
        """Discard a departed node's shelf; returns the pair count."""
        return len(self._shelves.pop(node_name, {}))

    def total_pairs(self) -> int:
        return sum(len(shelf) for shelf in self._shelves.values())


class StoreResult:
    """Outcome of a put/get: the value (for get) plus routing cost."""

    __slots__ = ("value", "record", "found")

    def __init__(
        self, value: object, record: Optional[LookupRecord], found: bool
    ) -> None:
        self.value = value
        self.record = record
        self.found = found

    @property
    def hops(self) -> int:
        return self.record.hops if self.record is not None else 0


class KeyValueStore:
    """Replicated key-value storage over an overlay network.

    ``replicas = r`` keeps each pair on the owner plus its ``r - 1``
    closest live neighbours in ID space (the overlay's own closeness),
    so any single silent failure is survivable for ``r >= 2``.
    """

    def __init__(self, network: Network, replicas: int = 1) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.network = network
        self.replicas = replicas
        #: node name -> {key: value}; node names survive node objects.
        self._stored: Dict[object, Dict[object, object]] = {}

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------

    def put(self, source: Node, key: object, value: object) -> StoreResult:
        """Route from ``source`` to the key's owner and store there."""
        record = self.network.lookup(source, key)
        for holder in self._replica_set(key):
            self._shelf(holder)[key] = value
        return StoreResult(value, record, True)

    def get(self, source: Node, key: object) -> StoreResult:
        """Route from ``source`` to the key's owner and read the value."""
        record = self.network.lookup(source, key)
        owner = self.network.owner_of_key(key)
        shelf = self._stored.get(owner.name, {})
        if key in shelf:
            return StoreResult(shelf[key], record, True)
        # Owner lost it (e.g. silent failure without replicas): probe
        # the replica set before giving up.
        for holder in self._replica_set(key):
            backup = self._stored.get(holder.name, {})
            if key in backup:
                # Repair the primary copy on the way out.
                shelf = self._shelf(owner)
                shelf[key] = backup[key]
                return StoreResult(backup[key], record, True)
        return StoreResult(None, record, False)

    def keys_on(self, node: Node) -> List[object]:
        """The keys currently held by ``node``."""
        return list(self._stored.get(node.name, {}))

    def total_pairs(self) -> int:
        """Distinct keys stored anywhere (replicas not double-counted)."""
        distinct = set()
        for shelf in self._stored.values():
            distinct.update(shelf)
        return len(distinct)

    # ------------------------------------------------------------------
    # membership hooks
    # ------------------------------------------------------------------

    def on_join(self, node: Node) -> int:
        """Hand over the keys the newcomer now owns; returns the count.

        Call right after ``network.join``.  Pulls from every current
        holder whose keys now map to the newcomer (or to its replica
        set).
        """
        moved = 0
        for holder_name, shelf in list(self._stored.items()):
            for key in list(shelf):
                replicas = self._replica_set(key)
                names = {n.name for n in replicas}
                if node.name in names:
                    self._shelf(node)[key] = shelf[key]
                    moved += 1
                if holder_name not in names:
                    del shelf[key]
        return moved

    def on_leave(self, node: Node) -> int:
        """Push a gracefully departing node's keys to their new owners.

        Call right after ``network.leave`` (the departing node transfers
        its data as part of saying goodbye); returns the count moved.
        """
        shelf = self._stored.pop(node.name, {})
        moved = 0
        for key, value in shelf.items():
            for holder in self._replica_set(key):
                holder_shelf = self._shelf(holder)
                if key not in holder_shelf:
                    holder_shelf[key] = value
                    moved += 1
        return moved

    def on_silent_failure(self, node: Node) -> int:
        """A node vanished without handover: its copies are gone.

        Returns how many keys lost their *only* copy (zero when
        ``replicas >= 2`` and the replica set stayed connected).

        **Documented loss path:** replication only survives failures
        that are spaced wider than the replica set.  With
        ``replicas = r``, ``r`` silent failures that hit *every* holder
        of a key — e.g. both the owner and its neighbour replica at
        ``r = 2`` — before :meth:`rereplicate` runs lose the pair
        permanently: the second ``on_silent_failure`` call finds no
        surviving copy and reports the loss
        (``tests/dht/test_storage.py`` pins this).
        """
        shelf = self._stored.pop(node.name, {})
        lost = 0
        for key, value in shelf.items():
            if not any(
                key in self._stored.get(other.name, {})
                for other in self._replica_set(key)
            ):
                lost += 1
        del value
        return lost

    def rereplicate(self) -> int:
        """Restore the replica invariant after churn; returns copies made.

        Run alongside stabilisation: every stored pair is pushed to its
        current replica set and dropped from nodes outside it.
        """
        copies = 0
        for holder_name, shelf in list(self._stored.items()):
            for key in list(shelf):
                value = shelf[key]
                replicas = self._replica_set(key)
                names = {n.name for n in replicas}
                for holder in replicas:
                    target = self._shelf(holder)
                    if key not in target:
                        target[key] = value
                        copies += 1
                if holder_name not in names:
                    del shelf[key]
        return copies

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _shelf(self, node: Node) -> Dict[object, object]:
        return self._stored.setdefault(node.name, {})

    def _replica_set(self, key: object) -> List[Node]:
        """The key's owner plus its ``replicas - 1`` closest live peers."""
        return replica_set(self.network, key, self.replicas)

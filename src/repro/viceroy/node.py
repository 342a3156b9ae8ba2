"""Viceroy node state.

A node carries an identity drawn uniformly from [0, 1) and a butterfly
*level*.  The identity is fixed; the level is selected on arrival from
``[1, log2(n0)]`` where ``n0`` is the node's estimate of the network
size (paper §2.4 / Viceroy §2).

Because Viceroy repairs both incoming and outgoing connections on every
join and leave, a node's seven links are always consistent with the
current membership; the simulator therefore derives them from the
membership (see :class:`repro.viceroy.network.ViceroyNetwork`), memoized
in the network's membership cache until the next join or departure,
rather than storing copies on the node.
"""

from __future__ import annotations

from repro.dht.base import Node

__all__ = ["ViceroyNode", "ID_BITS", "ID_SCALE"]

#: Identities live on a discretised [0, 1) ring with this resolution,
#: which keeps ring arithmetic exact (no float-comparison pitfalls).
ID_BITS = 52
ID_SCALE = 1 << ID_BITS


class ViceroyNode(Node):
    """A Viceroy participant."""

    __slots__ = ("id", "level")

    def __init__(self, name: object, node_id: int, level: int) -> None:
        super().__init__(name)
        if not 0 <= node_id < ID_SCALE:
            raise ValueError(f"id {node_id} outside the [0, 1) ring")
        if level < 1:
            raise ValueError("level must be >= 1")
        self.id = node_id
        self.level = level

    @property
    def node_id(self) -> int:
        return self.id

    @property
    def identity(self) -> float:
        """The node's identity as the real number the paper uses."""
        return self.id / ID_SCALE

    @property
    def degree(self) -> int:
        """Viceroy's constant link budget (Table 1)."""
        return 7

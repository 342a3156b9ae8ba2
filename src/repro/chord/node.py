"""Chord node state.

Each node keeps a finger table of ``m`` entries (finger ``i`` targets
``id + 2^i``), a successor list, and a predecessor pointer.  Graceful
departure notifies only the predecessor and successor; fingers pointing
at the departed node go stale until stabilisation (the model the paper's
§4.3 failure experiment assumes).
"""

from __future__ import annotations

from typing import List, Optional

from repro.dht.ring_overlay import RingNode

__all__ = ["ChordNode"]


class ChordNode(RingNode):
    """A Chord participant on the ``2^bits`` identifier ring."""

    __slots__ = ("fingers", "successors", "predecessor")

    def __init__(self, name: object, node_id: int, bits: int) -> None:
        super().__init__(name, node_id, bits)
        #: finger[i] is the first node at or after id + 2^i; may be stale.
        self.fingers: List[Optional["ChordNode"]] = [None] * bits
        #: the next ``r`` nodes clockwise; the fault-tolerance backstop.
        self.successors: List["ChordNode"] = []
        self.predecessor: Optional["ChordNode"] = None

    def long_links(self) -> List[Optional["ChordNode"]]:
        return self.fingers

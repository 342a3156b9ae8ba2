"""Koorde node state.

Seven neighbours per node, matching the configuration the paper grants
Koorde for a fair constant-degree comparison (§4): the *first de Bruijn
node* ``pred(2m)``, its three immediate predecessors (the backups that
§4.3 says keep routing alive when the de Bruijn pointer fails), and
three successors.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dht.ring_overlay import RingNode

__all__ = ["KoordeNode"]


class KoordeNode(RingNode):
    """A Koorde participant on the ``2^bits`` identifier ring."""

    __slots__ = ("debruijn", "debruijn_backups", "successors", "predecessor")

    def __init__(self, name: object, node_id: int, bits: int) -> None:
        super().__init__(name, node_id, bits)
        #: first de Bruijn node: the live predecessor of 2 * id.
        self.debruijn: Optional["KoordeNode"] = None
        #: three immediate predecessors of the de Bruijn node (backups).
        self.debruijn_backups: List["KoordeNode"] = []
        #: three successors (ring maintenance + final delivery).
        self.successors: List["KoordeNode"] = []
        self.predecessor: Optional["KoordeNode"] = None

    def long_links(self) -> List["KoordeNode"]:
        return self.debruijn_chain()

    def debruijn_chain(self) -> List["KoordeNode"]:
        """The de Bruijn pointer followed by its backups, closest first."""
        chain = [] if self.debruijn is None else [self.debruijn]
        chain.extend(self.debruijn_backups)
        return chain

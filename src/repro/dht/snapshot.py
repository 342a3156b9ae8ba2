"""Build-once network snapshots: flat, picklable captures of overlays.

The parallel engine (DESIGN.md §S20) used to rebuild a cell's network
from its setup callable once *per shard* — the full join protocol, n
times.  This module captures a prepared network **once** as a flat,
picklable structure and restores fresh, fully-independent copies in
O(state):

* :func:`pack_network` flattens a :class:`~repro.dht.base.Network` into
  a :class:`PackedNetwork`: every reachable node (live *and* dead — a
  stale pointer to a departed node is load-bearing state, it is what
  produces timeouts) is assigned an index, and every node-to-node edge
  becomes an index reference.  The object graph of an overlay is a
  linked structure with O(n) traversal depth, so naive ``pickle`` or
  ``copy.deepcopy`` would blow the recursion limit at paper scale;
  the flattening is iterative and the packed form has bounded depth.
* :func:`unpack_network` rebuilds the network in two phases — allocate
  every node shell first, then fill slots — so arbitrary pointer
  cycles (successor lists, leaf sets, de Bruijn chains, CAN neighbour
  lists) restore without recursion.
* a :class:`PackedNetwork` pickles flat for cross-process shipment;
  :func:`clone_network` is the in-process fast path (pack + unpack, no
  serialisation).

What is captured: node slots, membership containers
(:class:`~repro.dht.ring.SortedRing`,
:class:`~repro.core.topology.CycloidTopology`, plain lists/dicts),
RNG state (``random.Random`` is captured via ``getstate`` so a clone
never shares a generator with its original), and counters.  What is
*not*: the membership cache (memoized owners and per-node memos;
identity-based, rebuilt lazily) and fault injectors (reattached from the plan seed — see
:class:`~repro.sim.faults.FaultState`).  Restored copies are therefore
bit-exact substitutes for a fresh rebuild: the clone-vs-rebuild parity
suite pins that for every overlay, with and without faults.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate, pairwise, repeat
from typing import TYPE_CHECKING, Dict, List, Tuple, Type

try:  # numpy is the only third-party dependency and may be absent
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    np = None

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.dht.base import Network, Node

__all__ = [
    "PackedNetwork",
    "index_column",
    "pack_network",
    "unpack_network",
    "clone_network",
    "register_composite",
]

#: Shared-by-reference leaves: immutable, so original and clone may
#: alias them safely.  Frozen dataclass instances (``CycloidId``,
#: ``RingId``, CAN's ``Zone``) qualify too — see :func:`_is_frozen`.
_ATOMIC = (bool, int, float, complex, str, bytes, type(None))
_ATOMIC_TYPES = frozenset(_ATOMIC)

#: Placeholder for a node slot that was never assigned (stays unset on
#: the restored copy).
_MISSING = ("miss",)

#: Mutable composite classes (plain ``__dict__`` objects) the encoder
#: may descend into — membership containers registered by their own
#: modules via :func:`register_composite`.
_COMPOSITES: Tuple[Type, ...] = ()

#: Network attributes never serialised.  The membership cache maps key
#: ids and nodes to node *identities*; a restored copy rebuilds it
#: lazily.
_SKIPPED_ATTRS = frozenset({"_owner_cache"})


def register_composite(cls: type) -> type:
    """Allow the packer to flatten instances of ``cls`` via ``__dict__``.

    Container classes that hold node references (``SortedRing``,
    ``CycloidTopology``) register themselves at import time.  Returns
    ``cls`` so it can be used as a class decorator.
    """
    global _COMPOSITES
    if cls not in _COMPOSITES:
        _COMPOSITES = _COMPOSITES + (cls,)
    return cls


def index_column(values) -> object:
    """A node-index (or length) column in its narrowest safe dtype.

    Index payloads dominate snapshot bytes and kernel gather bandwidth,
    so homogeneous non-negative index lists are stored as numpy arrays
    downcast to ``int32`` whenever every value fits in 31 bits (any
    population below 2**31 nodes — i.e. always, in practice).  The
    dtype is a pure function of the *values*, which is what lets the
    bulk builder (:mod:`repro.dht.bulkbuild`) reproduce the packed form
    byte-for-byte without consulting the object graph.  Falls back to a
    plain list when numpy is unavailable.
    """
    if np is None:  # pragma: no cover - exercised on numpy-free installs
        return list(values)
    array = np.asarray(values, dtype=np.int64)
    if array.size == 0 or int(array.max(initial=0)) < 2**31:
        return array.astype(np.int32)
    return array


def _as_list(column: object) -> List:
    """Normalise an index column (array or list) back to a plain list."""
    if np is not None and isinstance(column, np.ndarray):
        return column.tolist()
    return list(column)


def _is_frozen(value: object) -> bool:
    """Frozen-dataclass instances are immutable — share by reference."""
    params = getattr(type(value), "__dataclass_params__", None)
    return params is not None and params.frozen


def _is_shareable(value: object) -> bool:
    """Immutable values the clone may alias instead of copying.

    Atomics, frozen dataclasses and tuples thereof.  Containers of
    shareables take the bulk fast paths below, which is what makes
    restore O(state) with small constants: a 2048-entry ring id list
    decodes with one C-level ``list()`` call, not 2048 dispatches.
    """
    if type(value) in _ATOMIC_TYPES:
        return True
    if type(value) is tuple:
        return all(_is_shareable(item) for item in value)
    return _is_frozen(value)


#: ``Node`` is an ABC, so ``isinstance`` routes through the (slow) abc
#: protocol; the packer does hundreds of thousands of node checks per
#: capture, so the verdict is memoized per concrete class.
_IS_NODE_CACHE: Dict[type, bool] = {}


_SLOT_NAMES_CACHE: Dict[type, List[str]] = {}


def _slot_names(cls: type) -> List[str]:
    """Every ``__slots__`` name across the MRO, base classes first."""
    names = _SLOT_NAMES_CACHE.get(cls)
    if names is None:
        names = []
        seen = set()
        for klass in reversed(cls.__mro__):
            for name in getattr(klass, "__slots__", ()):
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        _SLOT_NAMES_CACHE[cls] = names
    return names


@dataclass(frozen=True)
class PackedNetwork:
    """Flat, bounded-depth, *columnar* form of a network.

    Nodes are grouped by class; each group stores one **column** per
    slot (in :func:`_slot_names` order) instead of one tuple per node.
    A column is a small tagged tuple describing every member's value
    for that slot at once:

    ========  =====================================================
    ``"="``   shareable values, stored as-is (aliased with the clone)
    ``"n"``   one node reference per member, stored as an index
    ``"n?"``  node-or-``None`` per member
    ``"nl"``  a list of nodes per member — flat index list + lengths
    ``"nl?"`` a list of node-or-``None`` per member
    ``"nt"``  a tuple of nodes per member — flat index list + lengths
    ``"*"``   generic fallback: per-value :func:`pack_network` encode
    ========  =====================================================

    The columnar layout is what makes restore fast: the pickle stream
    is a handful of long homogeneous lists (ints and atoms) rather
    than thousands of tiny per-node tuples, and decode fills a whole
    slot across the population with one tight loop instead of one
    dispatch per value.  Node references anywhere in ``attrs`` or
    inside generic columns appear as ``("n", i)`` tags; homogeneous
    containers use bulk tags (``"L"``/``"N"``/``"D"`` ...).  The
    structure contains no cycles and no deep nesting, so it pickles
    without recursion issues.
    """

    network_class: type
    attrs: Dict[str, object]
    node_count: int
    groups: Tuple[Tuple[type, Tuple[int, ...], Tuple[Tuple, ...]], ...]


def pack_network(network: "Network") -> PackedNetwork:
    """Flatten ``network`` (iteratively — no deep recursion)."""
    from repro.dht.base import Node  # runtime import; cycle is type-only

    index_of: Dict[int, int] = {}
    order: List[Node] = []
    node_cache = _IS_NODE_CACHE

    def is_node(value: object) -> bool:
        cls = value.__class__
        flag = node_cache.get(cls)
        if flag is None:
            flag = node_cache[cls] = isinstance(value, Node)
        return flag

    def node_index(node: "Node") -> int:
        index = index_of.get(id(node))
        if index is None:
            index = len(order)
            index_of[id(node)] = index
            order.append(node)
        return index

    def encode(value: object) -> object:
        if is_node(value):
            return ("n", node_index(value))
        if isinstance(value, _ATOMIC) or _is_frozen(value):
            return value
        if isinstance(value, list):
            if all(is_node(item) for item in value):
                return ("N", [node_index(item) for item in value])
            if all(_is_shareable(item) for item in value):
                return ("L", list(value))
            return ("l", [encode(item) for item in value])
        if isinstance(value, tuple):
            if all(_is_shareable(item) for item in value):
                return ("T", value)
            if all(is_node(item) for item in value):
                return ("TN", [node_index(item) for item in value])
            return ("t", [encode(item) for item in value])
        if isinstance(value, Counter):
            if all(
                _is_shareable(k) and _is_shareable(v)
                for k, v in value.items()
            ):
                return ("C", list(value.items()))
            return ("c", [(encode(k), encode(v)) for k, v in value.items()])
        if isinstance(value, dict):
            if all(_is_shareable(k) for k in value):
                if all(is_node(v) for v in value.values()):
                    return (
                        "D",
                        tuple(value.keys()),
                        index_column([node_index(v) for v in value.values()]),
                    )
                if all(_is_shareable(v) for v in value.values()):
                    return ("A", list(value.items()))
            return ("d", [(encode(k), encode(v)) for k, v in value.items()])
        if isinstance(value, frozenset):
            if all(_is_shareable(item) for item in value):
                return ("F", value)
            return ("fs", [encode(item) for item in value])
        if isinstance(value, set):
            if all(_is_shareable(item) for item in value):
                return ("S", list(value))
            return ("s", [encode(item) for item in value])
        if isinstance(value, random.Random):
            return ("r", value.getstate())
        if isinstance(value, _COMPOSITES):
            return (
                "o",
                type(value),
                {k: encode(v) for k, v in vars(value).items()},
            )
        raise TypeError(
            f"cannot snapshot {type(value).__name__!r} value {value!r}; "
            "register the class with repro.dht.snapshot.register_composite "
            "or make it a frozen dataclass"
        )

    def discover(value: object) -> None:
        # Register every node reachable inside ``value`` (containers
        # included) without encoding anything yet.  Nodes themselves are
        # only registered, not traversed — the cursor walk below visits
        # their slots, so an O(n)-deep pointer chain costs O(n) queue
        # entries, not O(n) stack frames.
        stack = [value]
        while stack:
            item = stack.pop()
            if item.__class__ in _ATOMIC_TYPES:
                continue
            if is_node(item):
                node_index(item)
            elif isinstance(item, (list, tuple, set, frozenset)):
                stack.extend(item)
            elif isinstance(item, dict):
                stack.extend(item.keys())
                stack.extend(item.values())
            elif isinstance(item, _COMPOSITES):
                stack.extend(vars(item).values())

    attrs = {
        name: encode(value)
        for name, value in vars(network).items()
        if name not in _SKIPPED_ATTRS
    }
    # ``order`` grows while node slots are scanned: slots may reference
    # nodes (dead ones included) reachable only through other nodes.
    rows: List[Tuple[type, List[object]]] = []
    cursor = 0
    while cursor < len(order):
        node = order[cursor]
        cursor += 1
        cls = type(node)
        values: List[object] = []
        for name in _slot_names(cls):
            try:
                value = getattr(node, name)
            except AttributeError:
                values.append(_MISSING)  # unset slot: stays unset
                continue
            discover(value)
            values.append(value)
        rows.append((cls, values))

    def pack_column(values: List[object]) -> Tuple:
        if not any(v is _MISSING for v in values):
            if all(_is_shareable(v) for v in values):
                return ("=", values)
            if all(is_node(v) for v in values):
                return ("n", index_column([index_of[id(v)] for v in values]))
            if all(v is None or is_node(v) for v in values):
                return (
                    "n?",
                    [None if v is None else index_of[id(v)] for v in values],
                )
            if all(type(v) is list for v in values):
                lens = [len(v) for v in values]
                flat = [item for v in values for item in v]
                if all(is_node(item) for item in flat):
                    return (
                        "nl",
                        index_column([index_of[id(x)] for x in flat]),
                        index_column(lens),
                    )
                if all(item is None or is_node(item) for item in flat):
                    return (
                        "nl?",
                        [
                            None if x is None else index_of[id(x)]
                            for x in flat
                        ],
                        lens,
                    )
            if all(type(v) is tuple for v in values):
                lens = [len(v) for v in values]
                flat = [item for v in values for item in v]
                if all(is_node(item) for item in flat):
                    return (
                        "nt",
                        index_column([index_of[id(x)] for x in flat]),
                        index_column(lens),
                    )
        return (
            "*",
            [v if v is _MISSING else encode(v) for v in values],
        )

    # Group rows by class (insertion order — deterministic given the
    # discovery order) and transpose each group's slots into columns.
    member_indices: Dict[type, List[int]] = {}
    for index, (cls, _) in enumerate(rows):
        member_indices.setdefault(cls, []).append(index)
    groups: List[Tuple[type, Tuple[int, ...], Tuple[Tuple, ...]]] = []
    for cls, indices in member_indices.items():
        columns = tuple(
            pack_column([rows[i][1][slot] for i in indices])
            for slot in range(len(_slot_names(cls)))
        )
        groups.append((cls, tuple(indices), columns))
    return PackedNetwork(
        network_class=type(network),
        attrs=attrs,
        node_count=len(rows),
        groups=tuple(groups),
    )


def unpack_network(packed: PackedNetwork) -> "Network":
    """Rebuild a fully-independent network from its packed form."""
    shells: List[object] = [None] * packed.node_count
    for cls, indices, _ in packed.groups:
        new = cls.__new__
        for index in indices:
            shells[index] = new(cls)

    def decode(value: object) -> object:
        if type(value) is not tuple:
            return value
        tag = value[0]
        if tag == "n":
            return shells[value[1]]
        if tag == "N":
            return [shells[i] for i in value[1]]
        if tag == "L":
            return list(value[1])
        if tag == "T":
            return value[1]  # immutable: share with the packed form
        if tag == "TN":
            return tuple(shells[i] for i in value[1])
        if tag == "D":
            return dict(zip(value[1], map(shell_at, _as_list(value[2]))))
        if tag == "A":
            return dict(value[1])
        if tag == "C":
            return Counter(dict(value[1]))
        if tag == "S":
            return set(value[1])
        if tag == "F":
            return value[1]  # immutable: share with the packed form
        if tag == "l":
            return [decode(item) for item in value[1]]
        if tag == "t":
            return tuple(decode(item) for item in value[1])
        if tag == "c":
            return Counter({decode(k): decode(v) for k, v in value[1]})
        if tag == "d":
            return {decode(k): decode(v) for k, v in value[1]}
        if tag == "fs":
            return frozenset(decode(item) for item in value[1])
        if tag == "s":
            return {decode(item) for item in value[1]}
        if tag == "r":
            rng = random.Random()
            rng.setstate(value[1])
            return rng
        if tag == "o":
            composite = value[1].__new__(value[1])
            composite.__dict__.update(
                {k: decode(v) for k, v in value[2].items()}
            )
            return composite
        raise ValueError(f"unknown pack tag {tag!r}")

    shell_at = shells.__getitem__

    def fill(members, name, values):
        # ``map`` consumed by a zero-length deque runs the whole
        # setattr sweep at C speed — the per-slot loops are the hot
        # path of restore once decoding itself is columnar.
        deque(map(setattr, members, repeat(name), values), maxlen=0)

    def runs(mapped, lens):
        bounds = accumulate(lens, initial=0)
        return [mapped[a:b] for a, b in pairwise(bounds)]

    for cls, indices, columns in packed.groups:
        members = list(map(shell_at, indices))
        for name, column in zip(_slot_names(cls), columns):
            tag = column[0]
            if tag == "=":
                fill(members, name, column[1])
            elif tag == "n":
                fill(members, name, map(shell_at, _as_list(column[1])))
            elif tag == "n?":
                fill(
                    members,
                    name,
                    [None if i is None else shells[i] for i in column[1]],
                )
            elif tag == "nl":
                mapped = list(map(shell_at, _as_list(column[1])))
                fill(members, name, runs(mapped, _as_list(column[2])))
            elif tag == "nt":
                mapped = list(map(shell_at, _as_list(column[1])))
                fill(
                    members,
                    name,
                    map(tuple, runs(mapped, _as_list(column[2]))),
                )
            elif tag == "nl?":
                mapped = [
                    None if i is None else shells[i] for i in column[1]
                ]
                fill(members, name, runs(mapped, column[2]))
            else:  # "*": generic per-value encoding
                for shell, encoded in zip(members, column[1]):
                    if encoded.__class__ is tuple:
                        if encoded == _MISSING:
                            continue
                        setattr(shell, name, decode(encoded))
                    else:
                        setattr(shell, name, encoded)
    network = packed.network_class.__new__(packed.network_class)
    for name, encoded in packed.attrs.items():
        network.__dict__[name] = decode(encoded)
    network._owner_cache = {}
    return network


def clone_network(network: "Network") -> "Network":
    """In-process deep clone via pack/unpack — no serialisation cost."""
    return unpack_network(pack_network(network))

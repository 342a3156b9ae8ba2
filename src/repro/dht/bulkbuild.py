"""Bulk network construction: packed columns straight from the id sample.

The object builder joins one Python node at a time — ``with_random_ids``
inserts, then ``stabilize`` walks every node's wiring rules through
sorted-container bisects.  That is the wall at scale: routing went
columnar in §S23, but *building* a million-node overlay still costs
millions of attribute stores.  This module synthesizes the **packed
form** (:class:`~repro.dht.snapshot.PackedNetwork`) directly from a
seeded identifier sample, as vectorized numpy column math — Cycloid's
cubical/cyclic/leaf columns and Chord's finger/successor runs — never
instantiating per-node Python objects on the way.

The golden reference is the object builder itself: for the same
``(seed, dimension/bits, count, wiring)``, :meth:`CycloidColumns.to_packed`
/ :meth:`ChordColumns.to_packed` reproduce
``pack_network(Network.with_random_ids(...))`` **byte-for-byte** —
:func:`packed_digest` equality, pinned across seeds, dimensions and both
Cycloid ``leaf_selection`` wirings by the bulk-parity suite (DESIGN
§S26).  Two facts make byte-equality attainable rather than merely
aspirational:

* construction is *join-order-free*: the wiring of every node is a pure
  function of the final membership (sorted rows, cycles and rings), and
  the object builder's RNG is split so that the id sample comes from a
  fresh ``make_rng(seed)`` while the network's own ``_rng`` is never
  consumed during build — so every packed byte is a function of
  ``(parameters, seed)`` alone;
* the packed form discovers nodes in id-sample insertion order (the
  membership dict is the first node-bearing attribute encoded), so bulk
  node index ``i`` *is* the ``i``-th sampled identifier.

Downstream, bulk columns feed every execution tier without the object
graph: :func:`repro.dht.kernel.kernel_from_columns` compiles them for
vectorized lookups, ``to_packed`` yields the packed form the snapshot
codec ships, and :func:`bulk_setup` is a picklable
:func:`~repro.sim.parallel.run_sharded_lookups` setup callable.
"""

from __future__ import annotations

import hashlib
import pickle
import random
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

try:  # numpy is a hard dependency of bulk construction only
    import numpy as np
except ImportError:  # pragma: no cover - exercised on minimal installs
    np = None  # type: ignore[assignment]
else:
    from numpy.lib.stride_tricks import sliding_window_view

from repro.dht.snapshot import PackedNetwork, index_column, unpack_network
from repro.util.rng import make_rng

__all__ = [
    "SAMPLERS",
    "CycloidColumns",
    "ChordColumns",
    "build_columns",
    "build_cycloid_columns",
    "build_chord_columns",
    "bulk_setup",
    "bulk_ids",
    "packed_digest",
]

#: Identifier samplers.  ``"exact"`` replays ``random.Random(seed)``'s
#: ``sample`` — the object builder's stream, required for digest parity.
#: ``"fast"`` is a seeded numpy PCG64 permutation: a different (still
#: deterministic) sample of the same space, ~100x faster at n=10^6,
#: for scale sweeps where the golden reference could never be built
#: anyway.
SAMPLERS = ("exact", "fast")

#: Largest id space for which bisection queries are answered by an
#: occupancy rank table (one cumsum over the space, then every
#: ``searchsorted`` becomes a gather).  Beyond it — sparse rings with
#: huge ``bits`` — the builders fall back to plain ``searchsorted``,
#: which computes identical values.
RANK_TABLE_SPACE_LIMIT = 1 << 24

#: Rows per finger-table gather: bounds the ``[rows, bits]`` index
#: temporary to a few MB.
_FINGER_BLOCK = 1 << 14


def _require_numpy() -> None:
    if np is None:  # pragma: no cover - numpy is baked into CI
        raise RuntimeError(
            "bulk network construction requires numpy; install it or "
            "build networks with Network.with_random_ids"
        )


def bulk_ids(count: int, space: int, seed: Optional[int], sampler: str):
    """``count`` distinct identifiers from ``range(space)``, seeded."""
    _require_numpy()
    if sampler not in SAMPLERS:
        raise ValueError(
            f"unknown sampler {sampler!r}; expected one of {SAMPLERS}"
        )
    if not 1 <= count <= space:
        raise ValueError(
            f"count must be in [1, {space}] for this id space, got {count}"
        )
    if sampler == "exact":
        return np.array(
            make_rng(seed).sample(range(space), count), dtype=np.int64
        )
    rng = np.random.default_rng(np.random.PCG64(seed))
    return rng.permutation(space)[:count].astype(np.int64)


def packed_digest(packed: PackedNetwork) -> str:
    """sha256 over the canonical pickle of a packed network.

    The parity currency of this module: bulk-built and object-built
    packed forms are compared as *bytes*, so any drift — a value, a
    dtype, a dict insertion order — fails loudly.
    """
    return hashlib.sha256(
        pickle.dumps(packed, pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def _column_bytes(columns) -> int:
    """Total bytes held by the numpy columns of a dataclass."""
    total = 0
    for field in fields(columns):
        value = getattr(columns, field.name)
        if np is not None and isinstance(value, np.ndarray):
            total += value.nbytes
    return total


# ----------------------------------------------------------------------
# shared packed-form helpers (must mirror pack_network's tag selection)
# ----------------------------------------------------------------------


def _node_column(refs) -> Tuple:
    """A per-node node-reference column from an index array (-1 = None),
    tagged exactly like ``pack_column``: ``"="`` when every entry is
    None, ``"n"`` when none is, ``"n?"`` otherwise."""
    values = refs.tolist()
    if all(v < 0 for v in values):
        return ("=", [None] * len(values))
    if all(v >= 0 for v in values):
        return ("n", index_column(values))
    return ("n?", [None if v < 0 else v for v in values])


def _list_column(matrix, lens) -> Tuple:
    """An ``"nl"`` column from a padded index matrix plus row lengths."""
    width = matrix.shape[1]
    valid = np.arange(width)[None, :] < lens[:, None]
    return ("nl", index_column(matrix[valid]), index_column(lens))


def _base_attrs() -> Dict[str, object]:
    """The packed ``Network.__init__`` attributes of a fresh build, in
    ``vars`` order (``_owner_cache`` is never packed)."""
    return {
        "_query_counts": ("C", []),
        "maintenance_updates": 0,
        "fault_detection": False,
        "route_repairs": 0,
    }


def _rng_state(seed: Optional[int]) -> Tuple:
    """The packed ``_rng`` of a freshly built network: the constructor
    seeds ``make_rng(seed)`` and construction never draws from it."""
    return ("r", random.Random(seed).getstate())


# ----------------------------------------------------------------------
# Cycloid
# ----------------------------------------------------------------------


@dataclass
class CycloidColumns:
    """Flat columns of a fully-wired Cycloid overlay, sample-indexed.

    Node index ``i`` is the ``i``-th sampled identifier.  Reference
    columns hold node indices with ``-1`` for void entries; leaf
    matrices are ``-1``-padded with explicit row lengths (inside sides
    share one length, outside sides another).
    """

    protocol = "cycloid"

    dimension: int
    leaf_radius: int
    leaf_selection: str
    seed: Optional[int]
    sampler: str
    latency: Optional[object]
    lin: "np.ndarray"  # int64 [n]   linear ids, sample order
    cyc: "np.ndarray"  # int64 [n]   cyclic index
    cub: "np.ndarray"  # int64 [n]   cubical index
    cn: "np.ndarray"  # int32 [n]   cubical neighbour (-1 = None)
    cl: "np.ndarray"  # int32 [n]   cyclic larger
    cs: "np.ndarray"  # int32 [n]   cyclic smaller
    inside_left: "np.ndarray"  # int32 [n, radius] padded
    inside_right: "np.ndarray"
    outside_left: "np.ndarray"
    outside_right: "np.ndarray"
    inside_len: "np.ndarray"  # int32 [n]
    outside_len: "np.ndarray"  # int32 [n]

    @property
    def count(self) -> int:
        return int(self.lin.size)

    @property
    def space(self) -> int:
        return self.dimension << self.dimension

    def column_bytes(self) -> int:
        return _column_bytes(self)

    def to_packed(self) -> PackedNetwork:
        """Materialise the exact ``pack_network`` form of this build."""
        from repro.core.network import CycloidNetwork
        from repro.core.node import CycloidNode
        from repro.core.topology import CycloidTopology
        from repro.dht.identifiers import CycloidId

        d = self.dimension
        n = self.count
        cyc_l = self.cyc.tolist()
        cub_l = self.cub.tolist()
        names = [f"n{value}" for value in self.lin.tolist()]
        ids = [
            CycloidId(cyclic, cubical, d)
            for cyclic, cubical in zip(cyc_l, cub_l)
        ]

        # Membership containers in their object insertion orders: the
        # node map keyed in sample order; the cycle/row maps keyed by
        # first occurrence in the sample, each value list sorted.
        cycle_sorted = _sort_distinct(self.lin, self.space)[0]
        occ, occ_start, occ_size = np.unique(
            self.cub[cycle_sorted], return_index=True, return_counts=True
        )
        row_sorted = _sort_distinct((self.cyc << d) + self.cub, self.space)[0]
        row_keys, row_start, row_size = np.unique(
            self.cyc[row_sorted], return_index=True, return_counts=True
        )

        def grouped_items(keys, sort_order, values, uniq, starts, sizes):
            items = []
            for key in keys:
                at = int(np.searchsorted(uniq, key))
                lo = int(starts[at])
                members = values[sort_order[lo : lo + int(sizes[at])]]
                items.append((key, ("L", members.tolist())))
            return items

        cycle_keys = self.cub[np.sort(np.unique(self.cub, return_index=True)[1])]
        row_first = self.cyc[np.sort(np.unique(self.cyc, return_index=True)[1])]
        cycles_items = grouped_items(
            cycle_keys.tolist(), cycle_sorted, self.cyc,
            occ, occ_start, occ_size,
        )
        by_cyclic_items = grouped_items(
            row_first.tolist(), row_sorted, self.cub,
            row_keys, row_start, row_size,
        )

        attrs = _base_attrs()
        attrs["dimension"] = d
        attrs["leaf_radius"] = self.leaf_radius
        attrs["leaf_selection"] = self.leaf_selection
        attrs["latency"] = self.latency
        attrs["topology"] = (
            "o",
            CycloidTopology,
            {
                "dimension": d,
                "space": self.space,
                "_nodes": (
                    "D",
                    tuple(zip(cyc_l, cub_l)),
                    index_column(np.arange(n)),
                ),
                "_cycles": ("d", cycles_items),
                "_cubicals": ("L", occ.tolist()),
                "_by_cyclic": ("d", by_cyclic_items),
            },
        )
        attrs["_rng"] = _rng_state(self.seed)

        columns = (
            ("=", names),
            ("=", [True] * n),
            ("=", ids),
            _node_column(self.cn),
            _node_column(self.cl),
            _node_column(self.cs),
            _list_column(self.inside_left, self.inside_len),
            _list_column(self.inside_right, self.inside_len),
            _list_column(self.outside_left, self.outside_len),
            _list_column(self.outside_right, self.outside_len),
        )
        return PackedNetwork(
            network_class=CycloidNetwork,
            attrs=attrs,
            node_count=n,
            groups=((CycloidNode, tuple(range(n)), columns),),
        )

    def to_network(self):
        """Instantiate the object network (identical to the object
        builder's, per the digest-parity pin)."""
        return unpack_network(self.to_packed())


def build_cycloid_columns(
    count: int,
    dimension: int,
    *,
    leaf_radius: int = 1,
    seed: Optional[int] = None,
    leaf_selection: str = "primary",
    latency=None,
    sampler: str = "exact",
) -> CycloidColumns:
    """Vectorized equivalent of ``CycloidNetwork.with_random_ids``.

    Every wiring rule of ``_wire_routing`` / ``_wire_leaves`` —
    ``in_block`` nearest-with-smaller-tie, ``nearest_in_row``
    clockwise-tie, ``block_bounds`` with ``row_bound`` wrap fallbacks,
    inside-leaf cycle offsets and the outside-cycle walk — is replayed
    as searchsorted/gather math over rows sorted per cyclic index and
    cycles sorted per cubical index.  ``"primary"`` outside selection is
    fully vectorized; ``"random"``/``"proximity"`` evaluate the same
    per-(observer, cycle) stable-hash/RTT picks the object builder
    makes, which costs one Python-level pass over the outside slots.
    """
    from repro.core.network import LEAF_SELECTIONS

    _require_numpy()
    if leaf_radius < 1:
        raise ValueError("leaf_radius must be >= 1")
    if leaf_selection not in LEAF_SELECTIONS:
        raise ValueError(
            f"unknown leaf_selection {leaf_selection!r}; "
            f"expected one of {LEAF_SELECTIONS}"
        )
    if leaf_selection == "proximity" and latency is None:
        raise ValueError(
            "leaf_selection='proximity' needs a LatencyModel to rank "
            "neighbours by"
        )
    d = dimension
    modulus = 1 << d
    lin = bulk_ids(count, d * modulus, seed, sampler)
    n = count
    cyc = lin % d
    cub = lin // d

    # n-sized temporaries are dropped as soon as they are used: once
    # freed, the heap they grew stays resident, so this build's
    # high-water mark becomes the resident floor of what follows it.

    # -- cycle structure: nodes grouped by cubical, sorted by cyclic --
    # ``lin`` orders (cubical, cyclic) lexicographically on its own.
    cycle_sorted, sorted_lin = _sort_distinct(lin, d * modulus)
    sorted_cub = sorted_lin // d  # cycle_sorted: sorted pos -> sample index
    del sorted_lin
    bounds = np.flatnonzero(
        np.concatenate(([True], sorted_cub[1:] != sorted_cub[:-1]))
    )
    occ = sorted_cub[bounds]  # occupied cubicals, ascending
    del sorted_cub
    occ_start = bounds
    occ_size = np.diff(np.concatenate((bounds, [n])))

    # -- inside leaf sets: ±(1+i) neighbours on the node's own cycle,
    # found per sorted position and scattered to the nodes --
    radius = leaf_radius
    start = np.repeat(occ_start, occ_size)
    size = np.repeat(occ_size, occ_size)
    rank = np.arange(n) - start
    inside_len = np.empty(n, dtype=np.int32)
    inside_len[cycle_sorted] = np.clip(size - 1, 1, radius)
    il = np.full((n, radius), -1, dtype=np.int32)
    ir = np.full((n, radius), -1, dtype=np.int32)
    for i in range(radius):
        valid = i < size - 1
        at = cycle_sorted[valid]
        il[at, i] = cycle_sorted[(start + (rank - 1 - i) % size)[valid]]
        ir[at, i] = cycle_sorted[(start + (rank + 1 + i) % size)[valid]]
    # A singleton cycle's two inside entries are the node itself.
    alone = cycle_sorted[size == 1]
    il[alone, 0] = alone
    ir[alone, 0] = alone
    del start, size, rank, alone

    # -- outside leaf sets: the large-cycle walk, then a member pick --
    occ_rank = _rank_table(occ, modulus)
    if occ_rank is not None:
        group_of = occ_rank[cub]
    else:
        group_of = np.searchsorted(occ, cub)  # per node: its cycle's rank
    total_cycles = occ.size
    if total_cycles == 1:
        # The only non-empty cycle wraps onto itself.
        t = 1
        left_ranks = group_of[:, None]
        right_ranks = group_of[:, None]
    else:
        t = min(radius, total_cycles - 1)
        steps = np.arange(1, t + 1, dtype=np.int64)[None, :]
        left_ranks = (group_of[:, None] - steps) % total_cycles
        right_ranks = (group_of[:, None] + steps) % total_cycles
    del group_of
    outside_len = np.full(n, t, dtype=np.int32)
    if leaf_selection == "primary":
        # Vectorized: the primary is the last (largest-cyclic) member
        # of each sorted cycle group.
        primary_idx = cycle_sorted[occ_start + occ_size - 1]
        ol = primary_idx[left_ranks]
        outr = primary_idx[right_ranks]
    else:
        ol = np.empty((n, t), dtype=np.int32)
        outr = np.empty((n, t), dtype=np.int32)
        _pick_outside_members(
            ol, outr, left_ranks, right_ranks, leaf_selection, latency,
            lin, cyc, cycle_sorted, occ, occ_start, occ_size,
        )
    del left_ranks, right_ranks, cycle_sorted

    # -- routing table: per cyclic-index row k-1, sorted by cubical --
    row_sorted, row_keys = _sort_distinct((cyc << d) + cub, d * modulus)
    row_ends = np.searchsorted(row_keys, np.arange(1, d + 1) * modulus)
    rows_by_cyc = {}
    lo = 0
    for value, hi in enumerate(row_ends.tolist()):
        if hi > lo:
            seg_cub = row_keys[lo:hi] - value * modulus
            segment = row_sorted[lo:hi]
            rows_by_cyc[value] = (seg_cub, segment, _rank_table(seg_cub, modulus))
        lo = hi

    cn = np.full(n, -1, dtype=np.int32)
    cl = np.full(n, -1, dtype=np.int32)
    cs = np.full(n, -1, dtype=np.int32)
    for k in range(1, d):
        own, row = rows_by_cyc.get(k), rows_by_cyc.get(k - 1)
        if own is None or row is None:
            continue  # no node of cyclic k, or none of k-1: all void
        a, sel, _ = own
        row_cub, row_idx, rank = row
        m = row_cub.size
        if rank is not None:
            # table[q] / table[q + 1] are the left / right bisection
            # ranks of q in row_cub — gathers instead of binary search.
            def left_rank(q):
                return rank[q]

            def right_rank(q):
                return rank[q + 1]

        else:
            def left_rank(q):
                return np.searchsorted(row_cub, q, side="left")

            def right_rank(q):
                return np.searchsorted(row_cub, q, side="right")

        block = 1 << k
        flipped = ((a >> k) ^ 1) << k
        anchor = flipped | (a & (block - 1))
        a_left = left_rank(a)
        a_right = right_rank(a)

        # in_block: nearest cubical within the flipped block, ties to
        # the smaller cubical (min() keeps the first of a sorted slice).
        lo = left_rank(flipped)
        hi = left_rank(flipped + block)
        nonempty = lo < hi
        # Empty slices produce garbage candidates here; they are gathered
        # safely (clamped into the row) and discarded by ``nonempty``.
        floor = np.minimum(lo, m - 1)
        cap = np.minimum(np.maximum(hi - 1, floor), m - 1)
        split = left_rank(anchor)
        left_cand = np.clip(split - 1, floor, cap)
        right_cand = np.clip(split, floor, cap)
        left_gap = np.abs(row_cub[left_cand] - anchor)
        right_gap = np.abs(row_cub[right_cand] - anchor)
        in_block = np.where(left_gap <= right_gap, left_cand, right_cand)

        # nearest_in_row fallback: circular distance, clockwise ties
        # (the first candidate is row[bisect % m] and only a strictly
        # smaller key displaces it).
        cand_a = split % m
        cand_b = (split - 1) % m
        fwd_a = (row_cub[cand_a] - anchor) % modulus
        bwd_a = (anchor - row_cub[cand_a]) % modulus
        fwd_b = (row_cub[cand_b] - anchor) % modulus
        bwd_b = (anchor - row_cub[cand_b]) % modulus
        key_a0 = np.minimum(fwd_a, bwd_a)
        key_a1 = np.where(fwd_a <= bwd_a, 0, 1)
        key_b0 = np.minimum(fwd_b, bwd_b)
        key_b1 = np.where(fwd_b <= bwd_b, 0, 1)
        b_wins = (key_b0 < key_a0) | ((key_b0 == key_a0) & (key_b1 < key_a1))
        nearest = np.where(b_wins, cand_b, cand_a)
        cn[sel] = row_idx[np.where(nonempty, in_block, nearest)]

        # block_bounds within the shared block, row_bound wrap fallback.
        shared = (a >> k) << k
        lo2 = left_rank(shared)
        hi2 = left_rank(shared + block)
        at_or_after = np.clip(a_left, lo2, hi2)
        at_or_before = np.clip(a_right, lo2, hi2) - 1
        clockwise = a_left % m
        counter = (a_right - 1) % m
        larger = np.where(at_or_after < hi2, at_or_after, clockwise)
        smaller = np.where(at_or_before >= lo2, at_or_before, counter)
        cl[sel] = row_idx[larger]
        cs[sel] = row_idx[smaller]

    return CycloidColumns(
        dimension=d,
        leaf_radius=leaf_radius,
        leaf_selection=leaf_selection,
        seed=seed,
        sampler=sampler,
        latency=latency,
        lin=lin,
        cyc=cyc,
        cub=cub,
        cn=_narrow_refs(cn),
        cl=_narrow_refs(cl),
        cs=_narrow_refs(cs),
        inside_left=_narrow_refs(il),
        inside_right=_narrow_refs(ir),
        outside_left=_narrow_refs(ol),
        outside_right=_narrow_refs(outr),
        inside_len=_narrow_refs(inside_len),
        outside_len=_narrow_refs(outside_len),
    )


def _narrow_refs(array):
    """Reference columns in the narrowest safe dtype (int32 in
    practice; indices are bounded by the population)."""
    return array.astype(np.int32, copy=False)


def _sort_distinct(keys, space: int):
    """``(order, keys[order])`` for ``keys`` — distinct ints in
    ``[0, space)`` — sorted ascending: one counting scatter over the
    space while it fits ``RANK_TABLE_SPACE_LIMIT``, an ``argsort``
    beyond it (the same values: distinct keys leave no ties)."""
    if space > RANK_TABLE_SPACE_LIMIT:
        order = np.argsort(keys)
        return order, keys[order]
    slot = np.full(space, -1, dtype=np.int32)
    slot[keys] = np.arange(keys.size, dtype=np.int32)
    occupied = slot >= 0
    return slot[occupied], np.flatnonzero(occupied)


def _rank_table(sorted_values, space: int):
    """``table`` with ``table[x] == np.searchsorted(sorted_values, x)``
    for ``x`` in ``[0, space]`` — one O(space) cumsum that converts
    every subsequent bisection into a gather.  Returns ``None`` when the
    space is too large to tabulate (``RANK_TABLE_SPACE_LIMIT``); callers
    then keep their ``searchsorted`` path, which computes the same
    values.  ``table[x + 1]`` is the ``side="right"`` rank for ``x < space``.
    """
    if space > RANK_TABLE_SPACE_LIMIT:
        return None
    hits = np.zeros(space + 2, dtype=np.int8)
    hits[sorted_values + 1] = 1
    return np.cumsum(hits, dtype=np.int32)


def _pick_outside_members(
    ol, outr, left_ranks, right_ranks, leaf_selection, latency,
    lin, cyc, cycle_sorted, occ, occ_start, occ_size,
):
    """The non-primary outside picks: per-(observer, cycle) stable-hash
    ("random") or modeled-RTT ("proximity") member selection, exactly
    as ``CycloidNetwork._outside_pick`` evaluates them."""
    from repro.sim.latency import stable_unit

    total = occ.size
    members_of = [
        cycle_sorted[int(occ_start[r]) : int(occ_start[r]) + int(occ_size[r])]
        for r in range(total)
    ]
    occ_l = occ.tolist()
    lin_l = lin.tolist()
    cyc_l = cyc.tolist()
    t = ol.shape[1]
    if leaf_selection == "random":
        for i in range(ol.shape[0]):
            name = f"n{lin_l[i]}"
            for j in range(t):
                for ranks, out in ((left_ranks, ol), (right_ranks, outr)):
                    r = int(ranks[i, j])
                    members = members_of[r]
                    pick = int(
                        stable_unit(0, "leaf-pick", name, occ_l[r])
                        * members.size
                    )
                    out[i, j] = members[pick]
        return
    delay_ms = latency.delay_ms
    for i in range(ol.shape[0]):
        name = f"n{lin_l[i]}"
        for j in range(t):
            for ranks, out in ((left_ranks, ol), (right_ranks, outr)):
                r = int(ranks[i, j])
                best = None
                best_key = None
                for member in members_of[r].tolist():
                    key = (delay_ms(name, f"n{lin_l[member]}"), -cyc_l[member])
                    if best_key is None or key < best_key:
                        best, best_key = member, key
                out[i, j] = best


# ----------------------------------------------------------------------
# Chord
# ----------------------------------------------------------------------


@dataclass
class ChordColumns:
    """Flat columns of a fully-stabilised Chord ring, sample-indexed."""

    protocol = "chord"

    bits: int
    successor_list_size: int
    seed: Optional[int]
    sampler: str
    ids: "np.ndarray"  # int64 [n]        identifiers, sample order
    sorted_ids: "np.ndarray"  # int64 [n] identifiers, ring order
    sorted_index: "np.ndarray"  # int32 [n] sample index per ring slot
    fingers: "np.ndarray"  # int32 [n, bits]
    successors: "np.ndarray"  # int32 [n, min(r, n-1)]
    predecessor: "np.ndarray"  # int32 [n], -1 = None

    @property
    def count(self) -> int:
        return int(self.ids.size)

    @property
    def space(self) -> int:
        return 1 << self.bits

    def column_bytes(self) -> int:
        return _column_bytes(self)

    def to_packed(self) -> PackedNetwork:
        """Materialise the exact ``pack_network`` form of this build."""
        from repro.chord.network import ChordNetwork
        from repro.chord.node import ChordNode
        from repro.dht.ring import SortedRing

        n = self.count
        bits = self.bits
        ids_l = self.ids.tolist()
        names = [f"n{value}" for value in ids_l]

        attrs = _base_attrs()
        attrs["bits"] = bits
        attrs["successor_list_size"] = self.successor_list_size
        attrs["ring"] = (
            "o",
            SortedRing,
            {
                "bits": bits,
                "modulus": 1 << bits,
                "_ids": ("L", self.sorted_ids.tolist()),
                "_by_id": ("D", tuple(ids_l), index_column(np.arange(n))),
            },
        )
        attrs["_rng"] = _rng_state(self.seed)

        take = self.successors.shape[1]
        columns = (
            ("=", names),
            ("=", [True] * n),
            ("=", ids_l),
            ("=", [bits] * n),
            _list_column(self.fingers, np.full(n, bits, dtype=np.int64)),
            _list_column(self.successors, np.full(n, take, dtype=np.int64)),
            _node_column(self.predecessor),
        )
        return PackedNetwork(
            network_class=ChordNetwork,
            attrs=attrs,
            node_count=n,
            groups=((ChordNode, tuple(range(n)), columns),),
        )

    def to_network(self):
        return unpack_network(self.to_packed())


def build_chord_columns(
    count: int,
    bits: int,
    *,
    successor_list_size: Optional[int] = None,
    seed: Optional[int] = None,
    sampler: str = "exact",
) -> ChordColumns:
    """Vectorized equivalent of ``ChordNetwork.with_random_ids``.

    Ring order is one counting scatter; every successor run is a row
    of one sliding window over the ring, the predecessor the preceding
    slot, and the finger table one gather per block of rows from an
    id -> owner table (``searchsorted`` per bit beyond the rank-table
    limit).
    """
    _require_numpy()
    if successor_list_size is None:
        successor_list_size = bits
    if successor_list_size < 1:
        raise ValueError("successor_list_size must be >= 1")
    modulus = 1 << bits
    ids = bulk_ids(count, modulus, seed, sampler)
    n = count
    order, sorted_ids = _sort_distinct(ids, modulus)
    ring_order = _narrow_refs(order)  # ring slot -> sample index

    # Successor runs are the rows of one sliding window over the ring
    # (wrapped ``take`` slots past its end), scattered to their nodes.
    take = min(successor_list_size, n - 1)
    wrapped = np.concatenate((ring_order, ring_order[:take]))
    successors = np.empty((n, take), dtype=np.int32)
    successors[ring_order] = sliding_window_view(wrapped[1:], take)
    del wrapped
    predecessor = np.full(n, -1, dtype=np.int32)
    if n > 1:
        predecessor[ring_order] = np.roll(ring_order, 1)

    rank = _rank_table(sorted_ids, modulus)
    fingers = np.empty((n, bits), dtype=np.int32)
    if rank is not None:
        # owner[x]: the node owning id x, over two laps of the ring so
        # that ``id + 2^i`` needs no modulo.  Blocks run in ring order,
        # so each block's reads climb through the table.
        owner = np.append(ring_order, ring_order[0])[rank[:modulus]]
        owner = np.concatenate((owner, owner))
        del rank
        reach = 1 << np.arange(bits, dtype=np.int64)
        for lo in range(0, n, _FINGER_BLOCK):
            hi = lo + _FINGER_BLOCK
            fingers[ring_order[lo:hi]] = owner[sorted_ids[lo:hi, None] + reach]
        del owner
    else:
        for i in range(bits):
            target = (ids + (1 << i)) % modulus
            slot = np.searchsorted(sorted_ids, target, side="left")
            fingers[:, i] = ring_order[slot % n]

    return ChordColumns(
        bits=bits,
        successor_list_size=successor_list_size,
        seed=seed,
        sampler=sampler,
        ids=ids,
        sorted_ids=sorted_ids,
        sorted_index=ring_order,
        fingers=fingers,
        successors=successors,
        predecessor=predecessor,
    )


# ----------------------------------------------------------------------
# dispatch + sharded-runner threading
# ----------------------------------------------------------------------


def build_columns(
    protocol: str,
    count: int,
    *,
    dimension: Optional[int] = None,
    bits: Optional[int] = None,
    seed: Optional[int] = None,
    sampler: str = "exact",
    leaf_radius: int = 1,
    leaf_selection: str = "primary",
    latency=None,
    successor_list_size: Optional[int] = None,
):
    """Bulk-build ``protocol`` columns; the scale experiment's entry.

    Sizing defaults mirror :mod:`repro.experiments.registry`: the
    smallest Cycloid dimension / ring bits whose id space holds
    ``count``.
    """
    if protocol == "cycloid":
        if dimension is None:
            from repro.experiments.registry import dimension_for_space

            dimension = dimension_for_space(count)
        return build_cycloid_columns(
            count,
            dimension,
            leaf_radius=leaf_radius,
            seed=seed,
            leaf_selection=leaf_selection,
            latency=latency,
            sampler=sampler,
        )
    if protocol == "chord":
        if bits is None:
            bits = max(1, (count - 1).bit_length())
        return build_chord_columns(
            count,
            bits,
            successor_list_size=successor_list_size,
            seed=seed,
            sampler=sampler,
        )
    # Anything else has no bulk builder; raise the kernel's actionable
    # unknown-protocol error (it names the covered protocols and the
    # object-engine fallback).
    from repro.dht.kernel import compiler_for

    compiler_for(protocol)
    raise ValueError(
        f"protocol {protocol!r} compiles to the columnar kernel but has "
        "no bulk builder; build it with Network.with_random_ids"
    )


def bulk_setup(
    protocol: str,
    count: int,
    seed: Optional[int] = None,
    **build_kwargs,
):
    """A picklable ``run_sharded_lookups`` setup callable.

    Returns ``(network, None)``: the bulk-built network (restored
    through the packed form — identical to the object build, per the
    parity pin) and no fault injector.  Module-level so
    ``functools.partial`` over it crosses the process pool.
    """
    columns = build_columns(protocol, count, seed=seed, **build_kwargs)
    return columns.to_network(), None

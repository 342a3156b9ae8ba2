"""Pluggable lookup execution backends (DESIGN §S23).

Lookup execution is a *backend* choice, selected by name everywhere a
batch of lookups is routed (``Network.lookup_many`` /
``Network.route_many``, :func:`repro.experiments.common.run_lookups`,
:func:`repro.sim.parallel.run_sharded_lookups`, and the ``--backend``
CLI flag):

* ``object`` — the golden reference: the hop-at-a-time
  :class:`~repro.dht.routing.LookupEngine` walking the node object
  graph.  Always available, always exact, and the default.
* ``columnar`` — this module's vectorized kernel.  A network is
  *compiled* into flat numpy int columns — once per batch, or once for
  every fault-free batch routed on the same unchanging network
  (:func:`compile_kernel`; the sharded runner compiles once per cell
  per process) — the same
  node universe :func:`~repro.dht.snapshot.pack_network` enumerates
  (every live node plus every dead node still referenced by a stale
  pointer, index-encoded) laid out as per-slot arrays: routing-table
  columns, leaf-set/successor runs padded to fixed width with ``-1``,
  and an aliveness mask.  A whole batch of lookups then advances as
  one *wave* per hop: frontier arrays hold each lookup's current node,
  hop/timeout counters and per-phase totals, and the protocol's
  ``next_hop`` preference cascade is expressed as gather/compare/select
  over the columns — each preference tier becomes a candidate matrix
  segment, ranked by the same sort keys the object engine uses, and the
  accepted hop is the first live candidate per row with dead candidates
  before it each costing one timeout (ranked-alternate fallback as a
  masked gather).

The acceptance bar is bit-exactness: identical
:class:`~repro.dht.metrics.LookupStats` digests, per-lookup records,
and query-load counters, pinned by the kernel parity suite.

Viceroy's links are a pure function of the live membership, so its
kernel has no dead nodes, no candidate matrices and no timeouts: each
link is one index column, and each row carries the butterfly's
ascend → descend → traverse stage from wave to wave.  Chord and Koorde
share one ring-family base (ids, successor runs, predecessors, the
successor owner oracle, the ``(pred, id]`` stop test and the masked
first-live gather); Koorde adds its de Bruijn chain and carries the
imaginary-node walk as per-row columns.

**Fallback rules** (documented, deliberate): the columnar path runs
only for protocols with a registered compiler — Cycloid (both leaf
radii), Chord, Koorde and Viceroy; Pastry and CAN take the object
engine — only without a per-hop trace observer, and only when no
*active* fault injector is attached.  Fault-mode batches are
inherently sequential — probe verdicts consume the injector's loss RNG
in lookup order and ``on_dead_entry`` repairs mutate routing state that
later lookups in the same shard must see — so they take the object
engine, which is the same semantics by definition.  Either way the
caller gets bit-identical records, so ``backend="columnar"`` is always
safe to request.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.dht.metrics import LookupRecord
from repro.dht.routing import LookupEngine, TraceObserver

try:  # numpy is a hard dependency of the columnar backend only
    import numpy as np
except ImportError:  # pragma: no cover - exercised on minimal installs
    np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.dht.base import Network, Node
    from repro.sim.faults import FaultInjector
    from repro.sim.latency import LatencyModel

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "check_backend",
    "columnar_protocols",
    "compiler_for",
    "kernel_from_columns",
    "supports_columnar",
    "compile_kernel",
    "run_lookup_batch",
    "annotate_latency",
]

#: Selectable lookup execution backends, in preference-free name order.
BACKENDS: Tuple[str, ...] = ("object", "columnar")

#: The golden reference engine; tier-1 behaviour never changes unless a
#: caller opts in to another backend.
DEFAULT_BACKEND = "object"

#: Sentinel larger than any packed sort key (segment keys stay below
#: 2**60 for every realistic dimension).
_INF = np.int64(2**62) if np is not None else None


def check_backend(backend: str) -> None:
    """Validate a backend name with an actionable error: name the bad
    value and list the valid choices."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )


#: protocol_name -> kernel compiler class.
_COMPILERS: Dict[str, Type] = {}


def _register(protocol_name: str):
    def decorate(cls):
        _COMPILERS[protocol_name] = cls
        return cls

    return decorate


def columnar_protocols() -> Tuple[str, ...]:
    """Protocols with a fully-columnar compiled step function."""
    return tuple(sorted(_COMPILERS))


def supports_columnar(network: "Network") -> bool:
    """True when ``network``'s protocol compiles to the columnar kernel."""
    return network.protocol_name in _COMPILERS


def compiler_for(protocol_name: str) -> Type:
    """The kernel compiler class for ``protocol_name``, or an actionable
    error: unlike the silent object-engine fallback of
    :func:`run_lookup_batch`, callers that *require* columns (bulk
    builds, array-mode batches) get told exactly what is covered and
    what to do instead."""
    compiler = _COMPILERS.get(protocol_name)
    if compiler is None:
        raise ValueError(
            f"no columnar kernel for protocol {protocol_name!r}; "
            f"columnar protocols: {columnar_protocols()}, "
            f"available backends: {BACKENDS}; every protocol routes on "
            "the object engine — fall back to backend='object' "
            "(--backend object)"
        )
    return compiler


def kernel_from_columns(columns, hop_limit: Optional[int] = None):
    """Compile bulk-built columns (:mod:`repro.dht.bulkbuild`) into a
    ready kernel — no object graph on either side.  The kernel supports
    the array-mode entry points (``run_linear`` / ``run_ids``) only;
    record-building batches need node objects and therefore a network
    (``columns.to_network()`` + the normal backend path)."""
    return compiler_for(columns.protocol).from_columns(
        columns, hop_limit=hop_limit
    )


def _columnar_compiler(
    network: "Network",
    backend: str,
    observer: Optional[TraceObserver],
    injector: Optional["FaultInjector"],
) -> Optional[Type]:
    """The kernel class a batch on ``network`` routes with, or ``None``
    when the module-docstring fallback rules send it to the object
    engine.  The one place those rules live."""
    check_backend(backend)
    if backend != "columnar" or observer is not None:
        return None
    if injector is not None and injector.active:
        return None
    compiler = _COMPILERS.get(network.protocol_name)
    if compiler is not None and np is None:  # pragma: no cover - numpy is baked into CI
        raise RuntimeError(
            "the columnar backend requires numpy; install it or use "
            "backend='object'"
        )
    return compiler


def compile_kernel(
    network: "Network",
    *,
    backend: str = DEFAULT_BACKEND,
    observer: Optional[TraceObserver] = None,
    injector: Optional["FaultInjector"] = None,
):
    """Compile the kernel that batches on ``network`` would route with,
    or return ``None`` when the fallback rules pick the object engine.

    Compiling walks the whole node universe, so a caller that routes
    many fault-free batches on one unchanging network compiles once
    here and hands the kernel to every :func:`run_lookup_batch`.
    Fault-free routing changes nothing a kernel reads (only the query
    counters), which is what makes the reuse exact.
    """
    compiler = _columnar_compiler(network, backend, observer, injector)
    return compiler(network) if compiler is not None else None


def run_lookup_batch(
    network: "Network",
    pairs: Iterable[Tuple["Node", object]],
    *,
    backend: str = DEFAULT_BACKEND,
    observer: Optional[TraceObserver] = None,
    injector: Optional["FaultInjector"] = None,
    retry_budget: int = 0,
    hashed: bool = False,
    latency: Optional["LatencyModel"] = None,
    kernel=None,
) -> List[LookupRecord]:
    """Route a batch of lookups through the selected backend.

    ``pairs`` holds ``(source, application key)`` tuples, or
    ``(source, key id)`` when ``hashed`` is true.  The columnar backend
    falls back to the object engine per the module-docstring rules;
    records are bit-identical either way.  ``kernel`` is an
    already-compiled kernel of ``network`` (:func:`compile_kernel`); it
    is used when the rules pick the columnar path and compiled afresh
    when absent.

    A ``latency`` model is applied *after* the columnar walk: the total
    is a pure function of the record's path, so annotating each record
    with the left-to-right sum of per-link delays reproduces the object
    engine's floats bit-exactly (same addition order).
    """
    compiler = _columnar_compiler(network, backend, observer, injector)
    if retry_budget < 0:
        raise ValueError("retry_budget must be >= 0")
    pairs = list(pairs)
    if compiler is not None and pairs:
        if kernel is None:
            kernel = compiler(network)
        elif kernel.network is not network:
            raise ValueError("kernel was compiled from a different network")
        sources = [source for source, _ in pairs]
        if hashed:
            key_ids = [key for _, key in pairs]
        else:
            key_id = network.key_id
            key_ids = [key_id(key) for _, key in pairs]
        records = kernel.run(sources, key_ids)
        if latency is not None:
            annotate_latency(records, latency)
        return records
    engine = LookupEngine(network, observer, injector, retry_budget, latency)
    if hashed:
        return engine.run_batch(pairs)
    key_id = network.key_id
    return [engine.run(source, key_id(key)) for source, key in pairs]


def annotate_latency(
    records: List[LookupRecord], latency: "LatencyModel"
) -> None:
    """Charge ``latency`` onto ``records`` from their paths, in place.

    Sums each record's consecutive-pair link delays left to right —
    the exact float-addition order of
    :meth:`repro.dht.routing.LookupEngine.run` — so columnar records
    digest identically to object-engine records under the same model.
    """
    delay_ms = latency.delay_ms
    for record in records:
        path = record.path
        total_ms = 0.0
        for index in range(len(path) - 1):
            total_ms += delay_ms(path[index], path[index + 1])
        record.latency_ms = total_ms


# ----------------------------------------------------------------------
# shared compile helpers
# ----------------------------------------------------------------------


def _intern_universe(live_nodes, pointer_slots):
    """Index the node universe: live nodes first (stable order), then
    every dead node still referenced by a live node's pointers — the
    same reachable set ``pack_network`` flattens, because a stale
    pointer to a departed node is load-bearing state (it is what
    produces timeouts)."""
    index: Dict[int, int] = {}
    nodes: List[object] = []
    for node in live_nodes:
        index[id(node)] = len(nodes)
        nodes.append(node)
    for node in live_nodes:
        for target in pointer_slots(node):
            if target is not None and id(target) not in index:
                index[id(target)] = len(nodes)
                nodes.append(target)
    return nodes, index


def _pad_matrix(
    rows: Sequence[Sequence[int]], width: Optional[int] = None, dtype="int32"
):
    """Stack variable-length index runs into an ``-1``-padded matrix,
    ``width`` columns wide (default: the longest run, at least one).

    Index matrices default to ``int32``: node indices are bounded by
    the population, and halving the gather bandwidth is measurable at
    scale.  Value matrices pass ``dtype="int64"`` explicitly.
    """
    if width is None:
        width = max(max(map(len, rows), default=0), 1)
    out = np.full((len(rows), width), -1, dtype=dtype)
    for i, row in enumerate(rows):
        if row:
            out[i, : len(row)] = row
    return out


def _msdb(a, b):
    """Vectorized most-significant-different-bit; ``-1`` when equal.

    ``frexp`` exponents are exact for integers below 2**53, far above
    any cubical index, and ``frexp(0)`` returns exponent 0 — exactly
    the ``-1`` convention after the shift."""
    diff = np.bitwise_xor(a, b)
    return np.frexp(diff.astype(np.float64))[1].astype(np.int64) - 1


def _in_interval(x, left, right, modulus):
    """Vectorized ``(left, right]`` clockwise membership on a
    ``modulus`` ring (:func:`repro.dht.ring.in_interval`); a degenerate
    interval covers the whole ring."""
    dx = (x - left) % modulus
    dr = (right - left) % modulus
    return (left == right) | ((0 < dx) & (dx <= dr))


def _first_true(mask):
    """Per-row index of the first True column; ``width`` when none."""
    width = mask.shape[1]
    pos = np.argmax(mask, axis=1)
    return np.where(mask.any(axis=1), pos, width)


def _timeouts_before(ids, dead, pos):
    """Per row, the dead candidates at columns before ``pos``, each
    identifier counted once — the engine's ``dead_tried`` / ``seen``
    dedupe."""
    width = dead.shape[1]
    fresh = dead.copy()
    for j in range(1, width):
        fresh[:, j] &= ~(
            (ids[:, :j] == ids[:, j : j + 1]) & dead[:, :j]
        ).any(axis=1)
    return (fresh & (np.arange(width) < pos[:, None])).sum(axis=1)


def _sort_segment(key, *arrays):
    """Stable per-row sort of a candidate segment by ``key`` (invalid
    entries carry ``_INF`` and sink to the end); gathers ``arrays``
    through the same permutation."""
    order = np.argsort(key, axis=1, kind="stable")
    return tuple(np.take_along_axis(a, order, axis=1) for a in arrays)


class _PathHistory:
    """Per-row membership sets of non-negative ints, sized by path length.

    A ``[batch, width]`` int64 matrix padded with ``-1`` plus a per-row
    fill count: row ``r`` holds the values added for it so far, in
    order.  A lookup adds at most one value per wave and runs at most
    ``hop_limit + 1`` waves, so ``capacity = hop_limit + 1`` bounds
    every row; ``width`` starts small and doubles (capped at
    ``capacity``) when a row fills its last column.  Memory is
    O(batch × path length) where a dense ``[batch, universe]`` mask
    would be O(batch × n), and membership compares only the columns
    some row has used — a few dozen at n = 10^6, hops concentrating
    around c·log n.
    """

    _INITIAL_WIDTH = 8

    def __init__(self, batch: int, capacity: int) -> None:
        self.capacity = capacity
        self.hist = np.full(
            (batch, min(self._INITIAL_WIDTH, capacity)), -1, dtype=np.int64
        )
        self.fill = np.zeros(batch, dtype=np.int64)
        self.used = 0  # columns any row has written

    def add(self, rows, values) -> None:
        """Append ``values[i]`` to row ``rows[i]`` (rows distinct)."""
        at = self.fill[rows]
        need = int(at.max()) + 1
        width = self.hist.shape[1]
        if need > width:  # fills grow by one per add: one doubling fits
            grown = np.full(
                (self.hist.shape[0], min(2 * width, self.capacity)),
                -1,
                dtype=np.int64,
            )
            grown[:, :width] = self.hist
            self.hist = grown
        self.hist[rows, at] = values
        self.fill[rows] = at + 1
        self.used = max(self.used, need)

    def contains(self, rows, cand):
        """``[m, w]`` bool: is ``cand[i, j]`` in row ``rows[i]``'s set."""
        held = self.hist[rows, : self.used]
        return (held[:, None, :] == cand[:, :, None]).any(axis=-1)


class _KernelBase:
    """Column compiler + wave executor shared bones."""

    #: phase code -> phase label, set by subclasses in template order.
    PHASES: Tuple[str, ...] = ()

    @cached_property
    def _name_array(self):
        """``names`` as a 1-D object array, for one-gather name lookups
        (built on first use: array-mode kernels never need it)."""
        return np.fromiter(self.names, dtype=object, count=len(self.names))

    def _finish(
        self, sources, key_ids, hops, timeouts, success, phase_counts,
        final_idx, hop_log,
    ) -> List[LookupRecord]:
        """Charge a finished batch's hops to the network's query counters
        and materialise its records.

        Every hop target — intermediate and final, never the source —
        counts once, as ``Network._record_visit`` would.  ``hop_log`` is
        chronological, so a stable sort of its entries by row lists each
        row's targets in path order; row ``b`` owns ``hops[b]`` of them.
        """
        names = self.names
        if hop_log:
            rows = np.concatenate([rows for rows, _ in hop_log])
            targets = np.concatenate([targets for _, targets in hop_log])
        else:
            rows = targets = np.empty(0, dtype=np.int64)
        counts = np.bincount(targets)
        query_counts = self.network._query_counts
        for node_index in np.flatnonzero(counts).tolist():
            query_counts[names[node_index]] += int(counts[node_index])

        order = np.argsort(rows, kind="stable")
        hop_names = self._name_array[targets[order]].tolist()
        ends = np.cumsum(hops).tolist()
        phase_labels = self.PHASES
        hops_l = hops.tolist()
        touts_l = timeouts.tolist()
        success_l = success.tolist()
        final_l = final_idx.tolist()
        phase_rows = phase_counts.tolist()
        records = []
        start = 0
        for b, source in enumerate(sources):
            end = ends[b]
            records.append(
                LookupRecord(
                    hops=hops_l[b],
                    success=success_l[b],
                    timeouts=touts_l[b],
                    phase_hops=dict(zip(phase_labels, phase_rows[b])),
                    source=source.name,
                    key=key_ids[b],
                    owner=names[final_l[b]],
                    path=[source.name, *hop_names[start:end]],
                    retries=0,
                )
            )
            start = end
        return records


# ----------------------------------------------------------------------
# Cycloid
# ----------------------------------------------------------------------


@_register("cycloid")
class CycloidKernel(_KernelBase):
    """Compiled Cycloid routing (core/network.py's fault-free cascade).

    Memory layout: per-node int64 columns ``cyclic`` / ``cubical`` /
    ``linear`` and a bool ``alive`` mask; the three routing-table slots
    as index columns (``-1`` for void); the four leaf-set sides as
    ``[n, leaf_radius]`` index matrices padded with ``-1``; precomputed
    outside-arc endpoints per node.  ``alias`` maps every index to the
    live holder of its identifier (identity for live nodes), so the
    by-id ``visited`` checks of the object engine translate to index
    membership tests.

    Per-lookup walk state is a pair of per-row path histories
    (:class:`_PathHistory`): the node indices visited and the cubical
    cycles the last mile has exhausted, each a ``-1``-padded
    ``[batch, width]`` matrix whose width doubles as paths grow.  A
    batch therefore holds O(batch × path length) state — hops are O(d)
    — never a ``[batch, n]`` or ``[batch, 2^d]`` mask.
    """

    PHASES = ("ascending", "descending", "traverse")
    _ASC, _DESC, _TRAV = 0, 1, 2
    #: cascade codes, one per candidate segment in iteration order.
    _SEG_ASC, _SEG_NB, _SEG_ENT, _SEG_TRV, _SEG_INS, _SEG_TIED = range(6)

    def __init__(self, network) -> None:
        self.network = network
        self.hop_limit = network.HOP_LIMIT
        d = network.dimension
        self.d = d
        self.modulus = 1 << d
        self.space = d << d
        radius = network.leaf_radius
        self.radius = radius

        def slots(node):
            yield node.cubical_neighbor
            yield node.cyclic_larger
            yield node.cyclic_smaller
            yield from node.leaf_entries()

        live = list(network.live_nodes())
        nodes, index = _intern_universe(live, slots)
        self.nodes = nodes
        self.index = index
        self.names = [node.name for node in nodes]
        count = len(nodes)

        # One extraction pass over the universe — attribute access per
        # node dominates compile time, so every column is collected in
        # the same loop.  A dead node is only ever *pointed at* —
        # routing never departs from it — so its table columns stay
        # empty; only its identity scalars matter.
        cyc_l: List[int] = []
        cub_l: List[int] = []
        alive_l: List[bool] = []
        cn_l: List[int] = []
        cl_l: List[int] = []
        cs_l: List[int] = []
        il_rows: List[Sequence[int]] = []
        ir_rows: List[Sequence[int]] = []
        ol_rows: List[Sequence[int]] = []
        or_rows: List[Sequence[int]] = []
        arc_l_l: List[int] = []
        arc_r_l: List[int] = []
        for n in nodes:
            cubical = n.cubical
            cyc_l.append(n.cyclic)
            cub_l.append(cubical)
            if n.alive:
                alive_l.append(True)
                t = n.cubical_neighbor
                cn_l.append(-1 if t is None else index[id(t)])
                t = n.cyclic_larger
                cl_l.append(-1 if t is None else index[id(t)])
                t = n.cyclic_smaller
                cs_l.append(-1 if t is None else index[id(t)])
                il_rows.append([index[id(l)] for l in n.inside_left])
                ir_rows.append([index[id(l)] for l in n.inside_right])
                out_side = n.outside_left
                ol_rows.append([index[id(l)] for l in out_side])
                # Outside-arc endpoints: the *furthest* outside primary
                # on each side, or the node's own cycle when empty.
                arc_l_l.append(out_side[-1].cubical if out_side else cubical)
                out_side = n.outside_right
                or_rows.append([index[id(l)] for l in out_side])
                arc_r_l.append(out_side[-1].cubical if out_side else cubical)
            else:
                alive_l.append(False)
                cn_l.append(-1)
                cl_l.append(-1)
                cs_l.append(-1)
                il_rows.append(())
                ir_rows.append(())
                ol_rows.append(())
                or_rows.append(())
                arc_l_l.append(cubical)
                arc_r_l.append(cubical)
        self.cyc = np.array(cyc_l, dtype=np.int64)
        self.cub = np.array(cub_l, dtype=np.int64)
        self.lin = self.cub * d + self.cyc
        self.alive = np.array(alive_l, dtype=bool)
        self.cn = np.array(cn_l, dtype=np.int32)
        self.cl = np.array(cl_l, dtype=np.int32)
        self.cs = np.array(cs_l, dtype=np.int32)
        self.il = _pad_matrix(il_rows, radius)
        self.ir = _pad_matrix(ir_rows, radius)
        self.ol = _pad_matrix(ol_rows, radius)
        self.outr = _pad_matrix(or_rows, radius)
        self.arc_left = np.array(arc_l_l, dtype=np.int64)
        self.arc_right = np.array(arc_r_l, dtype=np.int64)
        # alias: by-id lookup (visited is a set of *identifiers*, and a
        # dead node can share an id with a live one after id reuse).
        alias = np.arange(count, dtype=np.int32)
        dead = np.flatnonzero(~self.alive)
        if dead.size:
            live_by_linear = {
                int(self.lin[i]): i for i in range(count) if self.alive[i]
            }
            for i in dead.tolist():
                alias[i] = live_by_linear.get(int(self.lin[i]), i)
        self.alias = alias
        self.all_alive = bool(self.alive.all())
        self._finalize()

    @classmethod
    def from_columns(cls, columns, hop_limit: Optional[int] = None):
        """Compile directly from bulk-built columns — no object graph.

        The resulting kernel has no network, node list or name table:
        only the array-mode entry point (:meth:`run_linear`) works.
        Bulk columns describe a freshly built network, so every node is
        live and the outside matrices may be narrower than
        ``leaf_radius`` (few occupied cycles); they are re-padded here
        to the layout the wave kernel slices."""
        if np is None:  # pragma: no cover - numpy is baked into CI
            raise RuntimeError(
                "the columnar kernel requires numpy; install it or "
                "use backend='object'"
            )
        from repro.dht.base import Network  # runtime: cycle is type-only

        self = cls.__new__(cls)
        self.network = None
        self.hop_limit = Network.HOP_LIMIT if hop_limit is None else hop_limit
        d = columns.dimension
        self.d = d
        self.modulus = 1 << d
        self.space = d << d
        radius = columns.leaf_radius
        self.radius = radius
        self.nodes = None
        self.index = None
        self.names = None
        count = columns.count
        self.cyc = columns.cyc
        self.cub = columns.cub
        self.lin = columns.lin
        self.alive = np.ones(count, dtype=bool)
        self.cn = columns.cn
        self.cl = columns.cl
        self.cs = columns.cs
        self.il = columns.inside_left
        self.ir = columns.inside_right

        def repad(matrix):
            width = matrix.shape[1]
            if width >= radius:
                return matrix
            pad = np.full((count, radius - width), -1, dtype=matrix.dtype)
            return np.concatenate([matrix, pad], axis=1)

        self.ol = repad(columns.outside_left)
        self.outr = repad(columns.outside_right)
        # Outside-arc endpoints: the furthest outside pick per side
        # (the last *valid* outside column — every row has the same
        # outside length in a bulk build).
        furthest = columns.outside_left.shape[1] - 1
        self.arc_left = self.cub[columns.outside_left[:, furthest]]
        self.arc_right = self.cub[columns.outside_right[:, furthest]]
        self.alias = np.arange(count, dtype=np.int32)
        self.all_alive = True
        self._finalize()
        return self

    def _finalize(self) -> None:
        """Shared compile tail: candidate matrices, the owner oracle and
        the cascade sort constants — pure column math, identical for
        object-extracted and bulk-built kernels."""
        d = self.d
        radius = self.radius

        # Precompiled candidate matrices — one row gather per wave
        # each; every later segment is a column slice of the leaves.
        self.leaf_all = np.concatenate(
            [self.il, self.ir, self.ol, self.outr], axis=1
        )
        self.ent_all = np.concatenate(
            [self.cl[:, None], self.cs[:, None], self.il, self.ir], axis=1
        )
        # The keep-first dedupe by id only matters when some node's
        # leaf set actually repeats an identifier (tiny cycles, few
        # occupied cycles); prove its absence once at compile time.
        # Live ids are distinct, so an all-live universe compares node
        # indices; otherwise ids, gathered through a -1 sentinel.
        leaf_w = self.leaf_all.shape[1]
        lid = self.leaf_all
        if not self.all_alive:
            lid = np.append(self.lin, -1)[lid]
        self.leaf_dup_free = not any(
            bool(
                (
                    (lid[:, :j] == lid[:, j : j + 1])
                    & (lid[:, j : j + 1] >= 0)
                ).any()
            )
            for j in range(1, leaf_w)
        )

        # Owner oracle: sorted occupied cycles plus a [cycles, d]
        # member matrix, each live node at column = its cyclic index
        # (live ids are distinct; `_owners` takes an argmin over a
        # strict total order, so a row's layout is free).  The packed
        # distance's primary component is the cubical circular
        # distance, so the global argmin lives in the first occupied
        # cycle at-or-after the key or the first one before it — every
        # other cycle is strictly farther on both arcs.
        live = np.flatnonzero(self.alive)
        cub = self.cub[live]
        occupied = np.bincount(cub, minlength=self.modulus) > 0
        self.occ_cycles = np.flatnonzero(occupied)
        members = np.full((self.occ_cycles.size, d), -1, dtype=np.int32)
        members[(np.cumsum(occupied) - 1)[cub], self.cyc[live]] = live
        self.cycle_members = members

        # The cascade runs as ONE namespaced sort: every segment key is
        # offset by `segment code * seg_off`, so a single stable
        # argsort yields the segments in iteration order, each
        # internally ranked.  `seg_off` strictly exceeds any
        # within-segment key (the descending key, the largest, is
        # bounded by (packed * 2 + 1) * width + width).
        max_pd = (((self.modulus // 2) * (d + 1) + d) * 2 + 1) * self.space
        max_pd += self.space
        max_w = 4 * radius + 3
        self.seg_off = np.int64(
            1 << int((max_pd * 2 + 1) * max_w + max_w).bit_length()
        )
        self._phase_of_seg = np.array(
            [self._ASC, self._DESC, self._DESC,
             self._TRAV, self._TRAV, self._TRAV],
            dtype=np.int64,
        )

    # -- distance ------------------------------------------------------

    def _packed_from(self, ncub, ncyc, nlin, kcub, kcyc, klin):
        """§3.1 closeness as one int64, order-identical to the
        ``(cube, cyclic, succ_bias, clockwise)`` tuple — strict total
        order, so min-reduction equals the engine's sequential
        strict-`<` best updates."""
        d, modulus, space = self.d, self.modulus, self.space
        dc = (ncub - kcub) % modulus
        dc = np.minimum(dc, modulus - dc)
        dk = (ncyc - kcyc) % d
        dk = np.minimum(dk, d - dk)
        cw = (nlin - klin) % space
        bias = cw > space // 2
        return ((dc * (d + 1) + dk) * 2 + bias) * space + cw

    def _packed_distance(self, kcub, kcyc, klin, node_idx):
        return self._packed_from(
            self.cub[node_idx], self.cyc[node_idx], self.lin[node_idx],
            kcub, kcyc, klin,
        )

    def _owners(self, kcub, kcyc, klin):
        """Per-lookup ground-truth owner index — ``owner_of_id``'s
        nearest-cubical scan.  The owner is the packed-distance argmin
        over live nodes, and the candidate cycles bracketing the key
        (see the compile-time oracle) always contain it, so only their
        members are ranked: O(batch * 2d) instead of O(batch * n)."""
        occ = self.occ_cycles
        pos = np.searchsorted(occ, kcub)
        cand = np.concatenate(
            # pos - 1 == -1 wraps to the last occupied cycle.
            [self.cycle_members[pos % occ.size], self.cycle_members[pos - 1]],
            axis=1,
        )
        safe = np.maximum(cand, 0)
        dist = np.where(
            cand >= 0,
            self._packed_distance(
                kcub[:, None], kcyc[:, None], klin[:, None], safe
            ),
            _INF,
        )
        return safe[np.arange(kcub.shape[0]), np.argmin(dist, axis=1)]

    # -- execution -----------------------------------------------------

    def run(self, sources, key_ids) -> List[LookupRecord]:
        # The engine sets this on every run; fault-free batches always
        # route with dead-entry filtering inside the step function.
        self.network.fault_detection = False
        batch = len(sources)
        index = self.index
        cur = np.fromiter(
            (index[id(source)] for source in sources), np.int64, batch
        )
        if not bool(self.alive[cur].all()):
            raise ValueError("lookup source must be alive")
        kcyc = np.fromiter((k.cyclic for k in key_ids), np.int64, batch)
        kcub = np.fromiter((k.cubical for k in key_ids), np.int64, batch)
        klin = kcub * self.d + kcyc

        return self._finish(
            sources, key_ids, *self._execute(cur, kcub, kcyc, klin)
        )

    def run_linear(self, source_idx, key_linear) -> Dict[str, object]:
        """Array-mode batch: node-index sources, linear-id keys.

        The record-free entry point for bulk-built kernels (and scale
        sweeps generally): identical wave execution, but inputs and
        outputs stay numpy arrays — no node objects, names or
        ``LookupRecord`` allocation.  Returns per-lookup ``hops`` /
        ``timeouts`` / ``success`` / ``final`` (delivery node index) /
        ``owners`` plus the ``[batch, phases]`` ``phase_counts``.
        """
        cur = np.asarray(source_idx, dtype=np.int64).copy()
        klin = np.asarray(key_linear, dtype=np.int64)
        if not bool(self.alive[cur].all()):
            raise ValueError("lookup source must be alive")
        kcyc = klin % self.d
        kcub = klin // self.d
        hops, timeouts, success, phase_counts, final_idx, _hop_log = (
            self._execute(cur, kcub, kcyc, klin)
        )
        return {
            "hops": hops,
            "timeouts": timeouts,
            "success": success,
            "phase_counts": phase_counts,
            "final": final_idx,
        }

    def _execute(self, cur, kcub, kcyc, klin):
        batch = cur.shape[0]
        owners = self._owners(kcub, kcyc, klin)
        # Per-row path histories: node indices walked (probed by alias
        # — `current` is always live, so it is its own alias) and
        # cubical cycles the last mile has exhausted.
        visited = _PathHistory(batch, self.hop_limit + 1)
        explored = _PathHistory(batch, self.hop_limit + 1)
        # begin_route observes the source.
        best_key = self._packed_distance(kcub, kcyc, klin, cur)
        best_idx = cur.copy()
        hops = np.zeros(batch, dtype=np.int64)
        timeouts = np.zeros(batch, dtype=np.int64)
        phase_counts = np.zeros((batch, 3), dtype=np.int64)
        done = np.zeros(batch, dtype=bool)
        hop_log: List[Tuple] = []
        hop_limit = self.hop_limit

        while True:
            active = ~done & (hops < hop_limit)
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break
            current = cur[rows]
            exact = self.lin[current] == klin[rows]
            if exact.any():
                done[rows[exact]] = True
                rows = rows[~exact]
                if rows.size == 0:
                    continue
                current = cur[rows]
            visited.add(rows, current)
            nxt, pcode, wave_touts = self._decide(
                rows, current, kcub[rows], kcyc[rows], klin[rows],
                visited, explored, best_key, best_idx,
            )
            timeouts[rows] += wave_touts
            forwarded = nxt >= 0
            go = rows[forwarded]
            targets = nxt[forwarded]
            cur[go] = targets
            hops[go] += 1
            phase_counts[go, pcode[forwarded]] += 1
            hop_log.append((go, targets))
            done[rows[~forwarded]] = True

        # finish_route: one delivery hop to the best-observed node when
        # the walk stopped elsewhere (best is always set — the source
        # was observed — and alive, the network being static here).
        deliver = best_idx != cur
        final_idx = np.where(deliver, best_idx, cur)
        hops = hops + deliver
        phase_counts[:, self._TRAV] += deliver
        deliver_rows = np.flatnonzero(deliver)
        if deliver_rows.size:
            hop_log.append((deliver_rows, final_idx[deliver_rows]))

        success = final_idx == owners  # Cycloid walks never dead-end
        return hops, timeouts, success, phase_counts, final_idx, hop_log

    def _decide(
        self, rows, current, kcub, kcyc, klin, visited, explored,
        best_key, best_idx,
    ):
        """One vectorized `_choose_next` wave.

        The preference cascade becomes six candidate-matrix segments in
        iteration order — ascending outside leaves, the cubical
        neighbour, the descending cyclic/inside candidates, the
        traverse-closer leaves, the last-mile inside-unvisited leaves
        and the last-mile tied-cycle primaries — each ranked by the
        object engine's own sort key.  The accepted hop is the first
        live, unvisited (unless the segment allows revisits) candidate;
        dead candidates at earlier positions cost one timeout each,
        deduplicated by identifier exactly like ``dead_tried``.
        """
        d, modulus = self.d, self.modulus
        m = rows.size
        radius = self.radius
        all_alive = self.all_alive
        cur_cub = self.cub[current]
        cur_cyc = self.cyc[current]
        cur_cube = (cur_cub - kcub) % modulus
        cur_cube = np.minimum(cur_cube, modulus - cur_cube)
        cur_bit = _msdb(cur_cub, kcub)
        cur_dist = self._packed_from(
            cur_cub, cur_cyc, self.lin[current], kcub, kcyc, klin
        )
        col = current[:, None]
        kcub_c = kcub[:, None]
        kcyc_c = kcyc[:, None]
        klin_c = klin[:, None]

        # Leaf matrix in leaf_entries() order ([IL, IR, OL, OR]),
        # keep-first deduped by id (the engine's `leaves`), self
        # excluded by identity.  The inside/outside segments below are
        # column slices of it, so node attributes and packed distances
        # are gathered once here.
        leaves = self.leaf_all[current]
        leaf_w = 4 * radius
        half = 2 * radius
        leaf_safe = np.maximum(leaves, 0)
        leaf_ok = (leaves >= 0) & (leaves != col)
        leaf_cub = self.cub[leaf_safe]
        leaf_cyc = self.cyc[leaf_safe]
        leaf_cube = (leaf_cub - kcub_c) % modulus
        leaf_cube = np.minimum(leaf_cube, modulus - leaf_cube)
        leaf_pd = self._packed_from(
            leaf_cub, leaf_cyc, self.lin[leaf_safe], kcub_c, kcyc_c, klin_c
        )
        if self.leaf_dup_free:
            leaf_uniq = leaf_ok
        else:
            leaf_id = np.where(leaf_ok, self.lin[leaf_safe], -1)
            leaf_uniq = leaf_ok.copy()
            for j in range(1, leaf_w):
                dup = (leaf_id[:, :j] == leaf_id[:, j : j + 1]).any(axis=1)
                leaf_uniq[:, j] &= ~dup

        # Observe every (unique) leaf before the cascade runs.
        if all_alive:
            leaf_is_alive = None
            leaf_obs = leaf_uniq
        else:
            leaf_is_alive = self.alive[leaf_safe]
            leaf_obs = leaf_uniq & leaf_is_alive
        self._observe(rows, leaf_obs, leaf_pd, leaf_safe, best_key, best_idx)

        # Traverse trigger: key's cubical index inside the outside arc.
        arc_l = self.arc_left[current]
        arc_r = self.arc_right[current]
        traversing = np.where(
            arc_l == arc_r,
            kcub == arc_l,
            ((kcub - arc_l) % modulus) <= ((arc_r - arc_l) % modulus),
        )
        ascending = ~traversing & (cur_cyc < cur_bit)
        desc_eq = ~traversing & (cur_cyc == cur_bit)
        desc_gt = ~traversing & (cur_cyc > cur_bit)

        # Segments are assembled dynamically: one with no eligible row
        # contributes no valid candidate, so it is dropped outright —
        # a wave mid-descent never pays for the ascending or last-mile
        # machinery.  Each included segment appends (candidates,
        # validity, within-segment key, packed distances) plus its
        # cascade code; the codes namespace one shared sort below.
        parts_cand: List = []
        parts_valid: List = []
        parts_key: List = []
        parts_pd: List = []
        parts_code: List[int] = []

        def push(code, cand_m, valid_m, rank_key, pd_m) -> None:
            w = cand_m.shape[1]
            key = np.where(
                valid_m,
                rank_key + np.arange(w, dtype=np.int64),
                _INF,
            )
            parts_cand.append(cand_m)
            parts_valid.append(valid_m)
            parts_key.append(key)
            parts_pd.append(pd_m)
            parts_code.extend([code] * w)

        outside = leaves[:, half:]
        out_w = half
        out_cub = leaf_cub[:, half:]
        out_cube = leaf_cube[:, half:]
        out_real = leaf_ok[:, half:]
        out_pd = leaf_pd[:, half:]

        # Segment 1 — ascending via raw outside leaves (the trailing
        # [OL, OR] leaf columns), sorted by (cubical distance, -cyclic,
        # cubical).
        if ascending.any():
            asc_valid = (
                ascending[:, None] & out_real & (out_cube < cur_cube[:, None])
            )
            asc_rank = (
                out_cube * d + (d - 1 - leaf_cyc[:, half:])
            ) * modulus + out_cub
            push(self._SEG_ASC, outside, asc_valid, asc_rank * out_w, out_pd)

        # Segment 2 — the cubical neighbour (descending, k == MSDB),
        # gated by the φ convergence criterion (strict).
        if desc_eq.any():
            neighbor = self.cn[current]
            nb_safe = np.maximum(neighbor, 0)
            nb_cub = self.cub[nb_safe]
            nb_m = _msdb(nb_cub, kcub)
            nb_cube = (nb_cub - kcub) % modulus
            nb_cube = np.minimum(nb_cube, modulus - nb_cube)
            nb_valid = (
                desc_eq
                & (neighbor >= 0)
                & (
                    (nb_m < cur_bit)
                    | ((nb_m == cur_bit) & (nb_cube < cur_cube))
                )
            )
            nb_pd = self._packed_distance(kcub, kcyc, klin, nb_safe)
            push(
                self._SEG_NB,
                neighbor[:, None],
                nb_valid[:, None],
                np.int64(0),
                nb_pd[:, None],
            )

        # Segment 3 — descending (k > MSDB) via cyclic neighbours and
        # inside leaves, ranked by (distance, side-preference).  The
        # inside-leaf distances are leaf columns; only the two cyclic
        # neighbours need fresh gathers.
        if desc_gt.any():
            entries = self.ent_all[current]
            ent_w = 2 + half
            ent_safe = np.maximum(entries, 0)
            ent_cyc = self.cyc[ent_safe]
            ent_cub = self.cub[ent_safe]
            ent_m = _msdb(ent_cub, kcub_c)
            ent_cube = (ent_cub - kcub_c) % modulus
            ent_cube = np.minimum(ent_cube, modulus - ent_cube)
            phi_ok = (ent_m < cur_bit[:, None]) | (
                (ent_m == cur_bit[:, None]) & (ent_cube <= cur_cube[:, None])
            )
            ent_valid = (
                desc_gt[:, None]
                & (entries >= 0)
                & (entries != col)
                & (cur_bit[:, None] <= ent_cyc)
                & (ent_cyc < cur_cyc[:, None])
                & phi_ok
            )
            ent_pd = np.concatenate(
                [
                    self._packed_distance(
                        kcub_c, kcyc_c, klin_c, ent_safe[:, :2]
                    ),
                    leaf_pd[:, :half],
                ],
                axis=1,
            )
            prefer_larger = ((kcub - cur_cub) % modulus) <= modulus // 2
            larger_side = ent_cub >= cur_cub[:, None]
            side_flag = (larger_side != prefer_larger[:, None]).astype(
                np.int64
            )
            push(
                self._SEG_ENT,
                entries,
                ent_valid,
                (ent_pd * 2 + side_flag) * ent_w,
                ent_pd,
            )

        # Segment 4 — traverse fallback: unique leaves strictly closer
        # to the key, sorted by distance (no phase gate).
        trv_valid = leaf_uniq & (leaf_pd < cur_dist[:, None])
        push(self._SEG_TRV, leaves, trv_valid, leaf_pd * leaf_w, leaf_pd)

        # Last-mile gate: no live outside primary is cubically closer.
        live_out = (
            out_real if all_alive else out_real & leaf_is_alive[:, half:]
        )
        locally_minimal = ~(live_out & (out_cube < cur_cube[:, None])).any(
            axis=1
        )
        if locally_minimal.any():
            # Segment 5 — last-mile inside leaves (the leading [IL, IR]
            # leaf columns) not yet visited (by id; dead entries
            # included, costing timeouts), sorted by distance.
            inside = leaves[:, :half]
            ins_safe = leaf_safe[:, :half]
            ins_alias = ins_safe if all_alive else self.alias[ins_safe]
            ins_unvisited = ~visited.contains(rows, ins_alias)
            ins_valid = (
                locally_minimal[:, None] & leaf_ok[:, :half] & ins_unvisited
            )
            ins_pd = leaf_pd[:, :half]
            push(self._SEG_INS, inside, ins_valid, ins_pd * half, ins_pd)

            # Segment 6 — last-mile tied-cycle primaries (live outside
            # leaves at equal cubical distance, unexplored cycles),
            # sorted by distance; revisits allowed.
            tied_valid = (
                locally_minimal[:, None]
                & live_out
                & (out_cube == cur_cube[:, None])
                & ~explored.contains(rows, out_cub)
            )
            push(self._SEG_TIED, outside, tied_valid, out_pd * out_w, out_pd)

        # One namespaced stable sort yields the full cascade: valid
        # candidates appear in (segment, within-segment rank) order —
        # the exact iteration sequence of the object engine, merely
        # compacted past the invalid entries, which never accept, never
        # time out and are never observed.
        code_cols = np.array(parts_code, dtype=np.int64)
        key_all = np.concatenate(parts_key, axis=1) + code_cols * self.seg_off
        order = np.argsort(key_all, axis=1, kind="stable")
        cand = np.take_along_axis(
            np.concatenate(parts_cand, axis=1), order, axis=1
        )
        valid = np.take_along_axis(
            np.concatenate(parts_valid, axis=1), order, axis=1
        )
        cand_pd = np.take_along_axis(
            np.concatenate(parts_pd, axis=1), order, axis=1
        )
        code = code_cols[order]
        width = cand.shape[1]
        positions = np.arange(width, dtype=np.int64)

        cand_safe = np.maximum(cand, 0)
        cand_alive = valid if all_alive else valid & self.alive[cand_safe]
        cand_alias = cand_safe if all_alive else self.alias[cand_safe]
        cand_visited = visited.contains(rows, cand_alias)
        acceptable = cand_alive & (
            (code == self._SEG_TIED) | ~cand_visited
        )
        accept_pos = _first_true(acceptable)

        # Timeouts: dead candidates iterated before the accepted one,
        # deduplicated by identifier (`dead_tried`); a fully-live
        # universe has none.
        if all_alive:
            wave_touts = np.zeros(m, dtype=np.int64)
        else:
            wave_touts = _timeouts_before(
                self.lin[cand_safe], valid & ~self.alive[cand_safe], accept_pos
            )

        # Observe routing-table candidates actually iterated (segments
        # 2 and 3; every other segment is a leaf subset, observed
        # above).  `try_candidates` observes live candidates up to and
        # including the accepted position.
        if desc_eq.any() or desc_gt.any():
            rt_obs = (
                ((code == self._SEG_NB) | (code == self._SEG_ENT))
                & cand_alive
                & (positions[None, :] <= accept_pos[:, None])
            )
            self._observe(
                rows, rt_obs, cand_pd, cand_safe, best_key, best_idx
            )

        accepted = accept_pos < width
        gather = np.minimum(accept_pos, width - 1)
        row_arange = np.arange(m)
        accept_code = code[row_arange, gather]

        # explored_cycles.add(current.cubical) fires whenever the walk
        # is locally minimal and the inside attempt found nothing —
        # i.e. the cascade accepted in the tied segment or nothing at
        # all.
        mark = locally_minimal & (
            ~accepted | (accept_code == self._SEG_TIED)
        )
        if mark.any():
            explored.add(rows[mark], cur_cub[mark])

        nxt = np.where(accepted, cand[row_arange, gather], -1)
        pcode = self._phase_of_seg[accept_code]
        return nxt, pcode, wave_touts

    @staticmethod
    def _observe(rows, mask, packed, cand_safe, best_key, best_idx):
        """Fold observed candidates into the best-seen trackers.  The
        packed distance is a strict total order, so the masked row
        minimum reproduces the engine's sequential strict-`<` updates
        regardless of observation order."""
        keyed = np.where(mask, packed, _INF)
        m = keyed.shape[0]
        jmin = np.argmin(keyed, axis=1)
        row_arange = np.arange(m)
        row_min = keyed[row_arange, jmin]
        update = row_min < best_key[rows]
        target_rows = rows[update]
        best_key[target_rows] = row_min[update]
        best_idx[target_rows] = cand_safe[row_arange[update], jmin[update]]


# ----------------------------------------------------------------------
# Ring family: Chord and Koorde
# ----------------------------------------------------------------------


class _RingKernel(_KernelBase):
    """The columns and wave steps Chord and Koorde share.

    Memory layout: per-node int64 ``ids`` plus a bool ``alive`` mask;
    the successor list as an ``[n, r]`` index run padded with ``-1``,
    its length in ``succ_len``; the predecessor as one index column;
    and the live ids sorted (``live_sorted_ids``, beside their indices
    in ``live_sorted_idx``) for the ``searchsorted`` owner oracle — the
    ring's successor scan."""

    def _compile_ring(self, network, pointers) -> None:
        """Intern the universe over each live node's ``pointers(node)``,
        successors and predecessor, and extract the ring columns.  Dead
        nodes are pointed at, never routed from: their rows stay empty."""
        self.network = network
        self.hop_limit = network.HOP_LIMIT
        self.bits = network.bits
        self.modulus = network.ring.modulus

        def slots(node):
            yield from pointers(node)
            yield from node.successors
            yield node.predecessor

        nodes, index = _intern_universe(list(network.live_nodes()), slots)
        self.nodes = nodes
        self.index = index
        self.names = [node.name for node in nodes]
        count = len(nodes)
        self.ids = np.fromiter((n.id for n in nodes), np.int64, count)
        self.alive = np.fromiter((n.alive for n in nodes), bool, count)
        runs = [
            [index[id(s)] for s in n.successors] if n.alive else []
            for n in nodes
        ]
        self.successors = _pad_matrix(runs)
        self.succ_len = np.fromiter(map(len, runs), np.int64, count)
        self.pred = np.fromiter(
            (self._ref(n.predecessor) if n.alive else -1 for n in nodes),
            np.int32,
            count,
        )
        live_idx = np.flatnonzero(self.alive)
        order = np.argsort(self.ids[live_idx], kind="stable")
        self.live_sorted_ids = self.ids[live_idx][order]
        self.live_sorted_idx = live_idx[order].astype(np.int32)
        self.all_alive = bool(self.alive.all())

    def _ref(self, target) -> int:
        return -1 if target is None else self.index[id(target)]

    def run(self, sources, key_ids) -> List[LookupRecord]:
        self.network.fault_detection = False
        batch = len(sources)
        index = self.index
        cur = np.fromiter(
            (index[id(source)] for source in sources), np.int64, batch
        )
        if not bool(self.alive[cur].all()):
            raise ValueError("lookup source must be alive")
        keys = np.fromiter(key_ids, np.int64, batch)

        return self._finish(sources, key_ids, *self._execute(cur, keys))

    def _owners(self, keys):
        """Ground truth per lookup: the key's live successor."""
        slot = np.searchsorted(self.live_sorted_ids, keys)
        slot[slot == self.live_sorted_ids.size] = 0
        return self.live_sorted_idx[slot]

    def _stops(self, current, cur_id, keys):
        """The terminate rule both protocols open with: the node holds
        the key's id, has no successor (a singleton owns every key), or
        believes it is responsible — the key lies in (pred, id]."""
        pred = self.pred[current]
        believes = (pred >= 0) & _in_interval(
            keys, self.ids[np.maximum(pred, 0)], cur_id, self.modulus
        )
        return (cur_id == keys) | (self.succ_len[current] == 0) | believes

    def _waves(self, cur, keys, done, hops):
        """Yield each wave's ``(rows, current, cur_id, key)`` for the
        rows still routing past the stop test; stopped rows are marked
        done.  The caller advances ``cur``/``hops``/``done`` between
        waves."""
        while True:
            rows = np.flatnonzero(~done & (hops < self.hop_limit))
            if rows.size == 0:
                return
            current = cur[rows]
            cur_id = self.ids[current]
            key = keys[rows]
            stop = self._stops(current, cur_id, key)
            if stop.any():
                done[rows[stop]] = True
                go = ~stop
                rows, current, cur_id, key = (
                    rows[go], current[go], cur_id[go], key[go]
                )
            if rows.size:
                yield rows, current, cur_id, key

    def _first_live(self, cand, valid, charged=None):
        """Per row, the position of the first live valid candidate
        (``width`` when there is none) and the timeouts paid before it:
        one per dead valid candidate at an earlier position among the
        first ``charged`` columns (all by default), deduplicated by
        identifier as the engine's ``seen`` sets are."""
        if self.all_alive:
            return _first_true(valid), np.zeros(cand.shape[0], np.int64)
        safe = np.maximum(cand, 0)
        is_alive = self.alive[safe]
        pos = _first_true(valid & is_alive)
        dead = (valid & ~is_alive)[:, :charged]
        return pos, _timeouts_before(self.ids[safe[:, :charged]], dead, pos)


@_register("chord")
class ChordKernel(_RingKernel):
    """Compiled Chord routing (chord/network.py's fault-free cascade).

    Memory layout: the ring columns of :class:`_RingKernel` plus the
    finger table as an ``[n, bits]`` index matrix (``-1`` for
    stale-void entries)."""

    PHASES = ("finger", "successor")
    _FINGER, _SUCC = 0, 1

    def __init__(self, network) -> None:
        self._compile_ring(network, lambda node: node.fingers)
        ref = self._ref
        self.fingers = _pad_matrix(
            [
                [ref(f) for f in n.fingers] if n.alive else []
                for n in self.nodes
            ],
            self.bits,
        )
        self._finalize()

    @classmethod
    def from_columns(cls, columns, hop_limit: Optional[int] = None):
        """Compile directly from bulk-built columns — no object graph.

        Array-mode only (:meth:`run_ids`); see
        :meth:`CycloidKernel.from_columns`.  A single-node build has a
        zero-width successor run; it is padded to the one-column layout
        the wave kernel expects."""
        if np is None:  # pragma: no cover - numpy is baked into CI
            raise RuntimeError(
                "the columnar kernel requires numpy; install it or "
                "use backend='object'"
            )
        from repro.dht.base import Network  # runtime: cycle is type-only

        self = cls.__new__(cls)
        self.network = None
        self.hop_limit = Network.HOP_LIMIT if hop_limit is None else hop_limit
        self.bits = columns.bits
        self.modulus = 1 << columns.bits
        self.nodes = None
        self.index = None
        self.names = None
        count = columns.count
        self.ids = columns.ids
        self.alive = np.ones(count, dtype=bool)
        self.fingers = columns.fingers
        take = columns.successors.shape[1]
        if take == 0:
            self.successors = np.full((count, 1), -1, dtype=np.int32)
        else:
            self.successors = columns.successors
        self.succ_len = np.full(count, take, dtype=np.int64)
        self.pred = columns.predecessor
        self.live_sorted_ids = columns.sorted_ids
        self.live_sorted_idx = columns.sorted_index
        self.all_alive = True
        self._finalize()
        return self

    def _finalize(self) -> None:
        succ_width = self.successors.shape[1]
        self.ptr_phase_row = np.concatenate(
            [
                np.full(self.bits, self._FINGER, dtype=np.int64),
                np.full(succ_width, self._SUCC, dtype=np.int64),
            ]
        )

    def run_ids(self, source_idx, keys) -> Dict[str, object]:
        """Array-mode batch: node-index sources, ring-id keys.  The
        record-free counterpart of :meth:`run` — see
        :meth:`CycloidKernel.run_linear`."""
        cur = np.asarray(source_idx, dtype=np.int64).copy()
        keys = np.asarray(keys, dtype=np.int64)
        if not bool(self.alive[cur].all()):
            raise ValueError("lookup source must be alive")
        hops, timeouts, success, phase_counts, final_idx, _hop_log = (
            self._execute(cur, keys)
        )
        return {
            "hops": hops,
            "timeouts": timeouts,
            "success": success,
            "phase_counts": phase_counts,
            "final": final_idx,
        }

    def _execute(self, cur, keys):
        batch = cur.shape[0]
        owners = self._owners(keys)
        hops = np.zeros(batch, dtype=np.int64)
        timeouts = np.zeros(batch, dtype=np.int64)
        phase_counts = np.zeros((batch, 2), dtype=np.int64)
        done = np.zeros(batch, dtype=bool)
        failed = np.zeros(batch, dtype=bool)
        hop_log: List[Tuple] = []
        bits = self.bits
        succ_width = self.successors.shape[1]

        # A singleton or orphaned node stops in `_waves`: _choose_next
        # returns `current` and the engine terminates on the spot.
        for rows, current, cur_id, key in self._waves(cur, keys, done, hops):
            m = rows.size
            succ = self.successors[current]
            believed_id = self.ids[succ[:, 0]]  # succ_len >= 1 here
            delivering = _in_interval(key, cur_id, believed_id, self.modulus)

            # Segment A — the believed-successor walk (delivery step).
            seg_a_valid = delivering[:, None] & (succ >= 0)

            # Segment B — closest preceding pointers, fingers before
            # successors, sorted by clockwise distance descending.
            pointers = np.concatenate(
                [self.fingers[current], succ], axis=1
            )
            ptr_w = bits + succ_width
            ptr_safe = np.maximum(pointers, 0)
            ptr_id = self.ids[ptr_safe]
            ptr_valid = (
                ~delivering[:, None]
                & (pointers >= 0)
                & (ptr_id != cur_id[:, None])
                & _in_interval(
                    ptr_id, cur_id[:, None], key[:, None], self.modulus
                )
            )
            distance = (ptr_id - cur_id[:, None]) % self.modulus
            ptr_key = np.where(
                ptr_valid,
                (self.modulus - distance) * ptr_w
                + np.arange(ptr_w, dtype=np.int64),
                _INF,
            )
            ptr_phase = np.broadcast_to(self.ptr_phase_row, (m, ptr_w))
            seg_b, seg_b_valid, seg_b_phase = _sort_segment(
                ptr_key, pointers, ptr_valid, ptr_phase
            )

            # Segment C — the last-resort live-successor delivery (no
            # timeout accounting on this walk).
            seg_c_valid = ~delivering[:, None] & (succ >= 0)

            cand = np.concatenate([succ, seg_b, succ], axis=1)
            valid = np.concatenate(
                [seg_a_valid, seg_b_valid, seg_c_valid], axis=1
            )
            width = cand.shape[1]
            c_start = succ_width + ptr_w
            accept_pos, wave_touts = self._first_live(cand, valid, c_start)
            timeouts[rows] += wave_touts

            accepted = accept_pos < width
            gather = np.minimum(accept_pos, width - 1)
            row_arange = np.arange(m)
            targets = cand[row_arange, gather]
            # Phase: segment A and C are successor steps; segment B
            # carries per-candidate labels through the sort.
            in_b = (accept_pos >= succ_width) & (accept_pos < c_start)
            pcode = np.where(
                in_b,
                seg_b_phase[
                    row_arange,
                    np.minimum(
                        np.maximum(gather - succ_width, 0), ptr_w - 1
                    ),
                ],
                self._SUCC,
            )
            terminal = accepted & ~in_b  # segments A and C deliver

            go = accepted
            go_rows = rows[go]
            cur[go_rows] = targets[go]
            hops[go_rows] += 1
            phase_counts[go_rows, pcode[go]] += 1
            hop_log.append((go_rows, targets[go]))
            done[rows[terminal]] = True
            dead_end = ~accepted
            done[rows[dead_end]] = True
            failed[rows[dead_end]] = True

        success = ~failed & (cur == owners)
        return hops, timeouts, success, phase_counts, cur, hop_log


def _pick(matrix, pos):
    """Per row, ``matrix[row, pos[row]]``; ``-1`` where ``pos`` is past
    the last column."""
    width = matrix.shape[1]
    picked = matrix[np.arange(matrix.shape[0]), np.minimum(pos, width - 1)]
    return np.where(pos < width, picked, -1)


@_register("koorde")
class KoordeKernel(_RingKernel):
    """Compiled Koorde routing (koorde/network.py's fault-free cascade).

    Memory layout: the ring columns of :class:`_RingKernel` plus the de
    Bruijn chain — the pointer, then its backups, closest first — as
    an ``[n, 1 + DEBRUIJN_BACKUPS]`` index matrix padded with ``-1``
    (narrower only on rings of fewer than four nodes).

    Per-lookup walk state mirrors ``_ImaginaryWalk``: int64 columns
    ``imaginary`` (the imaginary de Bruijn node), ``kshift`` (the key,
    its next bit on top) and ``bits_left``, one entry per row.  A wave
    runs ``next_hop``'s cascade — terminate, delivery step, de Bruijn
    shift, correction step.  A row whose first live chain node is the
    current node shifts and decides again in the same wave: no hop is
    counted and the shift's timeouts are kept, as ``step_route``
    absorbs ``advance`` decisions."""

    PHASES = ("de_bruijn", "successor")
    _DEBRUIJN, _SUCC = 0, 1

    def __init__(self, network) -> None:
        self._compile_ring(network, lambda node: node.debruijn_chain())
        index = self.index
        self.chain = _pad_matrix(
            [
                [index[id(t)] for t in n.debruijn_chain()] if n.alive else []
                for n in self.nodes
            ]
        )

    def _execute(self, cur, keys):
        batch = cur.shape[0]
        owners = self._owners(keys)
        ids, modulus, top = self.ids, self.modulus, self.bits - 1
        # begin_route: the imaginary node starts at the source, with
        # every bit of the key still to shift in.
        imaginary = ids[cur]
        kshift = keys.copy()
        bits_left = np.full(batch, self.bits, dtype=np.int64)
        hops = np.zeros(batch, dtype=np.int64)
        timeouts = np.zeros(batch, dtype=np.int64)
        phase_counts = np.zeros((batch, 2), dtype=np.int64)
        done = np.zeros(batch, dtype=bool)
        failed = np.zeros(batch, dtype=bool)
        hop_log: List[Tuple] = []

        def hosts(at, cur_id, span):
            """The de Bruijn gate: bits remain and the imaginary node
            lies in [current, successor)."""
            return (bits_left[at] > 0) & (
                (imaginary[at] - cur_id) % modulus < span
            )

        def shift(at) -> None:
            imaginary[at] = (
                (imaginary[at] << 1) | ((kshift[at] >> top) & 1)
            ) % modulus
            kshift[at] = (kshift[at] << 1) % modulus
            bits_left[at] -= 1

        for rows, current, cur_id, key in self._waves(cur, keys, done, hops):
            succ = self.successors[current]
            believed_id = ids[succ[:, 0]]  # succ_len >= 1 here
            delivering = _in_interval(key, cur_id, believed_id, modulus)
            span = (believed_id - cur_id) % modulus
            succ_pos, succ_touts = self._first_live(succ, succ >= 0)
            chain = self.chain[current]
            chain_pos, chain_touts = self._first_live(chain, chain >= 0)
            chain_next = _pick(chain, chain_pos)

            # Advances: a row whose chain resolves to the node itself
            # shifts for free (keeping the chain's timeouts) until the
            # gate closes; the chain's pick cannot change meanwhile.
            hosting = ~delivering & hosts(rows, cur_id, span)
            wave_touts = np.zeros(rows.size, dtype=np.int64)
            loop = np.flatnonzero(hosting & (chain_next == current))
            while loop.size:
                shift(rows[loop])
                wave_touts[loop] += chain_touts[loop]
                again = hosts(rows[loop], cur_id[loop], span[loop])
                hosting[loop] = again
                loop = loop[again]

            # A de Bruijn hop consumes its bit before the message
            # leaves (a dead chain fails the lookup, whose walk is then
            # never read).  Every other row takes the first live
            # successor: a delivery step (terminal) or a correction
            # step.
            shift(rows[hosting])
            nxt = np.where(hosting, chain_next, _pick(succ, succ_pos))
            wave_touts += np.where(hosting, chain_touts, succ_touts)
            timeouts[rows] += wave_touts
            forwarded = nxt >= 0
            go = rows[forwarded]
            targets = nxt[forwarded].astype(np.int64)
            cur[go] = targets
            hops[go] += 1
            pcode = np.where(hosting, self._DEBRUIJN, self._SUCC)
            phase_counts[go, pcode[forwarded]] += 1
            hop_log.append((go, targets))
            done[rows[delivering | ~forwarded]] = True
            failed[rows[~forwarded]] = True

        success = ~failed & (cur == owners)
        return hops, timeouts, success, phase_counts, cur, hop_log


# ----------------------------------------------------------------------
# Viceroy
# ----------------------------------------------------------------------


@_register("viceroy")
class ViceroyKernel(_KernelBase):
    """Compiled Viceroy routing (viceroy/network.py's butterfly walk).

    Viceroy links are a pure function of the live membership — joins
    and departures evict and repair eagerly, ``on_dead_entry`` repairs
    nothing — so the node universe is exactly the live ring, in ring
    order, and no link is ever stale.  Memory layout: per-node int64
    ``ids`` (sorted) and ``levels``; one int32 index column per link —
    ``up``, the ``left``/``right`` down links, the level ring
    ``level_prev``/``level_next`` and the general ring ``pred``/``succ``
    — with ``-1`` where the link is ``None`` or would point back at the
    node; and the int64 ``reach`` column ``ID_SCALE >> min(level,
    ID_BITS)``, both the descend threshold and the right link's offset.
    Every link column is a ``searchsorted`` over one level's sorted ids.

    Per-lookup walk state is one ``stage`` column (ascend → descend →
    traverse) mirroring ``_ButterflyWalk``: within one wave a row falls
    through the stages exactly as one ``next_hop`` call does."""

    PHASES = ("ascending", "descending", "traverse")
    _ASC, _DESC, _TRAV = 0, 1, 2

    def __init__(self, network) -> None:
        self.network = network
        self.hop_limit = network.HOP_LIMIT
        ring = network.ring
        scale = ring.modulus
        self.scale = scale
        nodes = network.live_nodes()  # ring order: ids ascending
        self.nodes = nodes
        self.index = {id(node): i for i, node in enumerate(nodes)}
        self.names = [node.name for node in nodes]
        count = len(nodes)
        ids = np.array(ring.ids(), dtype=np.int64)
        levels = np.fromiter((node.level for node in nodes), np.int64, count)
        self.ids = ids
        self.reach = scale >> np.minimum(levels, ring.bits)

        up = np.full(count, -1, dtype=np.int64)
        left = np.full(count, -1, dtype=np.int64)
        right = np.full(count, -1, dtype=np.int64)
        level_prev = np.full(count, -1, dtype=np.int64)
        level_next = np.full(count, -1, dtype=np.int64)
        right_point = (ids + self.reach) % scale
        # Up and down links are "the first node of level L at or after a
        # point": one searchsorted per occupied level, over its members
        # (ring order keeps each level's ids sorted).
        for level in np.unique(levels).tolist():
            members = np.flatnonzero(levels == level)
            row = ids[members]
            size = members.size
            askers = np.flatnonzero(levels == level + 1)
            up[askers] = members[np.searchsorted(row, ids[askers]) % size]
            askers = np.flatnonzero(levels == level - 1)
            left[askers] = members[np.searchsorted(row, ids[askers]) % size]
            right[askers] = members[
                np.searchsorted(row, right_point[askers]) % size
            ]
            if size >= 2:
                level_prev[members] = np.roll(members, 1)
                level_next[members] = np.roll(members, -1)
        if count >= 2:
            pred = np.roll(np.arange(count), 1)
            succ = np.roll(np.arange(count), -1)
        else:
            pred = succ = np.full(count, -1, dtype=np.int64)
        own = np.arange(count)
        (
            self.up, self.left, self.right, self.level_prev,
            self.level_next, self.pred, self.succ,
        ) = (
            np.where(link == own, -1, link).astype(np.int32)
            for link in (up, left, right, level_prev, level_next, pred, succ)
        )

    def run(self, sources, key_ids) -> List[LookupRecord]:
        self.network.fault_detection = False
        batch = len(sources)
        index = self.index
        # Departed nodes are evicted from the ring, so a dead source is
        # simply absent from the universe.
        cur = np.fromiter(
            (index.get(id(source), -1) for source in sources), np.int64, batch
        )
        if bool((cur < 0).any()):
            raise ValueError("lookup source must be alive")
        keys = np.fromiter(key_ids, np.int64, batch) % self.scale
        return self._finish(sources, key_ids, *self._execute(cur, keys))

    def _execute(self, cur, keys):
        batch = cur.shape[0]
        ids, scale = self.ids, self.scale
        # Ground truth: the key's ring successor.
        owners = np.searchsorted(ids, keys) % ids.size
        stage = np.full(batch, self._ASC, dtype=np.int64)
        hops = np.zeros(batch, dtype=np.int64)
        phase_counts = np.zeros((batch, 3), dtype=np.int64)
        done = np.zeros(batch, dtype=bool)
        hop_log: List[Tuple] = []
        hop_limit = self.hop_limit

        while True:
            rows = np.flatnonzero(~done & (hops < hop_limit))
            if rows.size == 0:
                break
            current = cur[rows]
            key = keys[rows]
            cur_id = ids[current]
            # Terminate on the (pred, id] responsibility test; a lone
            # node (no predecessor) owns every key.
            pred = self.pred[current]
            stop = (pred < 0) | _in_interval(
                key, ids[np.maximum(pred, 0)], cur_id, scale
            )
            if stop.any():
                done[rows[stop]] = True
                rows = rows[~stop]
                if rows.size == 0:
                    continue
                current = cur[rows]
                key = keys[rows]
                cur_id = ids[current]
                pred = self.pred[current]
            # Past the test the ring has >= 2 nodes: pred/succ are set.
            st = stage[rows]

            # Ascend while an up link exists; otherwise fall through to
            # the descend stage in this same wave.
            up = self.up[current]
            climb = (st == self._ASC) & (up >= 0)
            st[(st == self._ASC) & ~climb] = self._DESC

            # Descend: left when the key is within reach clockwise, else
            # right; no down link falls through to the traverse.
            cw = (key - cur_id) % scale
            down = np.where(
                cw < self.reach[current],
                self.left[current],
                self.right[current],
            )
            dive = (st == self._DESC) & (down >= 0)
            st[(st == self._DESC) & ~dive] = self._TRAV
            stage[rows] = st

            # Traverse: deliver to the successor when the key lies in
            # (id, succ]; otherwise the higher-progress of the general-
            # and level-ring links on the key's shorter side, never past
            # the key — clockwise into (id, key], counter-clockwise into
            # [key, id).  Progress is injective in the candidate's id, so
            # a tie means both links name one node: the strict `>` keeps
            # the first-consulted general-ring link, which is the object
            # engine's dedup.
            succ = self.succ[current]
            deliver = _in_interval(key, cur_id, ids[succ], scale)
            clockwise = cw <= scale - cw
            sign = np.where(clockwise, 1, -1)
            span = sign * (key - cur_id) % scale
            ring_link = np.where(clockwise, succ, pred)
            level_link = np.where(
                clockwise, self.level_next[current], self.level_prev[current]
            )

            def progress(link):
                step = sign * (ids[np.maximum(link, 0)] - cur_id) % scale
                return np.where(
                    (link >= 0) & (0 < step) & (step <= span), step, -1
                )

            ring_progress = progress(ring_link)
            level_progress = progress(level_link)
            walk = np.where(
                level_progress > ring_progress,
                level_link,
                np.where(ring_progress > 0, ring_link, -1),
            )
            nxt = np.where(
                climb, up, np.where(dive, down, np.where(deliver, succ, walk))
            )
            pcode = np.where(
                climb, self._ASC, np.where(dive, self._DESC, self._TRAV)
            )

            forwarded = nxt >= 0
            go = rows[forwarded]
            targets = nxt[forwarded].astype(np.int64)
            cur[go] = targets
            hops[go] += 1
            phase_counts[go, pcode[forwarded]] += 1
            hop_log.append((go, targets))
            done[rows[~forwarded]] = True

        timeouts = np.zeros(batch, dtype=np.int64)  # links are never stale
        success = cur == owners  # a Viceroy walk stops, it never fails
        return hops, timeouts, success, phase_counts, cur, hop_log

"""Deterministic shard-based parallel experiment execution.

Every figure in the paper is a Monte-Carlo sweep: thousands of seeded
lookups per (overlay, n, d, p) cell.  The runners used to thread one
RNG through the whole sweep, which made the workload inherently serial.
This module restructures a cell's workload into **shards**:

* :func:`plan_shards` splits ``count`` lookups into contiguous,
  non-overlapping index ranges.  The shard plan is a pure function of
  ``(count, shard_size)`` — never of the worker count — so the same
  cell always produces the same shards no matter how it is executed.
* Each shard draws its workload from its own RNG stream, derived from
  ``(seed, shard_index)`` via :func:`repro.util.rng.shard_rng`, routes
  on the cell's network (built once from a picklable zero-argument
  ``setup`` callable), and returns a picklable :class:`ShardResult`
  (records plus query-load / repair / fault aggregates).
* :func:`merge_shards` folds shard results **by shard index**, so the
  merged run is invariant under any completion order, and cross-checks
  the invariants that make the merge meaningful (every shard saw the
  same population and crash set).

:func:`run_sharded_lookups` is the cell driver: it executes the shard
plan either in-process (``workers=1`` — the serial fallback, which
runs the *exact same* per-shard computation and merge path) or fanned
out over a :class:`concurrent.futures.ProcessPoolExecutor`.  Because a
shard's result is a pure function of ``(setup, seed, spec)``, the two
paths are bit-identical — the property `tests/sim/test_parallel_parity`
pins for every overlay, with and without an enabled
:class:`~repro.sim.faults.FaultPlan`.

Determinism model (DESIGN.md §S20/§S21)
---------------------------------------
The cell's prepared network is built from the setup callable **exactly
once** (§S21), and every shard in a process routes on that **one**
network and one compiled kernel
(:func:`repro.dht.kernel.compile_kernel`), with or without faults:
the serial path on the original, each pool worker on one unpacked
copy, received once through the pool initializer.  Sharing is safe
because a shard hands the network back as it found it
(:func:`execute_shard`): it resets the query counters before routing,
and in fault mode it rolls back the lazy repairs its injector
journaled (:meth:`~repro.sim.faults.FaultInjector.roll_back`).  Its
loss stream is its own (:meth:`~repro.sim.faults.FaultInjector.for_shard`).
Fault injectors are never serialised: the post-setup injector is a
pure function of ``(plan, flaky set, crash count)``
(:class:`~repro.sim.faults.FaultState`) and reattaches bit-exactly.

The parity suite keeps a fresh-build referee in the tests: it calls
``setup()`` afresh for every shard, routes through
:func:`execute_shard`, and must equal this runner's merged digest for
every overlay at every worker count, with and without an enabled
:class:`~repro.sim.faults.FaultPlan`.

Trace observers hold open file handles and are not picklable, so an
``observer`` forces in-process execution; the shard plan (and therefore
the output) is unchanged, only the fan-out is.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.dht.kernel import (
    DEFAULT_BACKEND,
    check_backend,
    compile_kernel,
    run_lookup_batch,
)
from repro.dht.metrics import LookupRecord, LookupStats
from repro.dht.snapshot import PackedNetwork, pack_network, unpack_network
from repro.sim.faults import FaultState
from repro.sim.latency import LatencyModel
from repro.sim.workload import lookup_workload
from repro.util.rng import shard_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.dht.base import Network
    from repro.dht.routing import TraceObserver
    from repro.sim.faults import FaultInjector

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "ShardSpec",
    "ShardTask",
    "ShardResult",
    "MergedRun",
    "plan_shards",
    "plain_setup",
    "route_shard",
    "execute_shard",
    "merge_shards",
    "run_sharded_lookups",
    "run_cells",
    "available_workers",
]

T = TypeVar("T")

#: A network/injector factory: zero-argument, picklable (build it with
#: ``functools.partial`` over module-level functions), returning the
#: freshly built + prepared network and the injector whose topology
#: faults (crashes, flaky marks) have already been applied — or ``None``
#: for fault-free cells.
Setup = Callable[[], Tuple["Network", Optional["FaultInjector"]]]

#: Default lookups per shard.  Chosen so a paper-scale cell (2000
#: lookups) splits into 4 shards — enough fan-out to keep 4 workers
#: busy — while a test-scale cell (a few hundred lookups) stays a
#: single shard and never starts a pool.  In-process, a shard costs
#: only its query-counter reset and, in fault mode, its roll-back.
DEFAULT_SHARD_SIZE = 500

def available_workers() -> int:
    """Usable CPU count (affinity-aware where the platform exposes it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: One-shot latch for the oversubscription warning: a sweep runs
#: hundreds of cells through the same misconfigured ``workers`` value,
#: and one diagnosis is signal where hundreds are noise.
_oversubscribed_warned = False


def _warn_if_oversubscribed(workers: int) -> None:
    """Warn (once per process) when ``workers`` exceeds the usable CPUs.

    Oversubscribed pools are pure overhead here — shards are CPU-bound,
    so extra workers just add pool start-up and context-switch cost.
    Even at workers == CPUs the pool must earn back its start-up and
    one unpack per worker: four-shard 2000-lookup d=8 cells on 2 CPUs
    at workers=2 measured 0.37-1.37x of serial.  The
    run stays correct either way (results are worker-count-invariant),
    hence a warning, not an error.
    """
    global _oversubscribed_warned
    if _oversubscribed_warned or workers <= 1:
        return
    cpus = available_workers()
    if workers > cpus:
        _oversubscribed_warned = True
        warnings.warn(
            f"workers={workers} exceeds the {cpus} usable CPU(s); "
            "CPU-bound shards gain nothing from oversubscription and "
            "pay pool overhead — consider workers="
            f"{cpus} (repro.sim.parallel.available_workers())",
            stacklevel=3,
        )


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a cell's lookup workload.

    ``index`` doubles as the RNG stream selector
    (:func:`repro.util.rng.shard_rng` and
    :meth:`repro.sim.faults.FaultInjector.for_shard`); ``offset`` is the
    global index of the shard's first lookup, so ``[offset, offset +
    count)`` ranges tile the whole workload without gap or overlap.
    """

    index: int
    offset: int
    count: int

    def __post_init__(self) -> None:
        if self.index < 0 or self.offset < 0 or self.count < 0:
            raise ValueError("shard fields must be non-negative")


def plan_shards(count: int, shard_size: int = DEFAULT_SHARD_SIZE) -> List[ShardSpec]:
    """Split ``count`` lookups into balanced contiguous shards.

    The plan depends only on ``(count, shard_size)`` — crucially *not*
    on the worker count — so serial and parallel runs execute identical
    shards.  Shard sizes differ by at most one, every shard is
    non-empty, and the union of ``[offset, offset + count)`` ranges is
    exactly ``[0, count)``: a (source, key) pair, identified by its
    global lookup index, lands in exactly one shard.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    if count == 0:
        return []
    shards = math.ceil(count / shard_size)
    base, extra = divmod(count, shards)
    specs: List[ShardSpec] = []
    offset = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        specs.append(ShardSpec(index=index, offset=offset, count=size))
        offset += size
    return specs


def plain_setup(builder: Callable[..., "Network"], *args, **kwargs):
    """Adapt a bare network builder into a fault-free :data:`Setup`.

    ``functools.partial(plain_setup, build_complete_network, "chord",
    8, seed=42)`` is picklable as long as ``builder`` is a module-level
    callable with picklable arguments.
    """
    return builder(*args, **kwargs), None


@dataclass(frozen=True)
class ShardTask:
    """The parameters of one shard, apart from the network it routes on.

    The network never rides in a task: the in-process path hands
    :func:`execute_shard` the cell's one network as ``prepared``, and a
    pool worker receives the cell's packed network and fault state
    once, through the pool initializer.  A pickled task is therefore a
    few hundred bytes at any population.
    """

    spec: ShardSpec
    seed: int
    keys: Tuple[object, ...] = ()
    retry_budget: int = 0
    backend: str = DEFAULT_BACKEND
    #: optional link delay model; frozen and picklable, so it ships to
    #: pool workers as-is, and ``for_shard`` keeps every shard on the
    #: identical pure-function model.
    latency: Optional[LatencyModel] = None


@dataclass
class ShardResult:
    """Picklable outcome of one shard.

    ``population`` and ``crashed`` describe the *prepared* network the
    shard routed on; every shard of a cell must agree on them (the
    crash/flaky streams are derived from the plan seed alone), which
    :func:`merge_shards` asserts.
    """

    index: int
    records: List[LookupRecord]
    query_counts: Dict[object, int]
    route_repairs: int = 0
    dropped_messages: int = 0
    crashed: int = 0
    population: int = 0


@dataclass
class MergedRun:
    """Order-independent merge of a cell's shard results."""

    stats: LookupStats = field(default_factory=LookupStats)
    query_counts: Dict[object, int] = field(default_factory=dict)
    route_repairs: int = 0
    dropped_messages: int = 0
    crashed: int = 0
    population: int = 0
    shards: int = 0


def route_shard(
    task: ShardTask,
    network: "Network",
    injector: Optional["FaultInjector"] = None,
    observer: Optional["TraceObserver"] = None,
    kernel=None,
) -> Tuple[List[LookupRecord], Optional["FaultInjector"]]:
    """Route one shard's workload on ``network``; the one shard body.

    Draws the shard's ``(source, key)`` pairs from
    ``shard_rng(task.seed, spec.index)`` starting at global index
    ``spec.offset`` and routes them with the injector's and latency
    model's per-shard streams.  Returns the records and the shard's
    injector (``None`` without one: it holds the drop count and the
    journal of lazy repairs).  ``kernel`` is ``network``'s
    compiled kernel when the caller shares one across shards
    (:func:`repro.dht.kernel.compile_kernel`).  :func:`execute_shard` and
    :func:`repro.experiments.common.run_lookups` both route through
    here, so a shard is the same computation on either path.
    """
    spec = task.spec
    shard_injector = (
        injector.for_shard(spec.index) if injector is not None else None
    )
    records = run_lookup_batch(
        network,
        lookup_workload(
            network,
            spec.count,
            shard_rng(task.seed, spec.index),
            task.keys,
            start=spec.offset,
        ),
        observer=observer,
        injector=shard_injector,
        retry_budget=task.retry_budget,
        backend=task.backend,
        latency=(
            task.latency.for_shard(spec.index)
            if task.latency is not None
            else None
        ),
        kernel=kernel,
    )
    return records, shard_injector


def execute_shard(
    task: ShardTask,
    prepared: Tuple["Network", Optional["FaultInjector"]],
    observer: Optional["TraceObserver"] = None,
    kernel=None,
) -> ShardResult:
    """Run one shard on ``prepared = (network, injector)`` and aggregate
    its outcome.

    This is the single execution path for every worker count.  It
    leaves the network as it found it, so all the shards of a cell may
    share one network and one compiled ``kernel``: the query counters
    are reset before routing, and afterwards the shard's lazy repairs
    are rolled back, with ``route_repairs`` and ``fault_detection``.
    ``observer`` only exists on the in-process path; it never affects
    routing.
    """
    network, injector = prepared
    network.reset_query_counts()
    before = network.route_repairs, network.fault_detection
    records, shard_injector = route_shard(
        task, network, injector, observer, kernel
    )
    dropped = 0
    if shard_injector is not None:
        dropped = shard_injector.dropped
        shard_injector.roll_back()
    repairs = network.route_repairs
    network.route_repairs, network.fault_detection = before
    live = network.live_nodes()
    return ShardResult(
        index=task.spec.index,
        records=records,
        query_counts={
            node.name: count
            for node, count in zip(live, network.query_counts())
        },
        route_repairs=repairs,
        dropped_messages=dropped,
        crashed=injector.crashed if injector is not None else 0,
        population=len(live),
    )


#: The ``(network, injector, kernel)`` every shard of a pool worker
#: routes on, set once by :func:`_enter_cell`.
_worker_cell: Optional[tuple] = None


def _enter_cell(
    packed: PackedNetwork, faults: Optional[FaultState], backend: str
) -> None:
    """Pool initializer: each worker unpacks and compiles the cell once."""
    global _worker_cell
    network = unpack_network(packed)
    injector = faults.rebuild() if faults is not None else None
    kernel = compile_kernel(network, backend=backend, injector=injector)
    _worker_cell = (network, injector, kernel)


def _execute_in_worker(task: ShardTask) -> ShardResult:
    """Pool task: route one shard on the worker's cell."""
    network, injector, kernel = _worker_cell
    return execute_shard(task, (network, injector), kernel=kernel)


def merge_shards(results: Sequence[ShardResult]) -> MergedRun:
    """Fold shard results into one run, independent of arrival order.

    Records concatenate in shard-index order (the canonical workload
    order); query counts, repairs and drops sum; population and crash
    counts must agree across shards — disagreement means the shards did
    not route on identical networks, which would invalidate the merge.
    """
    merged = MergedRun()
    ordered = sorted(results, key=lambda r: r.index)
    indices = [r.index for r in ordered]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate shard indices in merge: {indices}")
    for result in ordered:
        merged.stats.extend(result.records)
        for name, count in result.query_counts.items():
            merged.query_counts[name] = (
                merged.query_counts.get(name, 0) + count
            )
        merged.route_repairs += result.route_repairs
        merged.dropped_messages += result.dropped_messages
    if ordered:
        first = ordered[0]
        for result in ordered[1:]:
            if result.population != first.population:
                raise ValueError(
                    "shards disagree on population: "
                    f"{result.population} != {first.population}"
                )
            if result.crashed != first.crashed:
                raise ValueError(
                    "shards disagree on crash count: "
                    f"{result.crashed} != {first.crashed}"
                )
            if set(result.query_counts) != set(first.query_counts):
                raise ValueError("shards disagree on the live node set")
        merged.crashed = first.crashed
        merged.population = first.population
    merged.shards = len(ordered)
    return merged


def run_sharded_lookups(
    setup: Setup,
    count: int,
    seed: int,
    *,
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    keys: Sequence[object] = (),
    retry_budget: int = 0,
    observer: Optional["TraceObserver"] = None,
    backend: str = DEFAULT_BACKEND,
    latency: Optional[LatencyModel] = None,
) -> MergedRun:
    """Execute one cell's lookup workload as deterministic shards.

    The result is a pure function of ``(setup, count, seed, shard_size,
    keys, retry_budget, latency)`` — ``workers`` only chooses the
    fan-out, and ``backend`` only chooses each shard's lookup execution
    strategy (``"object"`` or the bit-identical ``"columnar"`` kernel,
    DESIGN §S23).  ``setup`` runs exactly once per non-empty cell, and
    the shards of a process share its network and compiled kernel, in
    fault mode too (module docstring).  ``workers=1`` (or a non-picklable
    ``observer``, or a single-shard plan) runs every shard in-process
    through the identical shard/merge path.  An attached :class:`~repro.sim.latency.LatencyModel`
    is a pure function of its seed, so records carry identical modeled
    milliseconds at every worker count (DESIGN §S25).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    check_backend(backend)
    _warn_if_oversubscribed(workers)
    specs = plan_shards(count, shard_size)
    if not specs:
        return merge_shards([])
    network, injector = setup()
    serial = workers == 1 or observer is not None or len(specs) <= 1
    keys = tuple(keys)
    tasks = [
        ShardTask(
            spec=spec,
            seed=seed,
            keys=keys,
            retry_budget=retry_budget,
            backend=backend,
            latency=latency,
        )
        for spec in specs
    ]
    if serial:
        kernel = compile_kernel(
            network, backend=backend, observer=observer, injector=injector
        )
        results = [
            execute_shard(task, (network, injector), observer, kernel)
            for task in tasks
        ]
    else:
        faults = FaultState.capture(injector) if injector is not None else None
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            initializer=_enter_cell,
            initargs=(pack_network(network), faults, backend),
        ) as pool:
            results = list(pool.map(_execute_in_worker, tasks))
    return merge_shards(results)


def _call_cell(task: Callable[[], T]) -> T:
    """Module-level trampoline so cell callables cross the pool."""
    return task()


def run_cells(
    tasks: Sequence[Callable[[], T]], workers: int = 1
) -> List[T]:
    """Execute independent experiment cells, preserving input order.

    The coarse-grained counterpart of :func:`run_sharded_lookups` for
    runners whose unit of work is a whole simulation rather than a
    lookup batch (churn runs, maintenance sweeps, key-distribution
    cells).  Each task must be a zero-argument picklable callable
    (``functools.partial`` over a module-level function) returning a
    picklable result; each cell seeds itself, so the output does not
    depend on ``workers``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_call_cell, tasks))

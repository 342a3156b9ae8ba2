"""In-memory span tracer and the timing wrappers of the traced run.

The traced run attaches wrappers from outside the program: every seam
listed in :data:`SEAMS` is a module or class attribute of the ``repro``
package that :func:`install` replaces by a timing wrapper and
:func:`uninstall` restores.  Nothing under ``src/`` is edited, and an
untraced run installs none of the wrappers.

A span is ``(id, parent id, name, start, end)``.  The parent is the
span open when this one started, so a span carries the span that
caused it.  Spans stay in memory and are written out once, at the end
of the run.  A layer's *self time* is the duration of its spans minus
the part their child spans cover; the time no span covers is reported
as ``trace.uncovered.s``.

The live workload keeps one request in flight, so the spans of the
client and of both servers nest in time on one event loop: a plain
stack of open spans is the causal chain.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import weakref
from typing import Callable, Dict, List

_MISSING = object()


class Tracer:
    """Open-span stack, closed-span list and per-layer aggregates."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.covered_s = 0.0
        self.retries_seen = weakref.WeakKeyDictionary()
        self._stack: List[list] = []
        self._next_id = 1

    def enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:
            stack.remove(frame)
        span_id, parent, name, start, child_s = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        else:
            self.covered_s += duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        self.calls[name] = self.calls.get(name, 0) + 1
        self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def write(self, path: str) -> None:
        """Write every closed span as one JSON line, in closing order."""
        with open(path, "w", encoding="utf-8") as stream:
            for span_id, parent, name, start, end in self.spans:
                stream.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                )
                stream.write("\n")


def _wrap(tracer: Tracer, name: str, fn: Callable, after=None) -> Callable:
    """A timing wrapper around ``fn``; ``after(tracer, args, result)``
    records counts once the span is closed."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _count_only(tracer: Tracer, fn: Callable, after) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(tracer, args, result)
        return result

    return wrapper


# ----------------------------------------------------------------------
# counts recorded at the seams
# ----------------------------------------------------------------------


def _kernel_rows(tracer, args, result) -> None:
    if isinstance(result, dict):
        tracer.count("kernel.rows", len(result["hops"]))
        tracer.count("kernel.hops", int(result["hops"].sum()))
    else:
        tracer.count("kernel.rows", len(result))
        tracer.count("kernel.hops", sum(r.hops for r in result))


def _routed(tracer, args, record) -> None:
    tracer.count("routing.lookups")
    tracer.count("routing.hops", record.hops)
    tracer.count("routing.timeouts", record.timeouts)
    tracer.count("routing.retries", record.retries)


def _crashed(tracer, args, crashed) -> None:
    tracer.count("faults.crashed", crashed)


def _merged(tracer, args, merged) -> None:
    tracer.count("parallel.shards", merged.shards)
    tracer.count("faults.route_repairs", merged.route_repairs)


def _frame_bytes(tracer, args, frame) -> None:
    tracer.count("codec.bytes", len(frame))


def _client_retries(tracer, args, result) -> None:
    # ClusterClient.retries is cumulative per client; count the growth.
    client = args[0]
    before = tracer.retries_seen.get(client, 0)
    tracer.retries_seen[client] = client.retries
    tracer.count("client.retries", client.retries - before)


def _replica_scan(tracer, args, chosen) -> None:
    network, _key, replicas = args
    # replicas > 1 ranks every live node by closeness to the key.
    tracer.count("storage.replica_set.scanned", network.size if replicas > 1 else 1)


def _bulk_bytes(tracer, args, columns) -> None:
    tracer.count("bulkbuild.column_bytes", columns.column_bytes())


#: (span name, dotted owner, attribute, count hook or None).  The owner
#: is a module (the binding the caller resolves at call time) or a
#: class.  ``None`` span names only count.
SEAMS = (
    ("build", "repro.experiments.registry", "build_complete_network", None),
    ("build", "repro.experiments.crash", "build_complete_network", None),
    ("setup", "repro.experiments.crash", "crashed_setup", None),
    ("setup", "repro.sim.parallel", "plain_setup", None),
    ("bulkbuild", "repro.dht.bulkbuild", "build_columns", _bulk_bytes),
    ("kernel.compile", "repro.dht.kernel", "kernel_from_columns", None),
    ("kernel.compile", "repro.dht.kernel.CycloidKernel", "__init__", None),
    ("kernel.compile", "repro.dht.kernel.ChordKernel", "__init__", None),
    ("kernel.run", "repro.dht.kernel.CycloidKernel", "run", _kernel_rows),
    ("kernel.run", "repro.dht.kernel.CycloidKernel", "run_linear", _kernel_rows),
    ("kernel.run", "repro.dht.kernel.ChordKernel", "run", _kernel_rows),
    ("kernel.run", "repro.dht.kernel.ChordKernel", "run_ids", _kernel_rows),
    ("snapshot.pack", "repro.sim.parallel", "pack_network", None),
    ("snapshot.unpack", "repro.sim.parallel", "unpack_network", None),
    ("routing.run", "repro.dht.routing.LookupEngine", "run", _routed),
    ("routing.run", "repro.dht.routing.LookupEngine", "run_batch", None),
    ("faults.crash", "repro.sim.faults.FaultInjector", "crash_nodes", _crashed),
    ("parallel.merge", "repro.sim.parallel", "merge_shards", _merged),
    ("metrics.stats", "repro.dht.metrics.LookupStats", "extend", None),
    ("metrics.stats", "repro.dht.metrics.LookupStats", "merge", None),
    ("metrics.stats", "repro.dht.metrics.LookupStats", "digest", None),
    ("metrics.stats", "repro.dht.metrics.LookupStats", "path_length_summary", None),
    ("metrics.stats", "repro.dht.metrics.LookupStats", "timeout_summary", None),
    ("client.request", "repro.net.client.ClusterClient", "lookup", _client_retries),
    ("client.request", "repro.net.client.ClusterClient", "put", _client_retries),
    ("client.request", "repro.net.client.ClusterClient", "get", _client_retries),
    ("codec.write", "repro.net.server", "write_frame", None),
    ("codec.write", "repro.net.client", "write_frame", None),
    (None, "repro.net.codec", "encode_frame", _frame_bytes),
    ("server.step", "repro.net.server", "step_route", None),
    ("server.route_state", "repro.core.network.CycloidNetwork", "pack_route_state", None),
    ("server.route_state", "repro.core.network.CycloidNetwork", "unpack_route_state", None),
    ("storage.replica_set", "repro.net.server", "replica_set", _replica_scan),
)


def _resolve(dotted: str):
    """The module or class a seam's attribute lives on."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Installation:
    """The wrappers currently attached; :meth:`uninstall` undoes them."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def install(tracer: Tracer) -> Installation:
    """Attach a wrapper at every seam; returns the undo handle."""
    installed = Installation()
    for name, dotted, attr, after in SEAMS:
        owner = _resolve(dotted)
        original = getattr(owner, attr)
        if name is None:
            wrapped = _count_only(tracer, original, after)
        else:
            wrapped = _wrap(tracer, name, original, after)
        installed.patch(owner, attr, wrapped)
    return installed


#: Per-layer metric name -> unit.  Every traced run reports all of
#: them; a layer the workload does not reach reads 0.
LAYER_UNITS: Dict[str, str] = {
    "build.s": "s",
    "build.calls": "count",
    "setup.s": "s",
    "bulkbuild.s": "s",
    "bulkbuild.calls": "count",
    "bulkbuild.column_bytes": "bytes",
    "kernel.compile.s": "s",
    "kernel.compile.calls": "count",
    "kernel.run.s": "s",
    "kernel.run.calls": "count",
    "kernel.rows": "count",
    "kernel.hops_per_lookup": "hops",
    "snapshot.pack.s": "s",
    "snapshot.pack.calls": "count",
    "snapshot.unpack.s": "s",
    "snapshot.unpack.calls": "count",
    "routing.run.s": "s",
    "routing.lookups": "count",
    "routing.hops_per_lookup": "hops",
    "routing.timeouts": "count",
    "routing.retries": "count",
    "faults.crash.s": "s",
    "faults.crashed": "count",
    "faults.route_repairs": "count",
    "parallel.merge.s": "s",
    "parallel.shards": "count",
    "metrics.stats.s": "s",
    "client.request.s": "s",
    "client.requests": "count",
    "client.retries": "count",
    "codec.write.s": "s",
    "codec.frames": "count",
    "codec.bytes": "bytes",
    "server.step.s": "s",
    "server.steps": "count",
    "server.route_state.s": "s",
    "storage.replica_set.s": "s",
    "storage.replica_set.calls": "count",
    "storage.replica_set.scanned": "count",
    "trace.spans": "count",
    "trace.traced_s": "s",
    "trace.uncovered.s": "s",
    "trace.overhead": "ratio",
}

#: count-style metrics that read a span's call count.
_CALL_COUNTS = {
    "build.calls": "build",
    "bulkbuild.calls": "bulkbuild",
    "kernel.compile.calls": "kernel.compile",
    "kernel.run.calls": "kernel.run",
    "snapshot.pack.calls": "snapshot.pack",
    "snapshot.unpack.calls": "snapshot.unpack",
    "client.requests": "client.request",
    "codec.frames": "codec.write",
    "server.steps": "server.step",
    "storage.replica_set.calls": "storage.replica_set",
}


def layer_metrics(
    tracer: Tracer, traced_s: float, overhead: float, cycles: int
) -> Dict[str, float]:
    """Fold the tracer's aggregates over ``cycles`` identical traced
    cycles into the per-layer metric table, per cycle."""
    values: Dict[str, float] = {}
    for metric in LAYER_UNITS:
        if metric.endswith(".s") and metric[:-2] in SPAN_NAMES:
            total = tracer.self_s.get(metric[:-2], 0.0)
        elif metric in _CALL_COUNTS:
            total = tracer.calls.get(_CALL_COUNTS[metric], 0)
        else:
            total = tracer.counts.get(metric, 0)
        per_cycle = total / cycles
        if LAYER_UNITS[metric] != "s" and per_cycle == int(per_cycle):
            per_cycle = int(per_cycle)
        values[metric] = per_cycle
    rows = tracer.counts.get("kernel.rows", 0)
    values["kernel.hops_per_lookup"] = (
        tracer.counts.get("kernel.hops", 0) / rows if rows else 0.0
    )
    lookups = tracer.counts.get("routing.lookups", 0)
    values["routing.hops_per_lookup"] = (
        tracer.counts.get("routing.hops", 0) / lookups if lookups else 0.0
    )
    values["trace.spans"] = len(tracer.spans) / cycles
    values["trace.traced_s"] = traced_s / cycles
    values["trace.uncovered.s"] = max(0.0, traced_s - tracer.covered_s) / cycles
    values["trace.overhead"] = overhead
    return values


SPAN_NAMES = frozenset(name for name, *_ in SEAMS if name is not None)

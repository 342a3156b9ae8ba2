"""The live load driver behind ``repro loadgen`` and ``repro churnstorm``.

One coroutine, :func:`_drive`, runs an operation schedule against a
live cluster, releasing each operation by one of two rules:

* **closed loop** (``repro loadgen``, S22): when one of ``clients``
  client slots frees up; a GET also waits until every PUT released
  before it has landed.  Latency runs from the release.  Every wire
  lookup must take *exactly* the hop path the in-memory
  :class:`~repro.dht.routing.LookupEngine` takes, so the digest over
  the live results (:func:`results_digest`) must equal the digest over
  the engine's records for the same workload (:func:`make_operations`).
  A failure is a transport error surviving the retry budget, an
  unsuccessful route, or a GET that misses its PUT's value.
* **open loop** (``repro churnstorm``, S24): at the op's ``scheduled``
  instant (:func:`make_open_operations`), however earlier ones fared,
  with latency from that instant — no coordinated omission.  Sources
  are picked among the nodes alive at release.  A seeded
  :class:`~repro.sim.faults.ChurnPlan` kills and rejoins virtual nodes
  mid-run through live ``CRASH``/``JOIN`` RPCs; afterwards every
  acknowledged PUT is read back, and the ``churn`` section states the
  survival rate (the bar is 1.0 with ``replicas >= 2``).

Both modes write one ``BENCH_net.json`` shape (:func:`_report`, guarded
by :func:`validate_net_report`): a shared header plus each mode's own
sections.  ``"complete"`` means every operation was attempted and the
run was not interrupted.  A SIGINT stops all further releases and churn
events; in-flight operations drain, acknowledged writes are still read
back and the partial report is written.  A SIGINT during the build
yields the empty report marked ``"interrupted": "before-run"``.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import dataclasses
import hashlib
import json
import signal
import time
from typing import Dict, List, Mapping, Optional, Sequence

from repro.dht.base import Network
from repro.experiments.registry import (
    build_complete_network,
    build_sized_network,
)
from repro.net.client import ClusterClient, ClusterError
from repro.net.cluster import LocalCluster
from repro.sim.faults import ChurnPlan, RetryPolicy
from repro.sim.latency import LatencyModel
from repro.sim.workload import ZipfSampler, random_keys
from repro.util.reports import (
    check_digest,
    check_keys,
    check_report,
    check_section,
)
from repro.util.rng import derive_rng, make_rng
from repro.util.stats import mean, percentile

__all__ = [
    "NET_BENCH_SCHEMA",
    "KEY_UNIVERSE",
    "PUT_FRACTION",
    "validate_net_report",
    "build_from_recipe",
    "make_operations",
    "make_open_operations",
    "expected_results",
    "results_digest",
    "partial_report",
    "run_loadgen",
    "run_churnstorm",
]

#: Schema tag of the ``BENCH_net.json`` report.
NET_BENCH_SCHEMA = "repro/net-bench/v1"

#: The open-loop workload's key corpus size and PUT share.
KEY_UNIVERSE = 64
PUT_FRACTION = 0.5

#: Error codes after which an open-loop operation picks another source:
#: its source died, or a route hit a node mid-repair.
_REPICK_CODES = ("unknown_node", "not_hosted")
_PICKS = 4
#: The repair telemetry of a CRASH reply that the churn log keeps.
_CRASH_KEYS = ("lost_pairs", "route_repairs", "repushed_pairs", "repair_ms")
#: What installing or removing a signal handler raises where it cannot.
_NO_SIGNALS = (NotImplementedError, ValueError, RuntimeError)


def _check_parity(report: Dict[str, object]) -> None:
    digest = report["digest"]
    for side in ("live", "expected"):
        check_digest(digest[side], f"net report digest.{side}")
    ops = report["ops"]
    expected_match = (
        ops["completed"] == ops["total"]
        and digest["live"] == digest["expected"]
    )
    if bool(digest["match"]) != expected_match:
        raise ValueError(
            "net report digest.match is inconsistent with the digests"
        )


def _check_survival(report: Dict[str, object]) -> None:
    churn = report["churn"]
    survival = churn["survival_rate"]
    if not isinstance(survival, (int, float)) or not 0.0 <= survival <= 1.0:
        raise ValueError(
            "net report churn.survival_rate must be a number in [0, 1]"
        )
    if (survival == 1.0) != (churn["lost_acked_keys"] == 0):
        raise ValueError(
            "net report churn.survival_rate is inconsistent with "
            "lost_acked_keys"
        )
    window = churn["under_replication_ms"]
    if not isinstance(window, dict) or not {"mean", "max"} <= set(window):
        raise ValueError(
            "net report churn.under_replication_ms needs 'mean' and 'max'"
        )


#: The shape every ``BENCH_net.json`` report shares: required top-level
#: keys and the nested keys of each shared section.  Guarded so CI
#: archives can be machine-compared across commits without schema drift.
_HEADER_KEYS = ("build", "clients", "seed", "throughput_ops_per_s")
_HEADER_SECTIONS = {
    "ops": ("total", "completed", "lookups", "puts", "gets", "failures"),
    "latency_ms": ("mean", "p50", "p95", "p99", "max"),
}
#: mode -> (its own sections with their required keys, its invariant).
_MODES = {
    "closed-loop": (
        {"digest": ("live", "expected", "match")},
        _check_parity,
    ),
    "open-churn": (
        {
            "open_loop": (),
            "closed_loop": (),
            "churn": (
                "plan", "events", "crashes", "joins", "acked_writes",
                "acked_keys", "lost_acked_keys", "survival_rate",
                "under_replication_ms",
            ),
        },
        _check_survival,
    ),
}


def validate_net_report(report: Dict[str, object]) -> None:
    """Schema-guard a ``BENCH_net.json`` report.

    Every report must name its ``"mode"`` explicitly: a
    ``"closed-loop"`` parity report must carry a consistent
    engine-parity ``digest``; an ``"open-churn"`` report (``repro
    churnstorm``) instead carries the open/closed loop split plus a
    ``churn`` section whose ``survival_rate`` must agree with its
    lost-key count.  Raises ``ValueError`` naming the first violation.
    """
    # ``mode`` is required: a very-early SIGINT once produced a partial
    # report without it, which this validator silently took for a
    # closed-loop run — never default a discriminator.
    check_report(report, "net", NET_BENCH_SCHEMA, ("mode",))
    mode = report["mode"]
    if not isinstance(mode, str) or mode not in _MODES:
        raise ValueError(f"net report mode {mode!r} is unknown")
    sections, invariant = _MODES[mode]
    # Self-hosted runs count the STEP frames their servers forwarded;
    # an attached run cannot see the servers, so the field is optional.
    if "forwards_per_op" in report:
        forwards = report["forwards_per_op"]
        if (
            isinstance(forwards, bool)
            or not isinstance(forwards, (int, float))
            or not forwards >= 0
        ):
            raise ValueError(
                f"net report forwards_per_op {forwards!r} is not a "
                "non-negative number"
            )
    sections = {**_HEADER_SECTIONS, **sections}
    check_keys(report, _HEADER_KEYS + tuple(sections), "net report")
    for section, keys in sections.items():
        check_section(report[section], keys, f"net report {section!r}")
    invariant(report)


def build_from_recipe(build: Dict[str, object]) -> Network:
    """Rebuild the overlay a cluster spec describes, bit-identically.

    The recipe is ``{"protocol", "seed"}`` plus either ``"dimension"``
    (complete Cycloid-sized build) or ``"nodes"`` (random-id build of
    that population, optionally pinned by ``"dimension"``).
    """
    protocol = str(build.get("protocol", "cycloid"))
    seed = int(build.get("seed", 0))
    nodes = build.get("nodes")
    dimension = build.get("dimension")
    if nodes is not None:
        return build_sized_network(
            protocol,
            int(nodes),
            seed=seed,
            cycloid_dimension=int(dimension) if dimension is not None else None,
        )
    if dimension is None:
        raise ValueError("build recipe needs 'dimension' or 'nodes'")
    return build_complete_network(protocol, int(dimension), seed=seed)


def make_operations(
    network: Network, lookups: int, puts: int, seed: int
) -> List[Dict[str, object]]:
    """The deterministic operation list for one loadgen run.

    ``lookups`` LOOKUP ops, then ``puts`` PUT ops, then one GET per PUT
    (same keys, independently drawn sources).  Sources are uniform over
    the overlay's live nodes; everything derives from ``seed`` alone,
    which is what lets an attached loadgen reproduce the workload — and
    its expected routes — without talking to the cluster first.
    """
    rng = make_rng(seed)
    names = [str(node.name) for node in network.live_nodes()]
    if not names:
        raise ValueError("network has no live nodes")
    operations: List[Dict[str, object]] = []

    def pick_source() -> str:
        return names[rng.randrange(len(names))]

    for index in range(lookups):
        operations.append(
            {
                "index": len(operations),
                "op": "lookup",
                "key": f"lookup-{rng.getrandbits(64):016x}-{index}",
                "source": pick_source(),
            }
        )
    pair_keys = random_keys(puts, derive_rng(rng, 1), prefix="pair")
    for index, key in enumerate(pair_keys):
        operations.append(
            {
                "index": len(operations),
                "op": "put",
                "key": key,
                "source": pick_source(),
                "value": f"value-{index}",
            }
        )
    for index, key in enumerate(pair_keys):
        operations.append(
            {
                "index": len(operations),
                "op": "get",
                "key": key,
                "source": pick_source(),
                "expect": f"value-{index}",
            }
        )
    return operations


def make_open_operations(
    count: int,
    seed: int,
    rate: float,
    key_universe: int = KEY_UNIVERSE,
    put_fraction: float = PUT_FRACTION,
    zipf_s: float = 1.1,
) -> List[Dict[str, object]]:
    """A seeded open-loop workload: Poisson arrivals, Zipf keys.

    Inter-arrival times are exponential with ``rate`` ops/s (a Poisson
    process); each operation is a PUT with probability ``put_fraction``
    else a GET, over a ``key_universe``-key corpus with Zipf(``zipf_s``)
    popularity — the head keys take most of the traffic, as real
    caches see.  ``scheduled`` is the operation's ideal send time in
    seconds from run start: the open-loop driver fires each operation
    at that instant no matter how earlier ones fared, and latency is
    measured **from the scheduled time**, so queueing delay the system
    causes is charged to the system (no coordinated omission).

    ``source_pick`` is a seeded uniform draw the driver maps onto the
    *currently alive* node list at fire time — baked names would die
    with their nodes mid-churn.
    """
    if count < 0:
        raise ValueError("operation count must be non-negative")
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    if key_universe < 1:
        raise ValueError("key universe must hold at least one key")
    if not 0.0 <= put_fraction <= 1.0:
        raise ValueError("put_fraction must be within [0, 1]")
    rng = make_rng(seed)
    sampler = ZipfSampler.from_universe(
        key_universe, derive_rng(rng, 1), s=zipf_s
    )
    operations: List[Dict[str, object]] = []
    clock = 0.0
    for index in range(count):
        clock += rng.expovariate(rate)
        op = "put" if rng.random() < put_fraction else "get"
        entry: Dict[str, object] = {
            "index": index,
            "op": op,
            "key": sampler.draw(rng),
            "scheduled": clock,
            "source_pick": rng.random(),
        }
        if op == "put":
            entry["value"] = f"value-{index}"
        operations.append(entry)
    return operations


def expected_results(
    network: Network,
    operations: Sequence[Dict[str, object]],
    latency: Optional[LatencyModel] = None,
) -> List[Dict[str, object]]:
    """What the in-memory engine routes for each operation.

    Runs every op's lookup through :meth:`Network.lookup_many` on a
    pristine **clone** (so neither the served overlay's query-load
    telemetry nor the caller's network is disturbed) and returns one
    canonical result dict per op — the parity baseline.  With a
    ``latency`` model each result additionally carries ``model_ms``,
    the engine-predicted end-to-end modeled milliseconds; the live
    servers must report the same totals for the same model (§S25).
    """
    reference = network.clone()
    by_name = {str(node.name): node for node in reference.live_nodes()}
    records = reference.lookup_many(
        ((by_name[str(op["source"])], op["key"]) for op in operations),
        latency=latency,
    )
    results = []
    for op, record in zip(operations, records):
        result = {
            "index": op["index"],
            "op": op["op"],
            "key": op["key"],
            "source": op["source"],
            "path": [str(name) for name in record.path],
            "hops": record.hops,
            "timeouts": record.timeouts,
            "success": record.success,
        }
        if latency is not None:
            result["model_ms"] = record.latency_ms
        results.append(result)
    return results


def results_digest(results: Sequence[Dict[str, object]]) -> str:
    """sha256 over the canonical routing content, in op-index order.

    Covers ``(index, op, key, source, path, hops, timeouts, success)``
    of every result — client scheduling order does not matter, the op
    index pins the sequence.
    """
    canonical = [
        (
            result["index"],
            result["op"],
            result["key"],
            result["source"],
            tuple(result["path"]),
            result["hops"],
            result["timeouts"],
            bool(result["success"]),
        )
        for result in sorted(results, key=lambda r: r["index"])
    ]
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


@dataclasses.dataclass
class _Run:
    """What one live run was asked to do: the report header's inputs."""

    mode: str
    build: Dict[str, object]
    #: servers booted, or the attached cluster's advertised count.
    servers: Optional[int]
    clients: int
    seed: int
    #: operations per kind: ``lookup``, ``put`` and ``get``.
    counts: Mapping[str, int]
    retry: RetryPolicy = dataclasses.field(default_factory=RetryPolicy)
    timeout: float = 5.0
    attached: bool = False
    latency: Optional[LatencyModel] = None
    trace_path: Optional[str] = None
    #: the engine's results, the closed loop's parity baseline.
    expected: Sequence[Dict[str, object]] = ()
    replicas: int = 1
    rate: float = 0.0
    churn: Optional[ChurnPlan] = None


@dataclasses.dataclass
class _Outcome:
    """What the driver saw; the default is a run that released nothing."""

    results: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    #: operations that got a reply or failed for good.
    attempted: int = 0
    failures: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    elapsed_s: float = 0.0
    retries: int = 0
    #: ``""`` for a whole run, else ``"mid-run"`` or ``"before-run"``.
    interrupted: str = ""
    #: STEP frames the servers forwarded; None when they are not ours.
    forwards: Optional[int] = None
    #: acknowledged PUTs per key — the zero-loss ledger.
    acked: Dict[str, int] = dataclasses.field(default_factory=dict)
    lost_keys: List[str] = dataclasses.field(default_factory=list)
    verify_latencies: List[float] = dataclasses.field(default_factory=list)
    events: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    trace_lines: Optional[int] = None


def _send(client: ClusterClient, op: Dict[str, object], source: str):
    if op["op"] == "lookup":
        return client.lookup(op["key"], source, lookup_id=op["index"])
    if op["op"] == "put":
        return client.put(op["key"], op["value"], source)
    return client.get(op["key"], source)


async def _drive(
    run: _Run,
    network: Network,
    operations: Sequence[Dict[str, object]],
    spec: Optional[Dict[str, object]],
    stop: asyncio.Event,
) -> _Outcome:
    """Serve ``network`` on a private cluster (or attach to ``spec``'s)
    and run ``operations`` against it under the release rules of the
    module docstring; ``stop`` ends every release."""
    cluster: Optional[LocalCluster] = None
    if spec is None:
        cluster = LocalCluster(
            network, servers=run.servers, build=run.build,
            latency=run.latency, replicas=run.replicas,
        )
        await cluster.start()
        directory = cluster.directory
    else:
        directory = {
            str(name): list(address)
            for name, address in spec["directory"].items()
        }
    out = _Outcome()
    pool = [
        ClusterClient(directory, retry=run.retry, timeout=run.timeout)
        for _ in range(run.clients)
    ]
    control = ClusterClient(directory, retry=run.retry, timeout=run.timeout)
    idle: asyncio.Queue = asyncio.Queue()
    for client in pool:
        idle.put_nowait(client)
    started = time.perf_counter()

    async def until(instant: float) -> bool:
        """Sleep to ``instant`` s after the start; False once stopped."""
        delay = instant - (time.perf_counter() - started)
        if delay > 0 and not stop.is_set():
            try:
                await asyncio.wait_for(stop.wait(), delay)
            except asyncio.TimeoutError:
                pass
        return not stop.is_set()

    def alive_source(pick: float, salt: int) -> str:
        names = sorted(directory)
        if not names:
            raise ClusterError("no live nodes left", code="unknown_node")
        return names[(int(pick * len(names)) + salt) % len(names)]

    async def run_op(op, client: ClusterClient, released: float) -> None:
        picks = _PICKS if "source_pick" in op else 1
        for attempt in range(picks):
            try:
                source = op.get("source") or alive_source(
                    op["source_pick"], attempt
                )
                reply = await _send(client, op, source)
                break
            except ClusterError as exc:
                if exc.code in _REPICK_CODES and attempt + 1 < picks:
                    continue
                out.attempted += 1
                out.failures += 1
                out.errors.append(
                    f"op {op['index']} ({op['op']}): [{exc.code}] {exc}"
                )
                return
        ms = (time.perf_counter() - released) * 1000.0
        out.attempted += 1
        # Closed-loop ops are parity-checked, so an unsuccessful route
        # fails them; an open-loop op under churn only reports it.
        if (not reply.get("success") and "scheduled" not in op) or (
            "expect" in op
            and (not reply.get("found") or reply.get("value") != op["expect"])
        ):
            out.failures += 1
            out.errors.append(
                f"op {op['index']} ({op['op']}) unsuccessful: "
                f"success={reply.get('success')} found={reply.get('found')}"
            )
        if op["op"] == "put" and reply.get("stored"):
            out.acked[op["key"]] = out.acked.get(op["key"], 0) + 1
        # The server's reply already carries the op, key, path, hops,
        # timeouts, success, trace, rpc id and (with a model) model_ms.
        out.results.append(
            dict(reply, index=op["index"], source=source, latency_ms=ms)
        )

    async def release() -> None:
        tasks: List[asyncio.Task] = []
        puts: List[asyncio.Task] = []
        for op in operations:
            if "scheduled" in op:
                if not await until(op["scheduled"]):
                    break
                client = pool[op["index"] % len(pool)]
                released = started + op["scheduled"]
            else:
                if op["op"] == "get" and puts:
                    await asyncio.gather(*puts)
                    puts.clear()
                client = await idle.get()
                if stop.is_set():
                    break
                released = time.perf_counter()
            task = asyncio.create_task(run_op(op, client, released))
            if "scheduled" not in op:
                task.add_done_callback(
                    lambda _, client=client: idle.put_nowait(client)
                )
            if op["op"] == "put":
                puts.append(task)
            tasks.append(task)
        await asyncio.gather(*tasks)

    async def storm(plan: ChurnPlan) -> None:
        duration = operations[-1]["scheduled"] if operations else 1.0
        #: victim name -> the server that hosted it when it was crashed.
        homes: Dict[str, List[object]] = {}
        for event in plan.schedule(sorted(directory), duration):
            if not await until(event.time):
                return
            entry: Dict[str, object] = {
                "scheduled_s": event.time,
                "action": event.action,
                "node": event.node,
            }
            try:
                if event.action == "crash":
                    # An unknown victim fails the CRASH as ``unknown_node``.
                    home = directory.get(event.node)
                    reply = await control.crash(event.node)
                    homes[event.node] = entry["server"] = list(home)
                    entry.update({key: reply.get(key) for key in _CRASH_KEYS})
                else:
                    # Rejoin through a live name on the victim's old
                    # server.  On a complete overlay the victim's id is
                    # the only free one when its rejoin fires, so the
                    # join takes it and lands back on that server's arc.
                    home = homes.get(event.node)
                    names = sorted(directory)
                    via = next(
                        (n for n in names if list(directory[n]) == home),
                        names[0],
                    )
                    reply = await control.join(event.node, via)
                    entry.update(
                        server=list(directory[event.node]),
                        repushed_pairs=reply.get("repushed_pairs"),
                    )
            except ClusterError as exc:
                entry["skipped"] = f"[{exc.code}] {exc}"
            out.events.append(entry)

    try:
        if run.churn is None:
            await release()
        else:
            await asyncio.gather(release(), storm(run.churn))
        out.elapsed_s = time.perf_counter() - started
        if cluster is not None:
            # Counted before the sweep: the figure is per released op.
            out.forwards = sum(s.steps_forwarded for s in cluster.services)
        if run.churn is not None:
            # Every acknowledged PUT must be readable (directly or via
            # read-repair) — the zero-loss acceptance bar.
            for index, key in enumerate(sorted(out.acked)):
                sent = time.perf_counter()
                try:
                    reply = await control.get(key, alive_source(0.0, index))
                except ClusterError as exc:
                    out.lost_keys.append(key)
                    out.errors.append(f"verify {key}: [{exc.code}] {exc}")
                    continue
                out.verify_latencies.append((time.perf_counter() - sent) * 1e3)
                if not reply.get("found"):
                    out.lost_keys.append(key)
    finally:
        for client in (*pool, control):
            await client.close()
        if cluster is not None:
            await cluster.stop()
    out.retries = sum(client.retries for client in (*pool, control))
    out.interrupted = "mid-run" if stop.is_set() else ""
    if run.trace_path is not None:
        out.trace_lines = _write_trace(run.trace_path, out.results)
    return out


def _execute(run: _Run, prepare, spec=None) -> Dict[str, object]:
    """``prepare()`` the ``(network, operations)``, drive them, report;
    a SIGINT during ``prepare`` reports the empty outcome."""

    async def main(network, operations) -> _Outcome:
        # A SIGINT sets ``stop`` instead of tearing the loop down, so
        # the run flushes a partial report on the way out.  Where no
        # handler can be installed (non-main thread, non-unix loop) it
        # keeps the default KeyboardInterrupt behaviour.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        with contextlib.suppress(*_NO_SIGNALS):
            loop.add_signal_handler(signal.SIGINT, stop.set)
        try:
            return await _drive(run, network, operations, spec, stop)
        finally:
            with contextlib.suppress(*_NO_SIGNALS):
                loop.remove_signal_handler(signal.SIGINT)

    try:
        outcome = asyncio.run(main(*prepare()))
    except KeyboardInterrupt:
        outcome = _Outcome(interrupted="before-run")
    return _report(run, outcome)


def _report(run: _Run, outcome: _Outcome) -> Dict[str, object]:
    """The one ``BENCH_net.json`` builder: the header every mode shares,
    then the mode's own sections."""
    results = outcome.results
    total = sum(run.counts.values())
    elapsed = outcome.elapsed_s
    throughput = len(results) / elapsed if elapsed > 0 else 0.0
    report: Dict[str, object] = {
        "schema": NET_BENCH_SCHEMA,
        "mode": run.mode,
        "complete": outcome.attempted == total and not outcome.interrupted,
        "build": dict(run.build),
        "servers": run.servers,
        "clients": run.clients,
        "seed": run.seed,
        "retry": dataclasses.asdict(run.retry),
        "timeout_s": run.timeout,
        "ops": {
            "total": total,
            "completed": len(results),
            "lookups": run.counts["lookup"],
            "puts": run.counts["put"],
            "gets": run.counts["get"],
            "failures": outcome.failures,
            "retries": outcome.retries,
        },
        "latency_ms": _latency_block([r["latency_ms"] for r in results]),
        "throughput_ops_per_s": throughput,
        "elapsed_s": elapsed,
        "errors": outcome.errors[:20],
    }
    if outcome.interrupted:
        report["interrupted"] = outcome.interrupted
    if outcome.forwards is not None:
        report["forwards_per_op"] = (
            outcome.forwards / len(results) if results else 0.0
        )
    if run.mode == "closed-loop":
        live, expected = results_digest(results), results_digest(run.expected)
        report["attached"] = run.attached
        report["digest"] = {
            "live": live,
            "expected": expected,
            "match": len(results) == total and live == expected,
        }
        if run.latency is not None:
            modeled = {r["index"]: r["model_ms"] for r in run.expected}
            timed = [r for r in results if "model_ms" in r]
            report["model_ms"] = {
                "config": run.latency.to_config(),
                **_latency_block([r["model_ms"] for r in timed]),
                #: live-vs-engine modeled-total parity: the worst gap.
                "max_abs_diff_ms": max(
                    (abs(r["model_ms"] - modeled[r["index"]]) for r in timed),
                    default=0.0,
                ),
            }
        if outcome.trace_lines is not None:
            report["trace"] = {
                "path": run.trace_path,
                "lines": outcome.trace_lines,
            }
        return report

    def by_op(*kinds: str) -> Dict[str, float]:
        return _latency_block(
            [r["latency_ms"] for r in results if r["op"] in kinds]
        )

    events = outcome.events
    windows = [
        float(e["repair_ms"])
        for e in events
        if e["action"] == "crash" and "repair_ms" in e
    ]
    acked, lost = outcome.acked, outcome.lost_keys
    report["replicas"] = run.replicas
    report["open_loop"] = {
        "rate_target_ops_per_s": run.rate,
        "rate_achieved_ops_per_s": throughput,
        "duration_s": elapsed,
        "key_universe": KEY_UNIVERSE,
        "put_fraction": PUT_FRACTION,
        "latency_ms": {
            "all": by_op("put", "get"),
            "put": by_op("put"),
            "get": by_op("get"),
        },
    }
    report["closed_loop"] = {
        "verification_gets": len(acked),
        "latency_ms": _latency_block(outcome.verify_latencies),
    }
    report["churn"] = {
        "plan": dataclasses.asdict(run.churn),
        "events": events,
        "crashes": len(windows),
        "joins": sum(
            1 for e in events if e["action"] == "join" and "skipped" not in e
        ),
        "skipped": sum(1 for e in events if "skipped" in e),
        "acked_writes": sum(acked.values()),
        "acked_keys": len(acked),
        "lost_acked_keys": len(lost),
        "lost_keys": lost[:20],
        "survival_rate": 1.0 - len(lost) / len(acked) if acked else 1.0,
        "under_replication_ms": {
            "mean": mean(windows),
            "max": max(windows, default=0.0),
        },
    }
    return report


def partial_report(
    build: Dict[str, object], servers: int, clients: int, lookups: int,
    puts: int, seed: int,
) -> Dict[str, object]:
    """The report of a loadgen run interrupted before any operation was
    released: :func:`_report` of the empty outcome, schema-valid and
    ``"mode"``-tagged like every other report."""
    counts = {"lookup": lookups, "put": puts, "get": puts}
    run = _Run("closed-loop", build, servers, clients, seed, counts)
    return _report(run, _Outcome(interrupted="before-run"))


def run_loadgen(
    build: Dict[str, object],
    servers: int = 4,
    clients: int = 64,
    lookups: int = 256,
    puts: int = 32,
    seed: int = 42,
    retry: Optional[RetryPolicy] = None,
    timeout: float = 5.0,
    spec: Optional[Dict[str, object]] = None,
    trace_path: Optional[str] = None,
    latency: Optional[LatencyModel] = None,
) -> Dict[str, object]:
    """Run one closed-loop load-generation session; return its report.

    ``build`` is the overlay recipe (see :func:`build_from_recipe`).
    With ``spec`` (a loaded cluster-spec document) the generator
    *attaches* to the already-running cluster it describes — the local
    build then only computes the expected routes; without it a private
    :class:`LocalCluster` of ``servers`` servers is booted and torn
    down around the run.  ``latency`` attaches a
    :class:`~repro.sim.latency.LatencyModel`: the servers sleep each
    hop's modeled delay and the report gains a ``model_ms`` section
    comparing live modeled totals against the engine's predictions.
    """
    if latency is None and spec is not None and spec.get("latency"):
        # Attach mode: sleep-by-model clusters advertise their model in
        # the spec; adopt it so the expected totals match the servers'.
        latency = LatencyModel.from_config(spec["latency"])
    run = _Run(
        "closed-loop",
        build,
        servers if spec is None else spec.get("servers"),
        max(1, clients),
        seed,
        {"lookup": lookups, "put": puts, "get": puts},
        retry=retry if retry is not None else RetryPolicy(),
        timeout=timeout,
        attached=spec is not None,
        latency=latency,
        trace_path=trace_path,
    )

    def prepare():
        network = build_from_recipe(build)
        operations = make_operations(network, lookups, puts, seed)
        run.expected = expected_results(network, operations, latency=latency)
        return network, operations

    return _execute(run, prepare, spec)


def run_churnstorm(
    build: Dict[str, object],
    servers: int = 4,
    replicas: int = 2,
    rate: float = 200.0,
    operations: int = 400,
    churn: Optional[ChurnPlan] = None,
    seed: int = 42,
    retry: Optional[RetryPolicy] = None,
    timeout: float = 5.0,
    clients: int = 8,
) -> Dict[str, object]:
    """Run one open-loop churn scenario and return the bench report.

    Boots a private :class:`LocalCluster` with ``replicas``-way
    leaf-set replication, drives ``operations`` Poisson-scheduled
    PUT/GET operations at ``rate`` ops/s while the ``churn`` plan
    kills and rejoins virtual nodes mid-run, then reads back every
    acknowledged key.  The ``churn`` report section carries the
    survival rate (1.0 = zero acknowledged writes lost) and the
    under-replication windows of each crash.
    """
    schedule = make_open_operations(operations, seed, rate)
    run = _Run(
        "open-churn",
        build,
        servers,
        max(1, clients),
        seed,
        collections.Counter(op["op"] for op in schedule),
        retry=retry if retry is not None else RetryPolicy(),
        timeout=timeout,
        replicas=replicas,
        rate=rate,
        churn=churn if churn is not None else ChurnPlan(seed=seed),
    )
    return _execute(run, lambda: (build_from_recipe(build), schedule))


def _latency_block(latencies: Sequence[float]) -> Dict[str, float]:
    return {
        "mean": mean(latencies),
        "p50": percentile(latencies, 50.0),
        "p95": percentile(latencies, 95.0),
        "p99": percentile(latencies, 99.0),
        "max": max(latencies, default=0.0),
    }


def _write_trace(
    trace_path: str, results: Sequence[Dict[str, object]]
) -> int:
    """Live-trace JSONL: the simulated ``--trace`` hop schema plus the
    per-RPC fields ``rpc`` (the winning attempt's id — what marks a line
    as live) and ``latency_ms``; returns the lines written."""
    lines = 0
    with open(trace_path, "w", encoding="utf-8") as stream:
        for result in sorted(results, key=lambda r: r["index"]):
            for event in result["trace"]:
                line = {
                    "lookup": result["index"],
                    "hop": event["hop"],
                    "node": str(event["node"]),
                    "phase": event["phase"],
                    "timeouts": event["timeouts"],
                    "rpc": result["rpc"],
                    "latency_ms": round(result["latency_ms"], 3),
                }
                if "model_ms" in event:
                    line["model_ms"] = event["model_ms"]
                stream.write(json.dumps(line))
                stream.write("\n")
                lines += 1
    return lines

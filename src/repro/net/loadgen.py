"""Closed-loop load generator with engine-parity checking (S22).

``repro loadgen`` drives a live cluster with ``clients`` concurrent
closed-loop clients (each issues its next operation the moment the
previous reply lands), measures throughput and latency percentiles, and
— because every wire lookup must take *exactly* the hop path the
in-memory :class:`~repro.dht.routing.LookupEngine` would take — proves
correctness by digest: the sha256 over the live results' canonical
``(index, op, key, source, path, hops, timeouts, success)`` tuples must
equal the digest over the engine's records for the same deterministic
workload on a pristine clone of the overlay.  The digests, the match
verdict and the performance numbers land in a schema-tagged
``BENCH_net.json`` (:data:`NET_BENCH_SCHEMA`, guarded by
:func:`validate_net_report`).

The workload is three deterministic op groups derived from one seed:
``lookups`` plain lookups, then ``puts`` PUTs, then one GET per PUT
(run as a second closed-loop phase so every GET observes its PUT).  A
*failure* is any transport-level error surviving the retry budget, any
unsuccessful route, or a GET that does not return its PUT's value; the
CI smoke job requires zero.

With ``trace_path`` set, every completed operation appends its per-hop
trace as JSON lines in the ``--trace`` format of the simulated engine
(``lookup``/``hop``/``node``/``phase``/``timeouts``) extended with the
live-only fields ``rpc`` (the winning attempt's rpc id) and
``latency_ms`` (the operation's wall-clock latency) — the presence of
``rpc`` is what distinguishes a live trace line from a simulated one.

A SIGINT mid-run no longer discards everything: the workers drain, the
partial results are flushed into a report marked ``"complete": false``.

**The churn harness (S24)** is the open-loop counterpart behind
``repro churnstorm``: operations arrive on a seeded Poisson clock with
Zipf key popularity and are fired *at their scheduled time* regardless
of how earlier operations fared, with latency measured from the
scheduled send instant — the coordinated-omission-free methodology —
while a seeded :class:`~repro.sim.faults.ChurnPlan` kills and rejoins
virtual nodes mid-run through live ``CRASH``/``JOIN`` RPCs.  After the
storm, every key whose PUT was acknowledged is read back (closed-loop)
and the report's ``churn`` section states the acknowledged-write
survival rate — the acceptance bar is 1.0 with ``replicas >= 2``.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import json
import signal
import time
from typing import Dict, List, Optional, Sequence

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
from repro.util.rng import derive_rng, make_rng
from repro.util.stats import mean, percentile

__all__ = [
    "NET_BENCH_SCHEMA",
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

#: ``BENCH_net.json`` required shape: top-level keys and the nested
#: keys of each aggregate section.  Guarded so CI archives can be
#: machine-compared across commits without schema drift.
_NET_REPORT_KEYS = (
    "schema",
    "mode",
    "build",
    "clients",
    "seed",
    "ops",
    "latency_ms",
    "throughput_ops_per_s",
    "digest",
)
_NET_OPS_KEYS = ("total", "completed", "lookups", "puts", "gets", "failures")
_NET_LATENCY_KEYS = ("mean", "p50", "p95", "p99", "max")
_NET_DIGEST_KEYS = ("live", "expected", "match")
#: Extra required shape of the ``"open-churn"`` mode (``repro
#: churnstorm``): the digest section is replaced by the open/closed
#: loop split and the churn ledger with its survival verdict.
_NET_CHURN_REPORT_KEYS = (
    "schema",
    "mode",
    "build",
    "clients",
    "seed",
    "ops",
    "latency_ms",
    "throughput_ops_per_s",
    "open_loop",
    "closed_loop",
    "churn",
)
_NET_CHURN_KEYS = (
    "plan",
    "events",
    "crashes",
    "joins",
    "acked_writes",
    "acked_keys",
    "lost_acked_keys",
    "survival_rate",
    "under_replication_ms",
)


def validate_net_report(report: Dict[str, object]) -> None:
    """Schema-guard a ``BENCH_net.json`` loadgen report.

    Two report modes share the schema tag, and every report must name
    its ``"mode"`` explicitly: a ``"closed-loop"`` parity report must
    carry a consistent engine-parity ``digest``; an ``"open-churn"`` report
    (``repro churnstorm``) instead carries the open/closed loop split
    plus a ``churn`` section whose ``survival_rate`` must agree with
    its lost-key count.  Raises ``ValueError`` naming the first
    violation.
    """
    if not isinstance(report, dict):
        raise ValueError("net report must be a JSON object")
    if report.get("schema") != NET_BENCH_SCHEMA:
        raise ValueError(
            f"net report schema is {report.get('schema')!r}, "
            f"expected {NET_BENCH_SCHEMA!r}"
        )
    # ``mode`` is required: a very-early SIGINT once produced a partial
    # report without it, which this validator silently took for a
    # closed-loop run — never default a discriminator.
    if "mode" not in report:
        raise ValueError("net report is missing 'mode'")
    mode = report["mode"]
    if mode not in ("closed-loop", "open-churn"):
        raise ValueError(f"net report mode {mode!r} is unknown")
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
    if mode == "open-churn":
        _validate_churn_report(report)
        return
    for key in _NET_REPORT_KEYS:
        if key not in report:
            raise ValueError(f"net report is missing {key!r}")
    for section, keys in (
        ("ops", _NET_OPS_KEYS),
        ("latency_ms", _NET_LATENCY_KEYS),
        ("digest", _NET_DIGEST_KEYS),
    ):
        block = report[section]
        if not isinstance(block, dict):
            raise ValueError(f"net report {section!r} must be an object")
        for key in keys:
            if key not in block:
                raise ValueError(
                    f"net report {section!r} is missing {key!r}"
                )
    digest = report["digest"]
    for side in ("live", "expected"):
        value = digest[side]
        if not (isinstance(value, str) and len(value) == 64):
            raise ValueError(
                f"net report digest.{side} is not a sha256 hex digest"
            )
    ops = report["ops"]
    expected_match = (
        ops["completed"] == ops["total"]
        and digest["live"] == digest["expected"]
    )
    if bool(digest["match"]) != expected_match:
        raise ValueError(
            "net report digest.match is inconsistent with the digests"
        )


def _validate_churn_report(report: Dict[str, object]) -> None:
    for key in _NET_CHURN_REPORT_KEYS:
        if key not in report:
            raise ValueError(f"churn report is missing {key!r}")
    for section, keys in (
        ("ops", _NET_OPS_KEYS),
        ("latency_ms", _NET_LATENCY_KEYS),
        ("churn", _NET_CHURN_KEYS),
    ):
        block = report[section]
        if not isinstance(block, dict):
            raise ValueError(f"churn report {section!r} must be an object")
        for key in keys:
            if key not in block:
                raise ValueError(
                    f"churn report {section!r} is missing {key!r}"
                )
    churn = report["churn"]
    survival = churn["survival_rate"]
    if not isinstance(survival, (int, float)) or not 0.0 <= survival <= 1.0:
        raise ValueError(
            "churn report survival_rate must be a number in [0, 1]"
        )
    lost = churn["lost_acked_keys"]
    if (survival == 1.0) != (lost == 0):
        raise ValueError(
            "churn report survival_rate is inconsistent with "
            "lost_acked_keys"
        )
    window = churn["under_replication_ms"]
    if not isinstance(window, dict) or not {"mean", "max"} <= set(window):
        raise ValueError(
            "churn report under_replication_ms needs 'mean' and 'max'"
        )


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


async def _run_clients(
    directory: Dict[str, Sequence[object]],
    operations: Sequence[Dict[str, object]],
    clients: int,
    retry: RetryPolicy,
    timeout: float,
    stop: Optional[asyncio.Event] = None,
) -> Dict[str, object]:
    """Drive the workload closed-loop; returns results + telemetry.

    ``stop`` (set by the SIGINT handler) makes every worker finish its
    in-flight operation and drain, so an interrupted run still yields
    a partial result set instead of nothing.
    """
    results: List[Dict[str, object]] = []
    failures = 0
    errors: List[str] = []
    # GETs run as a second phase so each observes its PUT.
    phases = [
        [op for op in operations if op["op"] != "get"],
        [op for op in operations if op["op"] == "get"],
    ]
    pool = [
        ClusterClient(directory, retry=retry, timeout=timeout)
        for _ in range(clients)
    ]

    async def worker(client: ClusterClient, queue) -> None:
        nonlocal failures
        while queue:
            if stop is not None and stop.is_set():
                return
            op = queue.popleft()
            started = time.perf_counter()
            try:
                if op["op"] == "lookup":
                    reply = await client.lookup(
                        op["key"], op["source"], lookup_id=op["index"]
                    )
                elif op["op"] == "put":
                    reply = await client.put(
                        op["key"], op["value"], op["source"]
                    )
                else:
                    reply = await client.get(op["key"], op["source"])
            except ClusterError as exc:
                failures += 1
                errors.append(f"op {op['index']} ({op['op']}): {exc}")
                continue
            latency_ms = (time.perf_counter() - started) * 1000.0
            ok = bool(reply.get("success"))
            if op["op"] == "get" and (
                not reply.get("found") or reply.get("value") != op["expect"]
            ):
                ok = False
            if not ok:
                failures += 1
                errors.append(
                    f"op {op['index']} ({op['op']}) unsuccessful: "
                    f"success={reply.get('success')} "
                    f"found={reply.get('found')}"
                )
            result = {
                "index": op["index"],
                "op": op["op"],
                "key": op["key"],
                "source": op["source"],
                "path": list(reply.get("path", [])),
                "hops": int(reply.get("hops", -1)),
                "timeouts": int(reply.get("timeouts", -1)),
                "success": bool(reply.get("success")),
                "rpc": int(reply.get("rpc", 0)),
                "latency_ms": latency_ms,
                "trace": reply.get("trace", []),
            }
            if "model_ms" in reply:
                result["model_ms"] = float(reply["model_ms"])
            results.append(result)

    started = time.perf_counter()
    try:
        for phase_ops in phases:
            if stop is not None and stop.is_set():
                break
            if not phase_ops:
                continue
            queue = collections.deque(phase_ops)
            await asyncio.gather(
                *(worker(client, queue) for client in pool)
            )
    finally:
        for client in pool:
            await client.close()
    elapsed = time.perf_counter() - started
    return {
        "results": results,
        "failures": failures,
        "errors": errors,
        "elapsed_s": elapsed,
        "retries": sum(client.retries for client in pool),
        "interrupted": stop is not None and stop.is_set(),
    }


def _write_trace(
    trace_path: str, results: Sequence[Dict[str, object]]
) -> int:
    """Live-trace JSONL: the simulated ``--trace`` hop schema plus the
    per-RPC fields ``rpc`` and ``latency_ms``; returns lines written."""
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


async def _loadgen(
    build: Dict[str, object],
    servers: int,
    clients: int,
    lookups: int,
    puts: int,
    seed: int,
    retry: RetryPolicy,
    timeout: float,
    spec: Optional[Dict[str, object]],
    trace_path: Optional[str],
    latency: Optional[LatencyModel],
) -> Dict[str, object]:
    network = build_from_recipe(build)
    operations = make_operations(network, lookups, puts, seed)
    if latency is None and spec is not None and spec.get("latency"):
        # Attach mode: sleep-by-model clusters advertise their model in
        # the spec; adopt it so the expected totals match the servers'.
        latency = LatencyModel.from_config(spec["latency"])
    expected = expected_results(network, operations, latency=latency)

    cluster: Optional[LocalCluster] = None
    if spec is None:
        cluster = LocalCluster(
            network, servers=servers, build=build, latency=latency
        )
        await cluster.start()
        directory = cluster.directory
    else:
        directory = {
            str(name): list(address)
            for name, address in spec["directory"].items()
        }
    # A SIGINT sets ``stop`` instead of tearing the loop down, so the
    # run flushes a partial report (marked incomplete) on the way out.
    stop = asyncio.Event()
    restore_sigint = _install_sigint(stop)
    try:
        outcome = await _run_clients(
            directory, operations, clients, retry, timeout, stop
        )
    finally:
        restore_sigint()
        if cluster is not None:
            await cluster.stop()

    results = outcome["results"]
    live_digest = results_digest(results)
    expected_digest = results_digest(expected)
    complete = len(results) == len(operations)
    latencies = [result["latency_ms"] for result in results]
    elapsed = outcome["elapsed_s"]
    trace_lines = (
        _write_trace(trace_path, results) if trace_path is not None else 0
    )
    report: Dict[str, object] = {
        "schema": NET_BENCH_SCHEMA,
        "mode": "closed-loop",
        "complete": complete and not outcome["interrupted"],
        "build": dict(build),
        "servers": servers if cluster is not None else spec.get("servers"),
        "attached": cluster is None,
        "clients": clients,
        "seed": seed,
        "retry": {
            "budget": retry.budget,
            "base_delay": retry.base_delay,
            "multiplier": retry.multiplier,
            "max_delay": retry.max_delay,
        },
        "timeout_s": timeout,
        "ops": {
            "total": len(operations),
            "completed": len(results),
            "lookups": lookups,
            "puts": puts,
            "gets": puts,
            "failures": outcome["failures"],
            "retries": outcome["retries"],
        },
        "latency_ms": {
            "mean": mean(latencies),
            "p50": percentile(latencies, 50.0),
            "p95": percentile(latencies, 95.0),
            "p99": percentile(latencies, 99.0),
            "max": max(latencies) if latencies else 0.0,
        },
        "throughput_ops_per_s": (
            len(results) / elapsed if elapsed > 0 else 0.0
        ),
        "elapsed_s": elapsed,
        "digest": {
            "live": live_digest,
            "expected": expected_digest,
            "match": complete and live_digest == expected_digest,
        },
        "errors": outcome["errors"][:20],
    }
    if latency is not None:
        live_model = [r["model_ms"] for r in results if "model_ms" in r]
        expected_model = {
            r["index"]: float(r.get("model_ms", 0.0)) for r in expected
        }
        diffs = [
            abs(r["model_ms"] - expected_model.get(r["index"], 0.0))
            for r in results
            if "model_ms" in r
        ]
        report["model_ms"] = {
            "config": latency.to_config(),
            "mean": mean(live_model),
            "p50": percentile(live_model, 50.0),
            "p95": percentile(live_model, 95.0),
            "p99": percentile(live_model, 99.0),
            "max": max(live_model) if live_model else 0.0,
            #: live-vs-engine modeled-total parity: the worst per-op gap.
            "max_abs_diff_ms": max(diffs) if diffs else 0.0,
        }
    if cluster is not None:
        report["forwards_per_op"] = _forwards_per_op(cluster, len(results))
    if trace_path is not None:
        report["trace"] = {"path": trace_path, "lines": trace_lines}
    return report


def _forwards_per_op(cluster: LocalCluster, completed: int) -> float:
    """STEP continuations the cluster's servers handed to one another,
    per completed operation: how often a route left a server's arc."""
    forwards = sum(service.steps_forwarded for service in cluster.services)
    return forwards / completed if completed else 0.0


def _install_sigint(stop: asyncio.Event):
    """Route SIGINT into ``stop`` for the duration of a run.

    Returns a zero-argument restore callable.  Where signal handlers
    cannot be installed (non-main thread, non-unix loop) the run keeps
    the default KeyboardInterrupt behaviour.
    """
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGINT, stop.set)
    except (NotImplementedError, ValueError, RuntimeError):
        return lambda: None

    def restore() -> None:
        try:
            loop.remove_signal_handler(signal.SIGINT)
        except (NotImplementedError, ValueError, RuntimeError):
            pass

    return restore


def partial_report(
    build: Dict[str, object],
    servers: int,
    clients: int,
    lookups: int,
    puts: int,
    seed: int,
) -> Dict[str, object]:
    """The schema-valid empty report of a run interrupted before any
    operation completed.

    A SIGINT that lands *before* the run installs its signal handler
    (while the overlay builds or the cluster boots) aborts with no
    results at all.  The report it leaves behind must still satisfy
    :func:`validate_net_report` — in
    particular it must carry ``"mode"``: the validator once defaulted a
    missing mode to ``"closed-loop"``, which let early-interrupt
    reports masquerade as complete-schema ones.
    """
    total = lookups + 2 * puts
    empty_digest = results_digest([])
    zeros = {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "schema": NET_BENCH_SCHEMA,
        "mode": "closed-loop",
        "complete": False,
        "interrupted": "before-run",
        "build": dict(build),
        "servers": servers,
        "clients": clients,
        "seed": seed,
        "ops": {
            "total": total,
            "completed": 0,
            "lookups": lookups,
            "puts": puts,
            "gets": puts,
            "failures": 0,
            "retries": 0,
        },
        "latency_ms": dict(zeros),
        "throughput_ops_per_s": 0.0,
        "elapsed_s": 0.0,
        "digest": {
            "live": empty_digest,
            "expected": empty_digest,
            "match": total == 0,
        },
        "errors": [],
    }


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
    """Run one load-generation session and return the bench report.

    ``build`` is the overlay recipe (see :func:`build_from_recipe`).
    With ``spec`` (a loaded cluster-spec document) the generator
    *attaches* to the already-running cluster it describes — the local
    build then only computes the expected routes; without it a private
    :class:`LocalCluster` of ``servers`` servers is booted and torn
    down around the run.  ``latency`` attaches a
    :class:`~repro.sim.latency.LatencyModel`: the servers sleep each
    hop's modeled delay and the report gains a ``model_ms`` section
    comparing live modeled totals against the engine's predictions.

    A SIGINT that arrives before the run's own handler is installed
    (e.g. during cluster boot) still returns a schema-valid partial
    report (:func:`partial_report`) instead of propagating
    ``KeyboardInterrupt`` with nothing to show.
    """
    try:
        return asyncio.run(
            _loadgen(
                build,
                servers,
                clients,
                lookups,
                puts,
                seed,
                retry if retry is not None else RetryPolicy(),
                timeout,
                spec,
                trace_path,
                latency,
            )
        )
    except KeyboardInterrupt:
        return partial_report(build, servers, clients, lookups, puts, seed)


# ----------------------------------------------------------------------
# the open-loop churn harness (S24)
# ----------------------------------------------------------------------

def make_open_operations(
    count: int,
    seed: int,
    rate: float,
    key_universe: int = 64,
    put_fraction: float = 0.5,
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


def _latency_block(latencies: Sequence[float]) -> Dict[str, float]:
    return {
        "mean": mean(latencies),
        "p50": percentile(latencies, 50.0),
        "p95": percentile(latencies, 95.0),
        "p99": percentile(latencies, 99.0),
        "max": max(latencies) if latencies else 0.0,
    }


async def _churnstorm(
    build: Dict[str, object],
    servers: int,
    replicas: int,
    rate: float,
    count: int,
    churn: ChurnPlan,
    seed: int,
    retry: RetryPolicy,
    timeout: float,
    clients: int,
    key_universe: int,
    put_fraction: float,
) -> Dict[str, object]:
    network = build_from_recipe(build)
    operations = make_open_operations(
        count, seed, rate, key_universe, put_fraction
    )
    duration = operations[-1]["scheduled"] if operations else 1.0
    cluster = LocalCluster(
        network, servers=servers, build=build, replicas=replicas
    )
    await cluster.start()
    directory = cluster.directory
    events = churn.schedule(sorted(directory), duration)

    pool = [
        ClusterClient(directory, retry=retry, timeout=timeout)
        for _ in range(max(1, clients))
    ]
    control = ClusterClient(directory, retry=retry, timeout=timeout)
    results: List[Dict[str, object]] = []
    churn_log: List[Dict[str, object]] = []
    errors: List[str] = []
    failures = 0
    #: keys whose PUT the cluster acknowledged — the zero-loss ledger.
    acked: Dict[str, int] = {}

    started = time.perf_counter()

    def now() -> float:
        return time.perf_counter() - started

    def alive_source(pick: float, salt: int = 0) -> str:
        names = sorted(directory)
        if not names:
            raise ClusterError("no live nodes left", code="unknown_node")
        return names[(int(pick * len(names)) + salt) % len(names)]

    async def run_op(op: Dict[str, object], client: ClusterClient) -> None:
        nonlocal failures
        for attempt in range(4):
            source = alive_source(op["source_pick"], attempt)
            try:
                if op["op"] == "put":
                    reply = await client.put(op["key"], op["value"], source)
                else:
                    reply = await client.get(op["key"], source)
            except ClusterError as exc:
                # A dead source or a mid-repair route: pick another
                # source and go again; anything else is a failure.
                if exc.code in ("unknown_node", "not_hosted") and attempt < 3:
                    continue
                failures += 1
                errors.append(
                    f"op {op['index']} ({op['op']}): [{exc.code}] {exc}"
                )
                return
            break
        latency_ms = (now() - op["scheduled"]) * 1000.0
        record = {
            "index": op["index"],
            "op": op["op"],
            "key": op["key"],
            "source": source,
            "scheduled_s": op["scheduled"],
            "latency_ms": latency_ms,
            "success": bool(reply.get("success")),
            "hops": int(reply.get("hops", -1)),
        }
        if op["op"] == "put":
            stored = bool(reply.get("stored"))
            record["acked"] = stored
            record["replicas"] = int(reply.get("replicas", 1))
            if stored:
                acked[op["key"]] = acked.get(op["key"], 0) + 1
        else:
            record["found"] = bool(reply.get("found"))
        results.append(record)

    async def dispatch() -> None:
        tasks = []
        for index, op in enumerate(operations):
            delay = op["scheduled"] - now()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(
                asyncio.create_task(run_op(op, pool[index % len(pool)]))
            )
        if tasks:
            await asyncio.gather(*tasks)

    #: victim name -> the server that hosted it when it was crashed.
    homes: Dict[str, List[object]] = {}

    async def drive_churn() -> None:
        for event in events:
            delay = event.time - now()
            if delay > 0:
                await asyncio.sleep(delay)
            entry: Dict[str, object] = {
                "scheduled_s": event.time,
                "action": event.action,
                "node": event.node,
            }
            try:
                if event.action == "crash":
                    if event.node not in directory:
                        entry["skipped"] = "not in directory"
                    else:
                        home = list(directory[event.node])
                        reply = await control.crash(event.node)
                        homes[event.node] = home
                        entry.update(
                            server=home,
                            lost_pairs=reply.get("lost_pairs"),
                            route_repairs=reply.get("route_repairs"),
                            repushed_pairs=reply.get("repushed_pairs"),
                            repair_ms=reply.get("repair_ms"),
                        )
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
            churn_log.append(entry)

    try:
        await asyncio.gather(dispatch(), drive_churn())
        open_elapsed = now()
        # Counted before the verification sweep: the figure is per
        # open-loop operation, under the churn that moved the arcs.
        forwards_per_op = _forwards_per_op(cluster, len(results))

        # ----------------------------------------------------------
        # verification sweep: every acknowledged PUT must be readable
        # (directly or via read-repair) — the zero-loss acceptance bar.
        # ----------------------------------------------------------
        verify_latencies: List[float] = []
        lost_keys: List[str] = []
        for index, key in enumerate(sorted(acked)):
            t0 = time.perf_counter()
            try:
                reply = await control.get(key, alive_source(0.0, index))
            except ClusterError as exc:
                lost_keys.append(key)
                errors.append(f"verify {key}: [{exc.code}] {exc}")
                continue
            verify_latencies.append((time.perf_counter() - t0) * 1000.0)
            if not reply.get("found"):
                lost_keys.append(key)
    finally:
        await control.close()
        for client in pool:
            await client.close()
        await cluster.stop()

    open_latencies = [r["latency_ms"] for r in results]
    put_latencies = [r["latency_ms"] for r in results if r["op"] == "put"]
    get_latencies = [r["latency_ms"] for r in results if r["op"] == "get"]
    crashes = [e for e in churn_log if e["action"] == "crash"]
    executed = [e for e in crashes if "repair_ms" in e]
    repair_windows = [float(e["repair_ms"]) for e in executed]
    acked_writes = sum(acked.values())
    puts = sum(1 for op in operations if op["op"] == "put")
    report: Dict[str, object] = {
        "schema": NET_BENCH_SCHEMA,
        "mode": "open-churn",
        "complete": len(results) + failures == len(operations),
        "build": dict(build),
        "servers": servers,
        "replicas": replicas,
        "clients": len(pool),
        "seed": seed,
        "retry": {
            "budget": retry.budget,
            "base_delay": retry.base_delay,
            "multiplier": retry.multiplier,
            "max_delay": retry.max_delay,
        },
        "timeout_s": timeout,
        "ops": {
            "total": len(operations),
            "completed": len(results),
            "lookups": 0,
            "puts": puts,
            "gets": len(operations) - puts,
            "failures": failures,
            "retries": (
                sum(client.retries for client in pool) + control.retries
            ),
        },
        "latency_ms": _latency_block(open_latencies),
        "open_loop": {
            "rate_target_ops_per_s": rate,
            "rate_achieved_ops_per_s": (
                len(results) / open_elapsed if open_elapsed > 0 else 0.0
            ),
            "duration_s": open_elapsed,
            "key_universe": key_universe,
            "put_fraction": put_fraction,
            "latency_ms": {
                "all": _latency_block(open_latencies),
                "put": _latency_block(put_latencies),
                "get": _latency_block(get_latencies),
            },
        },
        "closed_loop": {
            "verification_gets": len(acked),
            "latency_ms": _latency_block(verify_latencies),
        },
        "throughput_ops_per_s": (
            len(results) / open_elapsed if open_elapsed > 0 else 0.0
        ),
        "elapsed_s": open_elapsed,
        "forwards_per_op": forwards_per_op,
        "churn": {
            "plan": {
                "seed": churn.seed,
                "kills": churn.kills,
                "rejoin": churn.rejoin,
                "start": churn.start,
                "end": churn.end,
            },
            "events": churn_log,
            "crashes": len(executed),
            "joins": sum(
                1
                for e in churn_log
                if e["action"] == "join" and "skipped" not in e
            ),
            "skipped": sum(1 for e in churn_log if "skipped" in e),
            "acked_writes": acked_writes,
            "acked_keys": len(acked),
            "lost_acked_keys": len(lost_keys),
            "lost_keys": lost_keys[:20],
            "survival_rate": (
                1.0 - len(lost_keys) / len(acked) if acked else 1.0
            ),
            "under_replication_ms": {
                "mean": mean(repair_windows),
                "max": max(repair_windows) if repair_windows else 0.0,
            },
        },
        "errors": errors[:20],
    }
    return report


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
    key_universe: int = 64,
    put_fraction: float = 0.5,
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
    return asyncio.run(
        _churnstorm(
            build,
            servers,
            replicas,
            rate,
            operations,
            churn if churn is not None else ChurnPlan(seed=seed),
            seed,
            retry if retry is not None else RetryPolicy(),
            timeout,
            clients,
            key_universe,
            put_fraction,
        )
    )

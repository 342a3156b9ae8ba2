"""The benchmark's three workloads and the loop that measures them.

Every workload is a fixed cycle of *rounds*.  A run alternates timed
cold set-ups with rounds; only round time counts towards the throughput
metrics, rates are taken over the whole measured phase, never over
short windows, and a run always ends on a pass boundary (every round of
the cycle run equally often), so every run measures the same mix of
operations.

Traffic follows the repository's own defaults: a Fig. 5 cell is the
``fig5`` command's 3000 lookups, a crash cell the ``fig-crash``
command's 2000, a scale round one ``fig-scale`` cell per overlay (2048
lookups in 512-row batches) and a live-kv round one ``loadgen``
operation list with its 32 put/get pairs.  The one departure is live-kv's
lookup count, cut from loadgen's 256 to 32 per list (as many lookups as
puts and as gets) so that a 30-second run collects over 1000 samples of
each op type for its p99 (see README).

Host speed.  The benchmark was tuned on a shared 2-vCPU host whose speed
moves by a fifth between half-minutes and by a third between half-hours.
A fixed reference task (:class:`Reference`: an arithmetic loop, a
pointer chase with dict look-ups and object allocation, none of it
program code) runs before every round and set-up point, and the gated
times are divided by how much slower than :data:`REFERENCE_NOMINAL_S`
it ran, on average over the run.  A slow phase of the host slows the
reference too, so the scaled numbers hold still while a change to the
program still moves them one for one.  The unscaled numbers are printed
beside them.

Workloads (see ``layers.json`` for the layer map):

``paper-sim``
    The paper's five overlays at d=8 (n=2048), in-process.  Lane a is
    the Fig. 5 cells on the columnar backend, lane b the Fig.-crash
    ``crash+retry`` cells (p=0.3, 5% message loss, retry budget 8), both
    through :func:`repro.sim.parallel.run_sharded_lookups` with the
    experiment modules' own set-up callables and default shard size.
    The runner calls the set-up once per cell; its time is a set-up
    sample, not lane time.
``scale``
    Bulk-built n=10^6 Cycloid (lane a) and Chord (lane b), compiled once
    per set-up with :func:`repro.dht.kernel.kernel_from_columns`, routed
    in fig-scale's 512-row batches through ``run_linear``/``run_ids``.
``live-kv``
    A d=8 Cycloid served by two :class:`repro.net.server.NodeService`
    instances on loopback with ``replicas=2``; one closed-loop client
    keeps one request in flight.  Lane a is lookups, lane b the puts
    and the gets of the put keys.

Every output is checked (``Measurement.failed`` counts operations whose
output was wrong or that errored); digests are additionally pinned for
the default seed in ``pins.json``.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import socket
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.dht import bulkbuild, kernel
from repro.experiments import crash, registry
from repro.net.client import ClusterError
from repro.net.cluster import LocalCluster
from repro.net.loadgen import expected_results, make_operations
from repro.sim import parallel
from repro.sim.faults import FaultPlan

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

#: Seconds each part of the :class:`Reference` task took, median, on the
#: host the bounds were set on (2 shared vCPUs, Python 3.11); gated
#: times are expressed as if the host always ran at that speed.
REFERENCE_NOMINAL_S = {
    "arithmetic": 0.0088,
    "chase": 0.0068,
    "allocate": 0.0092,
    "loopback": 0.0072,
}


class Reference:
    """Fixed work that is not program code, timed to gauge host speed.

    A slow phase of the host hits kinds of work unequally, so there are
    four parts: an arithmetic loop (interpreter speed), a pointer chase
    through 100k objects plus dict look-ups (memory latency), building
    then dropping 10k small linked objects (allocation and garbage
    collection), and small-message round trips over a loopback TCP
    connection (the kernel's network path).  A workload names the parts
    that slow down as it does; a task runs them, repeated to three part
    runs (about 27 ms), and returns the host's *slowness*: the mean of
    each part's time over its nominal.
    """

    def __init__(self, parts) -> None:
        self.parts = [
            (getattr(self, "_" + name), REFERENCE_NOMINAL_S[name]) for name in parts
        ] * max(1, 3 // len(parts))
        self.sockets = ()
        if "loopback" in parts:
            with socket.create_server(("127.0.0.1", 0)) as server:
                client = socket.create_connection(server.getsockname())
                peer, _address = server.accept()
            for end in (client, peer):
                end.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sockets = (client, peer)
        rng = np.random.default_rng(20040426)
        order = rng.permutation(100_000).tolist()
        self.nodes = [[0, i] for i in range(len(order))]
        for node, successor in zip(self.nodes, order):
            node[0] = self.nodes[successor]
        self.table = {(i * 2654435761) % (1 << 32): i for i in range(100_000)}
        self.keys = list(self.table)[::-10]

    def __call__(self) -> float:
        slowness = 0.0
        for part, nominal in self.parts:
            started = time.perf_counter()
            part()
            slowness += (time.perf_counter() - started) / nominal
        return slowness / len(self.parts)

    def _arithmetic(self) -> int:
        total = 0
        for i in range(100_000):
            total += i * i
        return total

    def _chase(self) -> int:
        total = 0
        node = self.nodes[0]
        for _ in range(12_500):
            node = node[0]
            total += node[1]
        table = self.table
        for key in self.keys:
            total += table[key]
        return total

    def _allocate(self) -> None:
        built = [_Cell(None, None)]
        for i in range(10_000):
            built.append(_Cell([i], {i: built[-1]}))

    def _loopback(self) -> None:
        message = b"x" * 200
        for _ in range(900):
            for sender, receiver in (self.sockets, self.sockets[::-1]):
                sender.sendall(message)
                received = 0
                while received < len(message):
                    received += len(receiver.recv(4096))

    def close(self) -> None:
        for end in self.sockets:
            end.close()


class _Cell:
    __slots__ = ("items", "links")

    def __init__(self, items, links) -> None:
        self.items = items
        self.links = links


@dataclass(frozen=True)
class Size:
    """Every input size of the three workloads."""

    name: str
    dimension: int
    fig5_lookups: int
    crash_lookups: int
    scale_count: int
    scale_lookups: int
    scale_batch_rows: int
    scale_rounds_per_setup: int
    live_lookups: int
    live_pairs: int
    live_pool_rounds: int
    live_rounds_per_setup: int


FULL = Size(
    name="full",
    dimension=8,
    fig5_lookups=3000,
    crash_lookups=2000,
    scale_count=1_000_000,
    scale_lookups=2048,
    scale_batch_rows=512,
    scale_rounds_per_setup=12,
    live_lookups=32,
    live_pairs=32,
    live_pool_rounds=8,
    live_rounds_per_setup=4,
)

TINY = Size(
    name="tiny",
    dimension=4,
    fig5_lookups=510,
    crash_lookups=510,
    scale_count=10_000,
    scale_lookups=128,
    scale_batch_rows=64,
    scale_rounds_per_setup=2,
    live_lookups=6,
    live_pairs=6,
    live_pool_rounds=2,
    live_rounds_per_setup=1,
)

SIZES = {size.name: size for size in (FULL, TINY)}


def load_pins(path: str = PINS_PATH) -> Dict[str, Dict[str, str]]:
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)


@dataclass
class Measurement:
    """What one measured phase saw; rates are over the whole phase."""

    setup_samples: List[float] = field(default_factory=list)
    lane_ops: Dict[str, int] = field(default_factory=lambda: {"a": 0, "b": 0})
    lane_s: Dict[str, float] = field(default_factory=lambda: {"a": 0.0, "b": 0.0})
    latencies_ms: Dict[str, List[float]] = field(default_factory=dict)
    slowness: List[float] = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)

    def lane(self, name: str, ops: int, seconds: float) -> None:
        self.lane_ops[name] += ops
        self.lane_s[name] += seconds
        self.attempted += ops

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def busy_s(self) -> float:
        return self.lane_s["a"] + self.lane_s["b"]

    def ops_per_s(self) -> float:
        return (self.lane_ops["a"] + self.lane_ops["b"]) / self.busy_s

    def lane_rate(self, name: str) -> float:
        return self.lane_ops[name] / self.lane_s[name]

    def host_scale(self) -> float:
        """How much slower than nominal the host ran over the phase: the
        mean slowness of the reference tasks (1.0 when none ran)."""
        return statistics.fmean(self.slowness) if self.slowness else 1.0


def measure(
    workload,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
    reference: Optional[Reference] = None,
) -> Measurement:
    """Alternate timed set-ups with rounds until ``seconds`` of wall
    time (or exactly ``rounds`` rounds) have run, ending on a pass
    boundary.  With a ``reference``, one reference task runs before
    every round and every set-up point."""
    m = Measurement()
    state = None
    started = time.perf_counter()
    # The benchmark's own long-lived objects (input pools, expected
    # results, the reference) are never scanned by the program's
    # collections.
    gc.collect()
    gc.freeze()
    try:
        while True:
            if workload.rounds_per_setup and m.rounds % workload.rounds_per_setup == 0:
                if reference is not None:
                    m.slowness.append(reference())
                for _ in range(workload.setup_repeat):
                    if state is not None:
                        workload.teardown(state)
                        state = None
                    gc.collect()
                    setup_started = time.perf_counter()
                    state = workload.setup()
                    m.setup_samples.append(time.perf_counter() - setup_started)
            if reference is not None:
                m.slowness.append(reference())
            workload.round(state, m)
            m.rounds += 1
            if m.rounds % workload.pass_rounds or m.rounds < workload.min_rounds:
                continue
            if rounds is not None:
                if m.rounds >= rounds:
                    break
            elif time.perf_counter() - started >= seconds:
                break
    finally:
        if state is not None:
            workload.teardown(state)
    workload.finish(m)
    return m


def _sha256(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


class _Workload:
    """Shared checking: a result seen twice must not change, and the
    default seed's digests must equal their pins."""

    name = ""
    #: the :class:`Reference` parts that gauge this workload's host speed
    #: (chosen by measurement, see README).
    reference_parts = ("arithmetic", "chase", "allocate")
    #: rounds between set-up points (0: the workload records its own
    #: set-up samples) and timed cold set-ups per point.
    rounds_per_setup = 1
    setup_repeat = 1
    #: rounds in one pass over every kind of round; a run ends on a pass.
    pass_rounds = 1
    #: rounds in one pass over the workload's input pool; a run always
    #: makes at least one pass, so every pinned digest is produced.
    min_rounds = 1

    def __init__(self, seed: int, size: Size, pins: Optional[dict] = None):
        self.seed = seed
        self.size = size
        key = f"{self.name}/{size.name}/{seed}"
        table = load_pins() if pins is None else pins
        self.pins: Dict[str, str] = table.get(key, {})
        self._seen: Dict[str, str] = {}

    def _check_digest(self, m: Measurement, cell: str, digest: str, ops: int) -> None:
        first = self._seen.setdefault(cell, digest)
        if digest != first:
            m.fail(ops, f"{cell}: digest changed between rounds")
        pinned = self.pins.get(cell)
        if pinned is not None and digest != pinned:
            m.fail(ops, f"{cell}: digest {digest[:12]} != pinned {pinned[:12]}")

    def teardown(self, state) -> None:
        pass

    def close(self) -> None:
        pass

    def finish(self, m: Measurement) -> None:
        m.digests.update(self._seen)
        missing = sorted(set(self.pins) - set(self._seen))
        if missing:
            m.fail(1, f"pinned results never produced: {missing}")


class _TimedSetup:
    """A cell's set-up callable that adds up the time spent in it."""

    def __init__(self, setup) -> None:
        self.setup = setup
        self.seconds = 0.0

    def __call__(self):
        started = time.perf_counter()
        try:
            return self.setup()
        finally:
            self.seconds += time.perf_counter() - started


class PaperSim(_Workload):
    """Fig. 5 (lane a) and Fig.-crash crash+retry (lane b) cells.

    A round is one cell and a pass is both cells of every overlay.  Each
    cell's one set-up call (overlay build, plus crash injection for the
    crash cells) is a ``setup_s`` sample and is not lane time.  Each
    cell's time ends with a full garbage collection of what the cell
    left behind, so a cell never pays for the previous cell's garbage.
    """

    name = "paper-sim"
    rounds_per_setup = 0
    # Cell time follows the allocation part one for one; with all three
    # parts it moved 1.4 times as far as the reference (README).
    reference_parts = ("allocate",)
    crash_probability = 0.3
    message_loss = 0.05
    retry_budget = 8

    def __init__(self, seed: int, size: Size, pins: Optional[dict] = None):
        super().__init__(seed, size, pins)
        self.dimension = size.dimension
        # The fault seed follows run_crash_experiment: seed + 100 p.
        self.plan = FaultPlan(
            seed=seed + int(self.crash_probability * 100),
            crash_probability=self.crash_probability,
            message_loss=self.message_loss,
        )
        self.cells = [
            (kind, protocol)
            for protocol in registry.PROTOCOLS
            for kind in ("fig5", "crash")
        ]
        self.pass_rounds = self.min_rounds = len(self.cells)

    def round(self, state, m: Measurement) -> None:
        kind, protocol = self.cells[m.rounds % len(self.cells)]
        if kind == "fig5":
            self._fig5(protocol, m)
        else:
            self._crash(protocol, m)

    def _timed_cell(self, m: Measurement, setup, count: int, seed: int, **options):
        """Run one cell; returns (merged run, lane seconds)."""
        timed = _TimedSetup(setup)
        started = time.perf_counter()
        merged = parallel.run_sharded_lookups(timed, count, seed, **options)
        gc.collect()
        elapsed = time.perf_counter() - started
        m.setup_samples.append(timed.seconds)
        return merged, elapsed - timed.seconds

    def _fig5(self, protocol: str, m: Measurement) -> None:
        d = self.dimension
        count = self.size.fig5_lookups
        merged, seconds = self._timed_cell(
            m,
            partial(
                parallel.plain_setup,
                registry.build_complete_network,
                protocol,
                d,
                seed=self.seed,
            ),
            count,
            self.seed + d,
            backend="columnar",
        )
        stats = merged.stats
        stats.path_length_summary()
        digest = stats.digest()
        m.lane("a", count, seconds)
        cell = f"fig5/{protocol}"
        if len(stats) != count or stats.failures or merged.population != d << d:
            m.fail(count, f"{cell}: {stats.failures} failed of {len(stats)}")
        self._check_digest(m, cell, digest, count)

    def _crash(self, protocol: str, m: Measurement) -> None:
        d = self.dimension
        count = self.size.crash_lookups
        merged, seconds = self._timed_cell(
            m,
            partial(crash.crashed_setup, protocol, d, self.seed, self.plan),
            count,
            self.seed + 1,
            retry_budget=self.retry_budget,
        )
        stats = merged.stats
        stats.timeout_summary()
        succeeded = len(stats) - stats.failures
        digest = _sha256(
            stats.digest(),
            merged.route_repairs,
            merged.crashed,
            merged.population,
            merged.dropped_messages,
        )
        m.lane("b", count, seconds)
        cell = f"crash/{protocol}"
        if (
            len(stats) != count
            or merged.crashed < 1
            or merged.population + merged.crashed != d << d
            or not 0 < succeeded <= count
            or stats.total_retries < 0
        ):
            m.fail(count, f"{cell}: inconsistent crash cell")
        self._check_digest(m, cell, digest, count)


def scale_digest(hops, final, success) -> str:
    """fig-scale's result digest over (hops, final, success)."""
    payload = hashlib.sha256()
    payload.update(np.ascontiguousarray(hops, dtype=np.int64).tobytes())
    payload.update(np.ascontiguousarray(final, dtype=np.int64).tobytes())
    payload.update(np.ascontiguousarray(success, dtype=np.int8).tobytes())
    return payload.hexdigest()


class Scale(_Workload):
    """Kernel waves on bulk-built million-node Cycloid and Chord.

    A round is one fig-scale cell's lookups on each overlay, with the
    cell's own inputs, so the round's digest is fig-scale's.
    """

    name = "scale"
    protocols = ("cycloid", "chord")

    def __init__(self, seed: int, size: Size, pins: Optional[dict] = None):
        super().__init__(seed, size, pins)
        self.rounds_per_setup = size.scale_rounds_per_setup
        self.inputs: Dict[str, tuple] = {}
        self.reference: Dict[str, tuple] = {}

    def setup(self):
        kernels = {}
        for protocol in self.protocols:
            columns = bulkbuild.build_columns(
                protocol, self.size.scale_count, seed=self.seed, sampler="fast"
            )
            kernels[protocol] = (kernel.kernel_from_columns(columns), columns.space)
            del columns  # not held while the next overlay builds
        return kernels

    def teardown(self, state) -> None:
        state.clear()
        gc.collect()

    def _inputs(self, protocol: str, space: int):
        if protocol not in self.inputs:
            # run_scale_cell's stream: one PCG64 per (seed, n, protocol).
            rng = np.random.default_rng(
                np.random.PCG64(
                    np.random.SeedSequence(
                        [self.seed, self.size.scale_count, self.protocols.index(protocol)]
                    )
                )
            )
            lookups = self.size.scale_lookups
            self.inputs[protocol] = (
                rng.integers(0, self.size.scale_count, size=lookups),
                rng.integers(0, space, size=lookups),
            )
        return self.inputs[protocol]

    def _cell(self, state, protocol: str, lane: str, m: Measurement) -> None:
        compiled, space = state[protocol]
        sources, keys = self._inputs(protocol, space)
        runner = compiled.run_linear if protocol == "cycloid" else compiled.run_ids
        rows = self.size.scale_batch_rows
        parts = []
        started = time.perf_counter()
        for start in range(0, len(sources), rows):
            result = runner(sources[start:start + rows], keys[start:start + rows])
            parts.append((result["hops"], result["final"], result["success"]))
        m.lane(lane, len(sources), time.perf_counter() - started)
        arrays = tuple(np.concatenate(column) for column in zip(*parts))
        first = self.reference.setdefault(protocol, arrays)
        if not bool(arrays[2].all()) or not all(
            np.array_equal(a, b) for a, b in zip(arrays, first)
        ):
            m.fail(len(sources), f"{protocol}: wrong or unsuccessful lookups")

    def round(self, state, m: Measurement) -> None:
        self._cell(state, "cycloid", "a", m)
        self._cell(state, "chord", "b", m)

    def finish(self, m: Measurement) -> None:
        for protocol, arrays in self.reference.items():
            self._check_digest(m, protocol, scale_digest(*arrays), len(arrays[0]))
        super().finish(m)


class LiveKV(_Workload):
    """Closed-loop lookups, puts and gets against a loopback cluster.

    A round is one loadgen operation list: its lookups, then its puts,
    then the gets of the put keys.
    """

    name = "live-kv"
    reference_parts = ("chase", "allocate", "loopback")
    servers = 2
    replicas = 2
    # A set-up takes ~50 ms, so each set-up point times three of them.
    setup_repeat = 3

    def __init__(self, seed: int, size: Size, pins: Optional[dict] = None):
        super().__init__(seed, size, pins)
        self.rounds_per_setup = size.live_rounds_per_setup
        self.min_rounds = size.live_pool_rounds
        self.loop = asyncio.new_event_loop()
        reference = registry.build_complete_network("cycloid", size.dimension, seed=seed)
        self.rounds_ops: List[List[dict]] = []
        for r in range(size.live_pool_rounds):
            ops = make_operations(
                reference, size.live_lookups, size.live_pairs, seed * 1_000_003 + r
            )
            for op in ops:
                op["index"] += r * 1_000_000
            self.rounds_ops.append(ops)
        everything = [op for ops in self.rounds_ops for op in ops]
        self.expected = {
            result["index"]: result
            for result in expected_results(reference, everything)
        }
        self.replies: Dict[int, tuple] = {}

    async def _setup(self):
        network = registry.build_complete_network("cycloid", self.size.dimension, seed=self.seed)
        cluster = LocalCluster(network, servers=self.servers, replicas=self.replicas)
        await cluster.start()
        client = cluster.client()
        for address in cluster.addresses:
            await client.ping(address)
        return cluster, client

    def setup(self):
        return self.loop.run_until_complete(self._setup())

    async def _teardown(self, state) -> None:
        cluster, client = state
        await client.close()
        await cluster.stop()

    def teardown(self, state) -> None:
        self.loop.run_until_complete(self._teardown(state))

    async def _round(self, client, ops: List[dict], m: Measurement) -> None:
        perf = time.perf_counter
        latencies = m.latencies_ms
        for op in ops:
            kind = op["op"]
            started = perf()
            try:
                if kind == "lookup":
                    reply = await client.lookup(op["key"], op["source"])
                elif kind == "put":
                    reply = await client.put(op["key"], op["value"], op["source"])
                else:
                    reply = await client.get(op["key"], op["source"])
            except ClusterError as exc:
                reply, error = None, exc
            elapsed = perf() - started
            m.lane("a" if kind == "lookup" else "b", 1, elapsed)
            if reply is None:
                m.fail(1, f"op {op['index']} ({kind}): {error}")
                continue
            latencies.setdefault(kind, []).append(elapsed * 1000.0)
            self._check(op, reply, m)

    def _check(self, op: dict, reply: dict, m: Measurement) -> None:
        expected = self.expected[op["index"]]
        path = [str(name) for name in reply.get("path", ())]
        ok = (
            bool(reply.get("success"))
            and path == expected["path"]
            and reply.get("hops") == expected["hops"]
        )
        if op["op"] == "get":
            ok = ok and bool(reply.get("found")) and reply.get("value") == op["expect"]
        if not ok:
            m.fail(1, f"op {op['index']} ({op['op']}): wrong reply")
        self.replies.setdefault(op["index"], (op["op"], tuple(path), reply.get("value")))

    def round(self, state, m: Measurement) -> None:
        _cluster, client = state
        ops = self.rounds_ops[m.rounds % len(self.rounds_ops)]
        self.loop.run_until_complete(self._round(client, ops, m))

    def finish(self, m: Measurement) -> None:
        total = sum(len(ops) for ops in self.rounds_ops)
        if len(self.replies) == total:
            digest = _sha256(sorted(self.replies.items()))
            self._check_digest(m, "results", digest, total)
        super().finish(m)

    def close(self) -> None:
        self.loop.close()


WORKLOADS = {"paper-sim": PaperSim, "scale": Scale, "live-kv": LiveKV}

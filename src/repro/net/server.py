"""Asyncio node servers: the overlay hosted behind real sockets (S22).

A :class:`NodeService` is one asyncio TCP server hosting a partition of
an overlay's *virtual nodes*.  Lookups are routed **recursively
hop-by-hop**: the service steps the overlay's pure
:func:`~repro.dht.routing.step_route` decision at each hosted node and,
the moment a hop targets a node hosted elsewhere, forwards the whole
lookup continuation — key, hop/timeout counters, path, per-hop trace
and the overlay's packed routing state
(:meth:`~repro.dht.base.Network.pack_route_state`) — to the peer server
in a ``STEP`` frame and awaits its reply, which then propagates back
along the chain of awaiting servers to the origin.  Because every step
runs the exact decision functions of the in-memory
:class:`~repro.dht.routing.LookupEngine` (same hop accounting, same
``HOP_LIMIT``, same ``finish_route`` delivery hop, same query-load
visit recording), a live lookup's hop path is bit-exact against the
engine's trace for the same ``(source, key)`` — the parity suite pins
it.

Malformed, oversized or otherwise contract-violating frames are
rejected without crashing: the offending connection gets one ``ERROR``
frame (rpc id 0 — framing is lost, so the id is unknowable) and is
closed; every other connection keeps being served.

PUT/GET frames route exactly like lookups and then hit the terminal
node's :class:`~repro.dht.storage.StorageShard`; JOIN/LEAVE mutate the
hosted node set through the overlay's own join/leave protocols and keep
the shared cluster directory current.

The churn-tolerant data plane (S24) layers three mechanisms on top:

* **leaf-set replication** — with ``replicas = r`` every PUT is stored
  on the key's whole replica set (:func:`repro.dht.storage.replica_set`,
  the same definition the in-memory ``KeyValueStore`` uses), pushed to
  remote holders over ``REPLICATE`` frames;
* **read-repair** — a GET that finds the routed-to node missing the
  key probes the replica set over ``FETCH`` frames and, on a hit,
  restores the primary copy (and any other missing holder) before
  answering;
* **active rereplication** — ``CRASH`` (ungraceful kill, via
  :meth:`Network.fail`) and ``LEAVE``/``JOIN`` membership changes
  trigger a cluster-wide ``REPAIR`` fan-out: every server rescans its
  shard and re-pushes pairs whose replica set changed, so the replica
  invariant is restored before the membership RPC even replies — the
  *under-replication window* the churn bench reports is exactly this
  repair's duration.  ``CRASH`` additionally heals routing state by
  running every surviving node's :meth:`Network.on_dead_entry` lazy
  repair against the dead node.

``ERROR`` replies always carry a machine-readable ``code``
(:data:`repro.net.codec.ERROR_CODES`) next to the human-readable
``error`` text.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dht.base import Network, Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.latency import LatencyModel
from repro.dht.routing import step_route
from repro.dht.storage import StorageShard, replica_set
from repro.net.client import RpcConnection
from repro.net.codec import (
    Frame,
    FrameError,
    MAX_PAYLOAD,
    MessageType,
    PROTOCOL_VERSION,
    write_frame,
)

__all__ = ["ServiceError", "NodeService"]

Address = Tuple[str, int]

#: Request types a client may open an operation with.
_OP_TYPES = {
    MessageType.LOOKUP: "lookup",
    MessageType.PUT: "put",
    MessageType.GET: "get",
}

#: Operation names a STEP continuation may carry.
_KNOWN_OPS = frozenset(_OP_TYPES.values())


class ServiceError(RuntimeError):
    """A request was well-framed but unserviceable; sent back as ERROR.

    ``code`` is the machine-readable classification from
    :data:`repro.net.codec.ERROR_CODES` that rides in the ``ERROR``
    payload next to the message.
    """

    def __init__(self, message: str, code: str = "bad_request") -> None:
        super().__init__(message)
        self.code = code


class NodeService:
    """One asyncio server hosting ``hosted`` virtual nodes of ``network``.

    ``directory`` (node name -> ``[host, port]``) is assigned by the
    cluster harness once every service has bound its port; services on
    one :class:`~repro.net.cluster.LocalCluster` share the *same* dict
    object, so JOINs through any server become routable everywhere
    immediately.
    """

    def __init__(
        self,
        network: Network,
        hosted: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
        max_payload: int = MAX_PAYLOAD,
        timeout: float = 10.0,
        replicas: int = 1,
        latency: Optional["LatencyModel"] = None,
    ) -> None:
        if not hosted:
            raise ValueError("a NodeService must host at least one node")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.network = network
        #: the seeded link-delay model (§S25); with one attached every
        #: hop sleeps its modeled one-way delay and the reply carries
        #: ``model_ms`` per hop and in total, so the wall clock the
        #: loadgen measures tracks the distribution the sim predicts.
        self.latency = latency
        self.hosted: List[str] = [str(name) for name in hosted]
        self._hosted_set: Set[str] = set(self.hosted)
        self._bind_host = host
        self._bind_port = port
        self.max_payload = max_payload
        self.timeout = timeout
        self.replicas = replicas
        self.directory: Dict[str, Sequence[object]] = {}
        self.storage = StorageShard()
        #: requests answered (REPLY or ERROR), for PING telemetry.
        self.rpcs_served = 0
        #: frames rejected for wire-contract violations.
        self.frames_rejected = 0
        #: replica copies pushed by this server (PUT + repair + leave).
        self.replica_pushes = 0
        #: GETs answered from a replica after the primary lost the key.
        self.read_repairs = 0
        #: STEP continuations handed to another server (a route leaving
        #: this server's hosted nodes).
        self.steps_forwarded = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._address: Optional[Address] = None
        self._peers: Dict[Address, RpcConnection] = {}
        self._peer_lock = asyncio.Lock()
        self._client_writers: Set[asyncio.StreamWriter] = set()
        self._connection_tasks: Set[asyncio.Task] = set()
        self._handler_tasks: Set[asyncio.Task] = set()
        self._names: Dict[str, Node] = {}
        self._step_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> Address:
        if self._address is None:
            raise RuntimeError("service is not started")
        return self._address

    async def start(self) -> "NodeService":
        self._server = await asyncio.start_server(
            self._serve_connection, self._bind_host, self._bind_port
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        return self

    async def stop(self) -> None:
        """Close the listener, all live connections and peer links."""
        if self._server is not None:
            self._server.close()
        for task in list(self._handler_tasks):
            task.cancel()
        for writer in list(self._client_writers):
            writer.close()
        connections = list(self._connection_tasks)
        for task in connections:
            task.cancel()
        for task in list(self._handler_tasks) + connections:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._handler_tasks.clear()
        peers, self._peers = self._peers, {}
        for peer in peers.values():
            await peer.close()
        if self._server is not None:
            try:
                await self._server.wait_closed()
            except asyncio.CancelledError:  # pragma: no cover - defensive
                pass
            self._server = None

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = asyncio.current_task()
        self._connection_tasks.add(connection)
        self._client_writers.add(writer)
        send_lock = asyncio.Lock()
        try:
            while True:
                try:
                    frame = await _read(reader, self.max_payload)
                except FrameError as exc:
                    # The stream is unsynchronised: answer once (rpc id
                    # 0 — the real id is unrecoverable) and close this
                    # connection only.  The server keeps serving.
                    self.frames_rejected += 1
                    await self._send_safely(
                        writer,
                        send_lock,
                        MessageType.ERROR,
                        0,
                        {
                            "error": f"rejected frame: {exc.reason}",
                            "code": "bad_frame",
                        },
                    )
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    OSError,
                ):
                    break
                task = asyncio.create_task(
                    self._handle_frame(frame, writer, send_lock)
                )
                self._handler_tasks.add(task)
                task.add_done_callback(self._handler_tasks.discard)
        except asyncio.CancelledError:
            # stop() cancels the connections still open at shutdown.
            # Ending normally keeps asyncio's connection callback from
            # logging the cancellation as an unhandled error.
            pass
        finally:
            self._connection_tasks.discard(connection)
            self._client_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send_safely(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        kind: MessageType,
        rpc: int,
        payload: Dict[str, object],
    ) -> None:
        try:
            async with lock:
                write_frame(writer, kind, rpc, payload, self.max_payload)
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # peer went away; nothing left to tell it

    async def _handle_frame(
        self,
        frame: Frame,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        try:
            if frame.kind in _OP_TYPES:
                payload = await self._start_operation(
                    _OP_TYPES[frame.kind], frame.payload
                )
            elif frame.kind == MessageType.STEP:
                payload = await self._continue_operation(frame.payload)
            elif frame.kind == MessageType.PING:
                payload = self._handle_ping()
            elif frame.kind == MessageType.JOIN:
                payload = await self._handle_join(frame.payload)
            elif frame.kind == MessageType.LEAVE:
                payload = await self._handle_leave(frame.payload)
            elif frame.kind == MessageType.CRASH:
                payload = await self._handle_crash(frame.payload)
            elif frame.kind == MessageType.REPLICATE:
                payload = self._handle_replicate(frame.payload)
            elif frame.kind == MessageType.FETCH:
                payload = self._handle_fetch(frame.payload)
            elif frame.kind == MessageType.REPAIR:
                payload = await self._handle_repair(frame.payload)
            else:
                raise ServiceError(
                    f"unexpected {frame.kind.name} frame on a server"
                )
            kind = MessageType.REPLY
        except ServiceError as exc:
            kind, payload = (
                MessageType.ERROR,
                {"error": str(exc), "code": exc.code},
            )
        except Exception as exc:  # never let one request kill the server
            kind, payload = (
                MessageType.ERROR,
                {"error": f"internal error: {exc!r}", "code": "internal"},
            )
        self.rpcs_served += 1
        await self._send_safely(writer, lock, kind, frame.rpc, payload)

    # ------------------------------------------------------------------
    # node resolution
    # ------------------------------------------------------------------

    def _resolve(self, name: str) -> Node:
        node = self._names.get(name)
        if node is None or not node.alive:
            # Stale or unseen (membership changed via another service
            # on the same network): refresh the index once.
            self._names = {
                str(live.name): live for live in self.network.live_nodes()
            }
            node = self._names.get(name)
        if node is None or not node.alive:
            raise ServiceError(
                f"unknown or dead node {name!r}", code="unknown_node"
            )
        return node

    def _is_local(self, name: str) -> bool:
        return name in self._hosted_set

    def _hosted(self, name: str) -> str:
        """``name``, which must be one of this server's nodes."""
        if not self._is_local(name):
            raise ServiceError(
                f"node {name!r} is not hosted by this server",
                code="not_hosted",
            )
        return name

    # ------------------------------------------------------------------
    # the recursive lookup driver
    # ------------------------------------------------------------------

    async def _start_operation(
        self, op: str, payload: Dict[str, object]
    ) -> Dict[str, object]:
        key = payload.get("key")
        if not isinstance(key, str):
            raise ServiceError("operation requires a string 'key'")
        source_name = self._hosted(
            str(payload.get("source") or self.hosted[0])
        )
        source = self._resolve(source_name)
        network = self.network
        network.fault_detection = False
        key_id = network.key_id(key)
        state = network.begin_route(source, key_id)
        continuation: Dict[str, object] = {
            "op": op,
            "key": key,
            "value": payload.get("value"),
            "lookup": payload.get("lookup"),
            "current": source_name,
            "stage": "route",
            "failed": False,
            "hops": 0,
            "timeouts": 0,
            "path": [str(source.name)],
            "phases": dict.fromkeys(network.ROUTING_PHASES, 0),
            "trace": [],
            "model_ms": 0.0,
        }
        return await self._drive(continuation, source, key_id, state)

    async def _continue_operation(
        self, continuation: Dict[str, object]
    ) -> Dict[str, object]:
        """A forwarded hop landed here: the sender already charged the
        hop (count, phase, path, trace); this server records the visit
        at its node and carries on per the continuation's stage."""
        network = self.network
        network.fault_detection = False
        op = continuation.get("op")
        if op not in _KNOWN_OPS:
            # Coded reply instead of the KeyError traceback a malformed
            # continuation would otherwise hit further down.
            raise ServiceError(
                f"STEP continuation names unknown operation {op!r} "
                f"(known: {', '.join(sorted(_KNOWN_OPS))})",
                code="unknown_operation",
            )
        if not isinstance(continuation.get("key"), str):
            raise ServiceError(
                "STEP continuation requires a string 'key'",
                code="bad_request",
            )
        hops = continuation.get("hops")
        if isinstance(hops, int) and hops > network.HOP_LIMIT:
            raise ServiceError(
                f"STEP continuation claims {hops} hops, above the "
                f"{network.HOP_LIMIT}-hop limit",
                code="hop_limit",
            )
        current_name = str(continuation["current"])
        if not self._is_local(current_name):
            raise ServiceError(
                f"misrouted step: {current_name!r} is not hosted here",
                code="misrouted",
            )
        current = self._resolve(current_name)
        key_id = network.key_id(continuation["key"])
        state = network.unpack_route_state(continuation.get("state"), key_id)
        network._record_visit(current)
        return await self._drive(continuation, current, key_id, state)

    async def _drive(
        self,
        continuation: Dict[str, object],
        current: Node,
        key_id: object,
        state: object,
    ) -> Dict[str, object]:
        """Run the engine-equivalent driver loop from ``current`` until
        the lookup terminates locally or hops to another server."""
        network = self.network
        limit = network.HOP_LIMIT
        hops = int(continuation["hops"])
        timeouts = int(continuation["timeouts"])
        phases: Dict[str, int] = continuation["phases"]
        path: List[str] = continuation["path"]
        trace: List[Dict[str, object]] = continuation["trace"]
        failed = bool(continuation["failed"])
        latency = self.latency
        total_ms = float(continuation.get("model_ms", 0.0))

        stage = continuation["stage"]
        while stage in ("route", "finish"):
            if stage == "route" and hops < limit:
                decision, advance_timeouts = step_route(
                    network, current, key_id, state
                )
                timeouts += advance_timeouts + decision.timeouts
                if decision.node is None:
                    failed = decision.failed
                    stage = "finish"
                    continue
                after = "finish" if decision.terminal else "route"
            else:
                # The walk has stopped at ``current``; a protocol may
                # owe one final delivery hop (Cycloid's best-observed
                # handoff), exactly as the engine runs it — including
                # after a HOP_LIMIT exhaustion.
                decision = network.finish_route(current, key_id, state)
                if decision is None or decision.node is None:
                    break
                timeouts += decision.timeouts
                after = "final"
            node = decision.node
            hops += 1
            phases[decision.phase] = phases.get(decision.phase, 0) + 1
            name = str(node.name)
            path.append(name)
            event: Dict[str, object] = {
                "hop": hops,
                "node": name,
                "phase": decision.phase,
                "timeouts": decision.timeouts,
            }
            if latency is not None:
                hop_ms = latency.delay_ms(str(current.name), name)
                total_ms += hop_ms
                event["model_ms"] = hop_ms
                continuation["model_ms"] = total_ms
                if hop_ms > 0.0:
                    await asyncio.sleep(hop_ms / 1000.0)
            trace.append(event)
            if not self._is_local(name):
                continuation.update(
                    current=name,
                    stage=after,
                    failed=failed,
                    hops=hops,
                    timeouts=timeouts,
                    state=network.pack_route_state(state),
                )
                return await self._forward(name, continuation)
            network._record_visit(node)
            current = node
            stage = after

        return await self._finalize(
            continuation, current, key_id, hops, timeouts, failed
        )

    async def _peer_request(
        self,
        address: Address,
        kind: MessageType,
        payload: Dict[str, object],
        context: str,
    ) -> Dict[str, object]:
        """One server-to-server RPC over the (cached) peer connection.

        Transport failures surface as retryable ``step_failed`` service
        errors — mid-churn the peer may have just crashed, and the
        caller's retry lands after lazy repair rerouted around it.  A
        peer ``ERROR`` reply is re-raised under the peer's own code.
        """
        # Concurrent handlers must not race one address: the loser's
        # connection (and its reader task) would leak.
        async with self._peer_lock:
            peer = self._peers.get(address)
            if peer is None or not peer.connected:
                peer = RpcConnection(*address, self.max_payload)
                await peer.connect()
                self._peers[address] = peer
        try:
            reply = await peer.request(kind, payload, self.timeout)
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            raise ServiceError(
                f"{kind.name.lower()} to {address[0]}:{address[1]} "
                f"({context}) failed: {exc}",
                code="step_failed",
            ) from exc
        if reply.kind == MessageType.ERROR:
            raise ServiceError(
                str(reply.payload.get("error", "peer error")),
                code=str(reply.payload.get("code", "internal")),
            )
        return reply.payload

    def _address_of(self, name: str) -> Address:
        entry = self.directory.get(name)
        if entry is None:
            raise ServiceError(
                f"no server in the directory hosts {name!r}",
                code="unknown_node",
            )
        return (str(entry[0]), int(entry[1]))

    async def _forward(
        self, name: str, continuation: Dict[str, object]
    ) -> Dict[str, object]:
        """Hand the continuation to the server hosting ``name`` and
        relay its final reply back down the chain."""
        self.steps_forwarded += 1
        return await self._peer_request(
            self._address_of(name), MessageType.STEP, continuation, name
        )

    # ------------------------------------------------------------------
    # the replicated data plane (S24)
    # ------------------------------------------------------------------

    def _holder_names(self, key: str) -> List[str]:
        """The key's current replica set, as node names."""
        return [
            str(node.name)
            for node in replica_set(self.network, key, self.replicas)
        ]

    async def _store_at(self, name: str, key: str, value: object) -> bool:
        """Store one pair on ``name``'s shelf, wherever it is hosted.

        Returns ``True`` when this created a **new** copy (the pair was
        not already there), ``False`` when it merely overwrote one.
        """
        if self._is_local(name):
            existed, _ = self.storage.get(name, key)
            self.storage.put(name, key, value)
            return not existed
        reply = await self._peer_request(
            self._address_of(name),
            MessageType.REPLICATE,
            {"node": name, "key": key, "value": value},
            name,
        )
        return not bool(reply.get("existed"))

    async def _fetch_at(self, name: str, key: str) -> Tuple[bool, object]:
        """Read one pair from ``name``'s shelf, wherever it is hosted."""
        if self._is_local(name):
            return self.storage.get(name, key)
        reply = await self._peer_request(
            self._address_of(name),
            MessageType.FETCH,
            {"node": name, "key": key},
            name,
        )
        return bool(reply.get("found")), reply.get("value")

    async def _replicate_pair(
        self, primary: str, key: str, value: object
    ) -> int:
        """Push ``key`` to its replica set beyond ``primary``.

        Holders that die between computing the set and pushing are
        tolerated (the set is recomputed once); the pair is acked as
        long as the primary copy exists.  Returns copies pushed.
        """
        if self.replicas == 1:
            return 0
        pushed = 0
        for attempt in range(2):
            failed = False
            for holder in self._holder_names(key):
                if holder == primary:
                    continue
                try:
                    if await self._store_at(holder, key, value):
                        pushed += 1
                except ServiceError:
                    failed = True
            if not failed:
                break
        self.replica_pushes += pushed
        return pushed

    async def _finalize(
        self,
        continuation: Dict[str, object],
        current: Node,
        key_id: object,
        hops: int,
        timeouts: int,
        failed: bool,
    ) -> Dict[str, object]:
        network = self.network
        owner = network.cached_owner_of_id(key_id)
        current_name = str(current.name)
        success = (not failed) and current_name == str(owner.name)
        result: Dict[str, object] = {
            "op": continuation["op"],
            "key": continuation["key"],
            "lookup": continuation["lookup"],
            "owner": current_name,
            "hops": hops,
            "timeouts": timeouts,
            "success": success,
            "failed": failed,
            "path": continuation["path"],
            "phases": continuation["phases"],
            "trace": continuation["trace"],
        }
        if self.latency is not None:
            result["model_ms"] = float(continuation.get("model_ms", 0.0))
        key = continuation["key"]
        if continuation["op"] == "put":
            self.storage.put(current_name, key, continuation["value"])
            result["stored"] = True
            result["replicas"] = 1 + await self._replicate_pair(
                current_name, key, continuation["value"]
            )
        elif continuation["op"] == "get":
            found, value = self.storage.get(current_name, key)
            if not found and self.replicas > 1:
                found, value = await self._read_repair(current_name, key)
                result["repaired"] = found
            result["found"] = found
            result["value"] = value
        return result

    async def _read_repair(
        self, primary: str, key: str
    ) -> Tuple[bool, object]:
        """The routed-to node lost ``key``: probe the replica set and,
        on a hit, restore the primary copy (plus any other holder the
        probe found missing) before answering."""
        for holder in self._holder_names(key):
            if holder == primary:
                continue
            try:
                found, value = await self._fetch_at(holder, key)
            except ServiceError:
                continue  # that holder just died; try the next one
            if found:
                self.read_repairs += 1
                self.storage.put(primary, key, value)
                await self._replicate_pair(primary, key, value)
                return True, value
        return False, None

    # ------------------------------------------------------------------
    # membership + health
    # ------------------------------------------------------------------

    def _handle_ping(self) -> Dict[str, object]:
        return {
            "pong": True,
            "version": PROTOCOL_VERSION,
            "hosted": len(self.hosted),
            "network_size": self.network.size,
            "stored_pairs": self.storage.total_pairs(),
            "rpcs_served": self.rpcs_served,
            "frames_rejected": self.frames_rejected,
            "replicas": self.replicas,
            "replica_pushes": self.replica_pushes,
            "read_repairs": self.read_repairs,
            "steps_forwarded": self.steps_forwarded,
        }

    def _required_name(self, payload: Dict[str, object], verb: str) -> str:
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ServiceError(
                f"{verb} requires a non-empty string 'name'",
                code="bad_request",
            )
        return name

    def _retiree(self, payload: Dict[str, object], verb: str) -> Node:
        """The hosted node a LEAVE or CRASH names; a server keeps at
        least one node."""
        name = self._hosted(self._required_name(payload, verb))
        if len(self.hosted) == 1:
            raise ServiceError(
                f"refusing to {verb.lower()} this server's last hosted node",
                code="bad_request",
            )
        return self._resolve(name)

    def _forget(self, name: str) -> int:
        """Drop a departed node from this server; returns the pairs its
        shelf held."""
        self.hosted.remove(name)
        self._hosted_set.discard(name)
        self._names.pop(name, None)
        self.directory.pop(name, None)
        return self.storage.drop_node(name)

    async def _handle_join(
        self, payload: Dict[str, object]
    ) -> Dict[str, object]:
        name = self._required_name(payload, "JOIN")
        try:
            node = self.network.join(name)
        except Exception as exc:
            raise ServiceError(
                f"join failed: {exc}", code="membership_failed"
            ) from exc
        joined = str(node.name)
        self.hosted.append(joined)
        self._hosted_set.add(joined)
        self._names[joined] = node
        if self._address is not None:
            # Visible to every service sharing this directory object.
            self.directory[joined] = list(self._address)
        # The newcomer now owns (and replicates) keys that currently
        # sit on other shelves: hand them over cluster-wide.
        repushed, dropped = await self._repair_cluster()
        return {
            "joined": joined,
            "network_size": self.network.size,
            "repushed_pairs": repushed,
            "dropped_copies": dropped,
        }

    async def _handle_leave(
        self, payload: Dict[str, object]
    ) -> Dict[str, object]:
        node = self._retiree(payload, "LEAVE")
        name = str(node.name)
        # Snapshot the leaver's shelf before the membership change so
        # its pairs can be pushed to their *new* replica sets after it.
        shelf = [
            (key, self.storage.get(name, key)[1])
            for key in self.storage.keys_on(name)
        ]
        try:
            self.network.leave(node)
        except Exception as exc:
            raise ServiceError(
                f"leave failed: {exc}", code="membership_failed"
            ) from exc
        dropped = self._forget(name)
        # Graceful handover: the leaver pushes every pair it held to
        # the pair's post-departure replica set before disappearing.
        rehomed = 0
        for key, value in shelf:
            for holder in self._holder_names(key):
                try:
                    if await self._store_at(holder, key, value):
                        rehomed += 1
                except ServiceError:
                    pass  # surviving copies still cover the pair
        repushed, _ = await self._repair_cluster()
        return {
            "left": name,
            "network_size": self.network.size,
            "dropped_pairs": dropped,
            "rehomed_copies": rehomed,
            "repushed_pairs": repushed,
        }

    async def _handle_crash(
        self, payload: Dict[str, object]
    ) -> Dict[str, object]:
        """Ungraceful kill of one hosted virtual node (S24).

        The node vanishes via :meth:`Network.fail` — no notifications,
        no data handover; its shelf (and every un-replicated pair on
        it) is lost, exactly like a process kill.  The server then (1)
        heals routing state by running every surviving node's
        :meth:`Network.on_dead_entry` lazy repair against the corpse
        and (2) restores the replica invariant with a cluster-wide
        repair fan-out; the reply reports how long that window was.
        """
        node = self._retiree(payload, "CRASH")
        name = str(node.name)
        started = time.perf_counter()
        try:
            self.network.fail(node)
        except Exception as exc:
            raise ServiceError(
                f"crash failed: {exc}", code="membership_failed"
            ) from exc
        lost_pairs = self._forget(name)
        # Lazy route repair, driven eagerly: every surviving node gets
        # the on_dead_entry treatment the engine applies on a timeout.
        route_repairs = 0
        for observer in self.network.live_nodes():
            route_repairs += self.network.on_dead_entry(observer, node)
        repushed, dropped = await self._repair_cluster()
        return {
            "crashed": name,
            "network_size": self.network.size,
            "lost_pairs": lost_pairs,
            "route_repairs": route_repairs,
            "repushed_pairs": repushed,
            "dropped_copies": dropped,
            "repair_ms": (time.perf_counter() - started) * 1000.0,
        }

    # ------------------------------------------------------------------
    # replica transport + active rereplication
    # ------------------------------------------------------------------

    def _shelf_target(
        self, payload: Dict[str, object], verb: str
    ) -> Tuple[str, str]:
        """The hosted ``node`` and the string ``key`` a REPLICATE or
        FETCH names."""
        name = payload.get("node")
        if not isinstance(name, str) or not name:
            raise ServiceError(
                f"{verb} requires a non-empty string 'node'",
                code="bad_request",
            )
        self._hosted(name)
        key = payload.get("key")
        if not isinstance(key, str):
            raise ServiceError(
                f"{verb} requires a string 'key'", code="bad_request"
            )
        return name, key

    def _handle_replicate(
        self, payload: Dict[str, object]
    ) -> Dict[str, object]:
        name, key = self._shelf_target(payload, "REPLICATE")
        existed, _ = self.storage.get(name, key)
        self.storage.put(name, key, payload.get("value"))
        return {"stored": True, "existed": existed}

    def _handle_fetch(self, payload: Dict[str, object]) -> Dict[str, object]:
        name, key = self._shelf_target(payload, "FETCH")
        found, value = self.storage.get(name, key)
        return {"found": found, "value": value}

    async def _handle_repair(
        self, payload: Dict[str, object]
    ) -> Dict[str, object]:
        repushed, dropped = await self._repair_shard()
        return {"repushed_pairs": repushed, "dropped_copies": dropped}

    async def _repair_shard(self) -> Tuple[int, int]:
        """Active rereplication over this server's shard.

        Every stored pair is pushed to its *current* replica set; a
        copy sitting on a node that is no longer a holder is dropped —
        but only once every push for that pair succeeded, so a failed
        push can degrade a pair to extra copies, never to fewer.
        Returns ``(copies pushed, stale copies dropped)``.
        """
        pushed = dropped = 0
        for shelf_owner in list(self._hosted_set):
            for key in self.storage.keys_on(shelf_owner):
                found, value = self.storage.get(shelf_owner, key)
                if not found:  # dropped by a concurrent repair
                    continue
                holders = self._holder_names(key)
                complete = True
                for holder in holders:
                    if holder == shelf_owner:
                        continue
                    try:
                        if await self._store_at(holder, key, value):
                            pushed += 1
                    except ServiceError:
                        complete = False
                if complete and shelf_owner not in holders:
                    self.storage.drop_pair(shelf_owner, key)
                    dropped += 1
        self.replica_pushes += pushed
        return pushed, dropped

    async def _repair_cluster(self) -> Tuple[int, int]:
        """Run :meth:`_repair_shard` here and on every peer server.

        Peer failures are tolerated (a peer that just crashed has no
        shard left to repair); the fan-out is what bounds the
        under-replication window after churn.
        """
        repushed, dropped = await self._repair_shard()
        own = self._address
        peers = sorted(
            {
                (str(host), int(port))
                for host, port in self.directory.values()
            }
        )
        for address in peers:
            if own is not None and address == own:
                continue
            try:
                reply = await self._peer_request(
                    address, MessageType.REPAIR, {}, "repair"
                )
            except ServiceError:
                continue
            repushed += int(reply.get("repushed_pairs", 0))
            dropped += int(reply.get("dropped_copies", 0))
        return repushed, dropped


async def _read(reader: asyncio.StreamReader, max_payload: int):
    # Local indirection so tests can exercise _serve_connection's error
    # paths through the public codec entry point.
    from repro.net.codec import read_frame

    return await read_frame(reader, max_payload)

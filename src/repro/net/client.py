"""Cluster client: multiplexed RPC connections with budgeted retries.

:class:`RpcConnection` is the transport primitive shared by clients and
servers (peer forwarding): one TCP connection carrying many in-flight
frames, matched to awaiting callers by rpc id.  :class:`ClusterClient`
layers the cluster operations on top — it resolves which server hosts a
node through the cluster directory, applies a per-RPC timeout, and
retries failed attempts under the shared
:class:`~repro.sim.faults.RetryPolicy`: the budget has exactly the
lookup engine's ``retry_budget`` semantics (continuations after a
failure; exhausted budget fails the operation), with capped exponential
backoff standing in for the engine's zero-cost simulated re-probes.

All cluster operations (LOOKUP/PUT/GET) are idempotent, so re-sending
after a timeout is safe by construction.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.net.codec import (
    Frame,
    FrameError,
    MAX_PAYLOAD,
    MessageType,
    error_is_retryable,
    read_frame,
    write_frame,
)
from repro.sim.faults import RetryPolicy

__all__ = ["ClusterError", "RpcConnection", "ClusterClient"]

Address = Tuple[str, int]


class ClusterError(RuntimeError):
    """A cluster operation failed (server error, or retry budget spent).

    ``code`` is the server's machine-readable classification
    (:data:`repro.net.codec.ERROR_CODES`); ``transport`` marks the two
    client-side exhaustion cases (``rpc_failed`` after the retry budget,
    ``unknown_node`` from a directory miss).  ``retryable`` says whether
    re-issuing the operation could succeed — churn-aware callers branch
    on it instead of string-matching the message.
    """

    def __init__(self, message: str, code: str = "rpc_failed") -> None:
        super().__init__(message)
        self.code = code

    @property
    def retryable(self) -> bool:
        return error_is_retryable(self.code)


class RpcConnection:
    """One multiplexed frame connection to a node server.

    Requests are written under a lock (frames must not interleave on the
    stream); replies are dispatched to awaiting futures by rpc id from a
    single background reader task, so any number of requests can be in
    flight concurrently.
    """

    def __init__(
        self, host: str, port: int, max_payload: int = MAX_PAYLOAD
    ) -> None:
        self.host = host
        self.port = port
        self.max_payload = max_payload
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._send_lock = asyncio.Lock()
        self._pending: Dict[int, asyncio.Future] = {}
        self._rpc_ids = itertools.count(1)
        self._closed = False

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._closed

    async def connect(self) -> "RpcConnection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._closed = False
        self._reader_task = asyncio.create_task(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                frame = await read_frame(self._reader, self.max_payload)
                future = self._pending.pop(frame.rpc, None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            FrameError,
            OSError,
        ) as exc:
            self._fail_pending(exc)
        except asyncio.CancelledError:
            self._fail_pending(ConnectionResetError("connection closed"))
            raise

    def _fail_pending(self, exc: Exception) -> None:
        self._closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ConnectionResetError(f"connection lost: {exc}")
                )

    async def request(
        self,
        kind: MessageType,
        payload: Dict[str, object],
        timeout: Optional[float] = None,
    ) -> Frame:
        """Send one request and await its reply frame.

        Raises ``asyncio.TimeoutError`` when the reply does not arrive
        in ``timeout`` seconds and ``ConnectionError`` when the
        connection drops with the request in flight.
        """
        if not self.connected:
            raise ConnectionResetError("connection is closed")
        rpc = next(self._rpc_ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rpc] = future
        try:
            async with self._send_lock:
                write_frame(
                    self._writer, kind, rpc, payload, self.max_payload
                )
                await self._writer.drain()
            return await asyncio.wait_for(future, timeout)
        finally:
            self._pending.pop(rpc, None)

    async def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._fail_pending(ConnectionResetError("closed"))


class ClusterClient:
    """Client for a running node-server cluster.

    ``directory`` maps node name -> ``(host, port)`` of the server
    hosting it (a :class:`~repro.net.cluster.LocalCluster` hands out its
    live directory, so joins done through any client become visible to
    all of them).  Each operation result is the server's reply payload
    plus an ``"rpc"`` key carrying the rpc id the winning attempt used —
    the id that tags the live trace lines.
    """

    def __init__(
        self,
        directory: Mapping[str, Sequence[object]],
        retry: Optional[RetryPolicy] = None,
        timeout: float = 5.0,
        max_payload: int = MAX_PAYLOAD,
    ) -> None:
        self.directory = directory
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self.max_payload = max_payload
        self._connections: Dict[Address, RpcConnection] = {}
        self._connect_lock = asyncio.Lock()
        #: total attempts that failed and were retried (telemetry).
        self.retries = 0

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def address_of(self, name: str) -> Address:
        try:
            host, port = self.directory[name]
        except KeyError:
            raise ClusterError(
                f"no server hosts node {name!r}", code="unknown_node"
            ) from None
        return str(host), int(port)

    def addresses(self) -> Tuple[Address, ...]:
        """Every distinct server address, in stable order."""
        return tuple(
            sorted({(str(h), int(p)) for h, p in self.directory.values()})
        )

    async def _connection(self, address: Address) -> RpcConnection:
        # Serialised: two concurrent requests to one address must share
        # a connection, not orphan the race loser's reader task.
        async with self._connect_lock:
            connection = self._connections.get(address)
            if connection is None or not connection.connected:
                connection = RpcConnection(*address, self.max_payload)
                await connection.connect()
                self._connections[address] = connection
            return connection

    async def _drop(self, address: Address) -> None:
        connection = self._connections.pop(address, None)
        if connection is not None:
            await connection.close()

    async def _request(
        self,
        address: Address,
        kind: MessageType,
        payload: Dict[str, object],
    ) -> Dict[str, object]:
        """One RPC under the retry policy; returns the reply payload
        with the rpc id attached."""
        attempt = 0
        while True:
            try:
                connection = await self._connection(address)
                frame = await connection.request(kind, payload, self.timeout)
            except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
                await self._drop(address)
                if attempt >= self.retry.budget:
                    raise ClusterError(
                        f"{kind.name} to {address[0]}:{address[1]} failed "
                        f"after {attempt + 1} attempts "
                        f"(retry budget {self.retry.budget}): {exc}",
                        code="rpc_failed",
                    ) from exc
                await asyncio.sleep(self.retry.delay(attempt))
                attempt += 1
                self.retries += 1
                continue
            if frame.kind == MessageType.ERROR:
                code = str(frame.payload.get("code", "internal"))
                message = str(
                    frame.payload.get("error", "unspecified server error")
                )
                # A *retryable* coded error (e.g. step_failed while a
                # peer's crash is being repaired) spends retry budget
                # like a transport failure; fatal codes fail at once.
                if error_is_retryable(code) and attempt < self.retry.budget:
                    await asyncio.sleep(self.retry.delay(attempt))
                    attempt += 1
                    self.retries += 1
                    continue
                raise ClusterError(message, code=code)
            result = dict(frame.payload)
            result["rpc"] = frame.rpc
            return result

    # ------------------------------------------------------------------
    # cluster operations
    # ------------------------------------------------------------------

    async def lookup(
        self, key: str, source: str, lookup_id: Optional[int] = None
    ) -> Dict[str, object]:
        """Route a lookup for ``key`` from the virtual node ``source``."""
        payload: Dict[str, object] = {"key": key, "source": source}
        if lookup_id is not None:
            payload["lookup"] = lookup_id
        return await self._request(
            self.address_of(source), MessageType.LOOKUP, payload
        )

    async def put(
        self, key: str, value: object, source: str
    ) -> Dict[str, object]:
        """Route from ``source`` to the key's owner and store there."""
        return await self._request(
            self.address_of(source),
            MessageType.PUT,
            {"key": key, "value": value, "source": source},
        )

    async def get(self, key: str, source: str) -> Dict[str, object]:
        """Route from ``source`` to the key's owner and read the value."""
        return await self._request(
            self.address_of(source),
            MessageType.GET,
            {"key": key, "source": source},
        )

    async def ping(self, address: Address) -> Dict[str, object]:
        """Health-check one server directly by address."""
        return await self._request(
            (str(address[0]), int(address[1])), MessageType.PING, {}
        )

    async def join(self, name: str, via: str) -> Dict[str, object]:
        """Join a new virtual node, hosted by the server that holds
        ``via``; the cluster directory gains the newcomer."""
        return await self._request(
            self.address_of(via), MessageType.JOIN, {"name": name}
        )

    async def leave(self, name: str) -> Dict[str, object]:
        """Gracefully retire the virtual node ``name`` from its server."""
        return await self._request(
            self.address_of(name), MessageType.LEAVE, {"name": name}
        )

    async def crash(self, name: str) -> Dict[str, object]:
        """Ungracefully kill the virtual node ``name`` (S24): no
        notifications, no data handover — the churn harness's kill
        switch.  The reply carries the repair telemetry (lost pairs,
        route repairs, rereplication pushes, repair window)."""
        return await self._request(
            self.address_of(name), MessageType.CRASH, {"name": name}
        )

    async def close(self) -> None:
        connections, self._connections = self._connections, {}
        for connection in connections.values():
            await connection.close()

    async def __aenter__(self) -> "ClusterClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

"""LocalCluster: boot a built overlay as real servers on loopback.

The harness behind ``repro serve`` and the self-hosting mode of
``repro loadgen``: it splits a :class:`~repro.dht.base.Network`'s live
nodes across ``servers`` :class:`NodeService` instances by *arc
placement* — each server hosts one contiguous run of identifier order
(``live_nodes()`` order) — binds each to an OS-assigned loopback port,
and publishes one shared *directory* (node name -> ``[host, port]``)
that every service and every :class:`~repro.net.client.ClusterClient`
resolves through.  Overlay routing is local in identifier space (a
Cycloid hop moves to an adjacent cycle or fixes one cubical bit below
a shared prefix), so most hops stay on one server and a lookup crosses
the wire only where its route leaves that server's arc.  Because the
directory is one dict object shared by all services, a JOIN handled by
any server is immediately routable from everywhere.

A running cluster can describe itself as a *spec* — a JSON document
carrying the directory plus the deterministic build recipe (protocol,
dimension/count, seed).  ``repro serve`` writes the spec to disk so a
separately-launched ``repro loadgen --cluster-file`` can both attach to
the live servers **and** rebuild the identical network locally for
hop-path parity checking.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Sequence

from repro.dht.base import Network
from repro.net.client import ClusterClient, MAX_PAYLOAD
from repro.net.server import NodeService
from repro.sim.faults import RetryPolicy
from repro.sim.latency import LatencyModel

__all__ = ["SPEC_SCHEMA", "LocalCluster", "load_spec", "serve_forever"]

#: Schema tag of the cluster spec document.
SPEC_SCHEMA = "repro/cluster-spec/v1"


class LocalCluster:
    """``servers`` asyncio node servers jointly hosting ``network``.

    Server ``i`` of ``s`` hosts ``names[i*n//s : (i+1)*n//s]`` of the
    ``n`` live names in identifier order, so arcs differ in size by at
    most one; ``servers`` is clamped to ``n``.  Placement never moves
    a hop path (routing depends only on the overlay), only which hops
    are STEP frames between servers.

    ``build`` (optional) is the deterministic recipe the network was
    built from — e.g. ``{"protocol": "cycloid", "dimension": 4,
    "seed": 42}`` — embedded verbatim in :meth:`spec` so attaching
    tools can reconstruct the same overlay.
    """

    def __init__(
        self,
        network: Network,
        servers: int = 4,
        host: str = "127.0.0.1",
        max_payload: int = MAX_PAYLOAD,
        timeout: float = 10.0,
        build: Optional[Dict[str, object]] = None,
        replicas: int = 1,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        if servers < 1:
            raise ValueError("a cluster needs at least one server")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        names = [str(node.name) for node in network.live_nodes()]
        if not names:
            raise ValueError("network has no live nodes to serve")
        servers = min(servers, len(names))
        count = len(names)
        partitions = [
            names[index * count // servers:(index + 1) * count // servers]
            for index in range(servers)
        ]
        self.network = network
        self.build = dict(build) if build else {}
        self.replicas = replicas
        #: the shared link-delay model every service sleeps by (§S25).
        self.latency = latency
        #: node name -> [host, port]; one dict shared by every service.
        self.directory: Dict[str, Sequence[object]] = {}
        self.services: List[NodeService] = [
            NodeService(
                network,
                partition,
                host,
                max_payload=max_payload,
                timeout=timeout,
                replicas=replicas,
                latency=latency,
            )
            for partition in partitions
        ]
        for service in self.services:
            service.directory = self.directory
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "LocalCluster":
        for service in self.services:
            await service.start()
            for name in service.hosted:
                self.directory[name] = list(service.address)
        self._started = True
        return self

    async def stop(self) -> None:
        for service in self.services:
            await service.stop()
        self._started = False

    async def __aenter__(self) -> "LocalCluster":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    @property
    def addresses(self) -> List[Sequence[object]]:
        """The distinct server addresses, service order."""
        return [list(service.address) for service in self.services]

    def client(
        self,
        retry: Optional[RetryPolicy] = None,
        timeout: float = 5.0,
    ) -> ClusterClient:
        """A client resolving through this cluster's live directory."""
        if not self._started:
            raise RuntimeError("cluster is not started")
        return ClusterClient(self.directory, retry=retry, timeout=timeout)

    # ------------------------------------------------------------------
    # spec
    # ------------------------------------------------------------------

    def spec(self) -> Dict[str, object]:
        """The attachable description of this running cluster."""
        if not self._started:
            raise RuntimeError("cluster is not started")
        spec: Dict[str, object] = {
            "schema": SPEC_SCHEMA,
            "build": dict(self.build),
            "servers": len(self.services),
            "replicas": self.replicas,
            "nodes": len(self.directory),
            "directory": {
                name: list(address)
                for name, address in sorted(self.directory.items())
            },
        }
        if self.latency is not None:
            spec["latency"] = self.latency.to_config()
        return spec

    def write_spec(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.spec(), stream, indent=2, sort_keys=True)
            stream.write("\n")


def load_spec(path: str) -> Dict[str, object]:
    """Read and validate a cluster spec written by :meth:`write_spec`."""
    with open(path, "r", encoding="utf-8") as stream:
        spec = json.load(stream)
    if not isinstance(spec, dict) or spec.get("schema") != SPEC_SCHEMA:
        raise ValueError(
            f"{path!r} is not a {SPEC_SCHEMA} cluster spec"
        )
    directory = spec.get("directory")
    if not isinstance(directory, dict) or not directory:
        raise ValueError(f"cluster spec {path!r} has no directory")
    return spec


async def serve_forever(
    cluster: LocalCluster, lifetime: Optional[float] = None
) -> None:
    """Run a started cluster until cancelled (or for ``lifetime`` s)."""
    try:
        if lifetime is not None:
            await asyncio.sleep(lifetime)
        else:
            await asyncio.Event().wait()
    except asyncio.CancelledError:
        pass

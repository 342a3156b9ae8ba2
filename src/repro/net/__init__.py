"""Live cluster serving layer (DESIGN S22).

Turns any built :class:`~repro.dht.base.Network` into a running cluster
of asyncio node servers on loopback:

* :mod:`repro.net.codec` — the versioned, length-prefixed wire protocol
  (JOIN/LOOKUP/PUT/GET/PING/LEAVE frames, size limits, malformed-frame
  rejection);
* :mod:`repro.net.server` — :class:`NodeService`, one asyncio server
  hosting a partition of the overlay's virtual nodes and routing
  lookups recursively hop-by-hop via the overlay's ``next_hop`` step
  functions;
* :mod:`repro.net.client` — :class:`ClusterClient` with timeouts and
  budgeted exponential-backoff retries
  (:class:`repro.sim.faults.RetryPolicy`);
* :mod:`repro.net.cluster` — :class:`LocalCluster`, the bootstrap /
  shutdown harness behind ``repro serve``;
* :mod:`repro.net.loadgen` — the one load driver behind ``repro
  loadgen`` (closed loop, digest-checked) and ``repro churnstorm``
  (open loop under churn), writing ``BENCH_net.json``.
"""

from repro.net.client import ClusterClient, ClusterError, RpcConnection
from repro.net.cluster import LocalCluster
from repro.net.codec import (
    FrameError,
    MessageType,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
)
from repro.net.loadgen import run_loadgen
from repro.net.server import NodeService, ServiceError

__all__ = [
    "ClusterClient",
    "ClusterError",
    "FrameError",
    "LocalCluster",
    "MessageType",
    "NodeService",
    "PROTOCOL_VERSION",
    "RpcConnection",
    "ServiceError",
    "decode_frame",
    "encode_frame",
    "run_loadgen",
]

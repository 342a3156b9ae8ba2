"""Exact path-length oracles: every (source, key id) pair on the
complete Cycloid network, on both lookup backends.

Routing all pairs makes the hop total a property of the algorithm on
that network rather than of a sampled workload, so these pins hold the
routing code to fixed numbers without relying on any stored digest.
Dimensions 6 and 7 (147,456 and 802,816 pairs) run in CI via
``benchmarks/exhaustive_oracle.py``.
"""

import pytest

from repro.core import CycloidNetwork
from repro.dht.kernel import run_lookup_batch


@pytest.mark.parametrize("backend", ["object", "columnar"])
@pytest.mark.parametrize(
    "dimension, pairs, hops", [(4, 4_096, 15_104), (5, 25_600, 124_880)]
)
def test_every_pair_resolves_with_exact_hop_total(
    dimension, pairs, hops, backend
):
    network = CycloidNetwork.complete(dimension)
    nodes = network.live_nodes()
    records = run_lookup_batch(
        network,
        [(source, key.id) for source in nodes for key in nodes],
        backend=backend,
        hashed=True,
    )
    assert len(records) == pairs
    assert all(record.success for record in records)
    assert sum(record.hops for record in records) == hops

"""Exhaustive Cycloid lookup oracle on the complete network.

Routes every ``(source node, key id)`` pair of
``CycloidNetwork.complete(d)`` — ``(d * 2^d)^2`` lookups — and checks
that every lookup reaches the key's owner and that the hop total equals
the pinned one.  Every pair is routed, so the total is a property of
the routing algorithm on that network, not of a sampled workload or of
a stored digest.  Dimensions 4 and 5 run in tier-1
(``tests/core/test_exhaustive_oracle.py``); dimension 6 (147,456
lookups) runs in CI through this script.

Usage::

    PYTHONPATH=src python benchmarks/exhaustive_oracle.py --dimension 6 --backend object
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import CycloidNetwork
from repro.dht.kernel import run_lookup_batch

#: dimension -> total hops over all (source, key id) pairs.
HOP_TOTALS = {4: 15_104, 5: 124_880, 6: 910_104}


def route_all_pairs(dimension: int, backend: str):
    """Records of every (source, key id) lookup on the complete network."""
    network = CycloidNetwork.complete(dimension)
    nodes = network.live_nodes()
    pairs = [(source, key.id) for source in nodes for key in nodes]
    return run_lookup_batch(network, pairs, backend=backend, hashed=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dimension", type=int, default=6, choices=sorted(HOP_TOTALS)
    )
    parser.add_argument(
        "--backend", default="object", choices=("object", "columnar")
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    records = route_all_pairs(args.dimension, args.backend)
    elapsed = time.perf_counter() - started
    hops = sum(record.hops for record in records)
    failures = sum(1 for record in records if not record.success)
    expected = HOP_TOTALS[args.dimension]
    print(
        f"d={args.dimension} backend={args.backend}: {len(records)} pairs, "
        f"{hops} hops (mean {hops / len(records)!r}), {failures} failed, "
        f"{elapsed:.1f}s"
    )
    if failures or hops != expected:
        print(f"FAIL: expected {expected} hops and no failures", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Exhaustive Cycloid lookup oracle on the complete network.

Routes every ``(source node, key id)`` pair of
``CycloidNetwork.complete(d)`` — ``(d * 2^d)^2`` lookups — and checks
that every lookup reaches the key's owner and that the hop total equals
the pinned one.  Every pair is routed, so the total is a property of
the routing algorithm on that network, not of a sampled workload or of
a stored digest.  Dimensions 4 and 5 run in tier-1
(``tests/core/test_exhaustive_oracle.py``); dimensions 6 and 7 run in CI
through this script.

The ``object`` backend routes record by record through the object
engine.  The ``columnar`` backend compiles the kernel once and routes
the pairs in batches through ``CycloidKernel.run_linear``: node-index
sources, linear-id keys, array results and no records, which is what
makes d=7 (802,816 pairs) take seconds.

Usage::

    PYTHONPATH=src python benchmarks/exhaustive_oracle.py --dimension 6 --backend object
    PYTHONPATH=src python benchmarks/exhaustive_oracle.py --dimension 7 --backend columnar
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Tuple

import numpy as np

from repro.core import CycloidNetwork
from repro.dht.kernel import compile_kernel, run_lookup_batch

#: dimension -> total hops over all (source, key id) pairs.
HOP_TOTALS = {4: 15_104, 5: 124_880, 6: 910_104, 7: 5_933_732}

#: Pairs per ``run_linear`` call on the columnar backend.
BATCH = 16_384


def route_all_pairs(dimension: int, backend: str):
    """Records of every (source, key id) lookup on the complete network."""
    network = CycloidNetwork.complete(dimension)
    nodes = network.live_nodes()
    pairs = [(source, key.id) for source in nodes for key in nodes]
    return run_lookup_batch(network, pairs, backend=backend, hashed=True)


def route_all_pairs_linear(dimension: int) -> Tuple[int, int, int]:
    """``(pairs, hops, failures)`` over every (source, key id) pair,
    routed in batches through the compiled kernel's array mode."""
    kernel = compile_kernel(
        CycloidNetwork.complete(dimension), backend="columnar"
    )
    sources = np.flatnonzero(kernel.alive)
    keys = kernel.lin[sources]
    pairs = sources.size * keys.size
    hops = failures = 0
    for start in range(0, pairs, BATCH):
        flat = np.arange(start, min(start + BATCH, pairs))
        result = kernel.run_linear(
            sources[flat // keys.size], keys[flat % keys.size]
        )
        hops += int(result["hops"].sum())
        failures += int((~result["success"]).sum())
    return pairs, hops, failures


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
    if args.backend == "columnar":
        pairs, hops, failures = route_all_pairs_linear(args.dimension)
    else:
        records = route_all_pairs(args.dimension, args.backend)
        pairs = len(records)
        hops = sum(record.hops for record in records)
        failures = sum(1 for record in records if not record.success)
    elapsed = time.perf_counter() - started
    expected = HOP_TOTALS[args.dimension]
    print(
        f"d={args.dimension} backend={args.backend}: {pairs} pairs, "
        f"{hops} hops (mean {hops / pairs!r}), {failures} failed, "
        f"{elapsed:.1f}s"
    )
    if failures or hops != expected:
        print(f"FAIL: expected {expected} hops and no failures", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

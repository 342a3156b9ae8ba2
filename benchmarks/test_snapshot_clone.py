"""§S21 micro-benchmarks: build-once snapshots and the ring hot path.

Two guards ride the benchmark suite:

* At full fig-5 scale (d = 8, n = 2048) restoring a shipped packed
  form (unpickle + ``unpack_network``) must be at least 3x cheaper than
  the full join-protocol rebuild it replaces, and
  a shard routed on the restored copy must have the digest of the same
  shard routed on the built network.
* ``SortedRing.successor_run`` is called once per node per capture and
  inside Chord/Koorde maintenance; the two-slice implementation must
  stay well under the cost of a per-step modular walk (guarded here as
  an absolute budget on a 2048-node ring).
"""

import pickle
import time
from functools import partial

from repro.analysis import format_table
from repro.dht.metrics import LookupStats
from repro.dht.ring import SortedRing
from repro.dht.snapshot import pack_network, unpack_network
from repro.experiments import build_complete_network
from repro.sim.parallel import (
    ShardTask,
    execute_shard,
    plain_setup,
    plan_shards,
)

RING_BITS = 16
RING_NODES = 2048
RUN_LENGTH = 16

RESTORE_PROTOCOLS = ("cycloid", "chord", "koorde", "viceroy")
DIMENSION = 8
SEED = 42
SHARD_LOOKUPS = 400
REPEATS = 5


def _best_of(operation):
    """Minimum over ``REPEATS`` runs (anything above it is interference),
    with the last run's result."""
    best = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = operation()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _restore_cells():
    """Per overlay: population, best build and restore seconds, and
    whether the first shard's digest survives the restore."""
    cells = []
    for protocol in RESTORE_PROTOCOLS:
        setup = partial(
            plain_setup, build_complete_network, protocol, DIMENSION, seed=SEED
        )
        build_seconds, (network, _) = _best_of(setup)
        # The pool initializer's restore: unpickle the shipped packed
        # form, then unpack it.
        payload = pickle.dumps(pack_network(network), pickle.HIGHEST_PROTOCOL)

        def restore():
            return unpack_network(pickle.loads(payload))

        restore_seconds, _ = _best_of(restore)
        task = ShardTask(
            spec=plan_shards(SHARD_LOOKUPS)[0], seed=SEED + DIMENSION
        )
        via_build = execute_shard(task, prepared=(network, None))
        via_restore = execute_shard(task, prepared=(restore(), None))
        digest_match = (
            LookupStats(via_build.records).digest()
            == LookupStats(via_restore.records).digest()
        )
        cells.append(
            (
                protocol,
                network.size,
                build_seconds,
                restore_seconds,
                digest_match,
            )
        )
    return cells


def test_snapshot_restore_vs_rebuild(benchmark, report):
    cells = benchmark.pedantic(_restore_cells, rounds=1, iterations=1)
    report(
        format_table(
            ["protocol", "n", "build", "restore", "speedup", "bit-exact"],
            [
                [
                    protocol,
                    population,
                    f"{build * 1e3:.1f}ms",
                    f"{restore * 1e3:.1f}ms",
                    f"{build / restore:.1f}x",
                    "yes" if match else "NO",
                ]
                for protocol, population, build, restore, match in cells
            ],
            "Build-once vs per-shard rebuild (one shard's network)",
        )
    )
    for protocol, population, build, restore, match in cells:
        assert match, protocol
        assert population == 2048, (protocol, population)
        restore_speedup = build / restore
        assert restore_speedup >= 3.0, (protocol, restore_speedup)


def test_successor_run_two_slice_budget(benchmark):
    ring = SortedRing(RING_BITS)
    step = (1 << RING_BITS) // RING_NODES
    ids = [i * step for i in range(RING_NODES)]
    for node_id in ids:
        ring.add(node_id, node_id)

    def sweep():
        for node_id in ids:
            ring.successor_run(node_id, RUN_LENGTH)

    benchmark.pedantic(sweep, rounds=3, iterations=1)

    # Absolute guard, generous enough for CI noise: the full sweep is
    # 2048 runs of 16 successors; the two-slice form does it in a few
    # milliseconds where the per-step modular walk took tens.
    start = time.perf_counter()
    sweep()
    elapsed = time.perf_counter() - start
    assert elapsed < 0.25, f"successor_run sweep took {elapsed:.3f}s"

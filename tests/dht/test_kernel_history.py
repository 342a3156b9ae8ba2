"""Kernel per-row state: path histories, not dense universe masks.

The Cycloid kernel keeps each lookup's visited nodes and exhausted
cubical cycles as per-row path histories (``kernel._PathHistory``), so
a batch's routing state is O(batch × path length) rather than
O(batch × n).  These tests pin that as a traced-allocation bound, pin
that results do not depend on how a batch is chunked, and re-run the
object-vs-kernel parity cases with the history forced through its
growth path on every wave.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.dht import kernel
from repro.dht.bulkbuild import build_columns
from repro.dht.kernel import kernel_from_columns
from repro.dht.metrics import LookupStats
from repro.experiments.registry import build_complete_network
from repro.sim.workload import lookup_workload
from repro.util.rng import make_rng

SEED = 42
DIMENSION = 4
RESULT_KEYS = ("hops", "timeouts", "success", "final", "phase_counts")


def _inputs(columns, lookups, seed=SEED):
    rng = np.random.default_rng(np.random.PCG64(seed))
    sources = rng.integers(0, columns.count, size=lookups)
    keys = rng.integers(0, columns.space, size=lookups)
    return sources, keys


def _runner(compiled, protocol):
    return compiled.run_linear if protocol == "cycloid" else compiled.run_ids


def _chunked(run, sources, keys, rows):
    parts = [
        run(sources[start : start + rows], keys[start : start + rows])
        for start in range(0, len(sources), rows)
    ]
    return {
        key: np.concatenate([part[key] for part in parts])
        for key in RESULT_KEYS
    }


def _assert_same_results(one, two):
    for key in RESULT_KEYS:
        assert np.array_equal(one[key], two[key]), key


@pytest.mark.parametrize("protocol", ["cycloid", "chord"])
def test_chunked_batches_match_one_batch(protocol):
    """Per-row results do not depend on the batch's other rows: any
    chunking of a lookup list reproduces the one-batch arrays."""
    columns = build_columns(protocol, 2000, seed=11)
    run = _runner(kernel_from_columns(columns), protocol)
    sources, keys = _inputs(columns, 64)
    whole = run(sources, keys)
    _assert_same_results(whole, _chunked(run, sources, keys, 7))


def test_batch_state_is_bounded_by_path_length_not_population():
    """One 4096-row batch at n=10^5 stays far below the 429 MB a dense
    ``[batch, n]`` visited mask alone would take, and equals the same
    lookups run in 512-row chunks."""
    columns = build_columns("cycloid", 100_000, seed=11)
    assert columns.dimension == 13
    compiled = kernel_from_columns(columns)
    sources, keys = _inputs(columns, 4096)
    tracemalloc.start()
    try:
        whole = compiled.run_linear(sources, keys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    assert bool(whole["success"].all())
    _assert_same_results(
        whole, _chunked(compiled.run_linear, sources, keys, 512)
    )


@pytest.fixture
def widths(monkeypatch):
    """Start every history one column wide (so each wave that adds to a
    full row doubles it) and record ``(width, capacity)`` after every
    add."""
    seen = []
    add = kernel._PathHistory.add

    def recording_add(self, rows, values):
        add(self, rows, values)
        seen.append((self.hist.shape[1], self.capacity))

    monkeypatch.setattr(kernel._PathHistory, "_INITIAL_WIDTH", 1)
    monkeypatch.setattr(kernel._PathHistory, "add", recording_add)
    return seen


def _depart(network, rejoin=0):
    """Gracefully depart ~20% of nodes (seeded, no re-stabilisation),
    then join ``rejoin`` fresh nodes.  A complete network has no free
    id but the departed ones, so every joiner reuses a departed id and
    the stale pointers to its predecessor alias a live node."""
    rng = make_rng(SEED + 13)
    for node in [n for n in network.live_nodes() if rng.random() < 0.2]:
        network.leave(node)
    for i in range(rejoin):
        network.join(f"rejoin-{i}")
    return network


GROWTH_CONFIGS = {
    "cycloid": lambda: build_complete_network("cycloid", DIMENSION, seed=SEED),
    "cycloid-11": lambda: build_complete_network(
        "cycloid-11", DIMENSION, seed=SEED
    ),
    "cycloid-departures": lambda: _depart(
        build_complete_network("cycloid", DIMENSION, seed=SEED)
    ),
    "cycloid-11-departures": lambda: _depart(
        build_complete_network("cycloid-11", DIMENSION, seed=SEED)
    ),
    "cycloid-id-reuse": lambda: _depart(
        build_complete_network("cycloid", DIMENSION, seed=SEED), rejoin=6
    ),
}


def _records(build, backend):
    network = build()
    pairs = list(lookup_workload(network, 120, make_rng(SEED + 2)))
    records = network.lookup_many(pairs, backend=backend)
    return records, dict(network._query_counts)


@pytest.mark.parametrize("config", sorted(GROWTH_CONFIGS))
def test_growth_path_keeps_parity(config, widths):
    build = GROWTH_CONFIGS[config]
    obj_records, obj_counts = _records(build, "object")
    col_records, col_counts = _records(build, "columnar")
    assert col_records == obj_records
    assert LookupStats(col_records).digest() == LookupStats(obj_records).digest()
    assert col_counts == obj_counts
    assert max(width for width, _ in widths) > 1  # the growth path ran
    assert all(width <= capacity for width, capacity in widths)
    if "departures" in config or "reuse" in config:
        assert sum(record.timeouts for record in col_records) > 0


def test_id_reuse_config_exercises_alias_redirection():
    compiled = kernel.compiler_for("cycloid")(
        GROWTH_CONFIGS["cycloid-id-reuse"]()
    )
    dead = np.flatnonzero(~compiled.alive)
    assert (compiled.alias[dead] != dead).any()


def test_history_width_is_capped_at_hop_limit_plus_one(widths, monkeypatch):
    """Doubling never overshoots the ``hop_limit + 1`` adds a row can
    make, and a hop-limited batch reads the same either way."""
    columns = build_columns("cycloid", 2000, seed=11)
    hop_limit = 5
    sources, keys = _inputs(columns, 64)
    grown = kernel_from_columns(columns, hop_limit=hop_limit).run_linear(
        sources, keys
    )
    assert widths and max(width for width, _ in widths) == hop_limit + 1
    assert all(capacity == hop_limit + 1 for _, capacity in widths)
    assert not bool(grown["success"].all())  # some rows hit the limit
    monkeypatch.setattr(kernel._PathHistory, "_INITIAL_WIDTH", 64)
    wide = kernel_from_columns(columns, hop_limit=hop_limit).run_linear(
        sources, keys
    )
    _assert_same_results(grown, wide)

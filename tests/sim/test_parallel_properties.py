"""Property tests for the shard planner and the shard merge.

Three properties carry the parallel engine's correctness argument:

* :func:`repro.sim.parallel.plan_shards` is an exact partition — every
  global lookup index (which identifies one (source, key) draw) lands
  in exactly one shard, so no shard boundary ever splits a pair.
* :func:`repro.sim.parallel.merge_shards` is invariant under the order
  shard results arrive in — any permutation yields bit-identical
  records, digests and mean/p1/p99 summaries.
* :meth:`repro.dht.metrics.LookupStats.merge` is associative, so the
  merged statistics do not depend on how partial results are grouped.
"""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.dht.metrics import LookupStats
from repro.experiments.registry import build_complete_network
from repro.sim.parallel import (
    execute_shard,
    merge_shards,
    plan_shards,
    plain_setup,
    ShardTask,
)
from repro.util.stats import summarize

counts = st.integers(min_value=0, max_value=5000)
shard_sizes = st.integers(min_value=1, max_value=700)


class TestPlanShards:
    @given(count=counts, shard_size=shard_sizes)
    def test_exact_partition(self, count, shard_size):
        """Offsets tile [0, count): no gap, no overlap, no split pair."""
        specs = plan_shards(count, shard_size)
        covered = []
        for spec in specs:
            covered.extend(range(spec.offset, spec.offset + spec.count))
        assert covered == list(range(count))

    @given(count=counts, shard_size=shard_sizes)
    def test_balanced_and_bounded(self, count, shard_size):
        specs = plan_shards(count, shard_size)
        if count == 0:
            assert specs == []
            return
        sizes = [spec.count for spec in specs]
        assert all(size >= 1 for size in sizes)
        assert max(sizes) <= shard_size
        assert max(sizes) - min(sizes) <= 1
        assert [spec.index for spec in specs] == list(range(len(specs)))

    @given(count=counts, shard_size=shard_sizes)
    def test_pure_function(self, count, shard_size):
        assert plan_shards(count, shard_size) == plan_shards(
            count, shard_size
        )


def _real_shard_results():
    """Shard results from one real cell (computed once, module scope)."""
    setup = partial(
        plain_setup, build_complete_network, "cycloid", 4, seed=42
    )
    return [
        execute_shard(ShardTask(spec=spec, seed=7), prepared=setup())
        for spec in plan_shards(96, 16)
    ]


SHARD_RESULTS = _real_shard_results()


def _hop_summary(stats: LookupStats):
    return summarize([float(r.hops) for r in stats.records])


class TestMergeOrderInvariance:
    @settings(deadline=None, max_examples=30)
    @given(order=st.permutations(list(range(len(SHARD_RESULTS)))))
    def test_any_arrival_order_merges_identically(self, order):
        canonical = merge_shards(SHARD_RESULTS)
        shuffled = merge_shards([SHARD_RESULTS[i] for i in order])
        assert shuffled.stats.digest() == canonical.stats.digest()
        assert shuffled.stats.records == canonical.stats.records
        assert shuffled.query_counts == canonical.query_counts
        reference = _hop_summary(canonical.stats)
        permuted = _hop_summary(shuffled.stats)
        assert permuted.mean == reference.mean
        assert permuted.p1 == reference.p1
        assert permuted.p99 == reference.p99


class TestMergeAssociativity:
    @settings(deadline=None, max_examples=30)
    @given(split=st.integers(min_value=1, max_value=len(SHARD_RESULTS) - 1))
    def test_grouping_does_not_matter(self, split):
        """merge(merge(A), merge(B)) == merge(A + B) for any split."""
        parts = []
        for result in SHARD_RESULTS:
            stats = LookupStats()
            stats.extend(result.records)
            parts.append(stats)
        grouped = LookupStats.merged(
            [LookupStats.merged(parts[:split]), LookupStats.merged(parts[split:])]
        )
        flat = LookupStats.merged(parts)
        assert grouped.digest() == flat.digest()
        assert grouped.records == flat.records

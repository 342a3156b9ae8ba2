"""Unit tests for the shared experiment plumbing (`run_lookups`)."""

from __future__ import annotations

from functools import partial

import pytest

from repro.core import CycloidNetwork
from repro.experiments.common import run_lookups
from repro.experiments.registry import build_complete_network
from repro.sim import parallel
from repro.sim.parallel import plain_setup, run_sharded_lookups
from repro.util.rng import shard_rng


def _network():
    return CycloidNetwork.complete(4)


class TestSeedHandling:
    def test_implicit_seed_is_rejected(self):
        with pytest.raises(TypeError, match="explicit seed"):
            run_lookups(_network(), 5)

    def test_explicit_seed_emits_no_warning(self, recwarn):
        run_lookups(_network(), 5, seed=3)
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]


class TestShardStreams:
    def test_each_shard_draws_its_own_seeded_stream(self, monkeypatch):
        calls = []

        def recording_shard_rng(seed, index):
            calls.append((seed, index))
            return shard_rng(seed, index)

        monkeypatch.setattr(parallel, "shard_rng", recording_shard_rng)
        run_lookups(_network(), 40, seed=5, shard_size=10)
        assert calls == [(5, 0), (5, 1), (5, 2), (5, 3)]


class TestShardEquivalence:
    def test_matches_sharded_runner_without_faults(self):
        """Shared-network `run_lookups` == the sharded runner.

        Without an injector, routing carries no cross-lookup state, so
        routing the shards in turn on the one given network must give
        the records of the sharded runner, whose shards the
        fresh-build referee pins to a fresh network each.
        """
        stats = run_lookups(
            build_complete_network("cycloid", 4, seed=42),
            60,
            seed=11,
            shard_size=20,
        )
        merged = run_sharded_lookups(
            partial(plain_setup, build_complete_network, "cycloid", 4, seed=42),
            60,
            11,
            workers=1,
            shard_size=20,
        )
        assert stats.records == merged.stats.records
        assert stats.digest() == merged.stats.digest()

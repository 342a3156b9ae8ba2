"""Golden parity under the latency model plumbing (§S25).

Two regression claims:

* **Default stays bit-exact** — routing with ``latency=None`` (the
  default everywhere) must reproduce every pre-latency golden digest
  from :mod:`tests.dht.test_routing_parity`, on both the object engine
  and the columnar kernel, and no record may carry a modeled
  ``latency_ms``.  The plumbing being *present* must cost nothing.
* **Backends agree under a model** — with a model attached, the
  columnar kernel's post-hoc path annotation reproduces the engine's
  left-to-right accumulation bit-for-bit: identical
  :meth:`LookupStats.digest` (which covers ``latency_ms``), and each
  record's total equals the sum of its path's link delays.
"""

from __future__ import annotations

import math

import pytest

from repro.dht.kernel import columnar_protocols
from repro.dht.metrics import LookupStats
from repro.sim.latency import LatencyModel
from repro.sim.workload import lookup_workload
from repro.util.rng import make_rng

from tests.dht.test_routing_parity import (
    CONFIGS,
    GOLDEN,
    LOOKUPS,
    WORKLOAD_SEED,
    routing_digest,
)

MODEL = LatencyModel(seed=97)

#: Golden configs whose protocol has a columnar compiler (complete
#: Cycloid builds at either leaf radius, Chord, Koorde and Viceroy).
_COLUMNAR_CONFIGS = (
    "cycloid-d5",
    "cycloid11-d5",
    "chord-512",
    "koorde-512",
    "koorde-complete-8",
    "viceroy-512",
    "cycloid-d5-departures",
    "chord-512-departures",
    "koorde-512-departures",
)


def _records(network, backend="object", latency=None):
    rng = make_rng(WORKLOAD_SEED)
    pairs = lookup_workload(network, LOOKUPS, rng)
    return network.lookup_many(pairs, backend=backend, latency=latency)


class TestLatencyNoneIsBitExact:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_object_engine_goldens_unchanged(self, name):
        network = CONFIGS[name]()
        records = _records(network, latency=None)
        assert all(r.latency_ms is None for r in records)
        # The digest helper routes a fresh workload through the plain
        # lookup path; both paths must still match the committed golden.
        assert routing_digest(CONFIGS[name]()) == GOLDEN[name]

    def test_every_columnar_protocol_has_a_config(self):
        """Each compiled protocol routes at least one golden config on
        its kernel below — a new kernel cannot slip past these checks."""
        covered = {CONFIGS[name]().protocol_name for name in _COLUMNAR_CONFIGS}
        assert covered == set(columnar_protocols())

    @pytest.mark.parametrize("name", _COLUMNAR_CONFIGS)
    def test_columnar_goldens_unchanged(self, name):
        network = CONFIGS[name]()
        records = _records(network, backend="columnar", latency=None)
        assert all(r.latency_ms is None for r in records)
        stats = LookupStats()
        stats.extend(records)
        baseline = LookupStats()
        baseline.extend(_records(CONFIGS[name]()))
        assert stats.digest() == baseline.digest()

    def test_digest_ignores_absent_latency(self):
        """A latency-free record's digest tuple has no latency slot, so
        committed baselines captured before §S25 still match."""
        network = CONFIGS["cycloid-d5"]()
        plain = LookupStats()
        plain.extend(_records(network))
        modeled = LookupStats()
        modeled.extend(_records(CONFIGS["cycloid-d5"](), latency=MODEL))
        assert plain.digest() != modeled.digest()


class TestBackendsAgreeUnderModel:
    @pytest.mark.parametrize("name", _COLUMNAR_CONFIGS)
    def test_columnar_matches_engine_bit_for_bit(self, name):
        engine = LookupStats()
        engine.extend(_records(CONFIGS[name](), latency=MODEL))
        kernel = LookupStats()
        kernel.extend(
            _records(CONFIGS[name](), backend="columnar", latency=MODEL)
        )
        assert engine.digest() == kernel.digest()
        assert engine.latencies_ms() == kernel.latencies_ms()

    @pytest.mark.parametrize("name", ["cycloid-d5", "chord-512"])
    def test_total_is_sum_of_path_links(self, name):
        for record in _records(CONFIGS[name](), latency=MODEL):
            expected = math.fsum(
                MODEL.delay_ms(record.path[i], record.path[i + 1])
                for i in range(len(record.path) - 1)
            )
            assert record.latency_ms == pytest.approx(expected, abs=1e-9)
            assert record.latency_ms >= 0.0

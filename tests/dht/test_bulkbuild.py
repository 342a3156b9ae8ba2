"""Bulk construction parity: columns byte-equal to the object builder.

The §S26 pins: over random (seed, dimension/bits, population) draws the
bulk-built packed form must hash identically to ``pack_network`` of the
object builder's network, for both protocols and both non-default
Cycloid leaf selections; bulk-built networks must route identically to
object-built ones under an active FaultPlan; and the array-mode kernel
compiled straight from columns must agree with the object-compiled
kernel lookup-for-lookup.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dht.bulkbuild as bulkbuild
from repro.chord.network import ChordNetwork
from repro.core.network import CycloidNetwork
from repro.dht.identifiers import CycloidId
from repro.dht.bulkbuild import (
    SAMPLERS,
    build_chord_columns,
    build_columns,
    build_cycloid_columns,
    bulk_ids,
    bulk_setup,
    packed_digest,
)
from repro.dht.kernel import compiler_for, kernel_from_columns
from repro.dht.snapshot import pack_network
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.latency import LatencyModel
from repro.sim.parallel import run_sharded_lookups
from repro.util.rng import make_rng

SEED = 42

FAULT_PLAN = FaultPlan(
    seed=SEED + 30, crash_probability=0.3, message_loss=0.05
)


def _cycloid_digests(n, d, seed, **kwargs):
    network = CycloidNetwork.with_random_ids(n, d, seed=seed, **kwargs)
    columns = build_cycloid_columns(n, d, seed=seed, **kwargs)
    return (
        packed_digest(columns.to_packed()),
        packed_digest(pack_network(network)),
    )


def _chord_digests(n, bits, seed, **kwargs):
    network = ChordNetwork.with_random_ids(n, bits, seed=seed, **kwargs)
    columns = build_chord_columns(n, bits, seed=seed, **kwargs)
    return (
        packed_digest(columns.to_packed()),
        packed_digest(pack_network(network)),
    )


class TestDigestParity:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_cycloid_random_draws(self, data):
        seed = data.draw(st.integers(0, 2**20), label="seed")
        dimension = data.draw(st.integers(3, 6), label="dimension")
        space = dimension << dimension
        count = data.draw(
            st.integers(1, min(space, 120)), label="count"
        )
        selection = data.draw(
            st.sampled_from(["primary", "random"]), label="selection"
        )
        bulk, golden = _cycloid_digests(
            count, dimension, seed, leaf_selection=selection
        )
        assert bulk == golden

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_chord_random_draws(self, data):
        seed = data.draw(st.integers(0, 2**20), label="seed")
        bits = data.draw(st.integers(3, 10), label="bits")
        count = data.draw(
            st.integers(1, min(1 << bits, 100)), label="count"
        )
        slist = data.draw(
            st.one_of(st.none(), st.integers(1, bits)), label="slist"
        )
        bulk, golden = _chord_digests(
            count, bits, seed, successor_list_size=slist
        )
        assert bulk == golden

    def test_cycloid_proximity_selection(self):
        model = LatencyModel(seed=3)
        bulk, golden = _cycloid_digests(
            60, 5, 2, leaf_selection="proximity", latency=model
        )
        assert bulk == golden

    def test_cycloid_wide_leaf_radius(self):
        bulk, golden = _cycloid_digests(50, 5, 4, leaf_radius=2)
        assert bulk == golden

    def test_pinned_cycloid_4096(self):
        """The acceptance pin: digest-equal at the parity scale."""
        bulk, golden = _cycloid_digests(4096, 12, 11)
        assert bulk == golden

    def test_pinned_chord_4096(self):
        bulk, golden = _chord_digests(4096, 13, 11)
        assert bulk == golden

    def test_rank_table_fallback_is_value_identical(self, monkeypatch):
        """Each fast path against its fallback, by packed digest.

        Limit 256 sends only Cycloid's one-key orderings (id space
        8 * 2^8) from the counting scatter to ``argsort``; its row rank
        tables (space 2^8) stay.  Limit 0 also sends Chord's fingers
        from the id -> owner table to ``searchsorted`` per bit.  The
        sliding-window successors have no fallback, so a run wrapping
        past the ring's end is held against the object builder."""
        builds = (
            partial(build_cycloid_columns, 200, 8, seed=9),
            partial(build_chord_columns, 200, 9, seed=9),
            partial(build_chord_columns, 6, 9, seed=9, successor_list_size=9),
        )
        digests = []
        for limit in (bulkbuild.RANK_TABLE_SPACE_LIMIT, 256, 0):
            monkeypatch.setattr(bulkbuild, "RANK_TABLE_SPACE_LIMIT", limit)
            digests.append([packed_digest(b().to_packed()) for b in builds])
        assert digests[0] == digests[1] == digests[2]
        golden = _chord_digests(6, 9, 9, successor_list_size=9)[1]
        assert digests[0][2] == golden


class TestColumns:
    def test_reference_columns_are_int32(self):
        cols = build_cycloid_columns(80, 6, seed=SEED)
        for name in (
            "cn", "cl", "cs", "inside_left", "inside_right",
            "outside_left", "outside_right", "inside_len", "outside_len",
        ):
            assert getattr(cols, name).dtype == np.int32, name
        chord = build_chord_columns(80, 9, seed=SEED)
        for name in ("sorted_index", "fingers", "successors", "predecessor"):
            assert getattr(chord, name).dtype == np.int32, name

    def test_exact_sampler_replays_the_object_stream(self):
        assert bulk_ids(50, 6 << 6, 7, "exact").tolist() == make_rng(
            7
        ).sample(range(6 << 6), 50)

    def test_fast_sampler_is_deterministic_and_distinct(self):
        one = bulk_ids(1000, 1 << 14, 7, "fast")
        two = bulk_ids(1000, 1 << 14, 7, "fast")
        assert np.array_equal(one, two)
        assert np.unique(one).size == 1000

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError, match="sampler"):
            bulk_ids(10, 100, 0, "bogus")

    def test_count_must_fit_the_space(self):
        with pytest.raises(ValueError, match="count"):
            bulk_ids(200, 100, 0, "exact")

    def test_proximity_requires_a_latency_model(self):
        with pytest.raises(ValueError, match="proximity"):
            build_cycloid_columns(10, 4, seed=0, leaf_selection="proximity")

    def test_build_columns_sizing_defaults(self):
        cols = build_columns("cycloid", 2000, seed=SEED)
        assert cols.space >= 2000
        chord = build_columns("chord", 2000, seed=SEED)
        assert chord.space >= 2000

    def test_unknown_protocol_error_names_the_fallback(self):
        """The kernel's actionable unknown-protocol error: it must
        enumerate the backends and point at the object-engine flag."""
        with pytest.raises(ValueError, match=r"--backend object"):
            build_columns("pastry", 100, seed=SEED)
        with pytest.raises(ValueError, match="columnar protocols"):
            compiler_for("pastry")


class TestKernelFromColumns:
    @pytest.mark.parametrize("protocol", ["cycloid", "chord"])
    def test_array_mode_matches_object_compiled_kernel(self, protocol):
        """from_columns vs compile(network): same hops, timeouts and
        delivery nodes once universes are aligned by identifier (the
        object kernel orders nodes by id space, bulk columns by
        sample)."""
        if protocol == "cycloid":
            cols = build_cycloid_columns(100, 6, seed=3)
            network = CycloidNetwork.with_random_ids(100, 6, seed=3)
            bulk_ids_ = cols.lin
        else:
            cols = build_chord_columns(100, 10, seed=3)
            network = ChordNetwork.with_random_ids(100, 10, seed=3)
            bulk_ids_ = cols.ids
        bulk_kernel = kernel_from_columns(cols)
        object_kernel = compiler_for(protocol)(network)
        if protocol == "cycloid":
            object_ids = object_kernel.lin
            run_bulk = bulk_kernel.run_linear
            run_object = object_kernel.run_linear
        else:
            object_ids = object_kernel.ids
            run_bulk = bulk_kernel.run_ids
            run_object = object_kernel.run_ids
        to_object = {int(v): i for i, v in enumerate(object_ids)}
        rng = np.random.default_rng(np.random.PCG64(17))
        sources = rng.integers(0, 100, size=64)
        keys = rng.integers(0, cols.space, size=64)
        aligned = np.array(
            [to_object[int(bulk_ids_[s])] for s in sources]
        )
        ours = run_bulk(sources, keys)
        theirs = run_object(aligned, keys)
        assert np.array_equal(ours["hops"], theirs["hops"])
        assert np.array_equal(ours["timeouts"], theirs["timeouts"])
        assert np.array_equal(ours["success"], theirs["success"])
        assert np.array_equal(
            bulk_ids_[ours["final"]], object_ids[theirs["final"]]
        )


def _sparse_cycloid(dimension, count, shape):
    """The first seed whose bulk build has the wanted cycle sizes."""
    wanted = {
        "one cycle": lambda sizes: sizes.size == 1,
        "singletons": lambda sizes: bool((sizes == 1).all()),
        "pairs": lambda sizes: bool((sizes == 2).any()),
    }[shape]
    for seed in range(1000):
        cols = build_cycloid_columns(count, dimension, seed=seed)
        sizes = np.bincount(cols.cub)
        if wanted(sizes[sizes > 0]):
            return cols, seed
    raise AssertionError(f"no seed below 1000 gives {shape}")


class TestOwnerOracle:
    @pytest.mark.parametrize(
        "dimension, count, shape",
        [
            (4, 1, "one cycle"),
            (3, 2, "one cycle"),
            (6, 8, "singletons"),
            (5, 12, "pairs"),
        ],
    )
    def test_bulk_and_object_compiles_agree(self, dimension, count, shape):
        """The compile-time owner oracle of a sparse bulk build equals
        the object-compiled one: the same occupied cycles, the same
        members per cycle (row layout is free) and the same leaf
        dedupe proof; and both resolve every key of the id space to
        the object network's ground-truth owner."""
        cols, seed = _sparse_cycloid(dimension, count, shape)
        bulk = kernel_from_columns(cols)
        network = CycloidNetwork.with_random_ids(count, dimension, seed=seed)
        obj = compiler_for("cycloid")(network)
        assert np.array_equal(bulk.occ_cycles, obj.occ_cycles)
        assert bulk.cycle_members.shape == obj.cycle_members.shape
        for ours, theirs in zip(bulk.cycle_members, obj.cycle_members):
            assert set(bulk.lin[ours[ours >= 0]].tolist()) == set(
                obj.lin[theirs[theirs >= 0]].tolist()
            )
        assert bulk.leaf_dup_free == obj.leaf_dup_free
        if shape == "pairs":
            assert not bulk.leaf_dup_free
        keys = np.arange(cols.space, dtype=np.int64)
        kcub, kcyc = keys // dimension, keys % dimension
        truth = [
            network.owner_of_id(CycloidId(cyclic, cubical, dimension)).id.linear
            for cyclic, cubical in zip(kcyc.tolist(), kcub.tolist())
        ]
        for kernel in (bulk, obj):
            owners = kernel.lin[kernel._owners(kcub, kcyc, keys)]
            assert owners.tolist() == truth


def _bulk_fault_setup(protocol):
    """Bulk-built network + active fault injector, module-level so the
    sharded runner can pickle it."""
    kwargs = {"dimension": 6} if protocol == "cycloid" else {"bits": 9}
    network, _ = bulk_setup(protocol, 80, seed=SEED, **kwargs)
    injector = FaultInjector(FAULT_PLAN)
    injector.crash_nodes(network)
    network.route_repairs = 0
    return network, injector


class TestBulkNetworksUnderFaults:
    @pytest.mark.parametrize("protocol", ["cycloid", "chord"])
    def test_backend_parity_with_active_fault_plan(self, protocol):
        """Bulk-built networks under an active FaultPlan: both backends
        produce bit-identical merged results (the columnar path falls
        back per the kernel's fault rules — parity is the contract)."""
        results = [
            run_sharded_lookups(
                partial(_bulk_fault_setup, protocol),
                120,
                SEED,
                workers=1,
                shard_size=30,
                backend=backend,
            )
            for backend in ("object", "columnar")
        ]
        assert results[0].stats.digest() == results[1].stats.digest()
        assert results[0].stats.records == results[1].stats.records
        assert results[0].crashed == results[1].crashed
        assert results[0].stats.failures >= 0

    def test_bulk_setup_network_equals_object_network(self):
        network, injector = bulk_setup(
            "cycloid", 60, seed=5, dimension=6
        )
        assert injector is None
        golden = CycloidNetwork.with_random_ids(60, 6, seed=5)
        assert packed_digest(pack_network(network)) == packed_digest(
            pack_network(golden)
        )

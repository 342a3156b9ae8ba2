"""Unit and parity tests for the adversary subsystem (§S27).

The load-bearing claims:

* an :class:`AdversaryPlan` is pure seeded configuration — validation,
  pickle/config round-trips, ``for_shard`` identity;
* infiltration and poisoning are bit-deterministic: two applications of
  one plan to identically-built overlays produce identical attacked
  topologies, and hence identical lookup records;
* a **disabled** plan is a strict no-op — existing overlay results stay
  bit-exact (the golden parity bar of the acceptance criteria);
* the trace-observer interception metric equals the path-based one, and
  the columnar kernel reproduces poisoned-topology routing
  bit-identically;
* sharded runs over an attacked overlay are worker-count invariant.
"""

from __future__ import annotations

import pickle
from functools import partial

import pytest

from repro.experiments.adversary import build_adversary_network
from repro.sim.adversary import (
    Adversary,
    AdversaryPlan,
    InterceptionTracer,
    attacker_name,
    capture_fraction,
    interception_rate,
)
from repro.sim.parallel import plain_setup, run_sharded_lookups
from repro.sim.workload import lookup_workload
from repro.util.rng import make_rng
from tests.sim.test_parallel_parity import fresh_build_reference

POPULATION = 128
SEED = 17
PROTOCOLS = ("cycloid", "cycloid-11", "chord", "koorde")


def build(protocol: str):
    """The sparse overlay the adversary experiment attacks, sans plan."""
    return build_adversary_network(
        protocol, POPULATION, SEED, AdversaryPlan(seed=SEED)
    )


def routes(network, count=60, seed=7):
    rng = make_rng(seed)
    records = network.lookup_many(list(lookup_workload(network, count, rng)))
    return [(r.hops, r.success, tuple(r.path)) for r in records]


class TestAdversaryPlan:
    def test_seed_is_mandatory(self):
        with pytest.raises(TypeError):
            AdversaryPlan()  # noqa: seed has no default

    def test_seed_must_be_int(self):
        with pytest.raises(TypeError):
            AdversaryPlan(seed="7")

    @pytest.mark.parametrize(
        "kwargs",
        [{"sybils": -1}, {"eclipse_fraction": -0.1}, {"eclipse_fraction": 1.5}],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            AdversaryPlan(seed=1, **kwargs)

    def test_active(self):
        assert not AdversaryPlan(seed=1).active
        assert AdversaryPlan(seed=1, sybils=1).active
        assert AdversaryPlan(seed=1, eclipse_fraction=0.1).active

    def test_config_roundtrip(self):
        plan = AdversaryPlan(
            seed=5, sybils=9, target_key="k", eclipse_fraction=0.25
        )
        assert AdversaryPlan.from_config(plan.to_config()) == plan

    def test_config_defaults(self):
        assert AdversaryPlan.from_config({"seed": 3}) == AdversaryPlan(seed=3)

    def test_pickle_roundtrip(self):
        plan = AdversaryPlan(seed=2, sybils=4, eclipse_fraction=0.5)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_for_shard_identity(self):
        plan = AdversaryPlan(seed=1, sybils=3)
        for shard in (0, 1, 7):
            assert plan.for_shard(shard) is plan

    def test_for_shard_rejects_negative_index(self):
        with pytest.raises(ValueError):
            AdversaryPlan(seed=1).for_shard(-1)

    def test_attacker_names(self):
        plan = AdversaryPlan(seed=1, sybils=3)
        assert plan.attacker_names() == {"evil-0", "evil-1", "evil-2"}
        assert attacker_name(0) == "evil-0"


class TestInfiltration:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_inserts_requested_sybils(self, protocol):
        network = build(protocol)
        before = network.size
        adversary = Adversary(
            AdversaryPlan(seed=SEED, sybils=10, target_key="victim-key")
        )
        adversary.apply(network)
        assert adversary.inserted == 10
        assert network.size == before + 10
        assert len(adversary.attacker_names) == 10

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_deterministic_placement(self, protocol):
        plan = AdversaryPlan(seed=SEED, sybils=8, target_key="victim-key")
        ids = []
        for _ in range(2):
            network = build(protocol)
            Adversary(plan).apply(network)
            ids.append(
                sorted(
                    (str(n.name), str(n.node_id))
                    for n in network.live_nodes()
                    if str(n.name).startswith("evil-")
                )
            )
        assert ids[0] == ids[1]

    def test_cycloid_cluster_surrounds_target_cycle(self):
        network = build("cycloid")
        plan = AdversaryPlan(seed=SEED, sybils=6, target_key="victim-key")
        Adversary(plan).apply(network)
        target = network.key_id("victim-key")
        cubicals = [
            n.id.cubical
            for n in network.live_nodes()
            if str(n.name).startswith("evil-")
        ]
        # Crafted ids cluster on the target's cycle and its immediate
        # cubical neighbourhood, never across the id space.
        modulus = 1 << network.dimension
        for cubical in cubicals:
            distance = min(
                (cubical - target.cubical) % modulus,
                (target.cubical - cubical) % modulus,
            )
            assert distance <= 6

    def test_ring_cluster_walls_off_the_arc(self):
        network = build("chord")
        plan = AdversaryPlan(seed=SEED, sybils=6, target_key="victim-key")
        Adversary(plan).apply(network)
        target = network.key_id("victim-key")
        space = 1 << network.bits
        offsets = sorted(
            (n.node_id - target) % space
            for n in network.live_nodes()
            if str(n.name).startswith("evil-")
        )
        # The first free ids clockwise from the key: a tight arc, with
        # gaps only where honest nodes already sat.
        assert offsets[-1] < 6 + POPULATION  # far tighter than the space
        assert offsets[0] >= 0

    def test_unsupported_overlay_raises(self):
        from repro.experiments.registry import build_sized_network

        network = build_sized_network("viceroy", 64, seed=1)
        with pytest.raises(ValueError, match="Viceroy"):
            Adversary(AdversaryPlan(seed=1, sybils=2)).infiltrate(network)


class TestPoison:
    def test_ground_truth_stays_honest_cycloid(self):
        network = build("cycloid")
        adversary = Adversary(
            AdversaryPlan(seed=SEED, sybils=5, eclipse_fraction=1.0)
        )
        adversary.infiltrate(network)
        inside = {
            str(n.name): (
                [str(x.name) for x in n.inside_left],
                [str(x.name) for x in n.inside_right],
            )
            for n in network.live_nodes()
        }
        adversary.poison(network)
        after = {
            str(n.name): (
                [str(x.name) for x in n.inside_left],
                [str(x.name) for x in n.inside_right],
            )
            for n in network.live_nodes()
        }
        assert inside == after  # inside leaf sets are never rewired
        network.check_invariants()

    def test_chord_fingers_rewired_successors_honest(self):
        network = build("chord")
        adversary = Adversary(
            AdversaryPlan(seed=SEED, sybils=5, eclipse_fraction=1.0)
        )
        adversary.infiltrate(network)
        succs = {
            str(n.name): [str(s.name) for s in n.successors]
            for n in network.live_nodes()
        }
        preds = {
            str(n.name): str(n.predecessor.name)
            for n in network.live_nodes()
            if n.predecessor is not None
        }
        adversary.poison(network)
        attackers = set(adversary.attacker_names)
        for node in network.live_nodes():
            name = str(node.name)
            if name in attackers:
                continue
            assert all(
                str(f.name) in attackers
                for f in node.fingers
                if f is not None
            )
            assert [str(s.name) for s in node.successors] == succs[name]
            assert str(node.predecessor.name) == preds[name]

    def test_koorde_debruijn_rewired(self):
        network = build("koorde")
        adversary = Adversary(
            AdversaryPlan(seed=SEED, sybils=5, eclipse_fraction=1.0)
        )
        adversary.apply(network)
        attackers = set(adversary.attacker_names)
        for node in network.live_nodes():
            if str(node.name) in attackers:
                continue
            assert str(node.debruijn.name) in attackers
            assert all(
                str(b.name) in attackers for b in node.debruijn_backups
            )

    def test_victim_selection_is_seeded_fraction(self):
        network = build("cycloid")
        adversary = Adversary(
            AdversaryPlan(seed=SEED, sybils=4, eclipse_fraction=0.3)
        )
        adversary.apply(network)
        assert 0.18 < adversary.victims / POPULATION < 0.45

    def test_poison_without_attackers_is_noop(self):
        network = build("chord")
        adversary = Adversary(
            AdversaryPlan(seed=SEED, eclipse_fraction=0.5)
        )
        assert adversary.poison(network) == 0

    def test_ownership_unchanged_by_poison_alone(self):
        """Eclipse rewires routing hints only: with sybils already in,
        poisoning must not move a single key's ground-truth owner."""
        network = build("koorde")
        adversary = Adversary(
            AdversaryPlan(seed=SEED, sybils=5, eclipse_fraction=0.8)
        )
        adversary.infiltrate(network)
        keys = [f"own-{i}" for i in range(64)]
        owners = [
            str(network.owner_of_id(network.key_id(k)).name) for k in keys
        ]
        adversary.poison(network)
        network.invalidate_owner_cache()
        assert owners == [
            str(network.owner_of_id(network.key_id(k)).name) for k in keys
        ]


class TestGoldenParity:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_disabled_plan_is_bit_exact(self, protocol):
        """The acceptance bar: an inactive AdversaryPlan leaves every
        existing overlay result bit-identical to no adversary at all."""
        honest = build(protocol)
        attacked = build(protocol)
        adversary = Adversary(AdversaryPlan(seed=99))
        adversary.apply(attacked)
        assert adversary.inserted == 0
        assert adversary.poisoned_entries == 0
        assert routes(honest) == routes(attacked)

    @pytest.mark.parametrize("protocol", ("cycloid", "chord"))
    def test_active_plan_changes_routing(self, protocol):
        honest = build(protocol)
        attacked = build(protocol)
        Adversary(
            AdversaryPlan(seed=SEED, sybils=8, eclipse_fraction=0.4)
        ).apply(attacked)
        assert routes(honest) != routes(attacked)


class TestMetrics:
    def test_capture_fraction_bounds_and_determinism(self):
        network = build("chord")
        adversary = Adversary(AdversaryPlan(seed=SEED, sybils=12))
        adversary.apply(network)
        a = capture_fraction(network, adversary.attacker_names, probes=256)
        b = capture_fraction(network, adversary.attacker_names, probes=256)
        assert a == b
        assert 0.0 < a < 1.0

    def test_capture_fraction_empty_attackers(self):
        network = build("chord")
        assert capture_fraction(network, [], probes=16) == 0.0

    def test_capture_fraction_rejects_bad_probes(self):
        network = build("chord")
        with pytest.raises(ValueError):
            capture_fraction(network, ["evil-0"], probes=0)

    def test_interception_rate_counts_path_crossings(self):
        from repro.dht.metrics import LookupRecord

        records = [
            LookupRecord(hops=2, success=True, path=["a", "evil-0", "b"]),
            LookupRecord(hops=1, success=True, path=["a", "b"]),
            # An attacker *source* is not an interception.
            LookupRecord(hops=1, success=True, path=["evil-0", "b"]),
        ]
        assert interception_rate(records, ["evil-0"]) == pytest.approx(1 / 3)
        assert interception_rate([], ["evil-0"]) == 0.0
        assert interception_rate(records, []) == 0.0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_tracer_equals_path_metric(self, protocol):
        network = build(protocol)
        adversary = Adversary(
            AdversaryPlan(seed=SEED, sybils=8, eclipse_fraction=0.3)
        )
        adversary.apply(network)
        tracer = InterceptionTracer(adversary.attacker_names)
        rng = make_rng(31)
        records = network.lookup_many(
            list(lookup_workload(network, 80, rng)), observer=tracer
        )
        assert tracer.lookups == 80
        assert tracer.rate == pytest.approx(
            interception_rate(records, adversary.attacker_names)
        )

    def test_tracer_empty(self):
        assert InterceptionTracer(["evil-0"]).rate == 0.0


class TestBackendAndWorkerParity:
    @pytest.mark.parametrize("protocol", ("cycloid", "chord", "koorde"))
    def test_columnar_kernel_matches_on_poisoned_network(self, protocol):
        network = build(protocol)
        Adversary(
            AdversaryPlan(seed=SEED, sybils=8, eclipse_fraction=0.4)
        ).apply(network)
        pairs = list(lookup_workload(network, 80, make_rng(5)))
        obj = network.lookup_many(pairs)
        col = network.lookup_many(pairs, backend="columnar")
        assert [(r.hops, r.success, r.path) for r in obj] == [
            (r.hops, r.success, r.path) for r in col
        ]

    def test_sharded_run_worker_invariant(self):
        plan = AdversaryPlan(
            seed=SEED, sybils=8, target_key="victim-key", eclipse_fraction=0.3
        )
        setup = partial(
            plain_setup, build_adversary_network, "cycloid", POPULATION,
            SEED, plan,
        )
        digests = {
            run_sharded_lookups(
                setup, 120, SEED + 1, workers=workers, shard_size=40
            ).stats.digest()
            for workers in (1, 2)
        }
        assert len(digests) == 1

    def test_snapshot_and_rebuild_agree(self):
        plan = AdversaryPlan(seed=SEED, sybils=6, eclipse_fraction=0.2)
        setup = partial(
            plain_setup, build_adversary_network, "chord", POPULATION,
            SEED, plan,
        )
        snapshot = run_sharded_lookups(setup, 90, 3, workers=1, shard_size=30)
        rebuild = fresh_build_reference(setup, 90, 3, shard_size=30)
        assert snapshot.stats.digest() == rebuild.stats.digest()

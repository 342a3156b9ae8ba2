"""Golden parity: the shared engine reproduces the pre-engine routing.

The digests below were captured from the per-protocol ``route()`` loops
*before* they were folded into :class:`repro.dht.routing.LookupEngine`
(same networks, same seeded workload).  Each digest pins the aggregate
hop/timeout/success totals, the per-phase hop totals, and a sha256 over
every record's ``(hops, timeouts, success, phase_hops, path)`` tuple —
so any behavioural drift in any protocol's step function, or in the
engine's loop, shows up as a mismatch.
"""

import hashlib
from collections import Counter

import pytest

from repro.can import CanNetwork
from repro.chord import ChordNetwork
from repro.core import CycloidNetwork
from repro.dht.base import Network
from repro.koorde import KoordeNetwork
from repro.pastry import PastryNetwork
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.workload import lookup_workload
from repro.util.rng import make_rng
from repro.viceroy import ViceroyNetwork

LOOKUPS = 300
WORKLOAD_SEED = 97
DEPARTURE_SEED = 13
DEPARTURE_PROBABILITY = 0.2


def _departed(network):
    """Gracefully depart ~20% of nodes (seeded), no re-stabilisation."""
    rng = make_rng(DEPARTURE_SEED)
    victims = [
        n for n in network.live_nodes() if rng.random() < DEPARTURE_PROBABILITY
    ]
    for node in victims:
        if network.size <= 1:
            break
        network.leave(node)
    return network


CONFIGS = {
    "cycloid-d5": lambda: CycloidNetwork.complete(5),
    "cycloid11-d5": lambda: CycloidNetwork.complete(5, leaf_radius=2),
    "chord-512": lambda: ChordNetwork.with_random_ids(512, 9, seed=7),
    "koorde-512": lambda: KoordeNetwork.with_random_ids(512, 9, seed=7),
    "koorde-complete-8": lambda: KoordeNetwork.complete(8),
    "viceroy-512": lambda: ViceroyNetwork.with_random_ids(512, seed=7),
    "pastry-256": lambda: PastryNetwork.with_random_ids(256, seed=7),
    "can-64": lambda: CanNetwork.with_random_zones(64, seed=7),
    "cycloid-d5-departures": lambda: _departed(CycloidNetwork.complete(5)),
    "chord-512-departures": lambda: _departed(
        ChordNetwork.with_random_ids(512, 9, seed=7)
    ),
    "koorde-512-departures": lambda: _departed(
        KoordeNetwork.with_random_ids(512, 9, seed=7)
    ),
}

#: Captured from the seed implementation (commit cce17b9), 300 seeded
#: lookups per configuration.  ``koorde-complete-8`` (a dense ring,
#: where node 0's de Bruijn pointer is itself) was added later, captured
#: on the object engine before Koorde gained a columnar kernel.
GOLDEN = {
    "cycloid-d5": {
        "hops": 1467,
        "timeouts": 0,
        "successes": 300,
        "phases": {"ascending": 179, "descending": 734, "traverse": 554},
        "sha256": "81bc1a9b630766f77430350689c75c2fbcce87a604e50f90626f1c3029312ab7",
    },
    "cycloid11-d5": {
        "hops": 1181,
        "timeouts": 0,
        "successes": 300,
        "phases": {"ascending": 171, "descending": 545, "traverse": 465},
        "sha256": "634fedc9be81bdd2508f0c52c0d644251962cfd9409c507124825c31d1088cc2",
    },
    "chord-512": {
        "hops": 1096,
        "timeouts": 0,
        "successes": 300,
        "phases": {"finger": 796, "successor": 300},
        "sha256": "a17d391074c20d4581dbc40462d9b3392a270b52193e87ee189ae584cac1885d",
    },
    "koorde-512": {
        "hops": 4032,
        "timeouts": 0,
        "successes": 300,
        "phases": {"de_bruijn": 2652, "successor": 1380},
        "sha256": "50c30fd0150037d9ec143be3021fac8ff9f31194825eaad08caecff9fb4afa7d",
    },
    "koorde-complete-8": {
        "hops": 3516,
        "timeouts": 0,
        "successes": 300,
        "phases": {"de_bruijn": 2312, "successor": 1204},
        "sha256": "8a06df3754d5e82482f6533abfbfd083f20f98724ef9a8218bf804bf5e4c87d4",
    },
    "viceroy-512": {
        "hops": 6937,
        "timeouts": 0,
        "successes": 300,
        "phases": {"ascending": 1209, "descending": 2300, "traverse": 3428},
        "sha256": "bb6eb984d0612adb57c5f60c7e8b70c56e43a508f71002144f378ed94284ebb1",
    },
    "pastry-256": {
        "hops": 811,
        "timeouts": 0,
        "successes": 300,
        "phases": {"leaf": 220, "prefix": 591},
        "sha256": "1f6789b27efedc18710364c08ac6d7c74478e45e8d82c9ccebcd593d8d618f29",
    },
    "can-64": {
        "hops": 1025,
        "timeouts": 0,
        "successes": 300,
        "phases": {"greedy": 1025},
        "sha256": "59a232602b9d9fa6be337849d53f74d9deb0f2b034370e3321597cc2d188117b",
    },
    "cycloid-d5-departures": {
        "hops": 1696,
        "timeouts": 147,
        "successes": 300,
        "phases": {"ascending": 212, "descending": 749, "traverse": 735},
        "sha256": "7bd38633271a420e9001d3ce480204668a3af3c41f6dd1b90db434aaf76269ca",
    },
    "chord-512-departures": {
        "hops": 1327,
        "timeouts": 446,
        "successes": 300,
        "phases": {"finger": 934, "successor": 393},
        "sha256": "b59aa9372c9f2f85fe386fc874fd30e6dd8f4dc47041489279da0885c72c1f40",
    },
    "koorde-512-departures": {
        "hops": 4440,
        "timeouts": 782,
        "successes": 276,
        "phases": {"de_bruijn": 2545, "successor": 1895},
        "sha256": "8a2c9841fdcaacb4caf750d144e3bdaf32a4be2d2d4e455441ebca2eb0a244f9",
    },
}


def _run_records(network, injector=None, retry_budget=0):
    rng = make_rng(WORKLOAD_SEED)
    pairs = lookup_workload(network, LOOKUPS, rng)
    if injector is None and retry_budget == 0:
        return [network.lookup(source, key) for source, key in pairs]
    return network.lookup_many(
        pairs, injector=injector, retry_budget=retry_budget
    )


def _record_sha256(records):
    blob = repr(
        [
            (
                record.hops,
                record.timeouts,
                record.success,
                sorted(record.phase_hops.items()),
                [str(node) for node in record.path],
            )
            for record in records
        ]
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def routing_digest(network, injector=None, retry_budget=0):
    records = _run_records(network, injector, retry_budget)
    phases = Counter()
    for record in records:
        phases.update(record.phase_hops)
    return {
        "hops": sum(r.hops for r in records),
        "timeouts": sum(r.timeouts for r in records),
        "successes": sum(1 for r in records if r.success),
        "phases": dict(sorted(phases.items())),
        "sha256": _record_sha256(records),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engine_matches_pre_refactor_goldens(name):
    assert routing_digest(CONFIGS[name]()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_disabled_fault_plan_is_bit_exact(name):
    """The resilient engine's fault-free path must not drift: with an
    inactive :class:`FaultPlan` (all probabilities zero) the probe loop
    never arms, no retry budget is consumed, and every pre-refactor
    digest still matches bit for bit."""
    network = CONFIGS[name]()
    injector = FaultInjector(FaultPlan(seed=123))
    assert not injector.active
    records = _run_records(network, injector=injector, retry_budget=5)
    phases = Counter()
    for record in records:
        phases.update(record.phase_hops)
    digest = {
        "hops": sum(r.hops for r in records),
        "timeouts": sum(r.timeouts for r in records),
        "successes": sum(1 for r in records if r.success),
        "phases": dict(sorted(phases.items())),
        "sha256": _record_sha256(records),
    }
    assert digest == GOLDEN[name]
    assert sum(r.retries for r in records) == 0
    assert injector.dropped == 0
    assert network.route_repairs == 0


@pytest.mark.parametrize(
    "cls",
    [
        CycloidNetwork,
        ChordNetwork,
        KoordeNetwork,
        ViceroyNetwork,
        PastryNetwork,
        CanNetwork,
    ],
)
def test_no_protocol_overrides_the_driver_loop(cls):
    """There is exactly one driver loop: ``LookupEngine.run``.  Every
    overlay must route through the shared ``Network.route`` and never
    shadow it with a bespoke loop again."""
    assert cls.route is Network.route
    assert cls.lookup is Network.lookup
    assert cls.lookup_many is Network.lookup_many
    assert cls.ROUTING_PHASES, "protocol must declare its phases"

"""Golden trail of the membership lifecycle on every overlay.

A seeded script of graceful leaves, silent failures, joins,
fault-mode lookups (which drive lazy repair through
``on_dead_entry``) and per-node stabilisation runs on each overlay;
Chord and Koorde additionally take a sybil infiltration.  After every
phase the trail records the sha256 of the pickled packed network
(query counts reset), ``maintenance_updates`` and ``route_repairs``.
The digest of the whole trail is pinned per overlay, so any change to
how join/leave/fail, repair or stabilisation touch routing state shows
up here, phase by phase in the failure message.
"""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro.dht.snapshot import pack_network
from repro.experiments.registry import build_sized_network
from repro.sim.adversary import Adversary, AdversaryPlan
from repro.sim.faults import FaultInjector, FaultPlan
from repro.util.rng import make_rng

SEED = 42
#: a near-full d=4 / 6-bit id space, so joins land between members.
POPULATION = 60

MEMBERSHIP_GOLDEN = {
    "can": (
        "dae1211331be6f0e0ea5db21992a3439"
        "8fa0f64810503779690118785cc4be33"
    ),
    "chord": (
        "35623324e775104b1b1e7449e0175d09"
        "a4e674a746805033902e6e58a6726742"
    ),
    "cycloid": (
        "bb0344ec876ec4021ff5d9be133db22d"
        "a08d6c65dcf1630a8df4ad06ebc0d808"
    ),
    "cycloid-11": (
        "f62735f97663e5280727842853e60ebd"
        "9e184007dfe6707758be11f918308963"
    ),
    "koorde": (
        "220ad572864a1ff0caa043f77ee4deed"
        "08748ee3b537011243e4a17d8e91a8a0"
    ),
    "pastry": (
        "ea0ab31e76e35f4251e4a29cb42a4fd7"
        "4fbc814fd49ab3527c478bf1468d5378"
    ),
    "viceroy": (
        "8f2126ce8e6e3b3746abe1253725d0a9"
        "6f1fb372cd707a6bf182049fcc195657"
    ),
}


def _packed_sha(network) -> str:
    network.reset_query_counts()
    blob = pickle.dumps(pack_network(network), pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


def _lookups(network, rng, count: int = 60) -> None:
    """Fault-mode lookups from random live sources: timeouts on the
    departed nodes' stale entries trigger lazy repair."""
    injector = FaultInjector(FaultPlan(seed=SEED, message_loss=0.05))
    live = network.live_nodes()
    pairs = [
        (live[rng.randrange(len(live))], f"key-{rng.randrange(10**6)}")
        for _ in range(count)
    ]
    network.lookup_many(pairs, injector=injector, retry_budget=8)


def _phases(protocol: str):
    """Run the script, yielding a phase label after each step."""
    network = build_sized_network(protocol, POPULATION, seed=SEED)
    rng = make_rng(SEED)
    yield network, "built"

    def pick(count):
        live = network.live_nodes()
        return [live[i] for i in sorted(rng.sample(range(len(live)), count))]

    for node in pick(3):
        network.leave(node)
    yield network, "leave"
    for node in pick(4):
        network.fail(node)
    yield network, "fail"
    for index in range(3):
        network.join(f"joiner-{index}")
    yield network, "join"
    _lookups(network, rng)
    yield network, "lookups"
    for node in pick(2):
        network.leave(node)  # relatives' state is stale by now
    yield network, "leave-after-fail"
    for node in pick(5):
        network.stabilize_node(node)
    yield network, "stabilize_node"
    if protocol in ("chord", "koorde"):
        Adversary(AdversaryPlan(seed=SEED, sybils=3)).infiltrate(network)
        yield network, "infiltrate"
    _lookups(network, rng)
    yield network, "lookups-again"


def membership_trail(protocol: str):
    return [
        (
            phase,
            network.size,
            _packed_sha(network),
            network.maintenance_updates,
            network.route_repairs,
        )
        for network, phase in _phases(protocol)
    ]


@pytest.mark.parametrize("protocol", sorted(MEMBERSHIP_GOLDEN))
def test_membership_golden(protocol):
    trail = membership_trail(protocol)
    digest = hashlib.sha256(json.dumps(trail).encode()).hexdigest()
    assert digest == MEMBERSHIP_GOLDEN[protocol], trail

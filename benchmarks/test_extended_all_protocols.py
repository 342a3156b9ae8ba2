"""Extension — the full Table 1 roster on one workload.

Runs every implemented system (the paper's five evaluated
configurations plus Pastry and CAN) on identical lookup workloads at
two sizes and checks the complexity classes of Table 1 show up as
measured behaviour:

* state: constant for Cycloid/Viceroy/Koorde/CAN; Theta(log n) for
  Chord and Pastry (their state grows with n, the others' does not);
* hops: Pastry/Chord shortest (paying state for it), Cycloid the best
  constant-state system, CAN's O(n^(1/2)) curve rising fastest.
"""

from repro.analysis import format_table
from repro.experiments import build_complete_network, protocol_label, run_lookups
from repro.experiments.registry import ALL_PROTOCOLS

DIMENSIONS = (5, 7)  # 160 and 896 nodes
LOOKUPS = 2000


def _max_state(network) -> int:
    return max(
        getattr(node, "state_size", node.degree)
        for node in network.live_nodes()
    )


def run_roster():
    results = {}
    for dimension in DIMENSIONS:
        for protocol in ALL_PROTOCOLS:
            network = build_complete_network(protocol, dimension, seed=31)
            if protocol == "can":
                network.stabilize()  # CAN wires neighbours lazily on build
            # Pastry and CAN fall back to the object engine by themselves.
            stats = run_lookups(network, LOOKUPS, seed=32, backend="columnar")
            results[(protocol, dimension)] = (
                network.size,
                _max_state(network),
                stats.mean_path_length,
                stats.failures,
            )
    return results


def test_extended_all_protocols(benchmark, report):
    results = benchmark.pedantic(run_roster, rounds=1, iterations=1)

    # No failures anywhere.
    assert all(row[3] == 0 for row in results.values())

    small, large = DIMENSIONS
    for protocol in ("cycloid", "cycloid-11", "viceroy", "koorde", "can"):
        # Constant-state systems: state does not grow with n.
        assert (
            results[(protocol, large)][1] <= results[(protocol, small)][1] + 3
        ), protocol
    for protocol in ("chord", "pastry"):
        # Log-state systems: state clearly grows.
        assert results[(protocol, large)][1] > results[(protocol, small)][1]

    # Among constant-state systems, Cycloid routes shortest at both sizes.
    for dimension in DIMENSIONS:
        cycloid_hops = results[("cycloid", dimension)][2]
        for protocol in ("viceroy", "koorde", "can"):
            assert cycloid_hops < results[(protocol, dimension)][2], (
                protocol,
                dimension,
            )

    rows = [
        [
            protocol_label(protocol),
            results[(protocol, dimension)][0],
            results[(protocol, dimension)][1],
            f"{results[(protocol, dimension)][2]:.2f}",
        ]
        for dimension in DIMENSIONS
        for protocol in ALL_PROTOCOLS
    ]
    report(
        format_table(
            ["system", "nodes", "max state", "mean hops"],
            rows,
            title=(
                "Extension — full Table 1 roster on one workload "
                f"({LOOKUPS} lookups per point)"
            ),
        )
    )

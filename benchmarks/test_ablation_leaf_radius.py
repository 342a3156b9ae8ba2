"""Ablation — leaf-set radius: the state/hop-count trade-off.

The paper evaluates the 7-entry (radius 1) and 11-entry (radius 2)
Cycloid configurations; this ablation extends the sweep to radius 3
(15 entries) and quantifies the diminishing return, plus the
fault-tolerance side of the trade: wider leaf sets absorb more dead
pointers under mass departures.
"""

from repro.analysis import format_table
from repro.core import CycloidNetwork
from repro.experiments.common import fail_nodes, run_lookups
from repro.util.rng import make_rng

DIMENSION = 8
LOOKUPS = 4000
RADII = (1, 2, 3)


def _measure(radius: int, departure_probability: float = 0.0):
    network = CycloidNetwork.complete(DIMENSION, leaf_radius=radius)
    if departure_probability:
        fail_nodes(network, departure_probability, make_rng(99))
    stats = run_lookups(network, LOOKUPS, seed=41, backend="columnar")
    return network, stats


def test_ablation_leaf_radius(benchmark, report):
    def run():
        results = {}
        for radius in RADII:
            _, stable = _measure(radius)
            net, departed = _measure(radius, departure_probability=0.3)
            results[radius] = (stable, departed, net)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    stable_means = {r: results[r][0].mean_path_length for r in RADII}
    departed_timeouts = {
        r: results[r][1].timeout_summary().mean for r in RADII
    }

    # Monotone improvement with radius, with diminishing returns: the
    # 1->2 gain exceeds the 2->3 gain.
    assert stable_means[1] > stable_means[2] > stable_means[3]
    gain_12 = stable_means[1] - stable_means[2]
    gain_23 = stable_means[2] - stable_means[3]
    assert gain_12 > gain_23 > 0

    # Wider leaf sets also reduce timeouts under mass departures.
    assert departed_timeouts[1] > departed_timeouts[3]

    # No lookup failures at any radius, stable or departed.
    for radius in RADII:
        assert results[radius][0].failures == 0
        assert results[radius][1].failures == 0

    rows = []
    for radius in RADII:
        stable, departed, network = results[radius]
        state = 3 + 4 * radius
        rows.append(
            [
                radius,
                state,
                f"{stable.mean_path_length:.2f}",
                f"{departed.mean_path_length:.2f}",
                f"{departed.timeout_summary().mean:.2f}",
            ]
        )
    report(
        format_table(
            [
                "leaf radius",
                "state size",
                "mean path (stable)",
                "mean path (p=0.3)",
                "timeouts (p=0.3)",
            ],
            rows,
            title=(
                "Ablation — Cycloid leaf-set radius "
                f"(d={DIMENSION}, n=2048): state vs hops vs robustness"
            ),
        )
    )

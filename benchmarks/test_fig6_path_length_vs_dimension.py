"""E2 — Fig. 6: lookup path lengths as a function of network dimension.

Same measurements as Fig. 5, read against the dimension axis.  Shape
targets (paper §4.1): Cycloid's path grows roughly linearly in d and
stays lowest; Viceroy's path climbs much faster with the dimension
because one extra Cycloid dimension multiplies the population by
(d+1) * 2 while Viceroy/Koorde only double.
"""

from repro.analysis import ascii_series, format_table, series_by_protocol
from repro.experiments import run_path_length_experiment

LOOKUPS = 3000


def test_fig6_path_length_vs_dimension(benchmark, report):
    points = benchmark.pedantic(
        run_path_length_experiment,
        kwargs={"lookups": LOOKUPS, "seed": 24, "backend": "columnar"},
        rounds=1,
        iterations=1,
    )

    cycloid = sorted(
        (p for p in points if p.protocol == "cycloid"),
        key=lambda p: p.dimension,
    )
    viceroy = sorted(
        (p for p in points if p.protocol == "viceroy"),
        key=lambda p: p.dimension,
    )

    # Cycloid grows monotonically and sub-linearly: about one extra hop
    # per extra dimension.
    for previous, current in zip(cycloid, cycloid[1:]):
        growth = current.mean_path_length - previous.mean_path_length
        assert 0.0 < growth < 2.5, (previous.dimension, growth)

    # Viceroy's total growth over d = 3..8 far exceeds Cycloid's.
    viceroy_growth = viceroy[-1].mean_path_length - viceroy[0].mean_path_length
    cycloid_growth = cycloid[-1].mean_path_length - cycloid[0].mean_path_length
    assert viceroy_growth > 2 * cycloid_growth

    # At every dimension Cycloid is the most lookup-efficient
    # *constant-degree* DHT, and stays within a factor of two of Chord,
    # which buys its short paths with O(log n) routing state.
    for dimension in range(3, 9):
        at = {
            p.protocol: p.mean_path_length
            for p in points
            if p.dimension == dimension
        }
        assert at["cycloid"] < at["koorde"]
        assert at["cycloid"] < at["viceroy"]
        assert at["cycloid"] <= 2.0 * at["chord"]

    rows = [
        [p.dimension, p.protocol, f"{p.mean_path_length:.2f}"]
        for p in sorted(points, key=lambda p: (p.dimension, p.protocol))
    ]
    report(
        format_table(
            ["d", "protocol", "mean path"],
            rows,
            title="Fig. 6 — path length vs network dimension",
        )
    )
    report(
        ascii_series(
            series_by_protocol(
                points,
                x_of=lambda p: p.dimension,
                y_of=lambda p: p.mean_path_length,
                protocol_of=lambda p: p.protocol,
            ),
            title="Fig. 6 series (mean hops vs d)",
            unit=" hops",
        )
    )

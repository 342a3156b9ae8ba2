"""E3 — Fig. 7: breakdown of the lookup cost by routing phase.

(a) Cycloid: ascending / descending / traverse — ascending is a small
    share (<= ~15%) because the outside leaf set points straight at a
    primary node.
(b) Viceroy: ascending ~30%, descending ~20%, traverse more than the
    rest — most of the cost sits in the final ring walk.
(c) Koorde: de Bruijn vs successor hops — successors are roughly 30%
    in dense networks.
"""

from repro.analysis import format_table
from repro.experiments import run_phase_breakdown_experiment

LOOKUPS = 3000


def test_fig7_phase_breakdown(benchmark, report):
    points = benchmark.pedantic(
        run_phase_breakdown_experiment,
        kwargs={
            "dimensions": (4, 5, 6, 7, 8),
            "lookups": LOOKUPS,
            "seed": 7,
            "backend": "columnar",
        },
        rounds=1,
        iterations=1,
    )

    for point in points:
        fractions = point.fraction_by_phase
        if point.protocol == "cycloid":
            assert fractions["ascending"] <= 0.16, point
        elif point.protocol == "viceroy":
            assert 0.12 <= fractions["ascending"] <= 0.45, point
            assert fractions["traverse"] >= 0.30, point
        elif point.protocol == "koorde":
            # ~30% successor hops in *dense* rings (paper Fig. 7c);
            # Koorde's ring fills to a power of two, so for network
            # sizes well below it the share rises (that effect is
            # Fig. 14's subject).
            ring = 1 << max(1, (point.size - 1).bit_length())
            density = point.size / ring
            if density == 1.0:  # complete ring (n = 64 and n = 2048)
                assert 0.20 <= fractions["successor"] <= 0.40, point
            else:
                assert fractions["successor"] <= 0.60, point

    # Cycloid's ascending share is well below Viceroy's at every size.
    for dimension in (4, 5, 6, 7, 8):
        cycloid = next(
            p for p in points
            if p.protocol == "cycloid" and p.dimension == dimension
        )
        viceroy = next(
            p for p in points
            if p.protocol == "viceroy" and p.dimension == dimension
        )
        assert (
            cycloid.fraction_by_phase["ascending"]
            < viceroy.fraction_by_phase["ascending"]
        )

    rows = []
    for point in sorted(points, key=lambda p: (p.protocol, p.dimension)):
        for phase in sorted(point.fraction_by_phase):
            rows.append(
                [
                    point.protocol,
                    point.size,
                    phase,
                    f"{point.mean_hops_by_phase[phase]:.2f}",
                    f"{point.fraction_by_phase[phase] * 100:.0f}%",
                ]
            )
    report(
        format_table(
            ["protocol", "n", "phase", "mean hops", "share"],
            rows,
            title="Fig. 7 — path length breakdown by phase",
        )
    )

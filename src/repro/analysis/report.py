"""Plain-text rendering of experiment results.

The benchmarks print each figure/table in the same shape the paper
reports it: a column per protocol, a row per x-value, plus a rough
ASCII rendition of the figure series so `bench_output.txt` is readable
on its own.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Tuple, TypeVar

__all__ = [
    "format_table",
    "ascii_series",
    "series_by_protocol",
    "format_bench_table",
    "format_clone_bench_table",
    "format_kernel_bench_table",
]

T = TypeVar("T")


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [
        [str(value) for value in row] for row in rows
    ]
    widths = [
        max(len(line[column]) for line in cells)
        for column in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    for index, line in enumerate(cells):
        lines.append(
            "  ".join(value.ljust(widths[i]) for i, value in enumerate(line))
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_bench_table(
    cells: Sequence[Mapping[str, object]], workers: int
) -> str:
    """Render ``bench`` cell timings as an aligned table.

    Each cell mapping carries ``protocol``, ``serial_seconds``,
    ``parallel_seconds``, ``speedup`` and ``digest_match`` — the same
    records the bench writes to ``BENCH_parallel.json`` — and, when
    timed over repeats, each side's ``*_spread_seconds`` (max - min),
    shown as ``+spread`` beside the best time.
    """

    def timed(cell, side: str) -> str:
        text = f"{cell[side + '_seconds']:.2f}s"
        spread = cell.get(side + "_spread_seconds")
        return text if spread is None else f"{text} +{spread:.2f}"

    rows = [
        [
            cell["protocol"],
            timed(cell, "serial"),
            timed(cell, "parallel"),
            f"{cell['speedup']:.2f}x",
            "yes" if cell["digest_match"] else "NO",
        ]
        for cell in cells
    ]
    return format_table(
        ["protocol", "serial", f"{workers} workers", "speedup", "bit-exact"],
        rows,
        f"Parallel lookup bench (workers={workers})",
    )


def format_clone_bench_table(
    cells: Sequence[Mapping[str, object]]
) -> str:
    """Render the build-vs-clone section of the bench report.

    Each cell mapping carries the ``build_vs_clone`` records of
    ``BENCH_parallel.json``: one full network build timed against a
    snapshot restore and an in-process clone of the same network.
    ``CloneBenchCell`` instances are accepted directly.
    """
    cells = [
        cell.as_dict() if hasattr(cell, "as_dict") else cell
        for cell in cells
    ]
    rows = [
        [
            cell["protocol"],
            str(cell["population"]),
            f"{float(cell['build_seconds']) * 1e3:.1f}ms",
            f"{float(cell['restore_seconds']) * 1e3:.1f}ms",
            f"{float(cell['clone_seconds']) * 1e3:.1f}ms",
            f"{cell['restore_speedup']:.1f}x",
            "yes" if cell["digest_match"] else "NO",
        ]
        for cell in cells
    ]
    return format_table(
        ["protocol", "n", "build", "restore", "clone", "speedup", "bit-exact"],
        rows,
        "Build-once vs per-shard rebuild (one shard's network)",
    )


def format_kernel_bench_table(
    cells: Sequence[Mapping[str, object]]
) -> str:
    """Render the ``kernel`` section of the bench report.

    Each cell mapping carries the object-vs-columnar backend timings of
    ``BENCH_parallel.json`` (DESIGN §S23).  ``KernelBenchCell``
    instances are accepted directly.
    """
    cells = [
        cell.as_dict() if hasattr(cell, "as_dict") else cell
        for cell in cells
    ]
    rows = [
        [
            cell["protocol"],
            str(cell["lookups"]),
            f"{float(cell['object_lookups_per_s']):,.0f}/s",
            f"{float(cell['columnar_lookups_per_s']):,.0f}/s",
            f"{cell['speedup']:.1f}x",
            "yes" if cell["digest_match"] else "NO",
        ]
        for cell in cells
    ]
    return format_table(
        ["protocol", "lookups", "object", "columnar", "speedup", "bit-exact"],
        rows,
        "Lookup execution backends (object vs columnar kernel)",
    )


def series_by_protocol(
    points: Sequence[T],
    x_of: Callable[[T], object],
    y_of: Callable[[T], float],
    protocol_of: Callable[[T], str],
) -> Dict[str, List[Tuple[object, float]]]:
    """Group measurement points into per-protocol (x, y) series."""
    series: Dict[str, List[Tuple[object, float]]] = {}
    for point in points:
        series.setdefault(protocol_of(point), []).append(
            (x_of(point), y_of(point))
        )
    return series


def ascii_series(
    series: Mapping[str, Sequence[Tuple[object, float]]],
    width: int = 50,
    title: str = "",
    unit: str = "",
) -> str:
    """A rough horizontal-bar rendition of figure series."""
    peak = max(
        (y for values in series.values() for _, y in values), default=0.0
    )
    lines: List[str] = []
    if title:
        lines.append(title)
    if peak <= 0:
        peak = 1.0
    for protocol in sorted(series):
        lines.append(f"{protocol}:")
        for x, y in series[protocol]:
            bar = "#" * max(1, round(width * y / peak)) if y > 0 else ""
            lines.append(f"  {x!s:>8} | {bar} {y:.2f}{unit}")
    return "\n".join(lines)

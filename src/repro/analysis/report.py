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

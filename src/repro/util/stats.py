"""Statistics used throughout the evaluation.

The paper reports three quantities for nearly every experiment: the mean
and the 1st/99th percentiles of a per-node or per-lookup distribution
(Figs 8-10, Tables 4-5).  :func:`summarize` packages exactly that.
Percentiles use the inclusive linear-interpolation definition (numpy's
default), which is what matters for reproducing the *spread* shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence

__all__ = [
    "mean",
    "percentile",
    "summarize",
    "DistributionSummary",
    "PhaseBreakdown",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (an empty experiment)."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    frac = rank - low
    lo, hi = ordered[low], ordered[high]
    # `lo + (hi - lo) * frac` is monotone in `frac` (the weighted form
    # `lo * (1 - frac) + hi * frac` is not, by one ulp: [5]*8 + [6]
    # gave p1 > p50).  Clamp to the bracketing samples: float rounding
    # of `hi - lo` must never push a percentile past `hi` (possible by
    # one ulp for extreme magnitude mixes), where the next rank starts.
    return min(max(lo + (hi - lo) * frac, lo), hi)


@dataclass(frozen=True)
class DistributionSummary:
    """Mean and 1st/99th percentiles of a sample, as reported in the paper."""

    mean: float
    p1: float
    p99: float
    minimum: float
    maximum: float
    count: int

    def as_row(self) -> str:
        """Render in the paper's ``mean (p1, p99)`` table style."""
        return f"{self.mean:.2f} ({self.p1:g}, {self.p99:g})"

    @property
    def spread(self) -> float:
        """99th-to-1st percentile span — the load-imbalance indicator."""
        return self.p99 - self.p1


def summarize(values: Iterable[float]) -> DistributionSummary:
    """Summarise a sample into a :class:`DistributionSummary`."""
    data = list(values)
    if not data:
        return DistributionSummary(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    return DistributionSummary(
        mean=mean(data),
        p1=percentile(data, 1.0),
        p99=percentile(data, 99.0),
        minimum=float(min(data)),
        maximum=float(max(data)),
        count=len(data),
    )


@dataclass
class PhaseBreakdown:
    """Accumulates per-phase hop counts across many lookups (Figs 7, 14).

    ``totals`` maps a phase label (e.g. ``"ascending"`` or ``"de_bruijn"``)
    to the summed hop count over all recorded lookups.
    """

    totals: Dict[str, int] = field(default_factory=dict)
    lookups: int = 0

    def record(self, phase_hops: Mapping[str, int]) -> None:
        """Add one lookup's per-phase hop counts."""
        for phase, hops in phase_hops.items():
            self.totals[phase] = self.totals.get(phase, 0) + hops
        self.lookups += 1

    @property
    def total_hops(self) -> int:
        return sum(self.totals.values())

    def mean_hops(self, phase: str) -> float:
        """Mean hops spent in ``phase`` per lookup."""
        if self.lookups == 0:
            return 0.0
        return self.totals.get(phase, 0) / self.lookups

    def fraction(self, phase: str) -> float:
        """Share of all hops spent in ``phase`` (the stacked-bar heights)."""
        total = self.total_hops
        if total == 0:
            return 0.0
        return self.totals.get(phase, 0) / total

    def fractions(self) -> Dict[str, float]:
        return {phase: self.fraction(phase) for phase in sorted(self.totals)}

    def phases(self) -> List[str]:
        return sorted(self.totals)

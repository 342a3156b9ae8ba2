"""Per-lookup and aggregate metrics.

A simulated lookup produces a :class:`LookupRecord`: its hop count, a
per-phase hop breakdown (ascending/descending/traverse for Cycloid and
Viceroy, de-Bruijn/successor for Koorde, finger/successor for Chord),
the number of timeouts (dead nodes contacted, paper §4.3) and whether it
reached the key's correct storing node.  :class:`LookupStats` aggregates
records into the paper's reporting quantities.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.util.stats import (
    DistributionSummary,
    PhaseBreakdown,
    mean,
    percentile,
    summarize,
)

__all__ = ["LookupRecord", "LookupStats"]


@dataclass(slots=True)
class LookupRecord:
    """Outcome of one simulated lookup.

    ``path`` holds the node names the message passed through, source
    first — ``len(path) == hops + 1`` whenever it is recorded.

    ``phase_hops``, when present, must sum to ``hops``.  Records built
    by :class:`repro.dht.routing.LookupEngine` always carry the full
    phase dict (every phase of the protocol, zero-filled), so the
    empty-dict escape below only applies to hand-built records.

    ``retries`` counts the engine's fault-mode probe continuations
    (re-sends after lost messages plus fallbacks past dead targets); it
    is always 0 on the fault-free path.

    ``latency_ms`` is the modeled end-to-end milliseconds of the lookup
    when the run was driven with a :class:`repro.sim.latency.LatencyModel`
    attached — the sum of the model's per-link delays along ``path``.
    It stays ``None`` on latency-free runs, keeping those records (and
    their digests) bit-identical to the pre-latency engine.
    """

    hops: int
    success: bool
    timeouts: int = 0
    phase_hops: Dict[str, int] = field(default_factory=dict)
    source: Optional[object] = None
    key: Optional[object] = None
    owner: Optional[object] = None
    path: List[object] = field(default_factory=list)
    retries: int = 0
    latency_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.hops < 0:
            raise ValueError("hops must be non-negative")
        if self.timeouts < 0:
            raise ValueError("timeouts must be non-negative")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        phase_total = sum(self.phase_hops.values())
        if self.phase_hops and phase_total != self.hops:
            raise ValueError(
                f"phase hops {phase_total} do not sum to total hops {self.hops}"
            )
        if self.path and len(self.path) != self.hops + 1:
            raise ValueError(
                f"path of {len(self.path)} entries does not match "
                f"{self.hops} hops"
            )
        if self.latency_ms is not None and self.latency_ms < 0.0:
            raise ValueError("latency_ms must be non-negative")


@dataclass
class LookupStats:
    """Aggregate over many :class:`LookupRecord` instances."""

    records: List[LookupRecord] = field(default_factory=list)

    def add(self, record: LookupRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[LookupRecord]) -> None:
        self.records.extend(records)

    def merge(self, other: "LookupStats") -> "LookupStats":
        """Fold ``other``'s records into this aggregate (in place).

        Merging is associative, and every derived quantity except the
        record *order* (means, percentiles, failure and phase totals) is
        invariant under permutation of the merged parts — the property
        the sharded runner (:mod:`repro.sim.parallel`) relies on and the
        hypothesis suite pins.  Returns ``self`` for chaining.
        """
        self.records.extend(other.records)
        return self

    @classmethod
    def merged(cls, parts: Iterable["LookupStats"]) -> "LookupStats":
        """One aggregate over many partial aggregates."""
        total = cls()
        for part in parts:
            total.records.extend(part.records)
        return total

    def digest(self) -> str:
        """sha256 over every record's full canonical content.

        The digest covers ``(hops, timeouts, success, retries,
        phase_hops, source, key, owner, path)`` of every record *in
        order*, so two runs agree iff they produced bit-identical
        records in the same sequence — the equality the parallel-parity
        tests and CI's paper-scale parity step assert between worker
        counts.
        A record that carries a modeled ``latency_ms`` appends it (the
        exact float ``repr``) to its tuple; latency-free records keep
        the original 9-tuple shape so the committed golden baselines
        stay valid verbatim.
        """

        def canonical(r: LookupRecord) -> tuple:
            parts = (
                r.hops,
                r.timeouts,
                r.success,
                r.retries,
                sorted(r.phase_hops.items()),
                str(r.source),
                str(r.key),
                str(r.owner),
                [str(node) for node in r.path],
            )
            if r.latency_ms is not None:
                parts += (r.latency_ms,)
            return parts

        blob = repr([canonical(r) for r in self.records]).encode()
        return hashlib.sha256(blob).hexdigest()

    def __len__(self) -> int:
        return len(self.records)

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> int:
        """Lookups that did not reach the key's correct storing node."""
        return sum(1 for r in self.records if not r.success)

    @property
    def mean_path_length(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.hops for r in self.records) / len(self.records)

    def path_length_summary(self) -> DistributionSummary:
        return summarize([r.hops for r in self.records])

    def timeout_summary(self) -> DistributionSummary:
        """Mean and 1st/99th percentile timeouts (Tables 4 and 5)."""
        return summarize([r.timeouts for r in self.records])

    @property
    def total_retries(self) -> int:
        """Fault-mode probe continuations summed over all lookups."""
        return sum(r.retries for r in self.records)

    def retry_summary(self) -> DistributionSummary:
        """Distribution of per-lookup retry counts (crash experiment)."""
        return summarize([r.retries for r in self.records])

    def latencies_ms(self) -> List[float]:
        """The modeled per-lookup milliseconds, for records that have
        them (latency-free records are simply absent)."""
        return [
            r.latency_ms for r in self.records if r.latency_ms is not None
        ]

    @property
    def mean_latency_ms(self) -> float:
        """Mean modeled lookup latency; 0.0 when nothing was modeled."""
        return mean(self.latencies_ms())

    def latency_percentiles(self) -> Dict[str, float]:
        """The milliseconds distribution the fig-latency experiment
        reports: mean plus p50/p95/p99 (linear interpolation, matching
        :func:`repro.util.stats.percentile`).  All zeros when no record
        carries a modeled latency."""
        values = self.latencies_ms()
        return {
            "mean": mean(values),
            "p50": percentile(values, 50.0),
            "p95": percentile(values, 95.0),
            "p99": percentile(values, 99.0),
        }

    def phase_breakdown(self) -> PhaseBreakdown:
        """Per-phase hop shares across all lookups (Figs 7 and 14)."""
        breakdown = PhaseBreakdown()
        for record in self.records:
            breakdown.record(record.phase_hops)
        return breakdown

    def query_load(self) -> Mapping[object, int]:
        """Not tracked here — query load is counted by the networks.

        Provided to fail loudly if an experiment asks the wrong object.
        """
        raise NotImplementedError(
            "query load is recorded per node by Network.query_counts()"
        )

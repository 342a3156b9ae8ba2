"""fig-adversary — sybil/eclipse attacks and hotspot caching (§S27).

Two questions, one report:

* **How much does a seeded adversary capture?**  For each overlay and
  each attacker fraction ``f``, a :class:`~repro.sim.adversary
  .AdversaryPlan` inserts ``round(f * population)`` sybils clustered
  around a target key and eclipse-poisons fraction ``f`` of honest
  nodes' repairable routing entries.  The cell reports the
  keyspace-capture fraction (seeded owner probes), whether the target
  key itself fell, the lookup-interception rate (fraction of recorded
  paths crossing an attacker), and the success/hops degradation against
  the same overlay's ``f = 0`` baseline cell.
* **How bad is a hotspot, and how much does caching recover?**  A
  Zipf-skewed workload (:class:`~repro.sim.workload.ZipfSampler`) runs
  against each honest overlay twice — uncached and through a bounded
  :class:`~repro.dht.cache.PathCacheLayer` — reporting mean hops and
  the cache hit rate.

The attacked overlays are built *sparse* (the id space holds about
twice the population) so crafted attacker identifiers have free slots
to land on — a complete overlay has none, and a real adversary attacks
the id space, not the census.  Attack cells run through
:func:`repro.sim.parallel.run_sharded_lookups` and hotspot cells
through :func:`repro.sim.parallel.run_cells` with self-seeding cells,
so the report — every digest included — is bit-identical at any
``--workers``; capture metrics are routing-free owner probes and do not
depend on workers at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.dht.cache import PathCacheLayer
from repro.dht.kernel import DEFAULT_BACKEND
from repro.dht.metrics import LookupStats
from repro.dht.routing import TraceObserver
from repro.experiments.registry import (
    _ring_bits_for,
    build_sized_network,
    dimension_for_space,
)
from repro.sim.adversary import (
    Adversary,
    AdversaryPlan,
    capture_fraction,
    interception_rate,
)
from repro.sim.parallel import (
    DEFAULT_SHARD_SIZE,
    plain_setup,
    run_cells,
    run_sharded_lookups,
)
from repro.sim.workload import ZipfSampler
from repro.util.reports import check_cells, check_report, check_section
from repro.util.rng import make_rng

__all__ = [
    "ADVERSARY_BENCH_SCHEMA",
    "ADVERSARY_PROTOCOLS",
    "DEFAULT_FRACTIONS",
    "AdversaryPoint",
    "HotspotPoint",
    "build_adversary_network",
    "hotspot_cell",
    "run_adversary_experiment",
    "adversary_report",
    "validate_adversary_report",
]

#: Schema tag of the ``BENCH_adversary.json`` report.
ADVERSARY_BENCH_SCHEMA = "repro/adversary-bench/v1"

#: Overlays with crafted-id infiltration + poisoning support.
ADVERSARY_PROTOCOLS = ("cycloid", "cycloid-11", "chord", "koorde")

#: Attacker fractions swept by default; 0.0 is the honest baseline the
#: degradation deltas are computed against.
DEFAULT_FRACTIONS = (0.0, 0.02, 0.05, 0.1)

#: The application key every sybil cluster surrounds.
DEFAULT_TARGET_KEY = "adversary-target"

#: Owner probes behind each capture-fraction estimate.
CAPTURE_PROBES = 1024

#: Hotspot workload shape: Zipf exponent, corpus size, cache bound.
DEFAULT_ZIPF_S = 1.1
DEFAULT_KEY_UNIVERSE = 128
DEFAULT_CACHE_CAPACITY = 32


@dataclass(frozen=True)
class AdversaryPoint:
    """One (overlay, attacker fraction) attack measurement."""

    label: str
    protocol: str
    fraction: float
    sybils: int
    eclipse_fraction: float
    population: int
    space: int
    victims: int
    poisoned_entries: int
    capture_fraction: float
    target_captured: bool
    interception_rate: float
    success_rate: float
    mean_hops: float
    failures: int
    #: sha256 over the cell's canonical records — the workers-parity pin.
    digest: str


@dataclass(frozen=True)
class HotspotPoint:
    """One (overlay, cache capacity) hotspot measurement."""

    label: str
    protocol: str
    capacity: int
    mean_hops: float
    success_rate: float
    hit_rate: float
    hits: int
    misses: int
    evictions: int
    digest: str


def _space_of(protocol: str, population: int) -> int:
    """Size of the sparse id space the attacked build uses."""
    if protocol.startswith("cycloid"):
        dimension = dimension_for_space(2 * population)
        return dimension * (1 << dimension)
    return 1 << (_ring_bits_for(population) + 1)


def build_adversary_network(
    protocol: str, population: int, seed: int, plan: AdversaryPlan
):
    """Build the sparse overlay, then apply ``plan``'s adversary.

    Module-level with picklable arguments (``AdversaryPlan`` is a
    frozen dataclass) so ``functools.partial`` over it crosses the
    sharded runner's process pool; every shard, whether it routes on a
    restored snapshot or on a fresh build, sees the identical attacked
    topology.
    """
    if protocol.startswith("cycloid"):
        network = build_sized_network(
            protocol,
            population,
            seed=seed,
            cycloid_dimension=dimension_for_space(2 * population),
        )
    else:
        network = build_sized_network(
            protocol,
            population,
            seed=seed,
            id_space_bits=_ring_bits_for(population) + 1,
        )
    Adversary(plan).apply(network)
    return network


def hotspot_cell(
    protocol: str,
    population: int,
    seed: int,
    lookups: int,
    key_universe: int,
    zipf_s: float,
    capacity: int,
) -> dict:
    """One self-seeding hotspot cell (module-level for ``run_cells``).

    Builds the honest sparse overlay, draws a Zipf(``zipf_s``) workload
    over ``key_universe`` keys, and routes it through a
    :class:`PathCacheLayer` of the given ``capacity`` (``0`` = the
    uncached baseline, bit-exact to the plain engine).  Lookup order is
    part of the cache semantics, so the cell runs serially; worker
    invariance comes from every cell seeding itself.
    """
    network = build_adversary_network(
        protocol, population, seed, AdversaryPlan(seed=seed)
    )
    nodes = network.live_nodes()
    sampler = ZipfSampler.from_universe(key_universe, make_rng(seed), s=zipf_s)
    rng = make_rng(seed + 1)
    pairs = [
        (nodes[rng.randrange(len(nodes))], sampler.draw(rng))
        for _ in range(lookups)
    ]
    layer = PathCacheLayer(network, capacity)
    stats = LookupStats(layer.lookup_many(pairs))
    return {
        "label": f"{protocol}/cache-{capacity}",
        "protocol": protocol,
        "capacity": capacity,
        "mean_hops": stats.mean_path_length,
        "success_rate": (stats.count - stats.failures) / stats.count,
        "hit_rate": layer.stats.hit_rate,
        "hits": layer.stats.hits,
        "misses": layer.stats.misses,
        "evictions": layer.stats.evictions,
        "digest": stats.digest(),
    }


def run_adversary_experiment(
    population: int = 2048,
    protocols: Sequence[str] = ADVERSARY_PROTOCOLS,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    lookups: int = 1000,
    seed: int = 23,
    target_key: str = DEFAULT_TARGET_KEY,
    observer: Optional[TraceObserver] = None,
    workers: int = 1,
    backend: str = DEFAULT_BACKEND,
    shard_size: int = DEFAULT_SHARD_SIZE,
    zipf_s: float = DEFAULT_ZIPF_S,
    key_universe: int = DEFAULT_KEY_UNIVERSE,
    cache_capacity: int = DEFAULT_CACHE_CAPACITY,
) -> Dict[str, object]:
    """Sweep attacker fractions per overlay, plus the hotspot cells.

    Returns ``{"attacks": [AdversaryPoint...], "hotspots":
    [HotspotPoint...]}``.  Every number is a pure function of the
    arguments; ``workers`` only fans the work out.
    """
    attacks: List[AdversaryPoint] = []
    for protocol in protocols:
        for fraction in fractions:
            sybils = round(fraction * population)
            plan = AdversaryPlan(
                seed=seed,
                sybils=sybils,
                target_key=target_key,
                eclipse_fraction=fraction,
            )
            # Driver-side twin of the sharded setup: same builder, same
            # arguments, hence the identical attacked topology.  Capture
            # metrics are owner probes against it — routing-free, so no
            # worker dependence is possible.
            adversary = Adversary(plan)
            network = build_adversary_network(
                protocol, population, seed, AdversaryPlan(seed=seed)
            )
            adversary.apply(network)
            names = adversary.attacker_names
            capture = capture_fraction(network, names, probes=CAPTURE_PROBES)
            target_owner = network.owner_of_id(network.key_id(target_key))
            merged = run_sharded_lookups(
                partial(
                    plain_setup,
                    build_adversary_network,
                    protocol,
                    population,
                    seed,
                    plan,
                ),
                lookups,
                seed + 1,
                workers=workers,
                shard_size=shard_size,
                observer=observer,
                backend=backend,
            )
            stats = merged.stats
            attacks.append(
                AdversaryPoint(
                    label=f"{protocol}/f={fraction:g}",
                    protocol=protocol,
                    fraction=fraction,
                    sybils=adversary.inserted,
                    eclipse_fraction=fraction,
                    population=population,
                    space=_space_of(protocol, population),
                    victims=adversary.victims,
                    poisoned_entries=adversary.poisoned_entries,
                    capture_fraction=capture,
                    target_captured=str(target_owner.name) in set(names),
                    interception_rate=interception_rate(stats.records, names),
                    success_rate=(stats.count - stats.failures) / stats.count,
                    mean_hops=stats.mean_path_length,
                    failures=stats.failures,
                    digest=stats.digest(),
                )
            )
    hotspot_tasks = [
        partial(
            hotspot_cell,
            protocol,
            population,
            seed,
            lookups,
            key_universe,
            zipf_s,
            capacity,
        )
        for protocol in protocols
        for capacity in (0, cache_capacity)
    ]
    hotspots = [
        HotspotPoint(**cell) for cell in run_cells(hotspot_tasks, workers)
    ]
    return {"attacks": attacks, "hotspots": hotspots}


def adversary_report(
    results: Dict[str, object],
    population: int,
    lookups: int,
    seed: int,
    target_key: str,
    workers: int,
    zipf_s: float = DEFAULT_ZIPF_S,
    key_universe: int = DEFAULT_KEY_UNIVERSE,
    cache_capacity: int = DEFAULT_CACHE_CAPACITY,
) -> Dict[str, object]:
    """The ``BENCH_adversary.json`` document for one experiment run.

    ``workers`` is recorded for provenance only — every other field is
    independent of it (the CI smoke job diffs two runs at different
    worker counts after dropping the ``workers`` line).
    """
    attacks: Sequence[AdversaryPoint] = results["attacks"]
    hotspots: Sequence[HotspotPoint] = results["hotspots"]
    degradation: Dict[str, dict] = {}
    for point in attacks:
        base = degradation.setdefault(
            point.protocol,
            {
                "baseline_success": None,
                "worst_success": None,
                "baseline_hops": None,
                "worst_hops": None,
            },
        )
        if point.fraction == 0.0:
            base["baseline_success"] = point.success_rate
            base["baseline_hops"] = point.mean_hops
        worst = base["worst_success"]
        if worst is None or point.success_rate < worst:
            base["worst_success"] = point.success_rate
        hops = base["worst_hops"]
        if hops is None or point.mean_hops > hops:
            base["worst_hops"] = point.mean_hops
    for entry in degradation.values():
        if entry["baseline_success"] is not None:
            entry["success_drop"] = (
                entry["baseline_success"] - entry["worst_success"]
            )
            entry["hops_inflation"] = (
                entry["worst_hops"] - entry["baseline_hops"]
            )
    return {
        "schema": ADVERSARY_BENCH_SCHEMA,
        "population": population,
        "lookups": lookups,
        "seed": seed,
        "target_key": target_key,
        "workers": workers,
        "capture_probes": CAPTURE_PROBES,
        "cells": [
            {
                "label": p.label,
                "protocol": p.protocol,
                "attacker_fraction": p.fraction,
                "plan": AdversaryPlan(
                    seed=seed,
                    sybils=p.sybils,
                    target_key=target_key,
                    eclipse_fraction=p.eclipse_fraction,
                ).to_config(),
                "population": p.population,
                "space": p.space,
                "sybils": p.sybils,
                "victims": p.victims,
                "poisoned_entries": p.poisoned_entries,
                "capture_fraction": p.capture_fraction,
                "target_captured": p.target_captured,
                "interception_rate": p.interception_rate,
                "success_rate": p.success_rate,
                "mean_hops": p.mean_hops,
                "failures": p.failures,
                "digest": p.digest,
            }
            for p in attacks
        ],
        "degradation": degradation,
        "hotspot": {
            "zipf_s": zipf_s,
            "key_universe": key_universe,
            "cache_capacity": cache_capacity,
            "cells": [
                {
                    "label": h.label,
                    "protocol": h.protocol,
                    "capacity": h.capacity,
                    "mean_hops": h.mean_hops,
                    "success_rate": h.success_rate,
                    "hit_rate": h.hit_rate,
                    "hits": h.hits,
                    "misses": h.misses,
                    "evictions": h.evictions,
                    "digest": h.digest,
                }
                for h in hotspots
            ],
        },
    }


_ADVERSARY_REPORT_KEYS = (
    "schema",
    "population",
    "lookups",
    "seed",
    "target_key",
    "capture_probes",
    "cells",
    "degradation",
    "hotspot",
)
_ADVERSARY_CELL_KEYS = (
    "label",
    "protocol",
    "attacker_fraction",
    "plan",
    "population",
    "space",
    "sybils",
    "victims",
    "poisoned_entries",
    "capture_fraction",
    "target_captured",
    "interception_rate",
    "success_rate",
    "mean_hops",
    "failures",
    "digest",
)
_HOTSPOT_CELL_KEYS = (
    "label",
    "protocol",
    "capacity",
    "mean_hops",
    "success_rate",
    "hit_rate",
    "hits",
    "misses",
    "evictions",
    "digest",
)


def validate_adversary_report(report: Dict[str, object]) -> None:
    """Schema-guard a ``BENCH_adversary.json`` document.

    Raises ``ValueError`` naming the first violation: missing keys,
    malformed cells or plans, out-of-range rates, digests that are not
    sha256 hex strings, or fewer than three overlays covered.
    """
    check_report(
        report, "adversary", ADVERSARY_BENCH_SCHEMA, _ADVERSARY_REPORT_KEYS
    )
    cells = report["cells"]
    check_cells(cells, _ADVERSARY_CELL_KEYS, "adversary")
    for cell in cells:
        # Round-trips iff the embedded plan block is well-formed.
        AdversaryPlan.from_config(cell["plan"])
        for rate_key in (
            "capture_fraction",
            "interception_rate",
            "success_rate",
        ):
            rate = cell[rate_key]
            if not (
                isinstance(rate, (int, float))
                and not isinstance(rate, bool)
                and 0.0 <= rate <= 1.0
            ):
                raise ValueError(
                    f"adversary cell {cell['label']!r} {rate_key} "
                    f"{rate!r} is not a rate in [0, 1]"
                )
    protocols = {cell["protocol"] for cell in cells}
    if len(protocols) < 3:
        raise ValueError(
            f"adversary report covers {len(protocols)} overlays, need >= 3"
        )
    hotspot = report["hotspot"]
    check_section(
        hotspot,
        ("zipf_s", "key_universe", "cache_capacity", "cells"),
        "adversary report hotspot section",
    )
    hotspot_cells = hotspot["cells"]
    if not isinstance(hotspot_cells, list) or not hotspot_cells:
        raise ValueError("adversary report has no hotspot cells")
    check_cells(hotspot_cells, _HOTSPOT_CELL_KEYS, "hotspot", "hotspot")
    degradation = report["degradation"]
    if not isinstance(degradation, dict) or not degradation:
        raise ValueError("adversary report degradation section is empty")

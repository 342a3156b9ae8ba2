"""Experiment harness — one module per table/figure of the paper's §4.

Every experiment is a plain function returning typed result rows, so
the benchmarks, examples and tests all share one implementation.  See
DESIGN.md §3 for the experiment index (E1-E11) and the shape targets.
"""

from repro.experiments.registry import (
    CYCLOID_11,
    PROTOCOLS,
    build_complete_network,
    build_sized_network,
    protocol_label,
)
from repro.experiments.common import run_lookups
from repro.experiments.path_length import (
    PathLengthPoint,
    run_path_length_experiment,
)
from repro.experiments.breakdown import (
    BreakdownPoint,
    run_phase_breakdown_experiment,
    run_koorde_sparsity_breakdown,
)
from repro.experiments.key_distribution import (
    KeyDistributionPoint,
    run_key_distribution_experiment,
)
from repro.experiments.query_load import (
    QueryLoadPoint,
    run_query_load_experiment,
)
from repro.experiments.failures import (
    FailurePoint,
    run_mass_departure_experiment,
)
from repro.experiments.churn import ChurnPoint, run_churn_experiment
from repro.experiments.crash import CrashPoint, run_crash_experiment
from repro.experiments.sparsity import (
    SparsityPoint,
    run_sparsity_experiment,
)
from repro.experiments.properties import (
    ArchitectureRow,
    architecture_table,
)
from repro.experiments.maintenance import (
    MaintenancePoint,
    run_maintenance_experiment,
)
from repro.experiments.fig_latency import (
    LatencyPoint,
    latency_report,
    run_latency_experiment,
    validate_latency_report,
)
from repro.experiments.adversary import (
    AdversaryPoint,
    HotspotPoint,
    adversary_report,
    run_adversary_experiment,
    validate_adversary_report,
)
from repro.experiments.scale import (
    ScalePoint,
    run_scale_experiment,
    scale_parity,
    scale_report,
    validate_scale_report,
)

__all__ = [
    "PROTOCOLS",
    "CYCLOID_11",
    "build_complete_network",
    "build_sized_network",
    "protocol_label",
    "run_lookups",
    "PathLengthPoint",
    "run_path_length_experiment",
    "BreakdownPoint",
    "run_phase_breakdown_experiment",
    "run_koorde_sparsity_breakdown",
    "KeyDistributionPoint",
    "run_key_distribution_experiment",
    "QueryLoadPoint",
    "run_query_load_experiment",
    "FailurePoint",
    "run_mass_departure_experiment",
    "ChurnPoint",
    "run_churn_experiment",
    "CrashPoint",
    "run_crash_experiment",
    "SparsityPoint",
    "run_sparsity_experiment",
    "ArchitectureRow",
    "architecture_table",
    "MaintenancePoint",
    "run_maintenance_experiment",
    "LatencyPoint",
    "run_latency_experiment",
    "latency_report",
    "validate_latency_report",
    "AdversaryPoint",
    "HotspotPoint",
    "run_adversary_experiment",
    "adversary_report",
    "validate_adversary_report",
    "ScalePoint",
    "run_scale_experiment",
    "scale_parity",
    "scale_report",
    "validate_scale_report",
]

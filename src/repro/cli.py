"""Command-line interface: regenerate any of the paper's experiments.

Every command is one row of :data:`COMMANDS`: its help, its options,
the shared options it takes, the runner it calls and the table its
result prints as.  The parser, the ``--trace`` gating and dispatch are
derived from that table, so adding a figure is adding one row.
``repro <command> --help`` lists a command's options and defaults.

``--workers N`` output is bit-identical at any N, and ``--backend
columnar`` (the vectorized kernel, DESIGN §S23) is bit-identical to the
default ``object`` engine.  ``--trace PATH`` streams every routing hop
as one JSON line (:class:`repro.dht.routing.JsonlTraceSink`) and forces
in-process execution; on ``loadgen`` it captures the live per-RPC hops.
``serve``, ``loadgen`` and ``churnstorm`` run a built overlay as a
cluster of asyncio node servers on loopback (DESIGN S22, S24).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import experiments as ex
from repro.analysis import format_table
from repro.dht.bulkbuild import SAMPLERS
from repro.dht.kernel import BACKENDS
from repro.dht.routing import JsonlTraceSink
from repro.experiments.adversary import ADVERSARY_PROTOCOLS, DEFAULT_FRACTIONS
from repro.experiments.registry import ALL_PROTOCOLS
from repro.experiments.scale import SCALE_COUNTS, SCALE_PROTOCOLS
from repro.net.loadgen import validate_net_report

__all__ = ["COMMANDS", "Command", "build_parser", "main", "parse_args"]

#: The run seed when neither ``--seed`` nor the command's row sets one.
DEFAULT_SEED = 42

Option = Tuple[str, Dict[str, Any]]
#: A table column: its header and the cell it shows for one item.
Column = Tuple[str, Callable[[Any], object]]

#: Shared options a row takes.  ``"trace"`` streams engine hops to a
#: sink; ``"live-trace"`` hands the path to a runner that traces itself.
ENGINE = ("workers", "backend", "trace")
ROUTED = ("workers", "trace")


def _opt(flag: str, default: Any = None, help: str = "", **extra) -> Option:
    """One option as data: its type follows ``default`` (a list takes
    one or more values, a bool is a switch) unless ``extra`` sets it,
    and its help ends with the default."""
    kwargs: Dict[str, Any] = {"default": default}
    if isinstance(default, bool):
        kwargs["action"] = "store_true"
    else:
        sample = default[0] if isinstance(default, list) else default
        if isinstance(default, list):
            kwargs["nargs"] = "+"
        if sample is not None:
            kwargs["type"] = type(sample)
        help = f"{help} (default: %(default)s)".lstrip()
    return flag, {**kwargs, "help": help, **extra}


@dataclass(frozen=True)
class Report:
    """The JSON report a command validates and writes to ``--output``."""

    path: str
    noun: str
    validate: Callable[[Dict[str, object]], None]


@dataclass(frozen=True)
class Command:
    """One CLI command.

    A row with ``columns`` is a table command: ``run(args, **common)``
    gets ``seed`` plus ``observer`` / ``workers`` / ``backend`` when it
    ``takes`` them; a ``report`` result is written to ``--output``.  One
    table line prints per result item (per report cell) under ``title``
    (formatted with ``args`` and ``result``), then ``footer(result)``.
    A row without columns is a live command: ``run(args)`` prints for
    itself and returns the exit status.  ``help`` defaults to the title;
    a row with its own ``seed`` also accepts ``--seed`` after its name.
    """

    name: str
    options: Tuple[Option, ...]
    run: Callable[..., Any]
    title: str = ""
    columns: Tuple[Column, ...] = ()
    help: str = ""
    footer: Optional[Callable[[Any], Optional[str]]] = None
    takes: Tuple[str, ...] = ()
    report: Optional[Report] = None
    seed: Optional[int] = None


def _calls(experiment: Callable, *names: str, **renames: str):
    """The runner passing ``args.<name>`` as ``<name>=`` (and each
    ``keyword="attr"`` rename) to ``experiment``; lists become tuples."""
    params = {**{name: name for name in names}, **renames}

    def run(args: argparse.Namespace, **common):
        values = {key: getattr(args, attr) for key, attr in params.items()}
        for key, value in values.items():
            if isinstance(value, list):
                values[key] = tuple(value)
        return experiment(**values, **common)

    return run


#: The shared options a row can take besides ``--trace``.
_SHARED = {
    "workers": _opt(
        "--workers",
        1,
        "fan the experiment out over N processes; the output is "
        "bit-identical at any worker count",
        metavar="N",
    ),
    # choices= gives the same actionable error shape as
    # run_sharded_lookups: the bad value, then the valid choices.
    "backend": _opt(
        "--backend",
        "object",
        "'object' walks the node graph hop-at-a-time, 'columnar' runs "
        "the vectorized numpy kernel (DESIGN S23); records are identical",
        choices=BACKENDS,
    ),
}


#: The §S25 link-model knobs besides its seed, with their defaults.
_LINK = {
    "regions": 4,
    "intra_ms": 5.0,
    "inter_min_ms": 40.0,
    "inter_max_ms": 160.0,
    "jitter_ms": 10.0,
}


def _latency_options(seed: Optional[int]) -> Tuple[Option, ...]:
    """The link-model options; ``seed=None`` makes the model opt-in."""
    knobs = [_opt("--" + k.replace("_", "-"), v) for k, v in _LINK.items()]
    return (
        _opt(
            "--latency-seed",
            seed,
            "seed of the link delay model; unset, hops take no modeled time",
            type=int,
        ),
        *knobs,
    )


def _latency_model(args: argparse.Namespace):
    """The LatencyModel the args describe, or None when opted out."""
    if args.latency_seed is None:
        return None
    from repro.sim.latency import LatencyModel

    knobs = {key: getattr(args, key) for key in _LINK}
    return LatencyModel(seed=args.latency_seed, **knobs)


_BUILD_OPTIONS = (
    _opt("--protocol", "cycloid", choices=ALL_PROTOCOLS),
    _opt("--dimension", 4, "Cycloid dimension; complete unless --nodes"),
    _opt("--nodes", None, "build N randomly-placed nodes", type=int),
    _opt("--servers", 4, "asyncio node servers sharing the overlay"),
)
_TIMEOUT = _opt("--timeout", 5.0, "per-RPC reply timeout in seconds")
_RETRY_BUDGET = _opt("--retry-budget", 8, "attempts after the first, per op")


def _print(text: str) -> None:
    print(text)
    print()


def _table(columns: Tuple[Column, ...], items, title: str) -> str:
    return format_table(
        [header for header, _ in columns],
        [[cell(item) for _, cell in columns] for item in items],
        title,
    )


def _write_report(args: argparse.Namespace, report: dict) -> None:
    """Validate ``report``, then write it to ``--output`` as JSON."""
    spec = COMMANDS[args.command].report
    spec.validate(report)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"{spec.noun} -> {args.output}", file=sys.stderr)


def _note_partial(report: dict) -> None:
    if not report.get("complete", True):
        print(
            "note: run was interrupted — the report is partial "
            '("complete": false)',
            file=sys.stderr,
        )


def _build_recipe(args: argparse.Namespace) -> dict:
    """The deterministic overlay recipe the live-command args name."""
    recipe: dict = {"protocol": args.protocol, "seed": args.seed}
    if args.nodes is not None:
        recipe["nodes"] = args.nodes
    recipe["dimension"] = args.dimension
    return recipe


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net.cluster import LocalCluster, serve_forever
    from repro.net.loadgen import build_from_recipe

    build = _build_recipe(args)
    latency = _latency_model(args)

    async def _serve() -> None:
        network = build_from_recipe(build)
        cluster = LocalCluster(
            network, servers=args.servers, build=build, latency=latency
        )
        await cluster.start()
        try:
            if args.cluster_file is not None:
                cluster.write_spec(args.cluster_file)
                print(
                    f"cluster spec -> {args.cluster_file}", file=sys.stderr
                )
            print(
                f"serving {len(cluster.directory)} {build['protocol']} "
                f"nodes on {len(cluster.services)} servers:"
            )
            for service in cluster.services:
                host, port = service.address
                print(f"  {host}:{port}  ({len(service.hosted)} nodes)")
            await serve_forever(cluster, args.lifetime)
        finally:
            await cluster.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _run_loadgen(args: argparse.Namespace) -> int:
    from repro.net.cluster import load_spec
    from repro.net.loadgen import run_loadgen
    from repro.sim.faults import RetryPolicy

    spec = None
    if args.cluster_file is not None:
        try:
            spec = load_spec(args.cluster_file)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load cluster spec: {exc}", file=sys.stderr)
            return 2
        build = dict(spec["build"])
    else:
        build = _build_recipe(args)

    report = run_loadgen(
        build,
        servers=args.servers,
        clients=args.clients,
        lookups=args.lookups,
        puts=args.puts,
        seed=args.seed,
        retry=RetryPolicy(budget=args.retry_budget),
        timeout=args.timeout,
        spec=spec,
        trace_path=args.trace,
        latency=_latency_model(args),
    )
    _write_report(args, report)
    ops = report["ops"]
    latency = report["latency_ms"]
    digest = report["digest"]
    rows = [
        ["ops", ops["total"]],
        ["failures", ops["failures"]],
        ["client retries", ops["retries"]],
        ["throughput (ops/s)", f"{report['throughput_ops_per_s']:.0f}"],
        ["p50 latency (ms)", f"{latency['p50']:.2f}"],
        ["p95 latency (ms)", f"{latency['p95']:.2f}"],
        ["p99 latency (ms)", f"{latency['p99']:.2f}"],
        ["engine parity", "match" if digest["match"] else "MISMATCH"],
    ]
    if "model_ms" in report:
        model = report["model_ms"]
        rows.append(["modeled p50 (ms)", f"{model['p50']:.2f}"])
        rows.append(
            ["model parity (max |diff| ms)", f"{model['max_abs_diff_ms']:.6f}"]
        )
    title = f"loadgen — {build['protocol']}, {args.clients} clients"
    _print(format_table(["metric", "value"], rows, title))
    _note_partial(report)
    if args.trace is not None:
        print(
            f"trace: {report['trace']['lines']} hop events -> {args.trace}",
            file=sys.stderr,
        )
    if ops["failures"] or not digest["match"]:
        print(
            "error: live run had failures or diverged from the "
            "in-memory engine",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_churnstorm(args: argparse.Namespace) -> int:
    from repro.net.loadgen import run_churnstorm
    from repro.sim.faults import ChurnPlan, RetryPolicy

    build = _build_recipe(args)
    report = run_churnstorm(
        build,
        servers=args.servers,
        replicas=args.replicas,
        rate=args.rate,
        operations=args.ops,
        churn=ChurnPlan(
            seed=args.seed, kills=args.kills, rejoin=not args.no_rejoin
        ),
        seed=args.seed,
        retry=RetryPolicy(budget=args.retry_budget),
        timeout=args.timeout,
        clients=args.clients,
    )
    _write_report(args, report)
    ops = report["ops"]
    churn = report["churn"]
    open_loop = report["open_loop"]["latency_ms"]["all"]
    under_replication = churn["under_replication_ms"]["max"]
    rows = [
        ["ops", ops["total"]],
        ["failures", ops["failures"]],
        ["client retries", ops["retries"]],
        ["crashes / joins", f"{churn['crashes']} / {churn['joins']}"],
        ["acked writes", churn["acked_writes"]],
        ["lost acked keys", churn["lost_acked_keys"]],
        ["survival rate", f"{churn['survival_rate']:.4f}"],
        ["under-replication (ms, max)", f"{under_replication:.1f}"],
        ["open-loop p50 (ms)", f"{open_loop['p50']:.2f}"],
        ["open-loop p95 (ms)", f"{open_loop['p95']:.2f}"],
        ["open-loop p99 (ms)", f"{open_loop['p99']:.2f}"],
    ]
    title = (
        f"churnstorm — {build['protocol']}, replicas={args.replicas}, "
        f"{args.kills} kills"
    )
    _print(format_table(["metric", "value"], rows, title))
    _note_partial(report)
    if churn["lost_acked_keys"]:
        print(
            f"error: {churn['lost_acked_keys']} acknowledged key(s) were "
            "lost to churn — the zero-loss bar failed",
            file=sys.stderr,
        )
        return 1
    return 0


def _path_length(name: str, title: str, header: str, x: str) -> Command:
    """fig5 / fig6: mean path length by network size or dimension."""
    experiment = _calls(ex.run_path_length_experiment, "dimensions", "lookups")
    return Command(
        name,
        (_opt("--lookups", 3000), _opt("--dimensions", [3, 4, 5, 6, 7, 8])),
        lambda args, **common: sorted(
            experiment(args, **common), key=lambda p: (p.size, p.protocol)
        ),
        title,
        (
            (header, lambda p: getattr(p, x)),
            ("protocol", lambda p: p.protocol),
            ("mean path", lambda p: f"{p.mean_path_length:.2f}"),
        ),
        takes=ENGINE,
    )


def _key_distribution(name: str, nodes: int) -> Command:
    return Command(
        name,
        (_opt("--nodes", nodes), _opt("--keys", [10_000, 50_000, 100_000])),
        _calls(
            ex.run_key_distribution_experiment,
            node_count="nodes",
            key_counts="keys",
        ),
        "{args.command} — key distribution ({args.nodes} nodes)",
        (
            ("protocol", lambda p: p.protocol),
            ("keys", lambda p: p.keys),
            ("mean/node", lambda p: f"{p.summary.mean:.1f}"),
            ("p1", lambda p: f"{p.summary.p1:.0f}"),
            ("p99", lambda p: f"{p.summary.p99:.0f}"),
        ),
        help=f"key distribution, {nodes} nodes",
        takes=("workers",),
    )


def _phase_shares(args, **common):
    """fig7's table items: one (point, phase) pair per printed line."""
    points = ex.run_phase_breakdown_experiment(
        dimensions=tuple(args.dimensions), lookups=args.lookups, **common
    )
    return [
        (point, phase)
        for point in points
        for phase in sorted(point.fraction_by_phase)
    ]


def _latency(args, **common):
    model = _latency_model(args)
    points = ex.run_latency_experiment(
        dimension=args.dimension, lookups=args.lookups, model=model, **common
    )
    return ex.latency_report(
        points,
        dimension=args.dimension,
        lookups=args.lookups,
        seed=args.seed,
        model=model,
        workers=args.workers,
    )


def _proximity_verdict(report: dict) -> Optional[str]:
    proximity = report.get("proximity")
    if proximity is None:
        return None
    verdict = "wins" if proximity["proximity_wins"] else "DOES NOT WIN"
    return (
        f"proximity selection {verdict}: "
        f"{proximity['proximity_mean_ms']:.2f} ms vs "
        f"{proximity['random_mean_ms']:.2f} ms random "
        f"({proximity['improvement_ms']:+.2f} ms)"
    )


def _adversary(args, **common):
    results = ex.run_adversary_experiment(
        population=args.population,
        protocols=tuple(args.protocols),
        fractions=tuple(args.fractions),
        lookups=args.lookups,
        target_key=args.target_key,
        cache_capacity=args.cache_capacity,
        **common,
    )
    return ex.adversary_report(
        results,
        population=args.population,
        lookups=args.lookups,
        seed=args.seed,
        target_key=args.target_key,
        workers=args.workers,
        cache_capacity=args.cache_capacity,
    )


def _hotspot_table(report: dict) -> str:
    hotspot = report["hotspot"]
    columns = (
        ("overlay/cache", lambda c: c["label"]),
        ("mean hops", lambda c: f"{c['mean_hops']:.2f}"),
        ("hit rate", lambda c: f"{c['hit_rate']:.3f}"),
        ("success", lambda c: f"{c['success_rate']:.3f}"),
        ("digest", lambda c: c["digest"][:12]),
    )
    title = f"fig-adversary — Zipf hotspot, s = {hotspot['zipf_s']}"
    return _table(columns, hotspot["cells"], title)


def _scale(args, **common):
    points = ex.run_scale_experiment(
        counts=tuple(args.counts),
        protocols=tuple(args.protocols),
        lookups=args.lookups,
        sampler=args.sampler,
        **common,
    )
    parity = ex.scale_parity(
        points,
        parity_count=args.parity_count,
        seed=args.seed,
        ladder_counts=tuple(args.ladder),
    )
    return ex.scale_report(
        points,
        parity,
        lookups=args.lookups,
        seed=args.seed,
        sampler=args.sampler,
    )


def _parity_verdict(report: dict) -> str:
    parity = report["parity"]
    digest = "match" if parity["digest_match"] else "MISMATCH"
    speedup = "ok" if parity["speedup_ok"] else "BELOW BAR"
    return (
        f"parity digest at n={parity['parity_count']}: {digest}; "
        f"bulk {parity['bulk_build_seconds']:.3f}s vs extrapolated "
        f"object {parity['extrapolated_object_seconds']:.1f}s "
        f"(fit n^{parity['fit_exponent']:.2f}) = "
        f"{parity['speedup']:.0f}x ({speedup})"
    )


_TABLE = (
    _path_length(
        "fig5", "Fig. 5 — path length vs network size", "n", "size"
    ),
    _path_length(
        "fig6", "Fig. 6 — path length vs dimension", "d", "dimension"
    ),
    Command(
        "fig7",
        (_opt("--lookups", 3000), _opt("--dimensions", [4, 6, 8])),
        _phase_shares,
        "Fig. 7 — phase breakdown",
        (
            ("protocol", lambda pp: pp[0].protocol),
            ("n", lambda pp: pp[0].size),
            ("phase", lambda pp: pp[1]),
            ("mean hops", lambda pp: f"{pp[0].mean_hops_by_phase[pp[1]]:.2f}"),
            ("share", lambda pp: f"{pp[0].fraction_by_phase[pp[1]]:.0%}"),
        ),
        takes=ENGINE,
    ),
    _key_distribution("fig8", 2000),
    _key_distribution("fig9", 1000),
    Command(
        "fig10",
        (_opt("--lookups-per-node", 8),),
        _calls(ex.run_query_load_experiment, "lookups_per_node"),
        "Fig. 10 — query load",
        (
            ("protocol", lambda p: p.protocol),
            ("n", lambda p: p.size),
            ("mean load", lambda p: f"{p.summary.mean:.1f}"),
            ("p1", lambda p: f"{p.summary.p1:.0f}"),
            ("p99", lambda p: f"{p.summary.p99:.0f}"),
        ),
        takes=ROUTED,
    ),
    Command(
        "fig11",
        (
            _opt("--lookups", 10_000),
            _opt("--probabilities", [0.1, 0.2, 0.3, 0.4, 0.5]),
        ),
        _calls(ex.run_mass_departure_experiment, "probabilities", "lookups"),
        "Fig. 11 + Table 4 — massive departures",
        (
            ("protocol", lambda p: p.protocol),
            ("p", lambda p: f"{p.probability:.1f}"),
            ("mean path", lambda p: f"{p.mean_path_length:.2f}"),
            ("timeouts", lambda p: p.timeout_row()),
            ("failures", lambda p: p.lookup_failures),
        ),
        takes=ROUTED,
    ),
    Command(
        "fig12",
        (
            _opt("--rates", [0.05, 0.2, 0.4]),
            _opt("--duration", 1000.0),
            _opt("--population", 2048),
        ),
        _calls(ex.run_churn_experiment, "rates", "population", "duration"),
        "Fig. 12 + Table 5 — churn",
        (
            ("protocol", lambda p: p.protocol),
            ("R", lambda p: f"{p.rate:.2f}"),
            ("mean path", lambda p: f"{p.mean_path_length:.2f}"),
            ("timeouts", lambda p: p.timeout_row()),
            ("failures", lambda p: p.lookup_failures),
        ),
        takes=ROUTED,
    ),
    Command(
        "fig13",
        (_opt("--lookups", 5000),),
        _calls(ex.run_sparsity_experiment, "lookups"),
        "Fig. 13 — sparsity",
        (
            ("protocol", lambda p: p.protocol),
            ("sparsity", lambda p: f"{p.sparsity:.1f}"),
            ("nodes", lambda p: p.population),
            ("mean path", lambda p: f"{p.mean_path_length:.2f}"),
        ),
        takes=ROUTED,
    ),
    Command(
        "fig14",
        (_opt("--lookups", 5000),),
        _calls(ex.run_koorde_sparsity_breakdown, "lookups"),
        "Fig. 14 — Koorde breakdown vs sparsity",
        (
            ("sparsity", lambda p: f"{1 - p.size / 2048:.1f}"),
            ("nodes", lambda p: p.size),
            (
                "successor share",
                lambda p: f"{p.fraction_by_phase['successor']:.0%}",
            ),
        ),
        takes=ENGINE,
    ),
    Command(
        "fig-crash",
        (
            _opt("--lookups", 2000),
            _opt("--crash-prob", [0.1, 0.3, 0.5]),
            _opt("--msg-loss", 0.05),
            _opt("--retry-budget", 8),
            _opt("--dimension", 8),
        ),
        _calls(
            ex.run_crash_experiment,
            "lookups",
            "retry_budget",
            "dimension",
            probabilities="crash_prob",
            message_loss="msg_loss",
        ),
        "Crash resilience — graceful vs ungraceful failures",
        (
            ("protocol", lambda p: p.protocol),
            ("p", lambda p: f"{p.probability:.1f}"),
            ("mode", lambda p: p.mode),
            ("success", lambda p: f"{p.success_rate:.1%}"),
            ("mean path", lambda p: f"{p.mean_path_length:.2f}"),
            ("timeouts", lambda p: p.timeout_row()),
            ("retries", lambda p: f"{p.mean_retries:.2f}"),
            ("repairs", lambda p: p.route_repairs),
        ),
        takes=ENGINE,
    ),
    Command(
        "fig-latency",
        (
            _opt("--lookups", 2000),
            _opt("--dimension", 8, "Cycloid dimension (8 is n = 2048)"),
            *_latency_options(seed=7),
        ),
        _latency,
        "fig-latency — modeled milliseconds, n = {result[cells][0][size]}",
        (
            ("overlay", lambda c: c["label"]),
            ("mean ms", lambda c: f"{c['mean_ms']:.2f}"),
            ("p50", lambda c: f"{c['p50_ms']:.2f}"),
            ("p95", lambda c: f"{c['p95_ms']:.2f}"),
            ("p99", lambda c: f"{c['p99_ms']:.2f}"),
            ("mean hops", lambda c: f"{c['mean_path_length']:.2f}"),
            ("digest", lambda c: c["digest"][:12]),
        ),
        help="end-to-end lookup milliseconds under a seeded link model, "
        "with Cycloid proximity-vs-random leaf selection (DESIGN S25)",
        footer=_proximity_verdict,
        takes=ENGINE,
        report=Report(
            "BENCH_latency.json", "latency report", ex.validate_latency_report
        ),
    ),
    Command(
        "fig-adversary",
        (
            _opt("--population", 2048, "honest node count per overlay"),
            _opt("--lookups", 1000),
            _opt("--fractions", list(DEFAULT_FRACTIONS), "attacker fractions"),
            _opt(
                "--protocols",
                list(ADVERSARY_PROTOCOLS),
                choices=list(ADVERSARY_PROTOCOLS),
            ),
            _opt("--target-key", "adversary-target", "key sybils surround"),
            _opt("--cache-capacity", 32, "per-node path-cache bound"),
        ),
        _adversary,
        "fig-adversary — sybil+eclipse, n = {args.population}",
        (
            ("overlay/fraction", lambda c: c["label"]),
            ("sybils", lambda c: c["sybils"]),
            ("capture", lambda c: f"{c['capture_fraction']:.4f}"),
            ("target", lambda c: "yes" if c["target_captured"] else "no"),
            ("intercept", lambda c: f"{c['interception_rate']:.3f}"),
            ("success", lambda c: f"{c['success_rate']:.3f}"),
            ("mean hops", lambda c: f"{c['mean_hops']:.2f}"),
            ("digest", lambda c: c["digest"][:12]),
        ),
        help="seeded sybil/eclipse attacks: keyspace capture, lookup "
        "interception and degradation vs attacker fraction, plus Zipf "
        "hotspot caching (DESIGN S27)",
        footer=_hotspot_table,
        takes=ENGINE,
        report=Report(
            "BENCH_adversary.json",
            "adversary report",
            ex.validate_adversary_report,
        ),
        seed=23,
    ),
    Command(
        "fig-scale",
        (
            _opt("--counts", list(SCALE_COUNTS), "populations to build"),
            _opt(
                "--protocols",
                list(SCALE_PROTOCOLS),
                choices=list(SCALE_PROTOCOLS),
            ),
            _opt("--lookups", 2048),
            _opt("--sampler", "fast", "sweep id sampler", choices=SAMPLERS),
            _opt("--parity-count", 4096, "bulk-vs-object digest population"),
            _opt("--ladder", [4096, 16384, 65536], "object-build timings"),
        ),
        _scale,
        "fig-scale — bulk-built overlays under the columnar kernel",
        (
            ("protocol", lambda c: c["protocol"]),
            ("n", lambda c: f"{c['count']:,}"),
            ("d/bits", lambda c: c["sizing"]),
            ("build s", lambda c: f"{c['build_seconds']:.3f}"),
            ("nodes/s", lambda c: f"{c['build_nodes_per_sec']:,.0f}"),
            ("col MB", lambda c: f"{c['column_bytes'] / 1e6:.0f}"),
            ("lookups/s", lambda c: f"{c['lookups_per_sec']:,.0f}"),
            ("mean hops", lambda c: f"{c['mean_hops']:.2f}"),
            ("success", lambda c: f"{c['success_rate']:.3f}"),
            ("digest", lambda c: c["digest"][:12]),
        ),
        help="bulk-build 10^4..10^6-node overlays direct-to-columns, run "
        "kernel lookup batches, pin object-build parity (DESIGN S26)",
        footer=_parity_verdict,
        report=Report(
            "BENCH_scale.json", "scale report", ex.validate_scale_report
        ),
        seed=11,
    ),
    Command(
        "maint",
        (
            _opt("--population", 1024),
            _opt("--events", 200),
            _opt("--lookups", 1000),
        ),
        _calls(
            ex.run_maintenance_experiment, "population", "events", "lookups"
        ),
        "Maintenance fan-out + post-departure probe",
        (
            ("protocol", lambda p: p.protocol),
            ("per join", lambda p: f"{p.updates_per_join:.1f}"),
            ("per leave", lambda p: f"{p.updates_per_leave:.1f}"),
            ("per departure", lambda p: f"{p.updates_per_departure:.1f}"),
            ("probe path", lambda p: f"{p.probe_mean_path:.2f}"),
            ("probe failures", lambda p: p.probe_failures),
        ),
        takes=ROUTED,
    ),
    Command(
        "serve",
        (
            *_BUILD_OPTIONS,
            *_latency_options(seed=None),
            _opt("--cluster-file", None, "write the attachable spec here"),
            _opt(
                "--lifetime",
                None,
                "seconds to serve; unset, serve until interrupted",
                type=float,
            ),
        ),
        _run_serve,
        help="run a built overlay as a live cluster of node servers",
    ),
    Command(
        "loadgen",
        (
            *_BUILD_OPTIONS,
            *_latency_options(seed=None),
            _opt("--cluster-file", None, "attach to this cluster spec"),
            _opt("--clients", 64),
            _opt("--lookups", 256),
            _opt("--puts", 32, "PUT/GET pairs after the lookups"),
            _TIMEOUT,
            _RETRY_BUDGET,
        ),
        _run_loadgen,
        help="drive a live cluster closed-loop and write BENCH_net.json",
        takes=("live-trace",),
        report=Report(
            "BENCH_net.json", "net bench report", validate_net_report
        ),
    ),
    Command(
        "churnstorm",
        (
            *_BUILD_OPTIONS,
            _opt("--replicas", 2, "replication factor; zero loss needs 2+"),
            _opt("--rate", 200.0, "open-loop Poisson arrivals per second"),
            _opt("--ops", 400, "operations in the open-loop storm"),
            _opt("--clients", 8, "client connections to round-robin over"),
            _opt("--kills", 3, "virtual nodes to crash mid-run"),
            _opt("--no-rejoin", False, "do not rejoin the crashed victims"),
            _TIMEOUT,
            _RETRY_BUDGET,
        ),
        _run_churnstorm,
        help="open-loop churn harness: kill/rejoin nodes mid-load and "
        "verify zero acknowledged-write loss",
        report=Report(
            "BENCH_net.json", "churn bench report", validate_net_report
        ),
    ),
    Command(
        "table1",
        (),
        lambda args, **common: ex.architecture_table(**common),
        "Table 1 — architecture",
        (
            ("system", lambda r: r.label),
            ("base", lambda r: r.base_network),
            ("lookup", lambda r: r.lookup_complexity),
            ("state", lambda r: r.routing_state),
            ("measured max", lambda r: r.max_observed_state),
        ),
    ),
)

#: Every command, in ``repro --help`` order.
COMMANDS: Dict[str, Command] = {command.name: command for command in _TABLE}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Cycloid paper's tables and figures.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"run seed (default: {DEFAULT_SEED}, or the command's own)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL per-hop trace of every lookup to PATH "
        "(lookup-driven commands only; forces in-process execution)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        subparser = sub.add_parser(
            command.name, help=command.help or command.title
        )
        options = list(command.options)
        if command.report is not None:
            path, noun = command.report.path, command.report.noun
            text = f"where to write the {noun}"
            options.append(_opt("--output", path, text, metavar="PATH"))
        options += [_SHARED[name] for name in command.takes if name in _SHARED]
        for flag, kwargs in options:
            subparser.add_argument(flag, **kwargs)
        if command.seed is not None:
            # SUPPRESS keeps a global --seed when this one is absent.
            subparser.add_argument(
                "--seed",
                type=int,
                default=argparse.SUPPRESS,
                help=f"run seed (default: {command.seed})",
            )
    return parser


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """Parse ``argv``; without an explicit ``--seed`` (before or after
    the command name) the seed is the command's own, else the default."""
    args = build_parser().parse_args(argv)
    if args.seed is None:
        own = COMMANDS[args.command].seed
        args.seed = DEFAULT_SEED if own is None else own
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    command = COMMANDS[args.command]
    if args.trace is None or "live-trace" in command.takes:
        return _dispatch(command, args, None)
    if "trace" not in command.takes:
        traceable = [c.name for c in _TABLE if "trace" in c.takes]
        print(
            f"error: --trace is not supported for {args.command} "
            f"(traceable: {', '.join(traceable)})",
            file=sys.stderr,
        )
        return 2
    try:
        trace_file = open(args.trace, "w", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot open trace file: {exc}", file=sys.stderr)
        return 2
    sink = JsonlTraceSink(trace_file)
    try:
        return _dispatch(command, args, sink)
    finally:
        trace_file.close()
        print(
            f"trace: {sink.events_written} hop events -> {args.trace}",
            file=sys.stderr,
        )


def _dispatch(
    command: Command,
    args: argparse.Namespace,
    sink: Optional[JsonlTraceSink],
) -> int:
    if not command.columns:
        return command.run(args)
    common: Dict[str, Any] = {"seed": args.seed}
    if "trace" in command.takes:
        common["observer"] = sink
    for name in _SHARED:
        if name in command.takes:
            common[name] = getattr(args, name)
    result = command.run(args, **common)
    items = result
    if command.report is not None:
        _write_report(args, result)
        items = result["cells"]
    title = command.title.format(args=args, result=result)
    _print(_table(command.columns, items, title))
    footer = command.footer(result) if command.footer is not None else None
    if footer is not None:
        _print(footer)
    return 0


if __name__ == "__main__":
    sys.exit(main())

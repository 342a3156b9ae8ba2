"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro.cli fig5  [--lookups N] [--dimensions 3 4 5]
    python -m repro.cli fig7
    python -m repro.cli fig8  [--nodes 2000] [--keys 10000 ...]
    python -m repro.cli fig10
    python -m repro.cli fig11 [--lookups N]
    python -m repro.cli fig12 [--rates 0.05 0.4] [--duration SECONDS]
    python -m repro.cli fig13
    python -m repro.cli fig14
    python -m repro.cli fig-crash [--crash-prob 0.1 0.3] [--msg-loss P]
    python -m repro.cli fig-latency [--dimension D] [--latency-seed S]
    python -m repro.cli fig-adversary [--population N] [--fractions F ...]
    python -m repro.cli fig-scale [--counts N ...] [--lookups N]
    python -m repro.cli maint [--lookups N]
    python -m repro.cli table1
    python -m repro.cli serve [--protocol P] [--dimension D] [--servers N]
    python -m repro.cli loadgen [--clients N] [--lookups N] [--puts N]
    python -m repro.cli churnstorm [--replicas R] [--kills N] [--rate R]

Each command prints the reproduced table; the heavier sweeps accept
size knobs so a laptop run can be scaled down.

Every figure command accepts ``--workers N`` to fan its experiment out
over N processes through :mod:`repro.sim.parallel`; the output is
bit-identical at any worker count (``tests/sim/test_parallel_parity.py``
and CI's parity step check exactly that).

The pure-lookup commands (fig5/6/7, fig14, fig-crash) also accept
``--backend {object,columnar}``: ``object`` (default) routes each
lookup hop-at-a-time over the node graph, ``columnar`` executes the
whole batch as vectorized numpy sweeps (DESIGN §S23) — the records are
bit-identical, the kernel is just faster (``perfbench``'s
``paper-sim`` workload times it).

``--trace PATH`` (on the lookup-driven commands: fig5/6/7, fig10,
fig11, fig12, fig13, fig14, fig-crash, maint) streams every routing
hop as one JSON line to ``PATH`` — see
:class:`repro.dht.routing.JsonlTraceSink`.  Tracing forces in-process
execution (the sink holds a file handle), overriding ``--workers``.

``serve`` boots a built overlay as a cluster of asyncio node servers
on loopback (DESIGN S22) and writes an attachable spec file;
``loadgen`` drives such a cluster (its own, or one attached via
``--cluster-file``) with concurrent closed-loop clients and writes a
digest-checked ``BENCH_net.json``.  On ``loadgen``, ``--trace``
captures the *live* per-RPC hop stream (the engine's JSONL hop schema
plus ``rpc`` and ``latency_ms`` fields).

``churnstorm`` (DESIGN S24) boots a replicated cluster and batters it:
an open-loop Poisson/Zipf workload fired at scheduled times
(coordinated-omission-free latency) while a seeded churn plan crashes
and rejoins virtual nodes mid-run; afterwards every acknowledged PUT is
read back and the command exits non-zero if any acknowledged key was
lost.  With ``--replicas >= 2`` the acceptance bar is a survival rate
of exactly 1.0.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import format_table
from repro.dht.routing import JsonlTraceSink, TraceObserver
from repro.experiments import (
    architecture_table,
    run_churn_experiment,
    run_crash_experiment,
    run_key_distribution_experiment,
    run_koorde_sparsity_breakdown,
    run_maintenance_experiment,
    run_mass_departure_experiment,
    run_path_length_experiment,
    run_phase_breakdown_experiment,
    run_query_load_experiment,
    run_sparsity_experiment,
)
from repro.experiments.adversary import (
    ADVERSARY_PROTOCOLS,
    DEFAULT_FRACTIONS,
)
from repro.experiments.registry import ALL_PROTOCOLS
from repro.experiments.scale import SCALE_COUNTS, SCALE_PROTOCOLS
from repro.dht.bulkbuild import SAMPLERS
from repro.dht.kernel import BACKENDS

__all__ = ["main", "build_parser"]


def _add_workers(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan the experiment out over N processes; the output is "
        "bit-identical at any worker count (default: 1)",
    )


def _add_backend(subparser: argparse.ArgumentParser) -> None:
    # argparse's choices= produces the same actionable error shape as
    # run_sharded_lookups: name the bad value, list the valid choices.
    subparser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="object",
        help="lookup execution backend: 'object' walks the node graph "
        "hop-at-a-time (default), 'columnar' runs the vectorized numpy "
        "kernel (DESIGN S23); both produce bit-identical records",
    )


def _add_latency_model(
    subparser: argparse.ArgumentParser, default_seed: Optional[int]
) -> None:
    """The §S25 link-model knobs.

    With ``default_seed=None`` the model is opt-in (``serve`` /
    ``loadgen`` run without one unless ``--latency-seed`` is given);
    ``fig-latency`` defaults it on.
    """
    subparser.add_argument(
        "--latency-seed",
        type=int,
        default=default_seed,
        metavar="SEED",
        help="seed of the link delay model"
        + (
            " (default: off — hops take no modeled time)"
            if default_seed is None
            else f" (default: {default_seed})"
        ),
    )
    subparser.add_argument("--regions", type=int, default=4, metavar="N")
    subparser.add_argument(
        "--intra-ms", type=float, default=5.0, metavar="MS"
    )
    subparser.add_argument(
        "--inter-min-ms", type=float, default=40.0, metavar="MS"
    )
    subparser.add_argument(
        "--inter-max-ms", type=float, default=160.0, metavar="MS"
    )
    subparser.add_argument(
        "--jitter-ms", type=float, default=10.0, metavar="MS"
    )


def _latency_model(args: argparse.Namespace):
    """The LatencyModel the args describe, or None when opted out."""
    if args.latency_seed is None:
        return None
    from repro.sim.latency import LatencyModel

    return LatencyModel(
        seed=args.latency_seed,
        regions=args.regions,
        intra_ms=args.intra_ms,
        inter_min_ms=args.inter_min_ms,
        inter_max_ms=args.inter_max_ms,
        jitter_ms=args.jitter_ms,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Cycloid paper's tables and figures.",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL per-hop trace of every lookup to PATH "
        "(lookup-driven commands only; forces in-process execution)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig5 = sub.add_parser("fig5", help="path length vs network size")
    fig5.add_argument("--lookups", type=int, default=3000)
    fig5.add_argument(
        "--dimensions", type=int, nargs="+", default=[3, 4, 5, 6, 7, 8]
    )
    fig6 = sub.add_parser("fig6", help="path length vs dimension")
    fig6.add_argument("--lookups", type=int, default=3000)
    fig6.add_argument(
        "--dimensions", type=int, nargs="+", default=[3, 4, 5, 6, 7, 8]
    )

    fig7 = sub.add_parser("fig7", help="phase breakdown")
    fig7.add_argument("--lookups", type=int, default=3000)
    fig7.add_argument(
        "--dimensions", type=int, nargs="+", default=[4, 6, 8]
    )

    for name, nodes in (("fig8", 2000), ("fig9", 1000)):
        p = sub.add_parser(name, help=f"key distribution, {nodes} nodes")
        p.add_argument("--nodes", type=int, default=nodes)
        p.add_argument(
            "--keys", type=int, nargs="+",
            default=[10_000, 50_000, 100_000],
        )
        _add_workers(p)

    fig10 = sub.add_parser("fig10", help="query load balance")
    fig10.add_argument("--lookups-per-node", type=int, default=8)

    fig11 = sub.add_parser("fig11", help="massive departures + Table 4")
    fig11.add_argument("--lookups", type=int, default=10_000)
    fig11.add_argument(
        "--probabilities", type=float, nargs="+",
        default=[0.1, 0.2, 0.3, 0.4, 0.5],
    )

    fig12 = sub.add_parser("fig12", help="churn + Table 5")
    fig12.add_argument(
        "--rates", type=float, nargs="+", default=[0.05, 0.2, 0.4]
    )
    fig12.add_argument("--duration", type=float, default=1000.0)
    fig12.add_argument("--population", type=int, default=2048)

    fig13 = sub.add_parser("fig13", help="sparsity sweep")
    fig13.add_argument("--lookups", type=int, default=5000)

    fig14 = sub.add_parser("fig14", help="Koorde sparsity breakdown")
    fig14.add_argument("--lookups", type=int, default=5000)

    crash = sub.add_parser(
        "fig-crash",
        help="graceful departures vs ungraceful crashes, with retries",
    )
    crash.add_argument("--lookups", type=int, default=2000)
    crash.add_argument(
        "--crash-prob", type=float, nargs="+", default=[0.1, 0.3, 0.5]
    )
    crash.add_argument("--msg-loss", type=float, default=0.05)
    crash.add_argument("--retry-budget", type=int, default=8)
    crash.add_argument("--dimension", type=int, default=8)

    fig_latency = sub.add_parser(
        "fig-latency",
        help="end-to-end lookup milliseconds under a seeded link model, "
        "with Cycloid proximity-vs-random leaf selection (DESIGN S25)",
    )
    fig_latency.add_argument("--lookups", type=int, default=2000)
    fig_latency.add_argument(
        "--dimension",
        type=int,
        default=8,
        help="Cycloid dimension of the complete overlays (default: 8, "
        "i.e. n = 2048)",
    )
    _add_latency_model(fig_latency, default_seed=7)
    fig_latency.add_argument(
        "--output",
        metavar="PATH",
        default="BENCH_latency.json",
        help="where to write the JSON latency report "
        "(default: BENCH_latency.json)",
    )

    fig_adversary = sub.add_parser(
        "fig-adversary",
        help="seeded sybil/eclipse attacks: keyspace capture, lookup "
        "interception and degradation vs attacker fraction, plus Zipf "
        "hotspot caching (DESIGN S27)",
    )
    fig_adversary.add_argument(
        "--population",
        type=int,
        default=2048,
        help="honest node count per overlay; the id space holds about "
        "twice as many so crafted attacker ids have free slots "
        "(default: 2048)",
    )
    fig_adversary.add_argument("--lookups", type=int, default=1000)
    fig_adversary.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=list(DEFAULT_FRACTIONS),
        help="attacker fractions to sweep; 0.0 is the honest baseline "
        "(default: 0.0 0.02 0.05 0.1)",
    )
    fig_adversary.add_argument(
        "--protocols",
        nargs="+",
        default=list(ADVERSARY_PROTOCOLS),
        choices=list(ADVERSARY_PROTOCOLS),
    )
    fig_adversary.add_argument("--seed", type=int, default=23)
    fig_adversary.add_argument(
        "--target-key",
        default="adversary-target",
        help="application key the sybil cluster surrounds",
    )
    fig_adversary.add_argument(
        "--cache-capacity",
        type=int,
        default=32,
        help="per-node path-cache bound of the cached hotspot cells "
        "(default: 32)",
    )
    fig_adversary.add_argument(
        "--output",
        metavar="PATH",
        default="BENCH_adversary.json",
        help="where to write the JSON adversary report "
        "(default: BENCH_adversary.json)",
    )

    fig_scale = sub.add_parser(
        "fig-scale",
        help="bulk-build 10^4..10^6-node overlays direct-to-columns, "
        "run kernel lookup batches, pin object-build parity (DESIGN S26)",
    )
    fig_scale.add_argument(
        "--counts",
        type=int,
        nargs="+",
        default=list(SCALE_COUNTS),
        help="populations to build (default: 10000 100000 1000000)",
    )
    fig_scale.add_argument(
        "--protocols",
        nargs="+",
        default=list(SCALE_PROTOCOLS),
        choices=list(SCALE_PROTOCOLS),
    )
    fig_scale.add_argument("--lookups", type=int, default=2048)
    fig_scale.add_argument("--seed", type=int, default=11)
    fig_scale.add_argument(
        "--sampler",
        choices=list(SAMPLERS),
        default="fast",
        help="id sampler for the sweep cells; parity always replays "
        "the object builder's 'exact' stream (default: fast)",
    )
    fig_scale.add_argument(
        "--parity-count",
        type=int,
        default=4096,
        help="population of the bulk-vs-object digest pin (default: 4096)",
    )
    fig_scale.add_argument(
        "--ladder",
        type=int,
        nargs="+",
        default=[4096, 16384, 65536],
        help="object-build timing ladder the speedup extrapolates from",
    )
    fig_scale.add_argument(
        "--output",
        metavar="PATH",
        default="BENCH_scale.json",
        help="where to write the JSON scale report "
        "(default: BENCH_scale.json)",
    )

    maint = sub.add_parser(
        "maint", help="maintenance fan-out + post-departure lookup probe"
    )
    maint.add_argument("--population", type=int, default=1024)
    maint.add_argument("--events", type=int, default=200)
    maint.add_argument("--lookups", type=int, default=1000)

    for figure in (
        fig5, fig6, fig7, fig10, fig11, fig12, fig13, fig14, crash,
        fig_latency, fig_adversary, maint,
    ):
        _add_workers(figure)
    # The pure-lookup cells additionally choose an execution backend.
    for figure in (fig5, fig6, fig7, fig14, crash, fig_latency, fig_adversary):
        _add_backend(figure)

    def _add_build(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--protocol", choices=ALL_PROTOCOLS, default="cycloid"
        )
        subparser.add_argument(
            "--dimension",
            type=int,
            default=4,
            help="Cycloid dimension of the overlay (complete build "
            "unless --nodes is given)",
        )
        subparser.add_argument(
            "--nodes",
            type=int,
            default=None,
            metavar="N",
            help="build N randomly-placed nodes instead of a complete "
            "overlay",
        )
        subparser.add_argument(
            "--servers",
            type=int,
            default=4,
            metavar="N",
            help="how many asyncio node servers share the overlay "
            "(default: 4)",
        )

    serve = sub.add_parser(
        "serve",
        help="run a built overlay as a live cluster of node servers",
    )
    _add_build(serve)
    _add_latency_model(serve, default_seed=None)
    serve.add_argument(
        "--cluster-file",
        metavar="PATH",
        default=None,
        help="write the attachable cluster spec (directory + build "
        "recipe) to PATH",
    )
    serve.add_argument(
        "--lifetime",
        type=float,
        default=None,
        metavar="SECONDS",
        help="shut down after SECONDS (default: serve until interrupted)",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a live cluster closed-loop and write BENCH_net.json",
    )
    _add_build(loadgen)
    _add_latency_model(loadgen, default_seed=None)
    loadgen.add_argument(
        "--cluster-file",
        metavar="PATH",
        default=None,
        help="attach to the running cluster this spec describes "
        "instead of booting a private one",
    )
    loadgen.add_argument("--clients", type=int, default=64, metavar="N")
    loadgen.add_argument("--lookups", type=int, default=256, metavar="N")
    loadgen.add_argument(
        "--puts",
        type=int,
        default=32,
        metavar="N",
        help="PUT/GET pairs to run after the lookups (default: 32)",
    )
    loadgen.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-RPC reply timeout (default: 5.0)",
    )
    loadgen.add_argument(
        "--retry-budget",
        type=int,
        default=8,
        metavar="N",
        help="attempts after the first, per operation — the engine's "
        "retry_budget semantics (default: 8)",
    )
    loadgen.add_argument(
        "--output",
        metavar="PATH",
        default="BENCH_net.json",
        help="where to write the net bench report "
        "(default: BENCH_net.json)",
    )

    churnstorm = sub.add_parser(
        "churnstorm",
        help="open-loop churn harness: kill/rejoin nodes mid-load and "
        "verify zero acknowledged-write loss",
    )
    _add_build(churnstorm)
    churnstorm.add_argument(
        "--replicas",
        type=int,
        default=2,
        metavar="R",
        help="leaf-set replication factor of the data plane "
        "(default: 2; zero-loss bar needs >= 2)",
    )
    churnstorm.add_argument(
        "--rate",
        type=float,
        default=200.0,
        metavar="OPS_PER_S",
        help="open-loop Poisson arrival rate (default: 200)",
    )
    churnstorm.add_argument(
        "--ops",
        type=int,
        default=400,
        metavar="N",
        help="operations in the open-loop storm (default: 400)",
    )
    churnstorm.add_argument(
        "--clients",
        type=int,
        default=8,
        metavar="N",
        help="client connections the dispatcher round-robins over "
        "(default: 8)",
    )
    churnstorm.add_argument(
        "--kills",
        type=int,
        default=3,
        metavar="N",
        help="virtual nodes to crash mid-run (default: 3)",
    )
    churnstorm.add_argument(
        "--no-rejoin",
        action="store_true",
        help="crash only — do not rejoin the victims afterwards",
    )
    churnstorm.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-RPC reply timeout (default: 5.0)",
    )
    churnstorm.add_argument(
        "--retry-budget",
        type=int,
        default=8,
        metavar="N",
        help="attempts after the first, per operation (default: 8)",
    )
    churnstorm.add_argument(
        "--output",
        metavar="PATH",
        default="BENCH_net.json",
        help="where to write the churn bench report "
        "(default: BENCH_net.json)",
    )

    sub.add_parser("table1", help="architecture comparison")
    return parser


def _print(text: str) -> None:
    print(text)
    print()


#: Commands whose lookups can stream to ``--trace`` (everything that
#: runs through the routing engine; fig8/9 and table1 do not issue
#: lookups at all).
TRACEABLE_COMMANDS = (
    "fig5",
    "fig6",
    "fig7",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig-crash",
    "fig-latency",
    "fig-adversary",
    "maint",
)


def _run_fig5_or_6(
    args: argparse.Namespace,
    by_dimension: bool,
    observer: Optional[TraceObserver] = None,
) -> None:
    points = run_path_length_experiment(
        dimensions=tuple(args.dimensions),
        lookups=args.lookups,
        seed=args.seed,
        observer=observer,
        workers=args.workers,
        backend=args.backend,
    )
    x_header = "d" if by_dimension else "n"
    rows = [
        [
            p.dimension if by_dimension else p.size,
            p.protocol,
            f"{p.mean_path_length:.2f}",
        ]
        for p in sorted(points, key=lambda p: (p.size, p.protocol))
    ]
    title = (
        "Fig. 6 — path length vs dimension"
        if by_dimension
        else "Fig. 5 — path length vs network size"
    )
    _print(format_table([x_header, "protocol", "mean path"], rows, title))


def _build_recipe(args: argparse.Namespace) -> dict:
    """The deterministic overlay recipe the serve/loadgen args name."""
    recipe: dict = {"protocol": args.protocol, "seed": args.seed}
    if args.nodes is not None:
        recipe["nodes"] = args.nodes
        recipe["dimension"] = args.dimension
    else:
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
    import json

    from repro.net.cluster import load_spec
    from repro.net.loadgen import run_loadgen, validate_net_report
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
    validate_net_report(report)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

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
    _print(
        format_table(
            ["metric", "value"],
            rows,
            f"loadgen — {build['protocol']}, {args.clients} clients",
        )
    )
    print(f"net bench report -> {args.output}", file=sys.stderr)
    if not report.get("complete", True):
        print(
            "note: run was interrupted — the report is partial "
            '("complete": false)',
            file=sys.stderr,
        )
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
    import json

    from repro.net.loadgen import run_churnstorm, validate_net_report
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
    validate_net_report(report)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    ops = report["ops"]
    churn = report["churn"]
    open_loop = report["open_loop"]["latency_ms"]["all"]
    rows = [
        ["ops", ops["total"]],
        ["failures", ops["failures"]],
        ["client retries", ops["retries"]],
        ["crashes / joins", f"{churn['crashes']} / {churn['joins']}"],
        ["acked writes", churn["acked_writes"]],
        ["lost acked keys", churn["lost_acked_keys"]],
        ["survival rate", f"{churn['survival_rate']:.4f}"],
        [
            "under-replication (ms, max)",
            f"{churn['under_replication_ms']['max']:.1f}",
        ],
        ["open-loop p50 (ms)", f"{open_loop['p50']:.2f}"],
        ["open-loop p95 (ms)", f"{open_loop['p95']:.2f}"],
        ["open-loop p99 (ms)", f"{open_loop['p99']:.2f}"],
    ]
    _print(
        format_table(
            ["metric", "value"],
            rows,
            f"churnstorm — {build['protocol']}, replicas={args.replicas}, "
            f"{args.kills} kills",
        )
    )
    print(f"churn bench report -> {args.output}", file=sys.stderr)
    if not report.get("complete", True):
        print(
            "note: run was interrupted — the report is partial "
            '("complete": false)',
            file=sys.stderr,
        )
    if churn["lost_acked_keys"]:
        print(
            f"error: {churn['lost_acked_keys']} acknowledged key(s) were "
            "lost to churn — the zero-loss bar failed",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    sink: Optional[JsonlTraceSink] = None
    trace_file = None
    # loadgen traces the *live* hop stream itself — the path is passed
    # through instead of opening an engine trace sink here.
    if args.trace is not None and args.command != "loadgen":
        if args.command not in TRACEABLE_COMMANDS:
            print(
                f"error: --trace is not supported for {args.command} "
                f"(traceable: {', '.join(TRACEABLE_COMMANDS)})",
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
        return _dispatch(args, sink)
    finally:
        if trace_file is not None:
            trace_file.close()
            print(
                f"trace: {sink.events_written} hop events -> {args.trace}",
                file=sys.stderr,
            )


def _dispatch(
    args: argparse.Namespace, sink: Optional[JsonlTraceSink]
) -> int:
    if args.command == "fig5":
        _run_fig5_or_6(args, by_dimension=False, observer=sink)
    elif args.command == "fig6":
        _run_fig5_or_6(args, by_dimension=True, observer=sink)
    elif args.command == "fig7":
        points = run_phase_breakdown_experiment(
            dimensions=tuple(args.dimensions),
            lookups=args.lookups,
            seed=args.seed,
            observer=sink,
            workers=args.workers,
            backend=args.backend,
        )
        rows = [
            [
                p.protocol,
                p.size,
                phase,
                f"{p.mean_hops_by_phase[phase]:.2f}",
                f"{p.fraction_by_phase[phase] * 100:.0f}%",
            ]
            for p in points
            for phase in sorted(p.fraction_by_phase)
        ]
        _print(
            format_table(
                ["protocol", "n", "phase", "mean hops", "share"],
                rows,
                "Fig. 7 — phase breakdown",
            )
        )
    elif args.command in ("fig8", "fig9"):
        points = run_key_distribution_experiment(
            node_count=args.nodes,
            key_counts=tuple(args.keys),
            seed=args.seed,
            workers=args.workers,
        )
        rows = [
            [
                p.protocol,
                p.keys,
                f"{p.summary.mean:.1f}",
                f"{p.summary.p1:.0f}",
                f"{p.summary.p99:.0f}",
            ]
            for p in points
        ]
        _print(
            format_table(
                ["protocol", "keys", "mean/node", "p1", "p99"],
                rows,
                f"{args.command} — key distribution ({args.nodes} nodes)",
            )
        )
    elif args.command == "fig10":
        points = run_query_load_experiment(
            lookups_per_node=args.lookups_per_node,
            seed=args.seed,
            observer=sink,
            workers=args.workers,
        )
        rows = [
            [
                p.protocol,
                p.size,
                f"{p.summary.mean:.1f}",
                f"{p.summary.p1:.0f}",
                f"{p.summary.p99:.0f}",
            ]
            for p in points
        ]
        _print(
            format_table(
                ["protocol", "n", "mean load", "p1", "p99"],
                rows,
                "Fig. 10 — query load",
            )
        )
    elif args.command == "fig11":
        points = run_mass_departure_experiment(
            probabilities=tuple(args.probabilities),
            lookups=args.lookups,
            seed=args.seed,
            observer=sink,
            workers=args.workers,
        )
        rows = [
            [
                p.protocol,
                f"{p.probability:.1f}",
                f"{p.mean_path_length:.2f}",
                p.timeout_row(),
                p.lookup_failures,
            ]
            for p in points
        ]
        _print(
            format_table(
                ["protocol", "p", "mean path", "timeouts", "failures"],
                rows,
                "Fig. 11 + Table 4 — massive departures",
            )
        )
    elif args.command == "fig12":
        points = run_churn_experiment(
            rates=tuple(args.rates),
            population=args.population,
            duration=args.duration,
            seed=args.seed,
            observer=sink,
            workers=args.workers,
        )
        rows = [
            [
                p.protocol,
                f"{p.rate:.2f}",
                f"{p.mean_path_length:.2f}",
                p.timeout_row(),
                p.lookup_failures,
            ]
            for p in points
        ]
        _print(
            format_table(
                ["protocol", "R", "mean path", "timeouts", "failures"],
                rows,
                "Fig. 12 + Table 5 — churn",
            )
        )
    elif args.command == "fig13":
        points = run_sparsity_experiment(
            lookups=args.lookups,
            seed=args.seed,
            observer=sink,
            workers=args.workers,
        )
        rows = [
            [
                p.protocol,
                f"{p.sparsity:.1f}",
                p.population,
                f"{p.mean_path_length:.2f}",
            ]
            for p in points
        ]
        _print(
            format_table(
                ["protocol", "sparsity", "nodes", "mean path"],
                rows,
                "Fig. 13 — sparsity",
            )
        )
    elif args.command == "fig14":
        points = run_koorde_sparsity_breakdown(
            lookups=args.lookups,
            seed=args.seed,
            observer=sink,
            workers=args.workers,
            backend=args.backend,
        )
        rows = [
            [
                f"{1 - p.size / 2048:.1f}",
                p.size,
                f"{p.fraction_by_phase['successor'] * 100:.0f}%",
            ]
            for p in points
        ]
        _print(
            format_table(
                ["sparsity", "nodes", "successor share"],
                rows,
                "Fig. 14 — Koorde breakdown vs sparsity",
            )
        )
    elif args.command == "fig-crash":
        points = run_crash_experiment(
            probabilities=tuple(args.crash_prob),
            lookups=args.lookups,
            seed=args.seed,
            message_loss=args.msg_loss,
            retry_budget=args.retry_budget,
            dimension=args.dimension,
            observer=sink,
            workers=args.workers,
            backend=args.backend,
        )
        rows = [
            [
                p.protocol,
                f"{p.probability:.1f}",
                p.mode,
                f"{p.success_rate * 100:.1f}%",
                f"{p.mean_path_length:.2f}",
                p.timeout_row(),
                f"{p.mean_retries:.2f}",
                p.route_repairs,
            ]
            for p in points
        ]
        _print(
            format_table(
                [
                    "protocol",
                    "p",
                    "mode",
                    "success",
                    "mean path",
                    "timeouts",
                    "retries",
                    "repairs",
                ],
                rows,
                "Crash resilience — graceful vs ungraceful failures",
            )
        )
    elif args.command == "fig-latency":
        import json

        from repro.experiments import (
            latency_report,
            run_latency_experiment,
            validate_latency_report,
        )

        model = _latency_model(args)
        points = run_latency_experiment(
            dimension=args.dimension,
            lookups=args.lookups,
            seed=args.seed,
            model=model,
            observer=sink,
            workers=args.workers,
            backend=args.backend,
        )
        report = latency_report(
            points,
            dimension=args.dimension,
            lookups=args.lookups,
            seed=args.seed,
            model=model,
            workers=args.workers,
        )
        validate_latency_report(report)
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        rows = [
            [
                p.label,
                f"{p.mean_ms:.2f}",
                f"{p.p50_ms:.2f}",
                f"{p.p95_ms:.2f}",
                f"{p.p99_ms:.2f}",
                f"{p.mean_path_length:.2f}",
                p.digest[:12],
            ]
            for p in points
        ]
        _print(
            format_table(
                [
                    "overlay",
                    "mean ms",
                    "p50",
                    "p95",
                    "p99",
                    "mean hops",
                    "digest",
                ],
                rows,
                f"fig-latency — modeled milliseconds, n = {points[0].size}",
            )
        )
        proximity = report.get("proximity")
        if proximity is not None:
            verdict = (
                "wins" if proximity["proximity_wins"] else "DOES NOT WIN"
            )
            print(
                f"proximity selection {verdict}: "
                f"{proximity['proximity_mean_ms']:.2f} ms vs "
                f"{proximity['random_mean_ms']:.2f} ms random "
                f"({proximity['improvement_ms']:+.2f} ms)"
            )
            print()
        print(f"latency report -> {args.output}", file=sys.stderr)
    elif args.command == "fig-adversary":
        import json

        from repro.experiments import (
            adversary_report,
            run_adversary_experiment,
            validate_adversary_report,
        )

        results = run_adversary_experiment(
            population=args.population,
            protocols=tuple(args.protocols),
            fractions=tuple(args.fractions),
            lookups=args.lookups,
            seed=args.seed,
            target_key=args.target_key,
            observer=sink,
            workers=args.workers,
            backend=args.backend,
            cache_capacity=args.cache_capacity,
        )
        report = adversary_report(
            results,
            population=args.population,
            lookups=args.lookups,
            seed=args.seed,
            target_key=args.target_key,
            workers=args.workers,
            cache_capacity=args.cache_capacity,
        )
        validate_adversary_report(report)
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        rows = [
            [
                p.label,
                str(p.sybils),
                f"{p.capture_fraction:.4f}",
                "yes" if p.target_captured else "no",
                f"{p.interception_rate:.3f}",
                f"{p.success_rate:.3f}",
                f"{p.mean_hops:.2f}",
                p.digest[:12],
            ]
            for p in results["attacks"]
        ]
        _print(
            format_table(
                [
                    "overlay/fraction",
                    "sybils",
                    "capture",
                    "target",
                    "intercept",
                    "success",
                    "mean hops",
                    "digest",
                ],
                rows,
                f"fig-adversary — sybil+eclipse, n = {args.population}",
            )
        )
        hotspot_rows = [
            [
                h.label,
                f"{h.mean_hops:.2f}",
                f"{h.hit_rate:.3f}",
                f"{h.success_rate:.3f}",
                h.digest[:12],
            ]
            for h in results["hotspots"]
        ]
        _print(
            format_table(
                ["overlay/cache", "mean hops", "hit rate", "success", "digest"],
                hotspot_rows,
                f"fig-adversary — Zipf hotspot, s = {report['hotspot']['zipf_s']}",
            )
        )
        print(f"adversary report -> {args.output}", file=sys.stderr)
    elif args.command == "fig-scale":
        import json

        from repro.experiments import (
            run_scale_experiment,
            scale_parity,
            scale_report,
            validate_scale_report,
        )

        points = run_scale_experiment(
            counts=tuple(args.counts),
            protocols=tuple(args.protocols),
            lookups=args.lookups,
            seed=args.seed,
            sampler=args.sampler,
        )
        parity = scale_parity(
            points,
            parity_count=args.parity_count,
            seed=args.seed,
            ladder_counts=tuple(args.ladder),
        )
        report = scale_report(
            points,
            parity,
            lookups=args.lookups,
            seed=args.seed,
            sampler=args.sampler,
        )
        validate_scale_report(report)
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        rows = [
            [
                p.protocol,
                f"{p.count:,}",
                p.sizing,
                f"{p.build_seconds:.3f}",
                f"{p.build_nodes_per_sec:,.0f}",
                f"{p.column_bytes / 1e6:.0f}",
                f"{p.lookups_per_sec:,.0f}",
                f"{p.mean_hops:.2f}",
                f"{p.success_rate:.3f}",
                p.digest[:12],
            ]
            for p in points
        ]
        _print(
            format_table(
                [
                    "protocol",
                    "n",
                    "d/bits",
                    "build s",
                    "nodes/s",
                    "col MB",
                    "lookups/s",
                    "mean hops",
                    "success",
                    "digest",
                ],
                rows,
                "fig-scale — bulk-built overlays under the columnar kernel",
            )
        )
        parity_verdict = "match" if parity["digest_match"] else "MISMATCH"
        speedup_verdict = "ok" if parity["speedup_ok"] else "BELOW BAR"
        print(
            f"parity digest at n={parity['parity_count']}: {parity_verdict}; "
            f"bulk {parity['bulk_build_seconds']:.3f}s vs extrapolated "
            f"object {parity['extrapolated_object_seconds']:.1f}s "
            f"(fit n^{parity['fit_exponent']:.2f}) = "
            f"{parity['speedup']:.0f}x ({speedup_verdict})"
        )
        print()
        print(f"scale report -> {args.output}", file=sys.stderr)
    elif args.command == "maint":
        points = run_maintenance_experiment(
            population=args.population,
            events=args.events,
            seed=args.seed,
            lookups=args.lookups,
            observer=sink,
            workers=args.workers,
        )
        rows = [
            [
                p.protocol,
                f"{p.updates_per_join:.1f}",
                f"{p.updates_per_leave:.1f}",
                f"{p.updates_per_departure:.1f}",
                f"{p.probe_mean_path:.2f}",
                p.probe_failures,
            ]
            for p in points
        ]
        _print(
            format_table(
                [
                    "protocol",
                    "per join",
                    "per leave",
                    "per departure",
                    "probe path",
                    "probe failures",
                ],
                rows,
                "Maintenance fan-out + post-departure probe",
            )
        )
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "loadgen":
        return _run_loadgen(args)
    elif args.command == "churnstorm":
        return _run_churnstorm(args)
    elif args.command == "table1":
        rows = [
            [
                r.label,
                r.base_network,
                r.lookup_complexity,
                r.routing_state,
                r.max_observed_state,
            ]
            for r in architecture_table(seed=args.seed)
        ]
        _print(
            format_table(
                ["system", "base", "lookup", "state", "measured max"],
                rows,
                "Table 1 — architecture",
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

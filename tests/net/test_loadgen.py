"""Load generator: concurrency, digests, schema guard, live traces."""

import asyncio
import collections
import copy
import json
import os
import signal
import threading

import pytest

from repro.net.cluster import LocalCluster
from repro.net.loadgen import (
    NET_BENCH_SCHEMA,
    build_from_recipe,
    expected_results,
    make_open_operations,
    make_operations,
    partial_report,
    results_digest,
    run_churnstorm,
    run_loadgen,
    validate_net_report,
)
from repro.sim.faults import ChurnPlan

BUILD_32 = {"protocol": "cycloid", "nodes": 32, "dimension": 4, "seed": 6}
BUILD_8 = {"protocol": "cycloid", "dimension": 3, "seed": 1}


# One live run per report kind, shared read-only by the tests below;
# a test that edits a report edits a deep copy.
@pytest.fixture(scope="module")
def closed_report():
    return run_loadgen(
        BUILD_8, servers=2, clients=4, lookups=6, puts=2, seed=3
    )


@pytest.fixture(scope="module")
def attached_report():
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    network = build_from_recipe(BUILD_8)
    cluster = LocalCluster(network, servers=2, build=BUILD_8)
    asyncio.run_coroutine_threadsafe(cluster.start(), loop).result(10)
    try:
        return run_loadgen(
            BUILD_8, clients=2, lookups=6, puts=2, seed=3, spec=cluster.spec()
        )
    finally:
        asyncio.run_coroutine_threadsafe(cluster.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        assert not thread.is_alive()
        loop.close()


@pytest.fixture(scope="module")
def churn_report():
    return run_churnstorm(
        BUILD_8,
        servers=2,
        replicas=2,
        rate=300.0,
        operations=60,
        churn=ChurnPlan(seed=5, kills=2),
        seed=9,
        clients=4,
    )


class TestWorkload:
    def test_operations_are_deterministic(self):
        network = build_from_recipe(BUILD_32)
        first = make_operations(network, 10, 4, seed=3)
        second = make_operations(network, 10, 4, seed=3)
        assert first == second
        assert len(first) == 18  # 10 lookups + 4 puts + 4 gets
        assert [op["op"] for op in first].count("get") == 4

    def test_gets_reuse_put_keys(self):
        network = build_from_recipe(BUILD_32)
        operations = make_operations(network, 0, 5, seed=1)
        puts = {op["key"]: op["value"] for op in operations if op["op"] == "put"}
        gets = {op["key"]: op["expect"] for op in operations if op["op"] == "get"}
        assert puts == gets

    def test_expected_results_leave_the_network_untouched(self):
        network = build_from_recipe(BUILD_32)
        operations = make_operations(network, 6, 0, seed=2)
        before = list(network.query_counts())
        expected_results(network, operations)
        assert list(network.query_counts()) == before

    def test_digest_is_order_insensitive_but_content_sensitive(self):
        network = build_from_recipe(BUILD_32)
        operations = make_operations(network, 8, 0, seed=2)
        expected = expected_results(network, operations)
        shuffled = list(reversed(expected))
        assert results_digest(expected) == results_digest(shuffled)
        tampered = [dict(r) for r in expected]
        tampered[0]["hops"] += 1
        assert results_digest(expected) != results_digest(tampered)


class TestClosedLoopRun:
    def test_64_clients_against_32_nodes_zero_failures(self):
        """The acceptance-criteria run: >= 64 concurrent closed-loop
        clients vs a 32-node cluster, zero failures, digest parity."""
        report = run_loadgen(
            BUILD_32, servers=4, clients=64, lookups=96, puts=16, seed=13
        )
        validate_net_report(report)
        assert report["schema"] == NET_BENCH_SCHEMA
        assert report["clients"] == 64
        assert report["ops"]["total"] == 128
        assert report["ops"]["completed"] == 128
        assert report["ops"]["failures"] == 0
        assert report["digest"]["match"] is True
        assert report["throughput_ops_per_s"] > 0
        latency = report["latency_ms"]
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["p99"] <= latency["max"]

    def test_digest_is_stable_across_client_counts(self):
        """Scheduling differs wildly between 2 and 32 clients; the
        op-indexed digest must not."""
        few = run_loadgen(
            BUILD_32, servers=2, clients=2, lookups=24, puts=4, seed=9
        )
        many = run_loadgen(
            BUILD_32, servers=4, clients=32, lookups=24, puts=4, seed=9
        )
        assert few["digest"]["live"] == many["digest"]["live"]
        assert few["digest"]["match"] and many["digest"]["match"]

    def test_trace_lines_carry_rpc_and_latency(self, tmp_path):
        trace_path = str(tmp_path / "live.jsonl")
        report = run_loadgen(
            {"protocol": "cycloid", "dimension": 3, "seed": 2},
            servers=2,
            clients=4,
            lookups=10,
            puts=2,
            seed=5,
            trace_path=trace_path,
        )
        lines = [
            json.loads(line)
            for line in open(trace_path, encoding="utf-8")
        ]
        assert lines
        assert report["trace"]["lines"] == len(lines)
        total_hops = sum(r["hops"] for r in expected_results(
            build_from_recipe({"protocol": "cycloid", "dimension": 3, "seed": 2}),
            make_operations(
                build_from_recipe(
                    {"protocol": "cycloid", "dimension": 3, "seed": 2}
                ),
                10,
                2,
                seed=5,
            ),
        ))
        assert len(lines) == total_hops
        for line in lines:
            # The simulated --trace hop schema...
            assert set(line) == {
                "lookup", "hop", "node", "phase", "timeouts",
                # ...plus the live-only per-RPC fields.
                "rpc", "latency_ms",
            }
            assert line["rpc"] >= 1
            assert line["latency_ms"] > 0


class TestSchemaGuard:
    @pytest.fixture
    def report(self, closed_report):
        return copy.deepcopy(closed_report)

    def test_valid_report_passes(self, report):
        validate_net_report(report)

    def test_wrong_schema_tag_rejected(self, report):
        report["schema"] = "repro/net-bench/v0"
        with pytest.raises(ValueError, match="schema"):
            validate_net_report(report)

    def test_missing_section_rejected(self, report):
        del report["latency_ms"]
        with pytest.raises(ValueError, match="latency_ms"):
            validate_net_report(report)

    def test_missing_nested_key_rejected(self, report):
        del report["ops"]["failures"]
        with pytest.raises(ValueError, match="failures"):
            validate_net_report(report)

    def test_inconsistent_match_flag_rejected(self, report):
        report["digest"]["match"] = not report["digest"]["match"]
        with pytest.raises(ValueError, match="inconsistent"):
            validate_net_report(report)

    def test_malformed_digest_rejected(self, report):
        report["digest"]["live"] = "not-a-hash"
        with pytest.raises(ValueError, match="sha256"):
            validate_net_report(report)

    def test_missing_mode_rejected(self, report):
        """``mode`` is mandatory, not defaulted: a report that omits it
        (the old SIGINT-before-run bug) must fail the guard instead of
        silently validating as closed-loop."""
        del report["mode"]
        with pytest.raises(ValueError, match="mode"):
            validate_net_report(report)


class TestForwardTelemetry:
    """``forwards_per_op``: STEP frames the servers forwarded per op."""

    BUILD = {"protocol": "cycloid", "dimension": 3, "seed": 1}

    def test_self_hosted_report_counts_forwards(self):
        split = run_loadgen(
            self.BUILD, servers=2, clients=4, lookups=20, puts=4, seed=3
        )
        single = run_loadgen(
            self.BUILD, servers=1, clients=4, lookups=20, puts=4, seed=3
        )
        assert split["forwards_per_op"] > 0
        assert single["forwards_per_op"] == 0.0
        validate_net_report(split)
        validate_net_report(single)

    def test_attached_report_leaves_forwards_out(self, attached_report):
        report = attached_report
        assert report["attached"] is True
        assert report["digest"]["match"] is True
        assert "forwards_per_op" not in report
        validate_net_report(report)

    @pytest.mark.parametrize("value", [-0.5, "many", None, True, float("nan")])
    def test_bad_forwards_per_op_rejected(self, value):
        report = partial_report(self.BUILD, 2, 4, 6, 2, 3)
        report["forwards_per_op"] = value
        with pytest.raises(ValueError, match="forwards_per_op"):
            validate_net_report(report)


class TestChurnSchemaGuard:
    """The ``"open-churn"`` report mode of the same schema tag."""

    @pytest.fixture
    def report(self, churn_report):
        return copy.deepcopy(churn_report)

    def test_valid_churn_report_passes(self, report):
        assert report["mode"] == "open-churn"
        assert report["complete"] is True
        validate_net_report(report)

    def test_churn_report_needs_no_digest(self, report):
        assert "digest" not in report
        validate_net_report(report)

    def test_negative_forwards_per_op_rejected(self, report):
        assert report["forwards_per_op"] >= 0
        report["forwards_per_op"] = -1
        with pytest.raises(ValueError, match="forwards_per_op"):
            validate_net_report(report)

    def test_missing_churn_section_rejected(self, report):
        del report["churn"]
        with pytest.raises(ValueError, match="churn"):
            validate_net_report(report)

    def test_missing_survival_rate_rejected(self, report):
        del report["churn"]["survival_rate"]
        with pytest.raises(ValueError, match="survival_rate"):
            validate_net_report(report)

    def test_inconsistent_survival_rate_rejected(self, report):
        report["churn"]["survival_rate"] = 0.5  # but nothing was lost
        with pytest.raises(ValueError, match="survival_rate"):
            validate_net_report(report)

    def test_unknown_mode_rejected(self, report):
        report["mode"] = "sideways"
        with pytest.raises(ValueError, match="mode"):
            validate_net_report(report)

    def test_missing_mode_rejected_for_churn_shape_too(self, report):
        del report["mode"]
        with pytest.raises(ValueError, match="mode"):
            validate_net_report(report)

    def test_closed_loop_report_is_marked_complete(self, closed_report):
        report = closed_report
        assert report["mode"] == "closed-loop"
        assert report["complete"] is True


class TestInterruptedRun:
    """SIGINT flushes a partial report instead of discarding the run."""

    def test_preset_stop_event_drains_without_work(self):
        """Both release rules honour a stop set before the first op:
        nothing is sent, nothing fails, and the report says so."""
        from repro.net.loadgen import _drive, _report, _Run

        network = build_from_recipe(BUILD_8)
        schedules = {
            "closed-loop": (make_operations(network, 20, 2, seed=2), None),
            "open-churn": (
                make_open_operations(20, seed=2, rate=100.0),
                ChurnPlan(seed=2, kills=1),
            ),
        }
        for mode, (operations, churn) in schedules.items():
            counts = collections.Counter(op["op"] for op in operations)
            run = _Run(mode, BUILD_8, 2, 2, 2, counts, churn=churn)

            async def go():
                stop = asyncio.Event()
                stop.set()
                return await _drive(
                    run, network.clone(), operations, None, stop
                )

            outcome = asyncio.run(go())
            assert outcome.interrupted == "mid-run", mode
            assert outcome.results == [], mode
            assert outcome.failures == 0, mode
            assert outcome.events == [], mode
            report = _report(run, outcome)
            validate_net_report(report)
            assert report["mode"] == mode
            assert report["complete"] is False, mode
            assert report["ops"]["completed"] == 0, mode

    def test_sigint_mid_churnstorm_flushes_partial_report(self):
        """churnstorm routes SIGINT into the same stop event: the storm
        ends early and a valid partial open-churn report comes back."""
        timer = threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            # 400 ops at 40/s is a 10 s storm; the signal lands at 0.5 s.
            report = run_churnstorm(
                BUILD_8, servers=2, rate=40.0, operations=400,
                churn=ChurnPlan(seed=5, kills=1), seed=9, clients=2,
            )
        finally:
            timer.join(10)
        assert not timer.is_alive()
        validate_net_report(report)
        assert report["mode"] == "open-churn"
        assert report["complete"] is False
        assert report["interrupted"] == "mid-run"
        assert report["ops"]["completed"] < report["ops"]["total"]
        assert report["churn"]["lost_acked_keys"] == 0

    def test_sigint_mid_run_flushes_partial_report(self, tmp_path):
        import os
        import pathlib
        import signal
        import subprocess
        import sys
        import time

        root = pathlib.Path(__file__).parents[2]
        out = tmp_path / "partial.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "loadgen",
                "--protocol", "cycloid", "--dimension", "3",
                "--servers", "2", "--clients", "2",
                "--lookups", "20000", "--puts", "0",
                "--output", str(out),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            time.sleep(2.5)
            process.send_signal(signal.SIGINT)
            process.wait(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
        report = json.loads(out.read_text())
        if report["complete"]:  # pragma: no cover - very fast machine
            pytest.skip("run finished before SIGINT landed")
        assert report["complete"] is False
        assert report["ops"]["completed"] < report["ops"]["total"]
        # The partial report still passes the schema guard — which now
        # insists on ``mode``.
        assert report["mode"] == "closed-loop"
        validate_net_report(report)


class TestPartialReportBranch:
    """SIGINT can land before the runner installs its handler (cluster
    still booting): ``run_loadgen`` then falls back to
    :func:`partial_report`, whose shape must satisfy the same guard as
    a finished run — ``mode`` included."""

    def test_partial_report_passes_schema_guard(self):
        report = partial_report(
            BUILD_32, servers=4, clients=8, lookups=20, puts=4, seed=3
        )
        validate_net_report(report)
        assert report["schema"] == NET_BENCH_SCHEMA
        # The regression: very-early interrupts used to omit ``mode``.
        assert report["mode"] == "closed-loop"
        assert report["complete"] is False
        assert report["interrupted"] == "before-run"
        assert report["ops"]["total"] == 28  # 20 lookups + 2 * 4 puts
        assert report["ops"]["completed"] == 0
        assert report["errors"] == []

    def test_empty_digest_is_internally_consistent(self):
        """With work pending, the empty live digest cannot claim parity
        — ``match`` must be False so the guard's consistency check
        holds; with a zero-op workload it legitimately matches."""
        pending = partial_report(
            BUILD_32, servers=2, clients=2, lookups=6, puts=0, seed=1
        )
        assert pending["digest"]["live"] == results_digest([])
        assert pending["digest"]["match"] is False
        validate_net_report(pending)

        empty = partial_report(
            BUILD_32, servers=2, clients=2, lookups=0, puts=0, seed=1
        )
        assert empty["ops"]["total"] == 0
        assert empty["digest"]["match"] is True
        validate_net_report(empty)


def _key_paths(block, prefix=""):
    """Every key of a report, nested ones as dotted paths."""
    paths = set()
    for key, value in block.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= _key_paths(value, f"{prefix}{key}.")
    return paths


def _under(section, keys):
    return {section} | {f"{section}.{key}" for key in keys}


_LATENCY = ("mean", "p50", "p95", "p99", "max")
_BUILD = _under("build", ("protocol", "dimension", "seed"))
_HEADER = (
    {
        "schema", "mode", "complete", "servers", "clients", "seed",
        "throughput_ops_per_s", "elapsed_s", "errors",
    }
    | _BUILD
    | _under(
        "ops",
        ("total", "completed", "lookups", "puts", "gets", "failures",
         "retries"),
    )
    | _under("latency_ms", _LATENCY)
)
_RUN_SETTINGS = {"timeout_s"} | _under(
    "retry", ("budget", "base_delay", "multiplier", "max_delay")
)
_PARITY = {"attached"} | _under("digest", ("live", "expected", "match"))
#: Keys the shared report builder adds to the before-run partial report,
#: which carried none of them before the builder was shared.
ADDED_TO_PARTIAL = _RUN_SETTINGS | {"attached"}


class TestReportShapes:
    """The full nested key set of each report kind is pinned: the
    validator requires only some keys, but people and CI artifacts read
    the rest (``retry``, ``timeout_s``, ``elapsed_s``, ``open_loop.*``,
    ``churn.skipped``, ...)."""

    def test_self_hosted_closed_loop(self, closed_report):
        assert _key_paths(closed_report) == (
            _HEADER | _RUN_SETTINGS | _PARITY | {"forwards_per_op"}
        )

    def test_attached_closed_loop(self, attached_report):
        assert _key_paths(attached_report) == (
            _HEADER | _RUN_SETTINGS | _PARITY
        )

    def test_before_run_partial(self):
        report = partial_report(BUILD_8, 2, 4, 6, 2, 3)
        assert _key_paths(report) == (
            _HEADER
            | _under("digest", ("live", "expected", "match"))
            | {"interrupted"}
            | ADDED_TO_PARTIAL
        )

    def test_open_churn(self, churn_report):
        by_op = {"all", "put", "get"}
        open_loop = (
            _under(
                "open_loop",
                ("rate_target_ops_per_s", "rate_achieved_ops_per_s",
                 "duration_s", "key_universe", "put_fraction", "latency_ms"),
            )
            | {f"open_loop.latency_ms.{op}" for op in by_op}
            | {
                f"open_loop.latency_ms.{op}.{stat}"
                for op in by_op
                for stat in _LATENCY
            }
        )
        closed_loop = _under("closed_loop", ("verification_gets",)) | {
            f"closed_loop.{key}" for key in _under("latency_ms", _LATENCY)
        }
        churn = (
            _under(
                "churn",
                ("plan", "events", "crashes", "joins", "skipped",
                 "acked_writes", "acked_keys", "lost_acked_keys",
                 "lost_keys", "survival_rate", "under_replication_ms"),
            )
            | {
                f"churn.plan.{key}"
                for key in ("seed", "kills", "rejoin", "start", "end")
            }
            | {f"churn.under_replication_ms.{key}" for key in ("mean", "max")}
        )
        assert _key_paths(churn_report) == (
            _HEADER
            | _RUN_SETTINGS
            | {"forwards_per_op", "replicas"}
            | open_loop
            | closed_loop
            | churn
        )

"""Load generator: concurrency, digests, schema guard, live traces."""

import asyncio
import json
import threading

import pytest

from repro.net.cluster import LocalCluster
from repro.net.loadgen import (
    NET_BENCH_SCHEMA,
    build_from_recipe,
    expected_results,
    make_operations,
    partial_report,
    results_digest,
    run_loadgen,
    validate_net_report,
)

BUILD_32 = {"protocol": "cycloid", "nodes": 32, "dimension": 4, "seed": 6}


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
    def make_report(self):
        return run_loadgen(
            {"protocol": "cycloid", "dimension": 3, "seed": 1},
            servers=2,
            clients=4,
            lookups=6,
            puts=2,
            seed=3,
        )

    def test_valid_report_passes(self):
        validate_net_report(self.make_report())

    def test_wrong_schema_tag_rejected(self):
        report = self.make_report()
        report["schema"] = "repro/net-bench/v0"
        with pytest.raises(ValueError, match="schema"):
            validate_net_report(report)

    def test_missing_section_rejected(self):
        report = self.make_report()
        del report["latency_ms"]
        with pytest.raises(ValueError, match="latency_ms"):
            validate_net_report(report)

    def test_missing_nested_key_rejected(self):
        report = self.make_report()
        del report["ops"]["failures"]
        with pytest.raises(ValueError, match="failures"):
            validate_net_report(report)

    def test_inconsistent_match_flag_rejected(self):
        report = self.make_report()
        report["digest"]["match"] = not report["digest"]["match"]
        with pytest.raises(ValueError, match="inconsistent"):
            validate_net_report(report)

    def test_malformed_digest_rejected(self):
        report = self.make_report()
        report["digest"]["live"] = "not-a-hash"
        with pytest.raises(ValueError, match="sha256"):
            validate_net_report(report)

    def test_missing_mode_rejected(self):
        """``mode`` is mandatory, not defaulted: a report that omits it
        (the old SIGINT-before-run bug) must fail the guard instead of
        silently validating as closed-loop."""
        report = self.make_report()
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

    def test_attached_report_leaves_forwards_out(self):
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        cluster = LocalCluster(
            build_from_recipe(self.BUILD), servers=2, build=self.BUILD
        )
        asyncio.run_coroutine_threadsafe(cluster.start(), loop).result(10)
        try:
            report = run_loadgen(
                self.BUILD, clients=2, lookups=6, puts=2, seed=3,
                spec=cluster.spec(),
            )
        finally:
            asyncio.run_coroutine_threadsafe(cluster.stop(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join()
            loop.close()
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

    def make_report(self):
        from repro.net.loadgen import run_churnstorm
        from repro.sim.faults import ChurnPlan

        return run_churnstorm(
            {"protocol": "cycloid", "dimension": 3, "seed": 1},
            servers=2,
            replicas=2,
            rate=300.0,
            operations=60,
            churn=ChurnPlan(seed=5, kills=2),
            seed=9,
            clients=4,
        )

    def test_valid_churn_report_passes(self):
        report = self.make_report()
        assert report["mode"] == "open-churn"
        assert report["complete"] is True
        validate_net_report(report)

    def test_churn_report_needs_no_digest(self):
        report = self.make_report()
        assert "digest" not in report
        validate_net_report(report)

    def test_negative_forwards_per_op_rejected(self):
        report = self.make_report()
        assert report["forwards_per_op"] >= 0
        report["forwards_per_op"] = -1
        with pytest.raises(ValueError, match="forwards_per_op"):
            validate_net_report(report)

    def test_missing_churn_section_rejected(self):
        report = self.make_report()
        del report["churn"]
        with pytest.raises(ValueError, match="churn"):
            validate_net_report(report)

    def test_missing_survival_rate_rejected(self):
        report = self.make_report()
        del report["churn"]["survival_rate"]
        with pytest.raises(ValueError, match="survival_rate"):
            validate_net_report(report)

    def test_inconsistent_survival_rate_rejected(self):
        report = self.make_report()
        report["churn"]["survival_rate"] = 0.5  # but nothing was lost
        with pytest.raises(ValueError, match="survival_rate"):
            validate_net_report(report)

    def test_unknown_mode_rejected(self):
        report = self.make_report()
        report["mode"] = "sideways"
        with pytest.raises(ValueError, match="mode"):
            validate_net_report(report)

    def test_missing_mode_rejected_for_churn_shape_too(self):
        report = self.make_report()
        del report["mode"]
        with pytest.raises(ValueError, match="mode"):
            validate_net_report(report)

    def test_closed_loop_report_is_marked_complete(self):
        report = run_loadgen(
            {"protocol": "cycloid", "dimension": 3, "seed": 1},
            servers=2,
            clients=4,
            lookups=4,
            puts=2,
            seed=3,
        )
        assert report["mode"] == "closed-loop"
        assert report["complete"] is True


class TestInterruptedRun:
    """SIGINT flushes a partial report instead of discarding the run."""

    def test_preset_stop_event_drains_without_work(self):
        import asyncio

        from repro.net.cluster import LocalCluster
        from repro.net.loadgen import _run_clients
        from repro.sim.faults import RetryPolicy

        async def go():
            network = build_from_recipe(
                {"protocol": "cycloid", "dimension": 3, "seed": 1}
            )
            operations = make_operations(network, 20, 0, seed=2)
            async with LocalCluster(network, servers=2) as cluster:
                stop = asyncio.Event()
                stop.set()
                outcome = await _run_clients(
                    cluster.directory,
                    operations,
                    2,
                    RetryPolicy(),
                    5.0,
                    stop,
                )
                assert outcome["interrupted"] is True
                assert outcome["results"] == []
                assert outcome["failures"] == 0

        asyncio.run(go())

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

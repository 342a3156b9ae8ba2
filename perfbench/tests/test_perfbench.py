"""Self-tests of the benchmark, at the tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("paper-sim", "scale", "live-kv")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _stream:
    BENCHMARK = json.load(_stream)
with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as _stream:
    LAYERS = json.load(_stream)


def bench(workload, trace=0, seed=42, pins=None):
    """Run one tiny workload in-process; returns (status, lines, result)."""
    args = run.parse_args(
        [
            "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace), "--size", "tiny",
        ]
    )
    args.spans_dir = os.path.join(os.environ.get("PERFBENCH_TMP", "/tmp"), "perfbench-spans")
    out = io.StringIO()
    status = run.run(args, pins=pins, out=out)
    lines = out.getvalue().splitlines()
    return status, lines, json.loads(lines[-1])


@pytest.fixture(autouse=True)
def _spans_tmp(tmp_path, monkeypatch):
    monkeypatch.setenv("PERFBENCH_TMP", str(tmp_path))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    status, lines, result = bench(workload)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # The report names the lanes the workload's own way, with units.
    printed = {line.split()[1]: line.split()[-1] for line in lines[:-2]}
    for name in LAYERS["lanes"][workload].values():
        assert printed[name] == "1/s"
    assert printed["fail_ratio"] == "ratio"
    assert printed["host_scale"] == "ratio"
    report = json.loads(lines[-2])
    assert set(report["host"]) == {"cpus", "python", "numpy", "platform"}
    assert report["seed"] == 42


def test_live_kv_reports_latency_per_op_type():
    _status, lines, _result = bench("live-kv")
    printed = {line.split()[1] for line in lines[:-2]}
    for kind in ("lookup", "put", "get"):
        assert {f"{kind}_p50_ms", f"{kind}_p99_ms", f"{kind}_samples"} <= printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload, tmp_path):
    status, lines, result = bench(workload, trace=1)
    assert status == 0 and result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name in LAYERS["reached"][workload]:
        assert values[name] > 0, name
    assert values["trace.overhead"] > 0
    assert values["trace.uncovered.s"] >= 0
    spans = tmp_path / "perfbench-spans" / f"spans-{workload}-42.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "parent", "name", "start", "end"}
    assert json.loads(lines[-2])["trace.overhead"] == values["trace.overhead"]


def test_wrappers_are_removed_after_the_traced_run():
    from repro.dht.kernel import CycloidKernel
    from repro.net import server
    from repro.sim import parallel

    before = (parallel.pack_network, server.step_route, CycloidKernel.__dict__["run"])
    bench("paper-sim", trace=1)
    after = (parallel.pack_network, server.step_route, CycloidKernel.__dict__["run"])
    assert before == after


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        _status, _lines, result = bench("paper-sim", trace=1)
        counts.append(
            {
                k: v["value"]
                for k, v in result["metrics"].items()
                if v["unit"] in ("count", "bytes", "hops")
                and k not in ("trace.spans",)
            }
        )
    assert counts[0] == counts[1]


def _flip(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_flipped_pin_trips_the_check(workload):
    pins = workloads.load_pins()
    key = f"{workload}/tiny/42"
    assert pins[key], "tiny pins must exist for the default seed"
    pins = {key: {cell: _flip(d) for cell, d in pins[key].items()}}
    status, _lines, result = bench(workload, pins=pins)
    assert status == 1
    assert result["correct"] is False and result["failed"] > 0


def test_wrong_get_value_trips_the_check(monkeypatch):
    from repro.net.client import ClusterClient

    original = ClusterClient.get

    async def corrupted(self, key, source):
        reply = await original(self, key, source)
        reply["value"] = "not-" + str(reply.get("value"))
        return reply

    monkeypatch.setattr(ClusterClient, "get", corrupted)
    status, lines, result = bench("live-kv")
    assert status == 1 and result["failed"] > 0
    fail_ratio = [line for line in lines if " fail_ratio = " in line][0]
    assert float(fail_ratio.split()[3]) > 0


def test_wrong_lookup_path_trips_the_check(monkeypatch):
    from repro.net.client import ClusterClient

    original = ClusterClient.lookup

    async def detour(self, key, source, lookup_id=None):
        reply = await original(self, key, source, lookup_id)
        reply["path"] = list(reply["path"])[::-1]
        return reply

    monkeypatch.setattr(ClusterClient, "lookup", detour)
    status, _lines, result = bench("live-kv")
    assert status == 1 and result["failed"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_passes_structural_checks(workload):
    status, lines, result = bench(workload, seed=7)
    assert status == 0 and result["correct"] is True
    assert json.loads(lines[-2])["digests"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_follows_its_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert metrics["setup_s"]["bound"] == max(m["bound"] for m in metrics.values())
    assert all(0 < m["bound"] <= 0.25 for m in metrics.values())
    assert set(metrics) == set(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(tracing.LAYER_UNITS)


def test_layer_map_cites_only_known_names():
    layer_names = set(tracing.LAYER_UNITS)
    end_names = set(run.END_TO_END) | {
        name for lanes in LAYERS["lanes"].values() for name in lanes.values()
    } | set(LAYERS["report_only"])
    for row in LAYERS["layers"]:
        assert set(row["metrics"]) <= layer_names, row
        assert set(row["moves"]) <= end_names, row
        assert set(row["workloads"]) <= set(WORKLOADS), row
    for workload, reached in LAYERS["reached"].items():
        assert set(reached) <= layer_names, workload
    assert LAYERS["claim"] is None


def test_scale_digest_matches_fig_scale():
    from repro.experiments.scale import run_scale_cell

    size = workloads.TINY
    pins = workloads.load_pins()["scale/tiny/42"]
    for protocol in ("cycloid", "chord"):
        point = run_scale_cell(
            protocol, size.scale_count, size.scale_lookups, 42,
            batch_rows=size.scale_batch_rows,
        )
        assert point.digest == pins[protocol]


def test_paper_sim_builds_each_cell_once_and_times_it_as_set_up(monkeypatch):
    from repro.experiments import crash, registry

    builds = []
    original = registry.build_complete_network

    def counted(*args, **kwargs):
        builds.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(registry, "build_complete_network", counted)
    monkeypatch.setattr(crash, "build_complete_network", counted)
    workload = workloads.PaperSim(42, workloads.TINY, {})
    m = workloads.measure(workload, rounds=workload.pass_rounds)
    # One build per cell: the runner's single set-up call, nothing else.
    assert sorted(builds) == sorted(2 * list(registry.PROTOCOLS))
    assert len(m.setup_samples) == len(builds)
    assert all(seconds > 0 for seconds in m.setup_samples)
    assert m.failed == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_run_lasts_its_seconds_and_ends_on_a_pass(workload):
    bench_workload = workloads.WORKLOADS[workload](42, workloads.TINY, {})
    started = time.perf_counter()
    reference = workloads.Reference(bench_workload.reference_parts)
    m = workloads.measure(bench_workload, seconds=1.0, reference=reference)
    reference.close()
    assert time.perf_counter() - started >= 1.0
    assert m.rounds % bench_workload.pass_rounds == 0
    assert m.rounds >= bench_workload.min_rounds and m.failed == 0
    assert len(m.slowness) >= m.rounds
    bench_workload.close()


def test_gated_times_are_scaled_by_the_reference():
    m = workloads.Measurement(setup_samples=[2.0])
    m.lane("a", 100, 1.0)
    m.lane("b", 50, 1.0)
    plain = run.end_to_end(m)
    m.slowness = [1.5, 2.5]
    slow_host = run.end_to_end(m)
    assert m.host_scale() == pytest.approx(2.0)
    assert slow_host["setup_s"] == pytest.approx(plain["setup_s"] / 2)
    for name in ("ops_per_s", "lane_a_ops_per_s", "lane_b_ops_per_s"):
        assert slow_host[name] == pytest.approx(plain[name] * 2)


def test_reference_reads_about_one_on_an_idle_host():
    reference = workloads.Reference(tuple(workloads.REFERENCE_NOMINAL_S))
    slowness = sorted(reference() for _ in range(9))[4]
    reference.close()
    assert 0.2 < slowness < 5.0
    assert len(workloads.Reference(("allocate",)).parts) == 3

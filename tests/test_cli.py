"""Tests for the command-line experiment runner."""

import json

import pytest

from repro.cli import COMMANDS, build_parser, main, parse_args


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig5_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.command == "fig5"
        assert args.lookups == 3000
        assert args.dimensions == [3, 4, 5, 6, 7, 8]

    def test_seed_is_global(self):
        args = build_parser().parse_args(["--seed", "7", "fig13"])
        assert args.seed == 7

    @pytest.mark.parametrize("command, own", [
        ("fig-scale", 11), ("fig-adversary", 23),
    ])
    def test_explicit_seed_beats_a_commands_own_seed(self, command, own):
        """A command with its own default seed still honours an explicit
        ``--seed``, given before or after the command name."""
        before = build_parser().parse_args(["--seed", "5", command])
        after = build_parser().parse_args([command, "--seed", "5"])
        assert before.seed == after.seed == 5
        assert parse_args([command]).seed == own
        assert parse_args(["fig13"]).seed == 42

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_fig_crash_defaults(self):
        args = build_parser().parse_args(["fig-crash"])
        assert args.command == "fig-crash"
        assert args.lookups == 2000
        assert args.crash_prob == [0.1, 0.3, 0.5]
        assert args.msg_loss == 0.05
        assert args.retry_budget == 8
        assert args.dimension == 8

    def test_maint_defaults(self):
        args = build_parser().parse_args(["maint"])
        assert args.population == 1024
        assert args.events == 200
        assert args.lookups == 1000


#: Every command's smoke arguments and text its output must show.  Each
#: command of the table gets one generated ``test_<command>_small``.
SMOKE = {
    "fig5": (
        ["fig5", "--lookups", "100", "--dimensions", "3"],
        ["Fig. 5", "cycloid", "viceroy"],
    ),
    "fig6": (["fig6", "--lookups", "100", "--dimensions", "3"], ["Fig. 6"]),
    "fig7": (
        ["fig7", "--lookups", "100", "--dimensions", "4"],
        ["ascending", "de_bruijn"],
    ),
    "fig8": (
        ["fig8", "--nodes", "200", "--keys", "2000"],
        ["key distribution"],
    ),
    "fig9": (
        ["fig9", "--nodes", "150", "--keys", "1500"],
        ["fig9 — key distribution (150 nodes)"],
    ),
    "fig10": (["fig10", "--lookups-per-node", "1"], ["query load"]),
    "fig11": (
        ["fig11", "--lookups", "200", "--probabilities", "0.2"],
        ["Table 4"],
    ),
    "fig12": (
        [
            "fig12",
            "--rates", "0.1",
            "--duration", "60",
            "--population", "100",
        ],
        ["Table 5"],
    ),
    "fig13": (["fig13", "--lookups", "100"], ["sparsity"]),
    "fig14": (["fig14", "--lookups", "100"], ["Koorde"]),
    "fig-crash": (
        [
            "fig-crash",
            "--dimension", "3",
            "--lookups", "40",
            "--crash-prob", "0.3",
        ],
        ["Crash resilience", "graceful", "crash+retry", "pastry", "can"],
    ),
    "fig-latency": (
        ["fig-latency", "--dimension", "3", "--lookups", "60"],
        ["modeled milliseconds, n = 24", "proximity selection"],
    ),
    "fig-adversary": (
        [
            "fig-adversary",
            "--population", "64",
            "--lookups", "40",
            "--fractions", "0", "0.1",
        ],
        ["sybil+eclipse, n = 64", "Zipf hotspot"],
    ),
    "fig-scale": (
        [
            "fig-scale",
            "--counts", "2048",
            "--lookups", "64",
            "--parity-count", "256",
            "--ladder", "256", "512",
        ],
        ["bulk-built overlays", "parity digest at n=256: match"],
    ),
    "maint": (
        [
            "maint",
            "--population", "64",
            "--events", "8",
            "--lookups", "30",
        ],
        ["Maintenance fan-out", "probe"],
    ),
    "serve": (
        ["serve", "--dimension", "3", "--servers", "2", "--lifetime", "0.1"],
        ["serving 24 cycloid nodes on 2 servers"],
    ),
    "loadgen": (
        [
            "loadgen",
            "--dimension", "3",
            "--servers", "2",
            "--clients", "4",
            "--lookups", "10",
            "--puts", "2",
        ],
        ["loadgen — cycloid, 4 clients", "match"],
    ),
    "churnstorm": (
        [
            "churnstorm",
            "--dimension", "3",
            "--servers", "2",
            "--ops", "40",
            "--rate", "300",
            "--kills", "1",
        ],
        ["churnstorm — cycloid, replicas=2, 1 kills", "survival rate"],
    ),
    "table1": (["table1"], ["7-entry Cycloid", "CCC"]),
}


def _smoke_test(command):
    def test(self, capsys, tmp_path, monkeypatch):
        argv, shown = SMOKE[command]
        monkeypatch.chdir(tmp_path)  # reports land in their default path
        assert main(argv) == 0
        out = capsys.readouterr().out
        for text in shown:
            assert text in out

    return test


class TestCommands:
    def test_every_command_has_smoke_arguments(self):
        assert set(SMOKE) == set(COMMANDS)


for _name in COMMANDS:
    setattr(
        TestCommands,
        f"test_{_name.replace('-', '_')}_small",
        _smoke_test(_name),
    )


class TestTrace:
    def test_trace_writes_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "hops.jsonl"
        assert main(
            [
                "--trace", str(trace),
                "fig5", "--lookups", "50", "--dimensions", "3",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "Fig. 5" in captured.out
        assert "hop events" in captured.err
        lines = trace.read_text().splitlines()
        assert lines
        for line in lines:
            event = json.loads(line)
            assert set(event) == {
                "lookup", "hop", "node", "phase", "timeouts"
            }

    def test_trace_rejected_for_untraceable_command(self, capsys, tmp_path):
        trace = tmp_path / "hops.jsonl"
        untraceable = [
            name
            for name, command in COMMANDS.items()
            if not {"trace", "live-trace"} & set(command.takes)
        ]
        assert "table1" in untraceable and "serve" in untraceable
        for name in untraceable:
            assert main(["--trace", str(trace), name]) == 2
            assert "--trace is not supported" in capsys.readouterr().err
        assert not trace.exists()

    def test_trace_accepted_for_churn(self, capsys, tmp_path):
        trace = tmp_path / "churn.jsonl"
        assert main(
            [
                "--trace", str(trace),
                "fig12",
                "--rates", "0.1",
                "--duration", "30",
                "--population", "64",
            ]
        ) == 0
        assert "hop events" in capsys.readouterr().err
        assert trace.read_text().splitlines()

    def test_trace_tags_fault_probes(self, capsys, tmp_path):
        trace = tmp_path / "crash.jsonl"
        assert main(
            [
                "--trace", str(trace),
                "fig-crash",
                "--dimension", "3",
                "--lookups", "40",
                "--crash-prob", "0.3",
            ]
        ) == 0
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert events
        base = {"lookup", "hop", "node", "phase", "timeouts"}
        for event in events:
            assert set(event) in (base, base | {"kind"})
        # failed probes are tagged; plain hops keep the untagged format
        kinds = {e["kind"] for e in events if "kind" in e}
        assert "timeout" in kinds
        assert kinds <= {"timeout", "retry"}


class TestWorkers:
    def run(self, argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_workers_flag_on_every_figure_command(self):
        parser = build_parser()
        fanned = {n for n, c in COMMANDS.items() if "workers" in c.takes}
        # fig-scale times single-process builds; the rest are not figures.
        assert set(COMMANDS) - fanned == {
            "fig-scale", "serve", "loadgen", "churnstorm", "table1",
        }
        for command in fanned:
            args = parser.parse_args([command, "--workers", "3"])
            assert args.workers == 3
            assert parser.parse_args([command]).workers == 1

    def test_fig5_output_is_worker_invariant(self, capsys):
        base = ["fig5", "--lookups", "160", "--dimensions", "3", "4"]
        serial = self.run(base + ["--workers", "1"], capsys)
        parallel = self.run(base + ["--workers", "2"], capsys)
        assert serial == parallel

    def test_fig8_output_is_worker_invariant(self, capsys):
        base = ["fig8", "--nodes", "120", "--keys", "2000"]
        serial = self.run(base + ["--workers", "1"], capsys)
        parallel = self.run(base + ["--workers", "2"], capsys)
        assert serial == parallel


class TestServeLoadgenParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.protocol == "cycloid"
        assert args.dimension == 4
        assert args.nodes is None
        assert args.servers == 4
        assert args.cluster_file is None
        assert args.lifetime is None

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.command == "loadgen"
        assert args.clients == 64
        assert args.lookups == 256
        assert args.puts == 32
        assert args.timeout == 5.0
        assert args.retry_budget == 8
        assert args.output == "BENCH_net.json"
        assert args.cluster_file is None

    def test_loadgen_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--protocol", "gnutella"])

    def test_console_script_entry_point_is_declared(self):
        # The `repro` command installed by pip must point at this main.
        import pathlib

        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        assert "[project.scripts]" in text
        assert 'repro = "repro.cli:main"' in text


class TestServeLoadgenCommands:
    def test_serve_with_lifetime_exits_cleanly(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        assert (
            main(
                [
                    "serve",
                    "--protocol", "cycloid",
                    "--dimension", "3",
                    "--servers", "2",
                    "--cluster-file", str(spec_path),
                    "--lifetime", "0.1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "serving 24 cycloid nodes on 2 servers" in out
        spec = json.loads(spec_path.read_text())
        assert spec["schema"] == "repro/cluster-spec/v1"
        assert len(spec["directory"]) == 24

    def test_loadgen_writes_digest_checked_report(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_net.json"
        assert (
            main(
                [
                    "loadgen",
                    "--protocol", "cycloid",
                    "--dimension", "3",
                    "--servers", "2",
                    "--clients", "8",
                    "--lookups", "20",
                    "--puts", "4",
                    "--output", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "loadgen — cycloid, 8 clients" in out
        assert "match" in out
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro/net-bench/v1"
        assert report["ops"]["failures"] == 0
        assert report["digest"]["match"] is True

    def test_loadgen_trace_writes_live_hop_lines(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        trace_path = tmp_path / "live.jsonl"
        assert (
            main(
                [
                    "--trace", str(trace_path),
                    "loadgen",
                    "--protocol", "chord",
                    "--nodes", "16",
                    "--servers", "2",
                    "--clients", "4",
                    "--lookups", "10",
                    "--puts", "2",
                    "--output", str(out_path),
                ]
            )
            == 0
        )
        lines = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert lines
        for line in lines:
            assert "rpc" in line and "latency_ms" in line

    def test_loadgen_rejects_missing_cluster_file(self, capsys, tmp_path):
        assert (
            main(
                ["loadgen", "--cluster-file", str(tmp_path / "absent.json")]
            )
            == 2
        )
        assert "cannot load cluster spec" in capsys.readouterr().err


class TestChurnstormCli:
    def test_churnstorm_defaults(self):
        args = build_parser().parse_args(["churnstorm"])
        assert args.command == "churnstorm"
        assert args.replicas == 2
        assert args.rate == 200.0
        assert args.ops == 400
        assert args.clients == 8
        assert args.kills == 3
        assert args.no_rejoin is False
        assert args.timeout == 5.0
        assert args.retry_budget == 8
        assert args.output == "BENCH_net.json"

    def test_churnstorm_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["churnstorm", "--protocol", "gnutella"]
            )

    def test_churnstorm_writes_survival_checked_report(
        self, capsys, tmp_path
    ):
        out_path = tmp_path / "BENCH_net.json"
        assert (
            main(
                [
                    "churnstorm",
                    "--protocol", "cycloid",
                    "--dimension", "3",
                    "--servers", "2",
                    "--replicas", "2",
                    "--ops", "60",
                    "--rate", "300",
                    "--kills", "2",
                    "--output", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "churnstorm — cycloid, replicas=2, 2 kills" in out
        assert "survival rate" in out
        report = json.loads(out_path.read_text())
        assert report["mode"] == "open-churn"
        assert report["churn"]["lost_acked_keys"] == 0
        assert report["churn"]["survival_rate"] == 1.0

"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.cycles == 200
        assert args.nodes == 100

    def test_schedule_criterion_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--criterion", "bogus"])


class TestCommands:
    def test_compare_runs(self, capsys):
        code = main(["compare", "--cycles", "3", "--nodes", "30", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 2(a)" in out
        assert "Fig. 4" in out
        assert "MinCost" in out

    def test_sweep_nodes_runs(self, capsys):
        code = main(
            ["sweep-nodes", "--counts", "20,30", "--reps", "2", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CSA (ms)" in out
        assert "20" in out and "30" in out

    def test_sweep_interval_runs(self, capsys):
        code = main(
            [
                "sweep-interval",
                "--lengths",
                "600,1200",
                "--reps",
                "2",
                "--nodes",
                "25",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert "slots" in capsys.readouterr().out

    def test_generate_writes_environment(self, tmp_path, capsys):
        path = str(tmp_path / "env.json")
        code = main(["generate", "--nodes", "10", "--seed", "4", "-o", path])
        assert code == 0
        from repro.io import load_environment

        environment = load_environment(path)
        assert len(environment.nodes) == 10

    def test_schedule_fresh_environment(self, capsys):
        code = main(
            ["schedule", "--nodes", "30", "--seed", "5", "--jobs", "3", "--gantt"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduled" in out
        assert "legend" in out  # the Gantt chart

    def test_schedule_from_file(self, tmp_path, capsys):
        path = str(tmp_path / "env.json")
        main(["generate", "--nodes", "30", "--seed", "6", "-o", path])
        capsys.readouterr()
        code = main(["schedule", "--env", path, "--jobs", "2", "--seed", "6"])
        assert code == 0
        assert "scheduled" in capsys.readouterr().out

    def test_schedule_criterion_option(self, capsys):
        code = main(
            [
                "schedule",
                "--nodes",
                "30",
                "--seed",
                "7",
                "--jobs",
                "2",
                "--criterion",
                "cost",
            ]
        )
        assert code == 0

    def test_presets_command(self, capsys):
        code = main(["presets", "--nodes", "20", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "paper-base" in out
        assert "high-load" in out

    def test_flow_command(self, capsys):
        code = main(
            [
                "flow",
                "--cycles",
                "2",
                "--arrivals",
                "2",
                "--nodes",
                "30",
                "--seed",
                "4",
                "--criterion",
                "cost",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "job flow" in out
        # one table row per tick (nothing defers here), five summary figures
        assert [line.split()[0] for line in out.splitlines()[3:5]] == ["0", "1"]
        for figure in ("drop rate", "mean cost", "mean wait", "service fairness"):
            assert figure in out

    def test_flow_trace_option(self, tmp_path, capsys):
        path = str(tmp_path / "trace.json")
        code = main(
            [
                "flow",
                "--cycles",
                "2",
                "--arrivals",
                "2",
                "--nodes",
                "30",
                "--seed",
                "4",
                "--trace",
                path,
            ]
        )
        assert code == 0
        from repro.service import validate_trace_file

        counts = validate_trace_file(path, expect_drained=True).summary()
        assert counts["scheduled"] + counts["dropped"] == 2 * 2

    def test_flow_output_is_a_function_of_the_seed(self, capsys):
        argv = ["flow", "--cycles", "3", "--arrivals", "3", "--nodes", "30"]
        outputs = []
        for seed in ("4", "4", "5"):
            assert main(argv + ["--seed", seed]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]

    def test_flow_exits_nonzero_on_a_trace_violation(self, monkeypatch, capsys):
        import repro.service
        from repro.service import TraceInvariantError

        def violated(*args, **kwargs):
            raise TraceInvariantError("2 job(s) are still pending")

        monkeypatch.setattr(repro.service, "run_flow", violated)
        assert main(["flow", "--cycles", "1", "--arrivals", "1"]) == 1
        assert "TRACE INVARIANT VIOLATION" in capsys.readouterr().err

    def test_report_with_sweeps(self, tmp_path, capsys):
        path = str(tmp_path / "full_report.md")
        code = main(
            [
                "report",
                "--cycles",
                "2",
                "--nodes",
                "25",
                "--seed",
                "2",
                "--reps",
                "1",
                "-o",
                path,
            ]
        )
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert "Table 1" in text
        assert "Table 2" in text

    def test_compare_latex_export(self, tmp_path, capsys):
        path = str(tmp_path / "tables.tex")
        code = main(
            [
                "compare",
                "--cycles",
                "2",
                "--nodes",
                "25",
                "--seed",
                "1",
                "--latex",
                path,
            ]
        )
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert text.count("\\begin{table}") == 5
        assert "MinCost" in text

    def test_compare_stream_mode_and_workers(self, capsys):
        code = main(
            [
                "compare",
                "--cycles",
                "3",
                "--nodes",
                "25",
                "--seed",
                "1",
                "--stream-mode",
                "sequential",
            ]
        )
        assert code == 0
        assert "MinCost" in capsys.readouterr().out

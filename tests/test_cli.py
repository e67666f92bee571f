"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.ids == []
        assert args.scale == "quick"

    def test_figures_with_ids_and_scale(self):
        args = build_parser().parse_args(
            ["figures", "fig5", "fig7", "--scale", "bench"]
        )
        assert args.ids == ["fig5", "fig7"]
        assert args.scale == "bench"

    def test_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--scale", "huge"])

    def test_backend_default(self):
        args = build_parser().parse_args(["figures"])
        assert args.backend == "auto"

    def test_backend_selection(self):
        args = build_parser().parse_args(
            ["figures", "fig5", "--backend", "python"]
        )
        assert args.backend == "python"

    def test_rejects_bad_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--backend", "fortran"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["figures", "--transport", "broker"],
            ["scenarios", "run", "steady", "--transport", "broker"],
        ],
        ids=["figures", "scenarios-run"],
    )
    def test_there_is_no_transport_flag(self, argv, capsys):
        """Each engine has one transport; the flag is an unknown option."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--transport" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "fig11" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "repro.core" in out

    def test_figures_single(self, capsys):
        assert main(["figures", "fig5", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5(a)" in out

    def test_figures_unknown_id(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "error" in capsys.readouterr().err


class TestWorkers:
    def test_workers_default_is_one(self):
        args = build_parser().parse_args(["figures"])
        assert args.workers == 1

    def test_workers_selection(self):
        args = build_parser().parse_args(["figures", "fig5", "--workers", "4"])
        assert args.workers == 4

    def test_invalid_workers_reports_error(self, capsys):
        assert main(["figures", "fig5", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_sharded_figure_run(self, capsys):
        """A statistical figure regenerates under sharded execution."""
        assert main(["figures", "fig5", "--workers", "2"]) == 0
        assert "Fig. 5" in capsys.readouterr().out


class TestBudgetController:
    def test_default_is_static(self):
        for argv in (["figures"], ["scenarios", "run", "drift"]):
            assert build_parser().parse_args(argv).budget_controller == (
                "static"
            )

    def test_selection(self):
        args = build_parser().parse_args(
            ["scenarios", "run", "drift",
             "--budget-controller", "variance_aware"]
        )
        assert args.budget_controller == "variance_aware"

    def test_rejects_unknown_controller(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["figures", "--budget-controller", "oracle"]
            )

    def test_adaptive_scenario_run(self, capsys):
        assert main(
            ["scenarios", "run", "drift", "--scale", "quick",
             "--windows", "4", "--backend", "python",
             "--budget-controller", "variance_aware"]
        ) == 0
        out = capsys.readouterr().out
        assert "quality over time" in out
        assert "budget" in out

    def test_adaptive_fraction_figure_run(self, capsys):
        assert main(
            ["figures", "fig5", "--scale", "quick",
             "--budget-controller", "adaptive_fraction"]
        ) == 0
        assert "Fig. 5" in capsys.readouterr().out


class TestShardTransport:
    def test_sharded_figure_run_on_each_transport(self, capsys, request):
        """fig5 regenerates identically on both shard IPC planes."""
        assert main(
            ["figures", "fig5", "--scale", "quick", "--workers", "2"]
        ) == 0
        default_out = capsys.readouterr().out
        request.getfixturevalue("pipe_only")
        assert main(
            ["figures", "fig5", "--scale", "quick", "--workers", "2"]
        ) == 0
        pipe_out = capsys.readouterr().out
        assert "Fig. 5" in default_out
        assert default_out == pipe_out

    def test_sharded_scenario_run_on_shm(self, capsys):
        assert main(
            ["scenarios", "run", "flash-crowd", "--scale", "quick",
             "--windows", "3", "--workers", "2"]
        ) == 0
        assert "quality over time" in capsys.readouterr().out


class TestShardSupervision:
    def test_defaults(self):
        for argv in (["figures"], ["scenarios", "run", "drift"]):
            args = build_parser().parse_args(argv)
            assert args.shard_timeout is None
            assert args.on_shard_loss == "abort"
            assert args.inject_fault is None

    def test_selection(self):
        args = build_parser().parse_args(
            ["figures", "fig5", "--shard-timeout", "2.5",
             "--on-shard-loss", "degrade",
             "--inject-fault", "crash@0:1", "--inject-fault", "hang@1:2"]
        )
        assert args.shard_timeout == 2.5
        assert args.on_shard_loss == "degrade"
        assert args.inject_fault == ["crash@0:1", "hang@1:2"]

    def test_rejects_unknown_loss_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["figures", "--on-shard-loss", "panic"]
            )

    def test_figure_run_recovers_from_an_injected_crash(self, capsys):
        """The fault fires, the supervisor respawns, and the figure
        comes out exactly as without the fault."""
        assert main(
            ["figures", "fig5", "--scale", "quick", "--workers", "2",
             "--backend", "python"]
        ) == 0
        healthy_out = capsys.readouterr().out
        assert main(
            ["figures", "fig5", "--scale", "quick", "--workers", "2",
             "--backend", "python", "--inject-fault", "crash@0:1"]
        ) == 0
        faulted_out = capsys.readouterr().out
        assert "Fig. 5" in faulted_out
        assert faulted_out == healthy_out

    def test_scenario_run_shows_the_restart(self, capsys):
        assert main(
            ["scenarios", "run", "flash-crowd", "--scale", "quick",
             "--windows", "3", "--workers", "2", "--backend", "python",
             "--inject-fault", "raise@1:1"]
        ) == 0
        out = capsys.readouterr().out
        assert "restarts" in out and "lost" in out

    def test_malformed_fault_spec_reports_error(self, capsys):
        assert main(
            ["figures", "fig5", "--workers", "2",
             "--inject-fault", "crash-at-zero"]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_fault_without_workers_reports_error(self, capsys):
        assert main(
            ["figures", "fig5", "--inject-fault", "crash@0:1"]
        ) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["inf", "nan", "3e6", "0"])
    def test_unusable_timeout_reports_error(self, capsys, timeout):
        """The watchdog polls in int milliseconds; a deadline it cannot
        wait for is a configuration error, not a traceback."""
        assert main(
            ["scenarios", "run", "steady", "--workers", "2",
             "--shard-timeout", timeout]
        ) == 2
        assert capsys.readouterr().err.startswith("error: shard_timeout")

    def test_bad_knob_fails_before_any_figure_runs(self, capsys):
        assert main(
            ["figures", "fig5", "fig6", "--shard-timeout", "inf"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "shard_timeout" in captured.err

    def test_hang_fault_without_timeout_reports_error(self, capsys):
        assert main(
            ["figures", "fig5", "--workers", "2",
             "--inject-fault", "hang@0:0"]
        ) == 2
        assert "shard-timeout" in capsys.readouterr().err


class TestScenarios:
    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["scenarios", "run", "flash-crowd"])
        assert args.scenario_command == "run"
        assert args.name == "flash-crowd"
        assert args.windows is None
        assert args.fraction == 0.1
        assert args.scale == "quick"
        assert args.workers == 1

    def test_run_knobs(self):
        args = build_parser().parse_args(
            ["scenarios", "run", "churn", "--windows", "5",
             "--fraction", "0.4", "--backend", "python",
             "--workers", "2"]
        )
        assert (args.windows, args.fraction) == (5, 0.4)
        assert args.backend == "python"
        assert args.workers == 2

    def test_list_prints_the_catalog(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("steady", "flash-crowd", "diurnal", "drift",
                     "churn", "brownout"):
            assert name in out

    def test_run_prints_quality_over_time(self, capsys):
        assert main(
            ["scenarios", "run", "flash-crowd", "--scale", "quick",
             "--windows", "4", "--backend", "python"]
        ) == 0
        out = capsys.readouterr().out
        assert "quality over time" in out
        assert "mean loss" in out

    def test_run_sharded_scenario(self, capsys):
        assert main(
            ["scenarios", "run", "churn", "--scale", "quick",
             "--windows", "4", "--workers", "2"]
        ) == 0
        assert "quality over time" in capsys.readouterr().out

    def test_unknown_scenario_reports_error(self, capsys):
        assert main(["scenarios", "run", "heat-death"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

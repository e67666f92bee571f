"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures [ids...] [--scale quick|bench] [--workers N]
  [--budget-controller ...]
  [--shard-timeout S] [--on-shard-loss ...] [--inject-fault SPEC]`` —
  regenerate the paper's evaluation figures as text tables (all of
  them by default) on the selected worker-shard count, per-window
  budget controller and shard-supervision knobs (watchdog deadline,
  loss policy, injected faults). How a shard's Theta crosses the
  process boundary is not a flag: the engine picks shared memory where
  it can and the pipe otherwise.
* ``scenarios run <name> [--windows N] [--fraction F] [--scale ...]
  [--workers N] [--budget-controller ...]
  [--shard-timeout S] [--on-shard-loss ...] [--inject-fault SPEC]`` —
  run a built-in dynamic-workload scenario (bursts, skew drift, node
  churn, degraded links) and print its per-window quality-over-time
  table, optionally with the §IV-B feedback loop closed in-run.
* ``scenarios list`` — list the built-in scenario catalog.
* ``list`` — list the available figures with descriptions.
* ``info`` — print the library version and subsystem inventory.

Every engine flag whose destination names a
:class:`~repro.system.config.PipelineConfig` field is passed straight
into one config, built and validated once before anything runs; its
default is that field's default.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import Sequence

from repro import __version__
from repro.engine.faults import FaultPlan
from repro.errors import ReproError
from repro.experiments.base import (
    ExperimentScale,
    base_config,
    gaussian_generators,
    uniform_schedule,
)
from repro.experiments.figures import FIGURES, figure, run_figure
from repro.scenarios.catalog import BUILTIN_SCENARIOS, get_scenario
from repro.system.config import (
    BUDGET_CONTROLLERS,
    SHARD_LOSS_POLICIES,
    PipelineConfig,
)
from repro.system.scenarios import ScenarioRunner

__all__ = ["build_parser", "main"]

#: Figure ids in the order ``figures`` runs and ``list`` prints them.
_FIGURE_IDS = sorted(spec.id for spec in FIGURES)

_SCALES = {
    "quick": ExperimentScale.quick,
    "bench": ExperimentScale.bench,
}

_SUBSYSTEMS = [
    ("repro.core", "weighted hierarchical sampling, estimators, bounds"),
    ("repro.broker", "weighted-batch codec for shard frames"),
    ("repro.simnet", "discrete-event WAN/host simulator"),
    ("repro.topology", "logical tree + placement"),
    ("repro.engine", "unified execution engine (pipeline, transports)"),
    ("repro.scenarios", "declarative dynamic-workload scenarios"),
    ("repro.system", "runner facades (statistical / deployment / scenario)"),
    ("repro.workloads", "synthetic + real-world trace generators"),
    ("repro.queries", "grouped SUM, top-k and quantile queries"),
    ("repro.experiments", "per-figure evaluation harness"),
]


def _add_engine_knobs(parser: argparse.ArgumentParser, *,
                      workers_help: str) -> None:
    """The engine knobs shared by ``figures`` and ``scenarios run``.

    Each knob's ``dest`` is its :class:`PipelineConfig` field name and
    its default that field's default, so :func:`_scale_from_args` needs
    no line per knob.
    """
    defaults = PipelineConfig()
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="quick",
        help="experiment sizing (default: quick)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=defaults.workers,
        metavar="N",
        help=workers_help,
    )
    parser.add_argument(
        "--budget-controller",
        choices=sorted(BUDGET_CONTROLLERS),
        default=defaults.budget_controller,
        help="per-window budget feedback for statistical runs (default: "
             "static = no feedback; adaptive_fraction steers the global "
             "fraction on the reported bound; variance_aware re-splits a "
             "fixed budget toward high-variance sub-streams)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=defaults.shard_timeout,
        metavar="S",
        help="watchdog deadline in seconds per window slot for "
             "--workers > 1 (default: none — wait forever); a hung "
             "shard is diagnosed within the deadline and recovered by "
             "respawn-and-replay",
    )
    parser.add_argument(
        "--on-shard-loss",
        choices=sorted(SHARD_LOSS_POLICIES),
        default=defaults.on_shard_loss,
        help="policy once a worker shard exhausts its restart budget "
             "(default: abort — fail the run loudly; degrade continues "
             "on the surviving shards with per-window loss accounting)",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="KIND@SHARD:WINDOW",
        help="inject a deterministic fault into a worker shard process "
             "for the supervision harness, e.g. crash@0:1 (kinds: crash, "
             "hang, raise, corrupt-descriptor; repeatable; SHARD in "
             "0..N-2, as shard N-1 runs in this process; requires "
             "--workers > 1, and hang also needs --shard-timeout)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ApproxIoT reproduction (ICDCS 2018)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figures = subparsers.add_parser(
        "figures", help="regenerate evaluation figures as text tables"
    )
    figures.add_argument(
        "ids",
        nargs="*",
        metavar="FIG",
        help=f"figure ids to run (default: all of {_FIGURE_IDS})",
    )
    _add_engine_knobs(
        figures,
        workers_help="process-parallel worker shards for the statistical "
                     "(accuracy) figures; deployment figures model "
                     "distribution via simnet and ignore it (default: 1)",
    )

    scenarios = subparsers.add_parser(
        "scenarios",
        help="run declarative dynamic-workload scenarios",
    )
    scenario_commands = scenarios.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_run = scenario_commands.add_parser(
        "run",
        help="run a built-in scenario and print quality-over-time metrics",
    )
    scenario_run.add_argument(
        "name",
        metavar="SCENARIO",
        help=f"scenario to run, one of {list(BUILTIN_SCENARIOS)}",
    )
    scenario_run.add_argument(
        "--windows",
        type=int,
        default=None,
        metavar="N",
        help="windows to run (default: the scenario's own length)",
    )
    scenario_run.add_argument(
        "--fraction",
        type=float,
        default=0.1,
        metavar="F",
        help="end-to-end sampling fraction (default: 0.1, the paper's "
             "headline operating point)",
    )
    _add_engine_knobs(
        scenario_run,
        workers_help="process-parallel worker shards; every shard replays "
                     "the identical scenario timeline (default: 1)",
    )
    scenario_commands.add_parser(
        "list", help="list the built-in scenario catalog"
    )

    subparsers.add_parser("list", help="list available figures")
    subparsers.add_parser("info", help="print version and inventory")
    return parser


def _scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    """The experiment sizing and config template a namespace selects.

    Builds the one :class:`PipelineConfig` every figure or scenario
    derives from, so a bad knob fails here, before anything runs.
    """
    knobs = {
        knob.name: getattr(args, knob.name)
        for knob in fields(PipelineConfig)
        if hasattr(args, knob.name)
    }
    if args.inject_fault:
        knobs["fault_plan"] = FaultPlan.parse(args.inject_fault)
    return replace(_SCALES[args.scale](), config=PipelineConfig(**knobs))


def _cmd_figures(args: argparse.Namespace) -> int:
    try:
        scale = _scale_from_args(args)
        targets = args.ids or _FIGURE_IDS
        for figure_id in targets:
            figure(figure_id)  # every id is checked before any runs
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for figure_id in targets:
        try:
            run_figure(figure_id, scale)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print()
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    try:
        scenario = get_scenario(args.name)
        scale = _scale_from_args(args)
        config = base_config(args.fraction, scale)
        schedule = uniform_schedule(scale.rate_scale)
        with ScenarioRunner(
            config, schedule, gaussian_generators(), scenario
        ) as runner:
            outcome = runner.run(args.windows)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(outcome.report())
    print()
    print(outcome.summary())
    return 0


def _cmd_scenarios_list() -> int:
    width = max(len(name) for name in BUILTIN_SCENARIOS)
    for name, scenario in BUILTIN_SCENARIOS.items():
        print(
            f"{name.ljust(width)}  {scenario.windows:>3d} windows  "
            f"{scenario.description}"
        )
    return 0


def _cmd_list() -> int:
    width = max(len(figure_id) for figure_id in _FIGURE_IDS)
    for figure_id in _FIGURE_IDS:
        print(f"{figure_id.ljust(width)}  {figure(figure_id).description}")
    return 0


def _cmd_info() -> int:
    print(f"repro {__version__} — ApproxIoT reproduction (ICDCS 2018)")
    print("subsystems:")
    for module, description in _SUBSYSTEMS:
        print(f"  {module.ljust(18)} {description}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "scenarios":
            if args.scenario_command == "run":
                return _cmd_scenarios_run(args)
            return _cmd_scenarios_list()
        if args.command == "list":
            return _cmd_list()
        return _cmd_info()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Every figure of the paper's evaluation (§V, Figs. 5–11) as a spec.

:data:`FIGURES` declares each figure once: its panels, and for each
panel the swept axis, the engine, the workload and the columns.
:func:`run_panel` is the one loop that runs them. It builds each run's
config through :func:`~repro.experiments.base.base_config`, runs every
distinct (mode, workload, point) configuration once however many
columns read it, and closes every runner. :func:`run_figure` prints a
figure's panels as paper-style tables.

A shorter sweep is the same spec with other data, e.g.
``dataclasses.replace(panel, values=(0.1,), n_windows=6)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.errors import ReproError
from repro.experiments.base import (
    PAPER_FRACTIONS,
    WORKLOADS,
    ExperimentScale,
    base_config,
    saturating_placement,
)
from repro.metrics.report import Table, format_percent, format_rate
from repro.simnet.stats import bandwidth_saving
from repro.system.config import ExecutionMode
from repro.system.deployment import DeploymentSimulator
from repro.system.statistical import StatisticalRunner
from repro.workloads.rates import paper_rate_settings

__all__ = [
    "AXES", "Column", "FIGURES", "Figure", "Panel",
    "figure", "render_panel", "run_figure", "run_panel",
]

APPROXIOT, SRS, NATIVE = ExecutionMode.ALL

#: Swept axis -> (table header, row label format).
AXES: dict[str, tuple[str, Callable[[object], str]]] = {
    "sampling_fraction": ("fraction", "{:.0%}".format),
    "window_seconds": ("window (s)", "{:g}".format),
    "rate_setting": ("setting", str),
}

#: A measure reads the runs at one point through ``run(mode, workload,
#: at)`` and returns one number. ``workload=None`` means the panel's
#: and ``at=None`` the point's axis value; a derived column (a ratio, a
#: saving) reads more than one run.
Measure = Callable[[Callable[..., object]], float]


@dataclass(frozen=True, slots=True)
class Column:
    """One table column: its header, what it measures, how it prints."""

    header: str
    measure: Measure
    format: Callable[[float], str]


@dataclass(frozen=True, slots=True)
class Panel:
    """One table: a sweep over ``axis`` on one engine and workload.

    ``fraction`` is the sampling fraction of a panel that sweeps another
    axis. ``n_windows`` sizes a deployment run; a statistical run
    averages over the scale's windows.
    """

    title: str
    engine: str
    workload: str
    columns: tuple[Column, ...]
    axis: str = "sampling_fraction"
    values: tuple = tuple(PAPER_FRACTIONS)
    fraction: float = 0.1
    n_windows: int = 10

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ReproError(
                f"unknown axis {self.axis!r}; choose from {list(AXES)}"
            )
        if self.engine not in ("statistical", "deployment"):
            raise ReproError(f"unknown engine {self.engine!r}")
        if self.workload not in WORKLOADS:
            raise ReproError(f"unknown workload {self.workload!r}")


@dataclass(frozen=True, slots=True)
class Figure:
    """One paper figure: its CLI id, a one-line description, its panels."""

    id: str
    description: str
    panels: tuple[Panel, ...]


def _read(attribute: str, mode: str = APPROXIOT, workload: str | None = None,
          at: object = None) -> Measure:
    """The measure reading ``attribute`` off one run's outcome or report."""
    return lambda run: getattr(run(mode, workload, at), attribute)


def _ratio(numerator: Measure, denominator: Measure) -> Measure:
    """Derived: one measure over another at the same point (inf over 0)."""

    def measure(run) -> float:
        below = denominator(run)
        return float("inf") if below == 0 else numerator(run) / below

    return measure


def _saving(mode: str) -> Measure:
    """Derived: Fig. 7's bandwidth saving against native at 100 %.

    Only the boundaries above the first sampling layer count (L1→L2 and
    L2→root): the sources always ship everything to their first edge
    node, where sampling begins.
    """

    def upper_bytes(run, mode: str, at: object = None) -> int:
        return sum(run(mode, None, at).boundary_bytes[1:])

    return lambda run: bandwidth_saving(
        upper_bytes(run, mode), upper_bytes(run, NATIVE, 1.0)
    )


LOSS = _read("mean_approxiot_loss")
SRS_LOSS = _read("mean_srs_loss")
RATE = _read("throughput_items_per_second")
SRS_RATE = _read("throughput_items_per_second", SRS)
NATIVE_RATE = _read("throughput_items_per_second", NATIVE, at=1.0)
LATENCY = _read("mean_latency_seconds")
SRS_LATENCY = _read("mean_latency_seconds", SRS)
NATIVE_LATENCY = _read("mean_latency_seconds", NATIVE, at=1.0)
PERCENT, PERCENT_1 = format_percent, partial(format_percent, digits=1)
TIMES, SECONDS = "{:.1f}x".format, "{:.2f}".format
#: Figs. 6 and 8 sweep up to the 100 % fraction.
TO_FULL = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


def _accuracy_panel(label: str, workload: str) -> Panel:
    """One of Fig. 5's panels."""
    return Panel(
        f"{label}: accuracy loss vs sampling fraction",
        "statistical", workload,
        (
            Column("ApproxIoT loss", LOSS, PERCENT),
            Column("SRS loss", SRS_LOSS, PERCENT),
            Column("SRS/ApproxIoT", _ratio(SRS_LOSS, LOSS), TIMES),
        ),
    )


def _settings_panel(label: str, workload: str) -> Panel:
    """One of Fig. 10's rate-setting panels."""
    return Panel(
        f"{label}: accuracy under fluctuating rates (60% fraction)",
        "statistical", workload,
        (Column("ApproxIoT loss", LOSS, PERCENT),
         Column("SRS loss", SRS_LOSS, PERCENT)),
        axis="rate_setting", values=("Setting1", "Setting2", "Setting3"),
        fraction=0.6,
    )


FIGURES: tuple[Figure, ...] = (
    # The paper's result: ApproxIoT's accuracy loss stays under ~0.035 %
    # (Gaussian) and ~0.013 % (Poisson) across fractions, and is roughly an
    # order of magnitude below SRS at the 10 % fraction (10× Gaussian, 30×
    # Poisson) because stratification keeps every sub-stream represented.
    Figure("fig5", "Accuracy loss vs sampling fraction (Gaussian/Poisson)", (
        _accuracy_panel("Fig. 5(a) Gaussian", "gaussian"),
        _accuracy_panel("Fig. 5(b) Poisson", "poisson"),
    )),
    # The paper's result: at a saturating input rate, ApproxIoT and SRS
    # sustain nearly identical throughput, both scaling roughly with
    # 1/fraction over native execution (1.3×–9.9× for fractions 80 %–10 %),
    # and matching native at the 100 % fraction (low sampling overhead).
    Figure("fig6", "Throughput vs sampling fraction", (Panel(
        "Fig. 6: throughput vs sampling fraction (saturating input)",
        "deployment", "gaussian",
        (
            Column("ApproxIoT", RATE, format_rate),
            Column("SRS", SRS_RATE, format_rate),
            Column("Native", NATIVE_RATE, format_rate),
            Column("speedup", _ratio(RATE, NATIVE_RATE), TIMES),
        ),
        values=TO_FULL, n_windows=12,
    ),)),
    # The paper's result: sampling at the edge saves inter-layer bandwidth
    # proportionally to the dropped fraction — at a 10 % sampling fraction
    # the system needs only ~10 % of the link capacity (≈90 % saving), for
    # both ApproxIoT and SRS.
    Figure("fig7", "Bandwidth saving vs sampling fraction", (Panel(
        "Fig. 7: bandwidth saving vs sampling fraction",
        "deployment", "gaussian",
        (Column("ApproxIoT saving", _saving(APPROXIOT), PERCENT_1),
         Column("SRS saving", _saving(SRS), PERCENT_1)),
        n_windows=8,
    ),)),
    # The paper's result: under a saturating input, native execution's
    # latency balloons (its datacenter queue grows without bound) while both
    # sampled systems stay low; at the 10 % fraction ApproxIoT achieves a
    # ~6× speedup over native.
    Figure("fig8", "Latency vs sampling fraction", (Panel(
        "Fig. 8: latency vs sampling fraction (1 s window)",
        "deployment", "gaussian",
        (
            Column("ApproxIoT (s)", LATENCY, SECONDS),
            Column("SRS (s)", SRS_LATENCY, SECONDS),
            Column("Native (s)", NATIVE_LATENCY, SECONDS),
            Column("speedup", _ratio(NATIVE_LATENCY, LATENCY), TIMES),
        ),
        values=TO_FULL, n_windows=12,
    ),)),
    # The paper's result: ApproxIoT's latency grows with the window size
    # because every sampling node must buffer a full interval before its
    # reservoir can close, while the SRS system samples per item and its
    # latency stays flat.
    Figure("fig9", "Latency vs window size", (Panel(
        "Fig. 9: latency vs window size (10% sampling fraction)",
        "deployment", "gaussian",
        (Column("ApproxIoT (s)", LATENCY, SECONDS),
         Column("SRS (s)", SRS_LATENCY, SECONDS)),
        axis="window_seconds", values=(0.5, 1.0, 2.0, 3.0, 4.0),
    ),)),
    # Panels (a)/(b): three arrival-rate settings over sub-streams A-D at a
    # fixed 60 % sampling fraction; ApproxIoT beats SRS in every setting
    # (5.5× under Gaussian Setting1, ~74× under Poisson Setting1 in the
    # paper) because SRS under-represents whichever sub-stream is rare.
    #
    # Panel (c): the extreme-skew mixture — sub-stream D carries 0.01 % of
    # the items but (λ = 10⁷) essentially all of the value. SRS misses D
    # entirely in most windows (massive underestimate) or scales it up into
    # an overestimate; ApproxIoT's stratified reservoirs keep D every window
    # (paper reports up to 2600× better accuracy at the 10 % fraction).
    Figure("fig10", "Accuracy under fluctuating rates and skew", (
        _settings_panel("Fig. 10(a) Gaussian", "gaussian"),
        _settings_panel("Fig. 10(b) Poisson", "poisson"),
        Panel(
            "Fig. 10(c): accuracy under extreme skew", "statistical", "skew",
            (Column("ApproxIoT loss", LOSS, PERCENT),
             Column("SRS loss", SRS_LOSS, PERCENT_1)),
        ),
    )),
    # Panel (a): accuracy loss vs sampling fraction for both datasets; the
    # pollution curve sits below the taxi curve because sensor values are
    # more stable than fares. Panel (b): throughput vs fraction; at the 10 %
    # fraction ApproxIoT sustains roughly an order of magnitude more input
    # than the native execution, and both datasets behave alike.
    Figure("fig11", "Real-world case studies (taxi, pollution)", (
        Panel(
            "Fig. 11(a): accuracy loss vs sampling fraction (real-world)",
            "statistical", "taxi",
            (
                Column("NYC taxi loss", LOSS, PERCENT),
                Column(
                    "Brasov pollution loss",
                    _read("mean_approxiot_loss", workload="pollution"),
                    PERCENT,
                ),
            ),
        ),
        Panel(
            "Fig. 11(b): throughput vs sampling fraction (real-world)",
            "deployment", "taxi",
            (
                Column("NYC taxi", RATE, format_rate),
                Column(
                    "Brasov pollution",
                    _read("throughput_items_per_second", workload="pollution"),
                    format_rate,
                ),
                Column("native", NATIVE_RATE, format_rate),
            ),
        ),
    )),
)


def figure(figure_id: str) -> Figure:
    """The spec of one figure, by its CLI id."""
    for spec in FIGURES:
        if spec.id == figure_id:
            return spec
    raise ReproError(
        f"unknown figure {figure_id!r}; "
        f"choose from {sorted(spec.id for spec in FIGURES)}"
    )


def _run_once(panel: Panel, scale: ExperimentScale, mode: str,
              workload: str, value: object) -> object:
    """One configuration of a panel: a statistical outcome or a report."""
    schedule, generators = WORKLOADS[workload](scale)
    if panel.axis == "rate_setting":
        schedule = next(
            setting for setting in paper_rate_settings(scale.rate_scale)
            if setting.name.split("x")[0] == value
        )
    point = {"sampling_fraction": panel.fraction, "window_seconds": 1.0,
             panel.axis: value}
    deployed = panel.engine == "deployment"
    config = base_config(
        point["sampling_fraction"], scale,
        window_seconds=point["window_seconds"], mode=mode,
        placement=saturating_placement(schedule) if deployed else None,
    )
    if deployed:
        return DeploymentSimulator(
            config, schedule, generators, n_windows=panel.n_windows
        ).run()
    with StatisticalRunner(config, schedule, generators) as runner:
        return runner.run(scale.windows)


def run_panel(panel: Panel,
              scale: ExperimentScale | None = None) -> list[dict[str, object]]:
    """Run one panel: one row per axis value, keyed by column header.

    A row also holds its axis value, under the axis header.
    """
    scale = scale if scale is not None else ExperimentScale.bench()
    done: dict[tuple, object] = {}

    def run(mode: str, workload: str | None, at: object) -> object:
        key = (mode, workload or panel.workload, at)
        if key not in done:
            done[key] = _run_once(panel, scale, *key)
        return done[key]

    header = AXES[panel.axis][0]
    rows = []
    for value in panel.values:
        def at_point(mode, workload, at, value=value):
            return run(mode, workload, value if at is None else at)

        rows.append({header: value} | {
            column.header: column.measure(at_point) for column in panel.columns
        })
    return rows


def render_panel(panel: Panel, rows: list[dict[str, object]]) -> str:
    """A panel's rows as its paper-style table."""
    header, label = AXES[panel.axis]
    table = Table(panel.title, [header] + [c.header for c in panel.columns])
    for row in rows:
        table.add_row(
            label(row[header]),
            *(column.format(row[column.header]) for column in panel.columns),
        )
    return table.render()


def run_figure(figure_id: str, scale: ExperimentScale | None = None) -> str:
    """Run one figure's panels; print their tables and return the text."""
    text = "\n\n".join(
        render_panel(panel, run_panel(panel, scale))
        for panel in figure(figure_id).panels
    )
    print(text)
    return text

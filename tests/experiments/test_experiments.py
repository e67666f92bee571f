"""Integration tests: every figure spec runs and has the right shape.

These use :meth:`ExperimentScale.quick` and shortened sweeps
(``dataclasses.replace`` on a spec's panel) so the whole module stays
fast; the benchmarks run the same specs at full scale.
"""

from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.experiments.base import ExperimentScale
from repro.experiments.figures import FIGURES, figure, run_figure, run_panel

QUICK = ExperimentScale.quick()
TWO_FRACTIONS = (0.1, 0.8)


def rows(figure_id, panel=0, **changes):
    """A figure panel's rows at quick scale, over a shortened sweep."""
    spec = figure(figure_id).panels[panel]
    return run_panel(replace(spec, **changes), QUICK)


class TestFig5:
    def test_approxiot_beats_srs_at_low_fraction(self):
        low = rows("fig5", values=TWO_FRACTIONS)[0]
        assert low["fraction"] == 0.1
        assert low["ApproxIoT loss"] < low["SRS loss"]
        assert low["SRS/ApproxIoT"] > 2.0

    def test_poisson_panel_runs(self):
        panel = figure("fig5").panels[1]
        assert panel.workload == "poisson"
        points = rows("fig5", panel=1, values=TWO_FRACTIONS)
        assert all(p["ApproxIoT loss"] < p["SRS loss"] for p in points)


class TestFig6:
    def test_sampling_raises_throughput(self):
        low, full = rows("fig6", values=(0.1, 1.0), n_windows=8)
        assert low["speedup"] > 2.0
        # At 100% fraction all three systems are comparable.
        assert full["ApproxIoT"] == pytest.approx(full["Native"], rel=0.5)

    def test_srs_and_approxiot_similar(self):
        point = rows("fig6", values=(0.2,), n_windows=8)[0]
        assert point["ApproxIoT"] == pytest.approx(point["SRS"], rel=0.5)


class TestFig7:
    def test_saving_tracks_dropped_fraction(self):
        low, high = rows("fig7", values=(0.1, 0.8), n_windows=5)
        assert low["ApproxIoT saving"] == pytest.approx(90.0, abs=8.0)
        assert high["ApproxIoT saving"] == pytest.approx(20.0, abs=8.0)
        assert low["SRS saving"] == pytest.approx(90.0, abs=8.0)


class TestFig8:
    def test_native_latency_worst(self):
        point = rows("fig8", values=(0.1,), n_windows=8)[0]
        assert point["Native (s)"] > point["ApproxIoT (s)"]
        assert point["speedup"] > 1.5


class TestFig9:
    def test_approxiot_grows_srs_flat(self):
        small, large = rows("fig9", values=(0.5, 3.0), n_windows=6)
        approxiot_growth = large["ApproxIoT (s)"] / small["ApproxIoT (s)"]
        srs_growth = large["SRS (s)"] / small["SRS (s)"]
        assert approxiot_growth > 2.0
        assert srs_growth < 1.6  # flat up to queueing noise
        assert approxiot_growth > 2 * srs_growth


class TestFig10:
    def test_settings_panels(self):
        points = rows("fig10")
        assert [p["setting"] for p in points] == [
            "Setting1", "Setting2", "Setting3"
        ]
        assert all(p["ApproxIoT loss"] < p["SRS loss"] for p in points)

    def test_skew_panel_srs_explodes(self):
        point = rows("fig10", panel=2, values=(0.1,))[0]
        assert point["SRS loss"] > 100 * point["ApproxIoT loss"]


class TestFig11:
    def test_accuracy_panels(self):
        low = rows("fig11", values=TWO_FRACTIONS)[0]
        # Pollution values are stabler: lower loss at matched fractions.
        assert low["Brasov pollution loss"] < low["NYC taxi loss"]

    def test_throughput_panel(self):
        point = rows(
            "fig11", panel=1, workload="pollution", values=(0.1,), n_windows=6
        )[0]
        assert point["Brasov pollution"] > point["native"]


class TestExecutor:
    def test_all_figures_registered(self):
        assert [spec.id for spec in FIGURES] == [
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"
        ]

    def test_unknown_figure(self):
        with pytest.raises(ReproError):
            run_figure("fig99")

    def test_run_figure_returns_table_text(self):
        text = run_figure("fig5", QUICK)
        assert "Fig. 5(a)" in text
        assert "ApproxIoT" in text

    def test_each_configuration_runs_once(self, monkeypatch):
        """Columns that read the same run share it: native at 100 %
        runs once per panel, and one statistical run feeds all three
        of Fig. 5's columns."""
        from repro.experiments import figures

        calls = []
        real = figures._run_once

        def counted(panel, scale, mode, workload, value):
            calls.append((mode, workload, value))
            return real(panel, scale, mode, workload, value)

        monkeypatch.setattr(figures, "_run_once", counted)
        rows("fig6", values=(0.1, 1.0), n_windows=2)
        assert sorted(calls) == sorted([
            ("approxiot", "gaussian", 0.1), ("srs", "gaussian", 0.1),
            ("native", "gaussian", 1.0),
            ("approxiot", "gaussian", 1.0), ("srs", "gaussian", 1.0),
        ])
        calls.clear()
        rows("fig5", values=(0.1,))
        assert calls == [("approxiot", "gaussian", 0.1)]

    @pytest.mark.parametrize("field, value", [
        ("axis", "temperature"),
        ("engine", "quantum"),
        ("workload", "weather"),
    ])
    def test_panel_validated_once(self, field, value):
        with pytest.raises(ReproError):
            replace(figure("fig5").panels[0], **{field: value})

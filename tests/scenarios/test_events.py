"""Unit tests for the typed scenario events."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.events import (
    LinkDegrade,
    NodeChurn,
    RateBurst,
    RateRamp,
    RateWave,
    SkewDrift,
)
from repro.scenarios.scenario import Scenario


class TestIntervals:
    def test_rejects_negative_start(self):
        with pytest.raises(ConfigurationError):
            RateBurst(-1, 3, 2.0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ConfigurationError):
            RateBurst(3, 3, 2.0)
        with pytest.raises(ConfigurationError):
            NodeChurn(5, 2, ("l1-0",))


class TestRateBurst:
    def test_multiplier_inside_and_outside(self):
        burst = RateBurst(2, 5, 4.0)
        assert burst.multiplier(1) == 1.0
        assert burst.multiplier(2) == 4.0
        assert burst.multiplier(4) == 4.0
        assert burst.multiplier(5) == 1.0

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigurationError):
            RateBurst(0, 1, 0.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_rejects_nonfinite_factor(self, factor):
        with pytest.raises(ConfigurationError):
            RateBurst(0, 1, factor)


class TestRateRamp:
    def test_linear_interpolation(self):
        ramp = RateRamp(2, 6, 1.0, 3.0)
        assert ramp.multiplier(2) == pytest.approx(1.0)
        assert ramp.multiplier(4) == pytest.approx(2.0)
        assert ramp.multiplier(5) == pytest.approx(2.5)
        assert ramp.multiplier(6) == 1.0  # handed over, not held

    def test_downward_ramp(self):
        ramp = RateRamp(0, 4, 4.0, 1.0)
        assert ramp.multiplier(0) == pytest.approx(4.0)
        assert ramp.multiplier(2) == pytest.approx(2.5)

    def test_rejects_nonpositive_factors(self):
        with pytest.raises(ConfigurationError):
            RateRamp(0, 2, 0.0, 1.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_rejects_nonfinite_factors(self, factor):
        with pytest.raises(ConfigurationError):
            RateRamp(0, 2, factor, 1.0)
        with pytest.raises(ConfigurationError):
            RateRamp(0, 2, 1.0, factor)


class TestRateWave:
    def test_trough_peak_trough(self):
        wave = RateWave(0, 13, period_windows=12.0, low=0.5, high=1.5)
        assert wave.multiplier(0) == pytest.approx(0.5)
        assert wave.multiplier(6) == pytest.approx(1.5)
        assert wave.multiplier(12) == pytest.approx(0.5)

    def test_outside_is_identity(self):
        wave = RateWave(2, 6, period_windows=4.0, low=0.5, high=1.5)
        assert wave.multiplier(1) == 1.0
        assert wave.multiplier(6) == 1.0

    @pytest.mark.parametrize("bound", [float("nan"), float("inf")])
    def test_rejects_nonfinite_bounds(self, bound):
        with pytest.raises(ConfigurationError):
            RateWave(0, 4, period_windows=4.0, low=bound, high=1.5)
        with pytest.raises(ConfigurationError):
            RateWave(0, 4, period_windows=4.0, low=0.5, high=bound)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            RateWave(0, 4, period_windows=0.0, low=0.5, high=1.5)
        with pytest.raises(ConfigurationError):
            RateWave(0, 4, period_windows=4.0, low=1.5, high=0.5)


class TestSkewDrift:
    def test_progress_is_clamped_linear(self):
        drift = SkewDrift(2, 6, {"A": 1.0})
        assert drift.progress(0) == 0.0
        assert drift.progress(2) == 0.0
        assert drift.progress(4) == pytest.approx(0.5)
        assert drift.progress(6) == 1.0
        assert drift.progress(100) == 1.0  # the new mix holds

    def test_shares_normalize(self):
        drift = SkewDrift(0, 2, {"A": 2.0, "B": 2.0})
        assert drift.normalized_shares() == {"A": 0.5, "B": 0.5}

    def test_rejects_bad_shares(self):
        with pytest.raises(ConfigurationError):
            SkewDrift(0, 2, {})
        with pytest.raises(ConfigurationError):
            SkewDrift(0, 2, {"A": -0.5, "B": 1.5})
        with pytest.raises(ConfigurationError):
            SkewDrift(0, 2, {"A": 0.0})


class TestNodeChurn:
    def test_offline_inside_interval_only(self):
        churn = NodeChurn(1, 3, ("l1-0", "source-2"))
        assert churn.offline(0) == ()
        assert churn.offline(1) == ("l1-0", "source-2")
        assert churn.offline(3) == ()

    def test_root_cannot_churn(self):
        with pytest.raises(ConfigurationError, match="root"):
            NodeChurn(0, 2, ("root",))

    def test_needs_nodes(self):
        with pytest.raises(ConfigurationError):
            NodeChurn(0, 2, ())


class TestLinkDegrade:
    def test_active_window_range(self):
        event = LinkDegrade(2, 4, ("source-0",), loss=0.5)
        assert not event.active(1)
        assert event.active(2)
        assert not event.active(4)

    def test_rejects_invalid_loss(self):
        with pytest.raises(ConfigurationError):
            LinkDegrade(0, 2, loss=1.0)
        with pytest.raises(ConfigurationError):
            LinkDegrade(0, 2, loss=-0.1)

    def test_rejects_noop(self):
        with pytest.raises(ConfigurationError, match="no-op"):
            LinkDegrade(0, 2, ("source-0",))

    def test_root_has_no_uplink(self):
        with pytest.raises(ConfigurationError, match="root"):
            LinkDegrade(0, 2, ("root",), loss=0.1)

    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            LinkDegrade(0, 2, delay_windows=-1)


class TestScenario:
    def test_rejects_events_past_the_end(self):
        with pytest.raises(ConfigurationError, match="window"):
            Scenario("x", "desc", windows=3, events=(RateBurst(0, 5, 2.0),))

    def test_rejects_empty_name_and_bad_length(self):
        with pytest.raises(ConfigurationError):
            Scenario("", "desc", windows=3)
        with pytest.raises(ConfigurationError):
            Scenario("x", "desc", windows=0)

    def test_is_steady_and_event_filter(self):
        steady = Scenario("s", "d", windows=2)
        assert steady.is_steady
        busy = Scenario(
            "b", "d", windows=6,
            events=(RateBurst(0, 2, 2.0), NodeChurn(1, 3, ("l1-0",))),
        )
        assert not busy.is_steady
        assert len(busy.events_of(RateBurst)) == 1
        assert len(busy.events_of(RateBurst, NodeChurn)) == 2

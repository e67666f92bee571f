"""Unit tests for the scenario timeline engine (binding + per-window state)."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.catalog import BUILTIN_SCENARIOS, get_scenario
from repro.scenarios.engine import LinkState, ScenarioEngine
from repro.scenarios.events import (
    LinkDegrade,
    NodeChurn,
    RateBurst,
    SkewDrift,
)
from repro.scenarios.scenario import Scenario
from repro.topology.tree import paper_tree
from repro.workloads.rates import RateSchedule

SCHEDULE = RateSchedule(
    "engine-test", {"A": 100.0, "B": 100.0, "C": 100.0, "D": 100.0}
)


def bind(scenario):
    return ScenarioEngine(scenario, paper_tree(), SCHEDULE)


class TestValidation:
    def test_unknown_substream_fails_loudly(self):
        scenario = Scenario(
            "x", "d", windows=4,
            events=(RateBurst(0, 2, 2.0, substreams=("Z",)),),
        )
        with pytest.raises(ConfigurationError, match="unknown sub-streams"):
            bind(scenario)

    def test_unknown_drift_substream_fails_loudly(self):
        scenario = Scenario(
            "x", "d", windows=4, events=(SkewDrift(0, 2, {"Q": 1.0}),)
        )
        with pytest.raises(ConfigurationError, match="unknown sub-streams"):
            bind(scenario)

    def test_unknown_tree_node_fails_loudly(self):
        scenario = Scenario(
            "x", "d", windows=4, events=(NodeChurn(0, 2, ("l9-7",)),)
        )
        with pytest.raises(ConfigurationError, match="unknown tree nodes"):
            bind(scenario)

    def test_all_sources_offline_fails_loudly(self):
        every_source = tuple(f"source-{i}" for i in range(8))
        scenario = Scenario(
            "x", "d", windows=4, events=(NodeChurn(1, 2, every_source),)
        )
        with pytest.raises(ConfigurationError, match="every source offline"):
            bind(scenario)

    def test_builtins_all_bind_to_the_paper_setup(self):
        for name, scenario in BUILTIN_SCENARIOS.items():
            engine = bind(scenario)
            for window in range(scenario.windows):
                engine.state_for(window)  # compiles without error


class TestRates:
    def test_steady_rates_are_the_schedule(self):
        engine = bind(get_scenario("steady"))
        assert engine.state_for(0).rates == dict(SCHEDULE.rates)

    def test_burst_multiplies_targeted_substreams(self):
        scenario = Scenario(
            "x", "d", windows=4,
            events=(RateBurst(1, 3, 3.0, substreams=("A",)),),
        )
        state = bind(scenario).state_for(1)
        assert state.rates["A"] == pytest.approx(300.0)
        assert state.rates["B"] == pytest.approx(100.0)
        assert state.rate_multiplier(SCHEDULE) == pytest.approx(1.5)

    def test_overlapping_rate_events_multiply(self):
        scenario = Scenario(
            "x", "d", windows=4,
            events=(RateBurst(0, 4, 2.0), RateBurst(1, 2, 3.0)),
        )
        engine = bind(scenario)
        assert engine.state_for(0).rates["A"] == pytest.approx(200.0)
        assert engine.state_for(1).rates["A"] == pytest.approx(600.0)

    def test_drift_preserves_total_rate(self):
        scenario = Scenario(
            "x", "d", windows=8,
            events=(SkewDrift(0, 4, {"A": 0.7, "B": 0.1, "C": 0.1,
                                     "D": 0.1}),),
        )
        engine = bind(scenario)
        for window in range(8):
            state = engine.state_for(window)
            assert sum(state.rates.values()) == pytest.approx(
                SCHEDULE.total_rate
            )
        final = engine.state_for(7).rates
        assert final["A"] == pytest.approx(0.7 * SCHEDULE.total_rate)
        assert final["D"] == pytest.approx(0.1 * SCHEDULE.total_rate)

    def test_drift_holds_after_its_end(self):
        scenario = Scenario(
            "x", "d", windows=8,
            events=(SkewDrift(0, 2, {"A": 1.0, "B": 0.0, "C": 0.0,
                                     "D": 0.0}),),
        )
        state = bind(scenario).state_for(7)
        assert state.rates["A"] == pytest.approx(SCHEDULE.total_rate)
        assert state.rates["B"] == 0.0


class TestChurnState:
    def test_offline_set_follows_the_timeline(self):
        engine = bind(get_scenario("churn"))
        assert engine.state_for(0).offline == frozenset()
        assert engine.state_for(3).offline == {"l1-1"}
        assert engine.state_for(5).offline == {"l1-1", "source-5"}
        assert engine.state_for(11).offline == frozenset()

    def test_steady_windows_are_marked_steady(self):
        engine = bind(get_scenario("churn"))
        assert engine.state_for(0).is_steady
        assert not engine.state_for(3).is_steady


class TestLinkStateComposition:
    def test_overlapping_degradations_compose(self):
        scenario = Scenario(
            "x", "d", windows=6,
            events=(
                LinkDegrade(0, 6, ("source-0",), loss=0.5),
                LinkDegrade(2, 4, ("source-0",), loss=0.5, delay_windows=1),
            ),
        )
        engine = bind(scenario)
        lone = engine.state_for(0).degraded["source-0"]
        assert lone.loss == pytest.approx(0.5)
        both = engine.state_for(2).degraded["source-0"]
        assert both.loss == pytest.approx(0.75)  # 1 - 0.5 * 0.5
        assert both.delay_windows == 1

    def test_none_targets_every_uplink(self):
        scenario = Scenario(
            "x", "d", windows=2, events=(LinkDegrade(0, 2, loss=0.1),)
        )
        state = bind(scenario).state_for(0)
        assert len(state.degraded) == len(paper_tree().nodes) - 1

    def test_compose_is_identity_free(self):
        state = LinkState()
        assert state.loss == 0.0 and state.delay_windows == 0


class TestCatalog:
    def test_catalog_lookup_is_loud(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("apocalypse")

"""Unit tests for the stream-processing engine."""

import pytest

from repro.broker.broker import Broker
from repro.broker.producer import Producer
from repro.errors import PipelineError, TopologyError
from repro.streams.dsl import StreamBuilder
from repro.streams.processor import Processor
from repro.streams.runtime import StreamsRuntime
from repro.streams.topology import Topology


class Scale(Processor):
    """Forwards ``value * factor`` under the same key."""

    def __init__(self, factor):
        super().__init__("scale")
        self.factor = factor

    def process(self, key, value):
        self.context.forward(key, value * self.factor)


class Collect(Processor):
    """Terminal processor recording every ``(key, value)`` it receives."""

    def __init__(self):
        super().__init__("collect")
        self.seen = []

    def process(self, key, value):
        self.seen.append((key, value))

    @property
    def values(self):
        return [value for _key, value in self.seen]


def broker_with(topic, values):
    broker = Broker()
    broker.create_topic(topic)
    producer = Producer(broker)
    for ts, value in values:
        producer.send(topic, value, timestamp=ts)
    return broker


def out_values(broker, topic):
    return [record.value for record in broker.fetch(topic, 0, 0)]


class TestTopology:
    def test_duplicate_node_rejected(self):
        topology = Topology()
        topology.add_source("src", ["t"])
        with pytest.raises(TopologyError):
            topology.add_source("src", ["t2"])

    def test_unknown_parent_rejected(self):
        topology = Topology()
        with pytest.raises(TopologyError):
            topology.add_processor("p", Processor("p"), ["ghost"])

    def test_source_needs_topics(self):
        with pytest.raises(TopologyError):
            Topology().add_source("s", [])

    def test_forwarding_chain(self):
        topology = Topology()
        topology.add_source("src", ["t"])
        sink = Collect()
        topology.add_processor("double", Scale(2), ["src"])
        topology.add_processor("collect", sink, ["double"])
        topology.node("src").process("k", 21)
        assert sink.seen == [("k", 42)]

    def test_sink_without_runtime_raises(self):
        topology = Topology()
        topology.add_source("src", ["t"])
        topology.add_sink("out", "dst", ["src"])
        with pytest.raises(TopologyError):
            topology.node("src").process("k", "v")

    def test_processor_needs_a_parent(self):
        with pytest.raises(TopologyError):
            Topology().add_processor("p", Processor("p"), [])

    def test_sink_needs_a_parent(self):
        with pytest.raises(TopologyError):
            Topology().add_sink("out", "dst", [])

    def test_unknown_node_lookup_raises(self):
        with pytest.raises(TopologyError, match="ghost"):
            Topology().node("ghost")

    def test_processor_takes_its_node_name(self):
        topology = Topology()
        topology.add_source("src", ["t"])
        processor = Scale(3)
        topology.add_processor("triple", processor, ["src"])
        assert processor.name == "triple"
        assert topology.node("triple") is processor

    def test_node_names_in_insertion_order(self):
        topology = Topology()
        topology.add_source("src", ["t"])
        topology.add_processor("p", Processor("p"), ["src"])
        topology.add_sink("out", "dst", ["p"])
        assert topology.node_names == ["src", "p", "out"]

    def test_sources_listing_is_a_copy(self):
        topology = Topology()
        topology.add_source("src", ["t"])
        topology.sources.clear()
        assert [source.name for source in topology.sources] == ["src"]

    def test_base_processor_passes_records_through(self):
        topology = Topology()
        topology.add_source("src", ["t"])
        sink = Collect()
        topology.add_processor("identity", Processor("identity"), ["src"])
        topology.add_processor("collect", sink, ["identity"])
        topology.node("src").process("k", "v")
        assert sink.seen == [("k", "v")]

    def test_processor_with_two_parents_sees_both(self):
        topology = Topology()
        topology.add_source("left", ["l"])
        topology.add_source("right", ["r"])
        sink = Collect()
        topology.add_processor("collect", sink, ["left", "right"])
        topology.node("left").process("a", 1)
        topology.node("right").process("b", 2)
        assert sink.seen == [("a", 1), ("b", 2)]

    def test_forward_carries_stream_time_to_children(self):
        topology = Topology()
        topology.add_source("src", ["t"])
        sink = Collect()
        topology.add_processor("collect", sink, ["src"])
        source = topology.node("src")
        source.context.stream_time = 9.0
        source.process("k", "v")
        assert sink.context.stream_time == 9.0


class Lifecycle(Processor):
    """Counts lifecycle hook calls and records punctuation times."""

    def __init__(self):
        super().__init__("lifecycle")
        self.inits = 0
        self.closes = 0
        self.punctuations = []

    def init(self):
        self.inits += 1

    def punctuate(self, stream_time):
        self.punctuations.append(stream_time)

    def close(self):
        self.closes += 1


class TestRuntimeLifecycle:
    def _runtime(self, broker, probe, **kwargs):
        builder = StreamBuilder()
        builder.stream("in").process_with(probe)
        return StreamsRuntime(broker, builder.build(), **kwargs)

    def test_init_runs_once_at_construction(self):
        probe = Lifecycle()
        runtime = self._runtime(broker_with("in", []), probe)
        assert probe.inits == 1
        runtime.run_to_completion()
        assert probe.inits == 1
        runtime.close()

    def test_close_is_idempotent(self):
        probe = Lifecycle()
        runtime = self._runtime(broker_with("in", []), probe)
        runtime.close()
        runtime.close()
        assert probe.closes == 1

    def test_every_poll_round_punctuates_at_stream_time(self):
        probe = Lifecycle()
        broker = broker_with("in", [(1.0, "a"), (3.0, "b")])
        runtime = self._runtime(broker, probe, max_poll_records=1)
        assert runtime.run_to_completion() == 2
        runtime.close()
        # Two rounds read one record each; the third finds none.
        assert probe.punctuations == [1.0, 3.0, 3.0]

    def test_advance_stream_time_never_moves_back(self):
        probe = Lifecycle()
        runtime = self._runtime(broker_with("in", []), probe)
        runtime.advance_stream_time(10.0)
        runtime.advance_stream_time(4.0)
        assert runtime.stream_time == 10.0
        assert probe.punctuations == [10.0, 10.0]
        runtime.close()

    def test_empty_topic_completes_with_nothing(self):
        probe = Lifecycle()
        runtime = self._runtime(broker_with("in", []), probe)
        assert runtime.run_to_completion() == 0
        assert runtime.stream_time == 0.0
        runtime.close()

    def test_close_commits_so_the_app_resumes_after_its_offsets(self):
        broker = broker_with("in", [(0.0, 1), (0.0, 2)])
        first = Collect()
        runtime = self._runtime(broker, first, application_id="app")
        runtime.run_to_completion()
        runtime.close()
        Producer(broker).send("in", 3, timestamp=0.0)
        second = Collect()
        runtime = self._runtime(broker, second, application_id="app")
        runtime.run_to_completion()
        runtime.close()
        assert first.values == [1, 2]
        assert second.values == [3]

    def test_source_over_two_topics_reads_both(self):
        broker = broker_with("a", [(0.0, 1)])
        broker.create_topic("b")
        Producer(broker).send("b", 2, timestamp=0.0)
        sink = Collect()
        builder = StreamBuilder()
        builder.stream("a", "b").process_with(sink)
        runtime = StreamsRuntime(broker, builder.build())
        assert runtime.run_to_completion() == 2
        runtime.close()
        assert sorted(sink.values) == [1, 2]


class TestRuntime:
    def test_pipe_through_processor_to_topic(self):
        broker = broker_with("in", [(0.0, 1), (0.0, 2)])
        builder = StreamBuilder()
        builder.stream("in").process_with(Scale(10)).to("out")
        runtime = StreamsRuntime(broker, builder.build())
        assert runtime.run_to_completion() == 2
        runtime.close()
        assert sorted(out_values(broker, "out")) == [10, 20]

    def test_fan_out_feeds_every_branch(self):
        """Two processors beneath one source each see every record."""
        broker = broker_with("in", [(0.0, 1), (0.0, 2), (0.0, 3)])
        builder = StreamBuilder()
        source = builder.stream("in")
        source.process_with(Scale(10)).to("tens")
        source.process_with(Scale(100)).to("hundreds")
        runtime = StreamsRuntime(broker, builder.build())
        runtime.run_to_completion()
        runtime.close()
        assert out_values(broker, "tens") == [10, 20, 30]
        assert out_values(broker, "hundreds") == [100, 200, 300]

    def test_two_sources_route_to_their_own_sinks(self):
        broker = Broker()
        broker.create_topic("in1")
        broker.create_topic("in2")
        producer = Producer(broker)
        producer.send("in1", 1, timestamp=0.0)
        producer.send("in2", 2, timestamp=0.0)
        builder = StreamBuilder()
        builder.stream("in1").process_with(Scale(10)).to("out1")
        builder.stream("in2").process_with(Scale(100)).to("out2")
        runtime = StreamsRuntime(broker, builder.build())
        runtime.run_to_completion()
        runtime.close()
        assert out_values(broker, "out1") == [10]
        assert out_values(broker, "out2") == [200]

    def test_sink_emits_key_and_stream_time(self):
        broker = Broker()
        broker.create_topic("in")
        Producer(broker).send("in", 7, key="k", timestamp=4.5)
        builder = StreamBuilder()
        builder.stream("in").to("out")
        runtime = StreamsRuntime(broker, builder.build())
        runtime.run_to_completion()
        runtime.close()
        [record] = broker.fetch("out", 0, 0)
        assert (record.key, record.value) == ("k", 7)
        assert record.timestamp == 4.5

    def test_custom_processor_integration(self):
        """The paper's pattern: a user-defined sampling processor."""

        class EveryOther(Processor):
            def __init__(self):
                super().__init__("every-other")
                self.count = 0

            def process(self, key, value):
                self.count += 1
                if self.count % 2 == 1:
                    self.context.forward(key, value)

        broker = broker_with("in", [(0.0, i) for i in range(6)])
        builder = StreamBuilder()
        sink = Collect()
        builder.stream("in").process_with(EveryOther()).process_with(sink)
        runtime = StreamsRuntime(broker, builder.build())
        runtime.run_to_completion()
        runtime.close()
        assert sink.values == [0, 2, 4]

    def test_stream_time_advances_with_records(self):
        broker = broker_with("in", [(5.0, "a"), (2.0, "b")])
        builder = StreamBuilder()
        builder.stream("in").process_with(Collect())
        runtime = StreamsRuntime(broker, builder.build())
        runtime.run_to_completion()
        assert runtime.stream_time == 5.0
        runtime.close()

    def test_run_to_completion_drains_in_small_polls(self):
        broker = broker_with("in", [(0.0, i) for i in range(10)])
        builder = StreamBuilder()
        sink = Collect()
        builder.stream("in").process_with(sink)
        runtime = StreamsRuntime(
            broker, builder.build(), max_poll_records=1
        )
        assert runtime.run_to_completion(max_rounds=11) == 10
        runtime.close()
        assert sink.values == list(range(10))

    def test_run_to_completion_raises_on_unread_records(self):
        """Running out of rounds with records left is an error, not a
        silently truncated count."""
        broker = broker_with("in", [(0.0, i) for i in range(10)])
        builder = StreamBuilder()
        builder.stream("in").to("out")
        runtime = StreamsRuntime(
            broker, builder.build(), max_poll_records=1
        )
        with pytest.raises(PipelineError, match="7 records still unread"):
            runtime.run_to_completion(max_rounds=3)
        runtime.close()

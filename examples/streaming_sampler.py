"""The paper's prototype architecture: a sampling processor in the
stream engine over pub/sub topics.

ApproxIoT's implementation (§IV) plugs the sampling algorithm into
Kafka Streams as a user-defined low-level processor, between a source
topic and a sink topic. This example rebuilds exactly that shape on
the library's own substrates: broker topics carry the data stream, a
custom WHSamp processor samples per punctuation interval, and the root
consumes weighted batches from the output topic to answer a SUM query.

Run:  python examples/streaming_sampler.py
"""

import random
from typing import Any

from repro.broker import Broker, Producer
from repro.core import ThetaStore, WeightedBatch, estimate_sum_with_error
from repro.core.whs import WeightedHierarchicalSampler
from repro.streams import Processor, StreamBuilder, StreamsRuntime


class WHSampProcessor(Processor):
    """The paper's sampling module as a stream processor.

    Buffers items per punctuation interval; when stream time crosses an
    interval boundary it samples the buffer with weighted hierarchical
    sampling and forwards one weighted batch per sub-stream.
    """

    def __init__(self, sample_size: int, interval: float, seed: int = 0) -> None:
        super().__init__("whsamp")
        self._sample_size = sample_size
        self._seed = seed
        self._sampler: WeightedHierarchicalSampler | None = None
        self._interval = interval
        self._buffer: list[Any] = []
        self._next_boundary = interval

    def init(self) -> None:
        self._ensure_sampler()

    def _ensure_sampler(self) -> WeightedHierarchicalSampler:
        # Lazy so the processor also works standalone (no runtime, no
        # init() call).
        if self._sampler is None:
            self._sampler = WeightedHierarchicalSampler(
                self._sample_size, rng=random.Random(self._seed)
            )
        return self._sampler

    def process(self, key: Any, value: Any) -> None:
        self._buffer.append(value)

    def punctuate(self, stream_time: float) -> None:
        while stream_time >= self._next_boundary:
            self._flush()
            self._next_boundary += self._interval

    def close(self) -> None:
        self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        result = self._ensure_sampler().process_interval(batch)
        for weighted in result.batches:
            self.context.forward(weighted.substream, weighted)


def main() -> None:
    broker = Broker()
    broker.create_topic("sensor-readings", partitions=2)

    # Producers: two sensor fleets pushing readings into the topic.
    from repro.core import StreamItem

    rng = random.Random(42)
    producer = Producer(broker, batch_size=50)
    emitted = []
    for step in range(2_000):
        timestamp = step * 0.01
        for substream, mu in (("indoor", 21.0), ("furnace", 900.0)):
            item = StreamItem(substream, rng.gauss(mu, mu * 0.05), timestamp)
            emitted.append(item)
            producer.send(
                "sensor-readings", item, key=substream, timestamp=timestamp
            )
    producer.flush()

    # Topology: source topic -> sampling processor -> output topic.
    builder = StreamBuilder()
    (builder.stream("sensor-readings")
        .process_with(WHSampProcessor(sample_size=150, interval=1.0))
        .to("sampled-readings"))
    runtime = StreamsRuntime(broker, builder.build())
    processed = runtime.run_to_completion()
    runtime.advance_stream_time(100.0)  # close the final interval
    runtime.close()

    # Root: consume weighted batches and answer the query.
    theta = ThetaStore()
    for partition in broker.end_offsets("sampled-readings"):
        for record in broker.fetch("sampled-readings", partition, 0):
            assert isinstance(record.value, WeightedBatch)
            theta.add(record.value)

    exact = sum(item.value for item in emitted)
    approx = estimate_sum_with_error(theta, confidence=0.95)
    print("Streaming sampler (paper §IV architecture)")
    print("-------------------------------------------")
    print(f"records through the engine : {processed}")
    print(f"weighted batches at root   : {len(theta)}")
    print(f"approximate SUM            : {approx}")
    print(f"exact SUM                  : {exact:,.1f}")
    print(f"accuracy loss              : "
          f"{100 * abs(approx.value - exact) / exact:.4f}%")


if __name__ == "__main__":
    main()

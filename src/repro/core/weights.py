"""Weight bookkeeping for hierarchical sampling.

A *weight map* associates each sub-stream with the multiplicative
significance of its currently-sampled items. Weights start at 1 at data
sources and are multiplied by ``c_i / N_i`` whenever a node's reservoir
for sub-stream ``i`` overflows (Equations 1 and 2 of the paper). The
paper's Figure 3 also specifies the *stale weight* rule: when items
arrive within an interval in which no weight was received for their
sub-stream, the most recent prior weight for that sub-stream applies.
:class:`WeightMap` implements both behaviours.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

__all__ = ["WeightMap", "local_weight", "output_weight"]

_DEFAULT_WEIGHT = 1.0


def local_weight(seen: int, reservoir_size: int) -> float:
    """Equation 1: the local weight ``w_i`` of a node's sample.

    ``w_i = c_i / N_i`` when the sub-stream overflowed the reservoir
    (``c_i > N_i``), otherwise 1 — the sample *is* the sub-stream.
    """
    if reservoir_size <= 0:
        raise ValueError(f"reservoir size must be positive, got {reservoir_size}")
    if seen > reservoir_size:
        return seen / reservoir_size
    return 1.0


def output_weight(input_weight: float, seen: int, reservoir_size: int) -> float:
    """Equation 2: the output weight ``W_out_i`` forwarded upstream.

    ``W_out = W_in * c_i / N_i`` on overflow, ``W_out = W_in`` otherwise.
    """
    if not 0 < input_weight < math.inf:
        raise ValueError(
            f"input weight must be positive and finite, got {input_weight}"
        )
    return input_weight * local_weight(seen, reservoir_size)


class WeightMap:
    """Per-sub-stream weights with the stale-weight fallback rule.

    The map remembers the last weight seen for every sub-stream. Looking
    up a sub-stream that has never carried a weight returns the default
    weight 1.0 — the paper's convention for items fresh from a source
    (``W_in_i = 1`` initially, §III-C case i).
    """

    def __init__(self, initial: Mapping[str, float] | None = None) -> None:
        self._weights: dict[str, float] = {}
        if initial:
            for substream, weight in initial.items():
                self.update(substream, weight)

    def get(self, substream: str) -> float:
        """Current weight for a sub-stream (1.0 if never set)."""
        return self._weights.get(substream, _DEFAULT_WEIGHT)

    def update(self, substream: str, weight: float) -> None:
        """Record the latest weight received for a sub-stream."""
        if not 0 < weight < math.inf:
            raise ValueError(f"weight must be positive and finite, got {weight}")
        self._weights[substream] = float(weight)

    def merge(self, other: Mapping[str, float] | "WeightMap") -> None:
        """Fold another weight map in, overwriting per sub-stream.

        Used when a node receives fresh metadata from a downstream node:
        newer weights supersede the stale ones kept locally.
        """
        for substream, weight in other.items():
            self.update(substream, weight)

    def items(self) -> Iterator[tuple[str, float]]:
        """Iterate over (sub-stream, weight) pairs that were set."""
        return iter(dict(self._weights).items())

    def as_dict(self) -> dict[str, float]:
        """Snapshot of all explicitly-set weights."""
        return dict(self._weights)

    def __contains__(self, substream: str) -> bool:
        return substream in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightMap({self._weights!r})"

"""Weight arithmetic for hierarchical sampling.

A batch's weight is the multiplicative significance of its sampled
items. Weights start at 1 at data sources and are multiplied by
``c_i / N_i`` whenever a node's reservoir for sub-stream ``i``
overflows (Equations 1 and 2 of the paper). The weight rides on each
:class:`~repro.core.items.WeightedBatch`, so there is no per-node map:
Figure 3's *stale weight* rule — items arriving without metadata take
the sub-stream's last *received* weight — is the weight the caller
gives their batch.
"""

from __future__ import annotations

import math

__all__ = ["local_weight", "output_weight"]


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

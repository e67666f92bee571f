"""Evaluation metrics and report formatting.

The paper's three metrics (§V-A): throughput (items/s), accuracy loss
(``|approx - exact| / exact``) and end-to-end latency, plus the
bandwidth-saving rate of Fig. 7. Accuracy lives in
:func:`repro.system.accuracy_loss`; latency and bandwidth helpers in
:mod:`repro.simnet.stats`; this package adds report tables shared by
the experiment harness and imports nothing else from the library.
"""

from repro.metrics.report import Table, format_bytes, format_percent, format_rate

__all__ = [
    "Table",
    "format_bytes",
    "format_percent",
    "format_rate",
]

"""Experiment harness for the paper's evaluation (§V, Figs. 5–11).

:mod:`repro.experiments.figures` declares every figure as a spec in
``FIGURES`` and runs them all through one executor; :mod:`.base` holds
the sizing, the config template and the workloads the specs name.
"""

from repro.experiments.base import ExperimentScale, PAPER_FRACTIONS

__all__ = ["ExperimentScale", "PAPER_FRACTIONS"]

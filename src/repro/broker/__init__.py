"""The sharded engine's weighted-batch codec: :mod:`repro.broker.records`."""

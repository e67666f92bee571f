"""Sanity tests for the exception hierarchy and package surface."""

import pytest

import repro
from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        exception_types = [
            obj
            for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, Exception)
        ]
        assert len(exception_types) >= 12
        for exc_type in exception_types:
            assert issubclass(exc_type, errors.ReproError)

    def test_simulation_family(self):
        assert issubclass(errors.ClockError, errors.SimulationError)
        assert issubclass(errors.NetworkError, errors.SimulationError)

    def test_one_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.SamplingError("x")


class TestPackageSurface:
    def test_version_string(self):
        major, _minor, _patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_exports_resolve(self):
        from repro import core

        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_system_exports_resolve(self):
        from repro import system

        for name in system.__all__:
            assert getattr(system, name) is not None

    def test_queries_exports_resolve(self):
        from repro import queries

        for name in queries.__all__:
            assert getattr(queries, name) is not None

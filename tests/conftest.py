"""Shared fixtures for the test suite."""

from contextlib import contextmanager

import pytest

from repro.streaming import fused


@pytest.fixture
def staged_execution(monkeypatch):
    """Context-manager factory: run the staged pipeline on the numpy backend.

    Fused fragment plans and fused source generation are both selected by
    :func:`repro.streaming.fused.fused_execution_active`, which callers read
    through the module, so substituting that one predicate inside the
    ``with`` block yields the staged reference that the fused == staged
    differential suites compare against.
    """

    @contextmanager
    def staged():
        with monkeypatch.context() as patch:
            patch.setattr(fused, "fused_execution_active", lambda: False)
            yield

    return staged

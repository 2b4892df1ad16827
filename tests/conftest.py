"""Fixtures shared across the test packages."""

import pytest


@pytest.fixture
def pool_rule(monkeypatch):
    """Set the pool engine's recovery constants for one test.

    ``pool_rule(max_retries=, backoff_base_s=, chunk_timeout_s=)`` patches
    ``MAX_RETRIES`` and ``BACKOFF_BASE_S`` in :mod:`repro.graph.scheduler`
    (the values omitted keep the module's) and, given a timeout, sets
    ``REPRO_CHUNK_TIMEOUT_S``; all are restored after the test.
    """
    from repro.graph import scheduler

    def apply(max_retries=scheduler.MAX_RETRIES,
              backoff_base_s=scheduler.BACKOFF_BASE_S, chunk_timeout_s=None):
        monkeypatch.setattr(scheduler, "MAX_RETRIES", max_retries)
        monkeypatch.setattr(scheduler, "BACKOFF_BASE_S", backoff_base_s)
        if chunk_timeout_s is not None:
            monkeypatch.setenv("REPRO_CHUNK_TIMEOUT_S", str(chunk_timeout_s))

    return apply

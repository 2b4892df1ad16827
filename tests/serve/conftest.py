"""Shared helpers for the serve-subsystem tests.

Tests run the asyncio pipeline via ``asyncio.run`` (no event-loop
plugin dependency) and default to the thread pool so injected closure
resolvers work and no subprocesses are spawned.
"""

import asyncio

import pytest

from repro.serve import ServeConfig


def run(coro):
    """Run one coroutine to completion on a fresh event loop."""
    return asyncio.run(coro)


@pytest.fixture
def thread_config():
    """A fast, injectable service config: ephemeral port, thread pool."""
    return ServeConfig(host="127.0.0.1", port=0, pool_mode="thread",
                       workers=2, default_deadline_s=10.0)

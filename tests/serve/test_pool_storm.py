"""Serve's process-mode model pool under a crash storm.

A crash fails every call in flight on the pool, but only the call that
replaces the pool spends an attempt; the others resubmit for free.  Calls
whose retries are spent run in-process, at most ``workers`` at once.
"""

import asyncio
import dataclasses
import functools
import json
import os
import threading
import time

import pytest

from repro import faults
from repro.serve import CharacterizationService
from repro.serve.loadgen import DEFAULT_MIX
from repro.serve.protocol import Request, normalize_params
from repro.serve.queries import resolve_perf_batch, resolve_query

from .conftest import run

#: the pid of the service under test; set before its pool forks, so a
#: worker sees its parent's pid here, never its own
_SERVICE_PID = None
_LOCK = threading.Lock()
_IN_PROCESS = {"now": 0, "peak": 0, "calls": 0}


def _noting(call):
    """Run ``call``; when it runs in the service's own process, count it
    and hold it long enough for concurrent fallbacks to overlap."""
    if os.getpid() != _SERVICE_PID:
        return call()
    with _LOCK:
        _IN_PROCESS["now"] += 1
        _IN_PROCESS["calls"] += 1
        _IN_PROCESS["peak"] = max(_IN_PROCESS["peak"], _IN_PROCESS["now"])
    try:
        time.sleep(0.3)
        return call()
    finally:
        with _LOCK:
            _IN_PROCESS["now"] -= 1


def noting_resolver(kind, params):
    return _noting(functools.partial(resolve_query, kind, params))


def noting_perf_batch_resolver(param_sets, n_jobs):
    return _noting(functools.partial(resolve_perf_batch, param_sets, n_jobs))


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset_fault_state()
    yield
    faults.clear_plan()


def _digest(payload):
    return json.dumps(payload, sort_keys=True)


def test_concurrent_crashes_bound_the_in_process_fallback(thread_config,
                                                           monkeypatch):
    """Seven fresh queries at once under a 50% crash plan: every answer
    equals ``resolve_query``'s, and no more than ``workers`` calls run
    in the service's own process at any moment."""
    config = dataclasses.replace(thread_config, pool_mode="process")
    monkeypatch.setitem(globals(), "_SERVICE_PID", os.getpid())
    _IN_PROCESS.update(now=0, peak=0, calls=0)
    faults.install_plan("executor.worker_crash=0.5,seed=7")

    async def scenario():
        service = CharacterizationService(
            config, resolver=noting_resolver,
            perf_batch_resolver=noting_perf_batch_resolver)
        try:
            return await asyncio.gather(*(
                service.handle(Request(
                    kind=kind, params=normalize_params(kind, params),
                    fresh=True))
                for kind, params in DEFAULT_MIX))
        finally:
            await service.stop()

    answers = run(scenario())
    faults.clear_plan()
    for (kind, params), answer in zip(DEFAULT_MIX, answers):
        assert answer.ok, answer.error
        assert _digest(answer.result) == _digest(
            resolve_query(kind, normalize_params(kind, params))), kind
    assert _IN_PROCESS["peak"] <= config.workers, _IN_PROCESS

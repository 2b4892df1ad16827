"""Serve's process-mode model pool recovers by the pool engine's rule.

Each call enters a worker through the engine's worker entry, so the
``executor.worker_crash`` site fires under ``serve:<key>:<attempt>``.  A
broken pool is killed and rebuilt and the call retried; a call whose
retries are spent runs in-process, that call only, and the next call
uses the process pool again.  Anything else, a call that cannot pickle
included, is the call's own answer.  Stopping the service kills busy
workers, so none holds up interpreter exit.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.graph import scheduler as engine
from repro.serve import CharacterizationService, ServeClient
from repro.serve.loadgen import DEFAULT_MIX, ServerHost
from repro.serve.protocol import Request, normalize_params
from repro.serve.queries import resolve_query

from .conftest import run

#: serves one query through a process-mode service whose resolver sleeps
#: 60 s in its worker, lets the deadline answer, then stops the service
#: by ``abort()`` or ``stop()`` and prints the answer's error code and
#: how many child processes are left
_BUSY_WORKER = '''
import asyncio
import multiprocessing
import sys
import time

from repro.serve import CharacterizationService, ServeConfig
from repro.serve.protocol import Request, normalize_params


def sleepy_resolver(kind, params):
    time.sleep(60)
    return {}


async def main(how):
    service = CharacterizationService(
        ServeConfig(port=0, pool_mode="process", workers=1),
        resolver=sleepy_resolver)
    resp = await service.handle(Request(
        kind="edp", params=normalize_params("edp", {"workload": "gemv"}),
        deadline_s=0.5))
    await (service.abort() if how == "abort" else service.stop())
    print(resp.error["code"], len(multiprocessing.active_children()))


if __name__ == "__main__":
    asyncio.run(main(sys.argv[1]))
'''


class UnpicklableResolver:
    """Holds a lock, so a process pool cannot send it to a worker."""

    def __init__(self):
        self._lock = threading.Lock()

    def __call__(self, kind, params):
        return {"kind": kind}


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset_fault_state()
    yield
    faults.clear_plan()


@pytest.fixture
def process_config(thread_config):
    return dataclasses.replace(thread_config, pool_mode="process")


def _request(kind, params):
    return Request(kind=kind, params=normalize_params(kind, params),
                   fresh=True)


def _digest(payload):
    return json.dumps(payload, sort_keys=True)


def _expected(kind, params):
    return _digest(resolve_query(kind, normalize_params(kind, params)))


def _counters(service):
    return {name: service.telemetry.counter(name)
            for name in ("pool_rebuilds_total", "pool_inprocess_total")}


class TestCrashRecovery:
    def test_crash_plan_answers_stay_right(self, process_config):
        """Under a 50% crash plan every answer equals the in-process
        reference; crashed pools were rebuilt and the pool stayed a
        process pool."""
        faults.install_plan("executor.worker_crash=0.5,seed=7")

        async def scenario():
            service = CharacterizationService(process_config)
            try:
                answers = [await service.handle(_request(kind, params))
                           for kind, params in DEFAULT_MIX]
                return (answers, _counters(service),
                        service.telemetry.snapshot()["gauges"]["pool_mode"])
            finally:
                await service.stop()

        answers, counters, mode = run(scenario())
        faults.clear_plan()
        for (kind, params), answer in zip(DEFAULT_MIX, answers):
            assert answer.ok, answer.error
            assert _digest(answer.result) == _expected(kind, params), kind
        assert counters["pool_rebuilds_total"] >= 1
        assert mode == "process"

    def test_spent_retries_run_one_call_in_process(self, process_config):
        """Every attempt crashes: the call is answered in-process once
        its retries are spent.  The next call, with no plan, runs on a
        new process pool and rebuilds nothing."""
        kind, params = DEFAULT_MIX[0]
        faults.install_plan("executor.worker_crash=1.0,seed=7")

        async def scenario():
            service = CharacterizationService(process_config)
            try:
                first = await service.handle(_request(kind, params))
                after_first = _counters(service)
                faults.clear_plan()
                second = await service.handle(_request(kind, params))
                return first, after_first, second, _counters(service)
            finally:
                await service.stop()

        first, after_first, second, after_second = run(scenario())
        assert first.ok, first.error
        assert _digest(first.result) == _expected(kind, params)
        assert after_first == {"pool_rebuilds_total": engine.MAX_RETRIES + 1,
                               "pool_inprocess_total": 1}
        assert second.ok, second.error
        assert _digest(second.result) == _expected(kind, params)
        assert after_second == after_first

    def test_unpicklable_call_is_its_own_answer(self, process_config):
        """A call the pool cannot send is answered as ``model_error`` at
        once: no rebuild, no in-process run, and ``metrics`` still
        reports a process pool."""
        config = dataclasses.replace(process_config, workers=1)
        host = ServerHost()
        try:
            address = host.serve(CharacterizationService(
                config, resolver=UnpicklableResolver()))
            with ServeClient(*address) as client:
                answer = client.query("edp", {"workload": "gemv"})
                after = client.query("metrics").result
        finally:
            host.stop()
        assert not answer.ok
        assert answer.error["code"] == "model_error"
        assert "pickle" in answer.error["message"]
        assert "Traceback" not in answer.error["message"]
        assert after["gauges"]["pool_mode"] == "process"
        assert "pool_rebuilds_total" not in after["counters"]
        assert "pool_inprocess_total" not in after["counters"]


class TestStopKillsBusyWorkers:
    @pytest.mark.parametrize("how", ["abort", "stop"])
    def test_process_exits_promptly(self, how, tmp_path):
        """A worker still running a 60 s call neither outlives the
        service nor holds up interpreter exit."""
        script = tmp_path / "busy_worker.py"
        script.write_text(_BUSY_WORKER)
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, str(script), how], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
            env={**os.environ, "PYTHONPATH": src})
        try:
            out, err = proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            pytest.fail(f"still running 15 s after {how}(): a busy "
                        "worker held up exit")
        finally:
            # the session holds the service's pool workers too
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert proc.returncode == 0, err
        assert out.split() == ["deadline_exceeded", "0"]

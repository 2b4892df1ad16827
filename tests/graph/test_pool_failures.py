"""The engine's failure rule.

``GraphScheduler.run`` is the one pool loop (docs/ROBUSTNESS.md): only a
broken pool, an ``OSError``, or a round in which no node finished in
time is retried, whether the pool failure comes back on a future or is
raised by ``submit``.  A failed round kills the pool's workers, so a
hung worker never outlives the run.  Any other exception, such as a
payload that cannot pickle, kills the pool and propagates at once, with
no retry and no degrade.
"""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.graph import GraphScheduler, TaskGraph, TaskNode

#: runs four nodes that sleep 60 s, but only inside pool workers, with no
#: retry round (the round timeout comes from the environment), then
#: prints the values and the degraded-node count
_HUNG_WORKERS = '''
import multiprocessing
import time

from repro.graph import GraphScheduler, TaskGraph, TaskNode, scheduler


def sleep_in_workers(x):
    if multiprocessing.parent_process() is not None:
        time.sleep(60)
    return x * x


if __name__ == "__main__":
    scheduler.MAX_RETRIES = 0
    graph = TaskGraph()
    for i in range(4):
        graph.add(TaskNode(key=f"sq:{i}", kind="square",
                           fn=sleep_in_workers, args=(i,)))
    sched = GraphScheduler(2)
    out = sched.run(graph)
    values = [out[f"sq:{i}"] for i in range(4)]
    print(values, sched.last_stats.degraded_nodes)
'''


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset_fault_state()
    yield
    faults.clear_plan()


def _square(x):
    return x * x


def _identity(x):
    return x


def _new_children(before):
    return [p for p in multiprocessing.active_children()
            if p.pid not in before]


def _squares_graph(n):
    graph = TaskGraph()
    for i in range(n):
        graph.add(TaskNode(key=f"sq:{i}", kind="square", fn=_square,
                           args=(i,)))
    return graph


class TestHungWorkersAreKilled:
    def test_process_exits_promptly_after_a_hung_round(self, tmp_path):
        """The round times out, the serial degrade answers, and the
        process exits: its hung workers were terminated, so interpreter
        exit does not wait out their 60 s sleep."""
        script = tmp_path / "hung_workers.py"
        script.write_text(_HUNG_WORKERS)
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
            env={**os.environ, "PYTHONPATH": src,
                 "REPRO_CHUNK_TIMEOUT_S": "0.3"})
        try:
            out, err = proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            # the session holds the run's pool workers too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("still running after 15 s: hung workers outlived "
                        "the run")
        assert proc.returncode == 0, err
        assert out.split("\n")[0] == "[0, 1, 4, 9] 4"

    def test_no_hung_worker_outlives_the_run(self, pool_rule):
        faults.install_plan("executor.worker_hang=1.0,seed=1")
        before = {p.pid for p in multiprocessing.active_children()}
        pool_rule(max_retries=0, backoff_base_s=0.0, chunk_timeout_s=0.3)
        sched = GraphScheduler(2)
        assert sched.run(_squares_graph(4)) == \
            {f"sq:{i}": i * i for i in range(4)}
        assert sched.last_stats.degraded_nodes == 4
        assert _new_children(before) == []


class TestUnpicklablePayload:
    """Not the pool's failure: raised at once, never retried or run
    serially behind the caller's back."""

    def test_graph_run_raises(self, pool_rule):
        graph = TaskGraph()
        for i in range(3):
            graph.add(TaskNode(key=f"n:{i}", kind="unit", fn=_identity,
                               args=(threading.Lock(),)))
        pool_rule(max_retries=3, backoff_base_s=0.05)
        sched = GraphScheduler(2)
        before = {p.pid for p in multiprocessing.active_children()}
        with pytest.raises((TypeError, pickle.PicklingError)):
            sched.run(graph)
        assert sched.last_stats.failed_rounds == 0
        assert sched.last_stats.degraded_nodes == 0
        assert _new_children(before) == []


class TestSubmitFailure:
    def test_broken_pool_at_submit_fails_the_round(self, pool_rule,
                                                  monkeypatch):
        """A pool broken by a crash that no future has reported yet
        raises from ``submit``: that fails the round as a crashed future
        would, and the run returns the fault-free results."""
        submit = ProcessPoolExecutor.submit
        calls = []

        def third_call_breaks(pool, fn, *args, **kwargs):
            calls.append(fn)
            if len(calls) == 3:
                raise BrokenProcessPool("broken before a future said so")
            return submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", third_call_breaks)
        pool_rule(max_retries=3, backoff_base_s=0.01)
        sched = GraphScheduler(2)
        assert sched.run(_squares_graph(6)) == \
            {f"sq:{i}": i * i for i in range(6)}
        assert sched.last_stats.failed_rounds == 1
        assert sched.last_stats.degraded_nodes == 0
        assert len(calls) > 3  # the rest went to a rebuilt pool

"""Fan-out recovery: crashes, hangs, retries, and the serial degrade.

A fan-out is an edge-free task graph, one node per item, so it recovers
under the scheduler's rule (docs/ROBUSTNESS.md): a broken pool or hung
round never changes the output — completed nodes are reused, pending
ones are retried or finished serially, and the assembled result is
bit-identical to a fault-free run.  Worker crashes are injected two
ways: deterministically via helper functions that die only inside pool
workers, and via the ``executor.worker_crash`` fault plan, which fires
in the pool-worker entry every node passes through.
"""

import math
import multiprocessing
import os
import time

import pytest

from repro import faults
from repro.graph import GraphScheduler, TaskGraph, TaskNode
from repro.perf.executor import WorkerTaskError


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset_fault_state()
    yield
    faults.clear_plan()


def _square(x):
    return x * x


def _crash_in_workers(x):
    """Dies abruptly in any pool worker; runs fine in the main process."""
    if multiprocessing.parent_process() is not None:
        os._exit(21)
    return x * x


class _CrashFirstItemsOnce:
    """Items below 2 sleep then crash the worker — but only until the
    marker file exists; other items log themselves and return."""

    def __init__(self, marker, log):
        self.marker = str(marker)
        self.log = str(log)

    def __call__(self, x):
        if x < 2 and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            time.sleep(0.5)  # let the other nodes finish first
            os._exit(23)
        with open(self.log, "a") as fh:
            fh.write(f"{x}\n")
        return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x * x


def _interrupt_on_two(x):
    if x == 2:
        raise KeyboardInterrupt
    return x


def _run(sched, fn, items):
    graph = TaskGraph()
    for i, x in enumerate(items):
        graph.add(TaskNode(key=f"item:{i:04d}", kind="unit", fn=fn,
                           args=(x,), label=f"item-{x}"))
    results = sched.run(graph)
    return [results[node.key] for node in graph]


class TestSerialDegrade:
    def test_serial_fallback_matches_parallel_output(self, pool_rule):
        """Pool failure degrades to serial with identical results — every
        worker dies, every node finishes in-process."""
        pool_rule(max_retries=0, backoff_base_s=0.0)
        sched = GraphScheduler(2)
        items = list(range(12))
        assert _run(sched, _crash_in_workers, items) == \
            [x * x for x in items]
        assert sched.last_stats.degraded_nodes == 12

    def test_degrade_runs_only_pending_chunks(self, tmp_path, pool_rule):
        """Completed node results are reused, never recomputed."""
        fn = _CrashFirstItemsOnce(tmp_path / "crashed", tmp_path / "log")
        pool_rule(max_retries=3, backoff_base_s=0.01)
        sched = GraphScheduler(2)
        assert _run(sched, fn, list(range(8))) == [x * x for x in range(8)]
        logged = sorted(int(v) for v in
                        (tmp_path / "log").read_text().split())
        # nodes that completed before the round-1 crash must appear
        # exactly once — recomputation would double-log them
        assert logged == list(range(8))
        assert sched.last_stats.failed_rounds >= 1


class TestInjectedFaults:
    def test_crash_plan_output_bit_identical(self, pool_rule):
        faults.install_plan("executor.worker_crash=0.4,seed=3")
        pool_rule(max_retries=4, backoff_base_s=0.01)
        out = _run(GraphScheduler(3), math.sqrt, list(range(40)))
        serial = [math.sqrt(x) for x in range(40)]
        assert out == serial  # == is bitwise for floats from identical ops

    def test_hang_plan_times_out_and_recovers(self, pool_rule):
        faults.install_plan("executor.worker_hang=1.0,seed=1")
        pool_rule(max_retries=1, backoff_base_s=0.01, chunk_timeout_s=0.4)
        sched = GraphScheduler(2)
        assert _run(sched, _square, list(range(4))) == \
            [x * x for x in range(4)]
        # every pool attempt hung (rate 1.0) => the serial path finished
        assert sched.last_stats.degraded_nodes == 4
        assert sched.last_stats.failed_rounds == 2

    def test_task_error_label_survives_chaos(self, pool_rule):
        """A deterministic task failure names its node even when pool
        crashes and retries happen around it."""
        faults.install_plan("executor.worker_crash=0.3,seed=9")
        pool_rule(max_retries=3, backoff_base_s=0.01)
        with pytest.raises(WorkerTaskError) as info:
            _run(GraphScheduler(2), _raise_on_three, list(range(8)))
        assert info.value.label == "item-3"
        assert "ValueError" in str(info.value)


class TestInterrupt:
    def test_keyboard_interrupt_cancels_cleanly(self, pool_rule):
        before = {id(p) for p in multiprocessing.active_children()
                  if p.is_alive()}
        pool_rule(backoff_base_s=0.01)
        with pytest.raises(KeyboardInterrupt, match="cancelled pending"):
            _run(GraphScheduler(2), _interrupt_on_two, list(range(8)))
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leaked = [p for p in multiprocessing.active_children()
                      if p.is_alive() and id(p) not in before]
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"leaked pool processes: {leaked}"

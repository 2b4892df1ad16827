"""Graph scheduler fault recovery: crash rounds, node reuse, degrade.

The contract mirrors the executor's (docs/ROBUSTNESS.md), per node
instead of per chunk: a crashed or hung pool round never changes the
assembled results — completed node values are harvested and reused,
survivors are resubmitted under a new attempt key, and after
``MAX_RETRIES`` failed rounds the remainder finishes in-process in
deterministic topological order.  Each test sets the retry budget with
the ``pool_rule`` fixture.
"""

import multiprocessing
import os
import time

import pytest

from repro import faults
from repro.graph import GraphScheduler, TaskGraph, TaskNode
from repro.perf.executor import WorkerTaskError

from .test_scheduler import FAN_IN, fan_in_graph


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


class _CrashOnceNode:
    """The first call without the marker sleeps, then kills its worker;
    every completed call appends its value to the log exactly once."""

    def __init__(self, marker, log, victim):
        self.marker = str(marker)
        self.log = str(log)
        self.victim = victim

    def __call__(self, x):
        if x == self.victim and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            time.sleep(0.4)  # let sibling nodes complete first
            os._exit(23)
        with open(self.log, "a") as fh:
            fh.write(f"{x}\n")
        return x * x


def _collect_in_parent(tag, *inputs):
    """Dies abruptly in any pool worker; collects its inputs otherwise."""
    if multiprocessing.parent_process() is not None:
        os._exit(22)
    return (tag, inputs)


def _graph(fn, n=8):
    g = TaskGraph()
    for i in range(n):
        g.add(TaskNode(key=f"sq:{i:02d}", kind="square", fn=fn, args=(i,)))
    return g


def _expected(n=8):
    return {f"sq:{i:02d}": i * i for i in range(n)}


class TestCrashRecovery:
    def test_fault_plan_crashes_yield_identical_results(self, pool_rule):
        """The chaos-CI property: under the executor.worker_crash plan
        (fault keys ``graph:<key>:<attempt>``), retries converge on the
        fault-free answer."""
        faults.install_plan("executor.worker_crash=0.4,seed=3")
        pool_rule(max_retries=6, backoff_base_s=0.01)
        sched = GraphScheduler(2)
        assert sched.run(_graph(_square)) == _expected()
        # rate 0.4 over 8 nodes with this seed definitely fires
        assert sched.last_stats.failed_rounds >= 1
        assert sched.last_stats.retried_nodes >= 1

    def test_attempt_key_advances_past_deterministic_crash(self,
                                                           pool_rule):
        """A node whose fault draw crashes at attempt 0 succeeds on a
        retry because the attempt number is part of the fault key."""
        faults.install_plan("executor.worker_crash=0.4,seed=3")
        pool_rule(max_retries=6, backoff_base_s=0.01)
        sched = GraphScheduler(2)
        results = sched.run(_graph(_square, n=4))
        assert results == _expected(n=4)

    def test_completed_nodes_reused_never_recomputed(self, tmp_path,
                                                      pool_rule):
        """A crashed round harvests finished siblings: every node logs
        exactly once, even though the pool was rebuilt mid-run."""
        fn = _CrashOnceNode(tmp_path / "crashed", tmp_path / "log",
                            victim=0)
        pool_rule(max_retries=4, backoff_base_s=0.01)
        sched = GraphScheduler(2)
        assert sched.run(_graph(fn, n=6)) == _expected(n=6)
        logged = sorted(int(v) for v in
                        (tmp_path / "log").read_text().split())
        assert logged == list(range(6)), (
            "a completed node was recomputed after the pool rebuild")
        stats = sched.last_stats
        assert stats.failed_rounds >= 1
        assert stats.reused_nodes >= 1


class TestSerialDegrade:
    def test_persistent_crashes_degrade_to_serial(self, pool_rule):
        """Every worker dies on every attempt: the scheduler gives up on
        the pool and finishes all nodes in-process, bit-identically."""
        pool_rule(max_retries=1, backoff_base_s=0.01)
        sched = GraphScheduler(2)
        assert sched.run(_graph(_crash_in_workers)) == _expected()
        assert sched.last_stats.degraded_nodes == 8

    def test_hang_plan_degrades_to_serial(self, pool_rule):
        """Hung nodes time out the round; the degrade path runs in the
        parent where the hang site never fires."""
        faults.install_plan("executor.worker_hang=1.0,seed=1")
        pool_rule(max_retries=1, backoff_base_s=0.01, chunk_timeout_s=0.4)
        sched = GraphScheduler(2)
        assert sched.run(_graph(_square, n=4)) == _expected(n=4)
        stats = sched.last_stats
        assert stats.failed_rounds >= 1
        assert stats.degraded_nodes >= 1


class TestEdgeValuesUnderFaults:
    """Dep values reach their consumer in ``deps`` order however many
    pool rounds the run takes."""

    def test_crash_retry_path(self, pool_rule):
        faults.install_plan("executor.worker_crash=0.5,seed=3")
        pool_rule(max_retries=8, backoff_base_s=0.01)
        sched = GraphScheduler(2)
        assert sched.run(fan_in_graph()) == FAN_IN
        assert sched.last_stats.retried_nodes >= 1

    def test_degrade_path(self, pool_rule):
        pool_rule(max_retries=1, backoff_base_s=0.01)
        sched = GraphScheduler(2)
        assert sched.run(fan_in_graph(_collect_in_parent)) == FAN_IN
        assert sched.last_stats.degraded_nodes == len(FAN_IN)


class TestDeterministicErrors:
    def test_task_error_is_not_retried(self, pool_rule):
        """A deterministic exception propagates immediately even under
        an active crash plan — it is not a fault to recover from."""
        faults.install_plan("executor.worker_crash=0.0,seed=1")
        g = _graph(_square, n=3)
        g.add(TaskNode(key="bad", kind="square", fn=_bad, args=(9,)))
        pool_rule(max_retries=3, backoff_base_s=0.01)
        sched = GraphScheduler(2)
        with pytest.raises(WorkerTaskError, match="bad item 9"):
            sched.run(g)


def _bad(x):
    raise ValueError(f"bad item {x}")

"""Map recovery: crashes, hangs, retries, and the serial degrade.

``ParallelExecutor.map`` runs each chunk as a graph node, so it recovers
under the scheduler's rule (docs/ROBUSTNESS.md): a broken pool or hung
chunk never changes the output — completed chunks are reused, pending
chunks are retried or finished serially, and the assembled result is
bit-identical to a fault-free run.  Worker crashes are injected two
ways: deterministically via helper functions that die only inside pool
workers, and via the ``executor.worker_crash`` fault plan.
"""

import math
import multiprocessing
import os
import time

import pytest

from repro import faults
from repro.perf.executor import ParallelExecutor, WorkerTaskError


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


class _CrashFirstChunkOnce:
    """Chunk 0 items sleep then crash the worker — but only until the
    marker file exists; other items log themselves and return."""

    def __init__(self, marker, log):
        self.marker = str(marker)
        self.log = str(log)

    def __call__(self, x):
        if x < 4 and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            time.sleep(0.5)  # let the other chunk finish first
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


class TestSerialDegrade:
    def test_serial_fallback_matches_parallel_output(self, pool_rule):
        """Satellite fix: pool failure degrades to serial with identical
        results — every worker dies, every chunk finishes in-process."""
        pool_rule(max_retries=0, backoff_base_s=0.0)
        ex = ParallelExecutor(2)
        items = list(range(12))
        out = ex.map(_crash_in_workers, items, chunk_size=3)
        assert out == [x * x for x in items]
        assert ex.last_stats.degraded_nodes == 4

    def test_degrade_runs_only_pending_chunks(self, tmp_path, pool_rule):
        """Completed chunk results are reused, never recomputed."""
        fn = _CrashFirstChunkOnce(tmp_path / "crashed", tmp_path / "log")
        pool_rule(max_retries=3, backoff_base_s=0.01)
        ex = ParallelExecutor(2)
        out = ex.map(fn, list(range(8)), chunk_size=4)
        assert out == [x * x for x in range(8)]
        logged = sorted(int(v) for v in
                        (tmp_path / "log").read_text().split())
        # chunk 1 (items 4-7) completed before the round-1 crash; it must
        # appear exactly once — recomputation would double-log it
        assert logged == list(range(8))
        assert ex.last_stats.failed_rounds >= 1


class TestInjectedFaults:
    def test_crash_plan_output_bit_identical(self, pool_rule):
        faults.install_plan("executor.worker_crash=0.4,seed=3")
        pool_rule(max_retries=4, backoff_base_s=0.01)
        ex = ParallelExecutor(3)
        out = ex.map(math.sqrt, list(range(40)), chunk_size=4)
        serial = [math.sqrt(x) for x in range(40)]
        assert out == serial  # == is bitwise for floats from identical ops

    def test_hang_plan_times_out_and_recovers(self, pool_rule):
        faults.install_plan("executor.worker_hang=1.0,seed=1")
        pool_rule(max_retries=1, backoff_base_s=0.01, chunk_timeout_s=0.4)
        ex = ParallelExecutor(2)
        out = ex.map(_square, list(range(8)), chunk_size=2)
        assert out == [x * x for x in range(8)]
        # every pool attempt hung (rate 1.0) => the serial path finished
        assert ex.last_stats.degraded_nodes == 4
        assert ex.last_stats.failed_rounds == 2

    def test_task_error_label_survives_chaos(self, pool_rule):
        """A deterministic task failure names its item even when pool
        crashes and retries happen around it."""
        faults.install_plan("executor.worker_crash=0.3,seed=9")
        pool_rule(max_retries=3, backoff_base_s=0.01)
        ex = ParallelExecutor(2)
        with pytest.raises(WorkerTaskError) as info:
            ex.map(_raise_on_three, list(range(8)), chunk_size=2,
                   labels=[f"item-{i}" for i in range(8)])
        assert info.value.label == "item-3"
        assert "ValueError" in str(info.value)


class TestInterrupt:
    def test_keyboard_interrupt_cancels_cleanly(self, pool_rule):
        before = {id(p) for p in multiprocessing.active_children()
                  if p.is_alive()}
        pool_rule(backoff_base_s=0.01)
        ex = ParallelExecutor(2)
        with pytest.raises(KeyboardInterrupt, match="cancelled pending"):
            ex.map(_interrupt_on_two, list(range(8)), chunk_size=2)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leaked = [p for p in multiprocessing.active_children()
                      if p.is_alive() and id(p) not in before]
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"leaked pool processes: {leaked}"

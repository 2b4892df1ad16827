"""The worker-count rule, the pool-worker entry, and fan-out as a graph:
each item one node of an edge-free task graph."""

import pytest

from repro.graph import GraphScheduler, TaskGraph, TaskNode
from repro.perf.executor import (
    WorkerTaskError,
    _run_chunk_remote,
    resolve_n_jobs,
)


def _square(x: int) -> int:
    return x * x


def _fan_out(fn, items):
    """One node per item, keyed so the tie-break follows item order."""
    graph = TaskGraph()
    for i, x in enumerate(items):
        graph.add(TaskNode(key=f"item:{i:04d}", kind="unit", fn=fn,
                           args=(x,), label=f"wl-{x}"))
    return graph


def _run(n_jobs, fn, items):
    graph = _fan_out(fn, items)
    results = GraphScheduler(n_jobs).run(graph)
    return [results[node.key] for node in graph]


class TestResolveNJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_n_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_n_jobs() == 5

    def test_bad_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert resolve_n_jobs() >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(0)
        with pytest.raises(ValueError):
            GraphScheduler(0)


class TestWorkerSizing:
    def test_explicit_jobs_beats_cpu_count(self, monkeypatch):
        """--jobs wins over the detected core count: a 1-core box still
        gets the requested pool width, and the effective worker count is
        recorded for --timings."""
        import repro.perf.executor as executor_mod
        from repro.perf import instrument

        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 1)
        assert resolve_n_jobs(4) == 4
        instrument.reset_stage_timings()
        sched = GraphScheduler(4)
        assert sched.n_jobs == 4
        graph = _fan_out(_square, range(8))
        out = sched.run(graph)
        assert [out[node.key] for node in graph] == [i * i for i in range(8)]
        assert instrument.stage_meta().get("max_workers") == 4
        instrument.reset_stage_timings()

    def test_worker_count_capped_by_items(self):
        from repro.perf import instrument

        instrument.reset_stage_timings()
        GraphScheduler(8).run(_fan_out(_square, range(3)))
        assert instrument.stage_meta().get("max_workers") == 3
        instrument.reset_stage_timings()

    def test_cpu_count_is_only_a_fallback(self, monkeypatch):
        import repro.perf.executor as executor_mod

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 1)
        assert resolve_n_jobs() == 1


class TestMap:
    def test_serial_path_preserves_order(self):
        assert _run(1, _square, range(9)) == [i * i for i in range(9)]

    def test_parallel_matches_serial(self):
        items = list(range(23))
        assert _run(2, _square, items) == _run(1, _square, items)

    def test_empty_input(self):
        assert GraphScheduler(2).run(TaskGraph()) == {}

    def test_worker_exception_propagates(self):
        with pytest.raises(WorkerTaskError, match="wl-5") as info:
            _run(2, _fail_on_five, list(range(10)))
        assert info.value.label == "wl-5"

    def test_worker_exception_names_label(self):
        """The worker entry names the failing call and carries the
        worker-side traceback."""
        with pytest.raises(WorkerTaskError,
                           match="wl-5.*ZeroDivisionError") as info:
            _run_chunk_remote((_fail_on_five, 5, "wl-5", "k:0", 1.0))
        assert info.value.label == "wl-5"
        assert "worker traceback" in str(info.value)
        assert _run_chunk_remote((_square, 3, "sq", "k:0", 1.0))[0] == 9


def _fail_on_five(x: int) -> float:
    return 1.0 / (x - 5)

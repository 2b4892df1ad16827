"""ParallelExecutor: ordering, determinism, chunking, fallback."""

import pytest

from repro.perf.executor import (
    ParallelExecutor,
    WorkerTaskError,
    _chunk_bounds,
    resolve_n_jobs,
)


def _square(x: int) -> int:
    return x * x


def _addmul(a: int, b: int) -> int:
    return a + 10 * b


def _jobs(n_jobs):
    return resolve_n_jobs(n_jobs)


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
            ParallelExecutor(0)

    def test_pool_worker_defaults_to_one(self, monkeypatch):
        """A fan-out inside a pool worker runs in-process unless its
        count is explicit: no worker opens a second pool."""
        monkeypatch.setenv("REPRO_JOBS", "4")
        ex = ParallelExecutor(2)
        assert ex.map(_jobs, [None, None], chunk_size=1) == [1, 1]
        assert ex.last_stats.workers == 2
        assert ex.map(_jobs, [3, 3], chunk_size=1) == [3, 3]


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
        ex = ParallelExecutor(4)
        assert ex.n_jobs == 4
        out = ex.map(_square, range(8), chunk_size=2)
        assert out == [i * i for i in range(8)]
        assert instrument.stage_meta().get("max_workers") == 4
        instrument.reset_stage_timings()

    def test_worker_count_capped_by_items(self):
        from repro.perf import instrument

        instrument.reset_stage_timings()
        ParallelExecutor(8).map(_square, range(3))
        assert instrument.stage_meta().get("max_workers") == 3
        instrument.reset_stage_timings()

    def test_cpu_count_is_only_a_fallback(self, monkeypatch):
        import repro.perf.executor as executor_mod

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 1)
        assert resolve_n_jobs() == 1


class TestChunking:
    def test_bounds_cover_exactly(self):
        assert _chunk_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert _chunk_bounds(0, 4) == []
        assert _chunk_bounds(3, 8) == [(0, 3)]

    def test_bounds_are_deterministic(self):
        assert _chunk_bounds(101, 7) == _chunk_bounds(101, 7)


class TestMap:
    def test_serial_path_preserves_order(self):
        ex = ParallelExecutor(1)
        assert ex.map(_square, range(9)) == [i * i for i in range(9)]

    def test_parallel_matches_serial(self):
        items = list(range(23))
        serial = ParallelExecutor(1).map(_square, items)
        parallel = ParallelExecutor(2).map(_square, items, chunk_size=3)
        assert parallel == serial

    def test_starmap(self):
        pairs = [(i, i + 1) for i in range(8)]
        assert ParallelExecutor(2).starmap(_addmul, pairs) == \
            [a + 10 * b for a, b in pairs]

    def test_empty_input(self):
        assert ParallelExecutor(2).map(_square, []) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(WorkerTaskError, match="item 1"):
            # chunk_size=4: item 5 is index 1 of its chunk
            ParallelExecutor(2).map(_fail_on_five, list(range(10)),
                                    chunk_size=4)

    def test_worker_exception_names_label(self):
        labels = [f"wl-{i}" for i in range(10)]
        with pytest.raises(WorkerTaskError, match="wl-5.*ZeroDivisionError"):
            ParallelExecutor(2).map(_fail_on_five, list(range(10)),
                                    labels=labels, chunk_size=3)

    def test_label_callable_and_serial_path(self):
        with pytest.raises(WorkerTaskError, match="wl-5"):
            ParallelExecutor(1).map(_fail_on_five, list(range(10)),
                                    labels=lambda x: f"wl-{x}")

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            ParallelExecutor(2).map(_square, range(4), labels=["a"])


def _fail_on_five(x: int) -> float:
    return 1.0 / (x - 5)

"""Shared in-process state under concurrent serve threads.

Serve's thread-mode pool runs resolvers on several threads at once, and
they share three structures: the analytic-stats memo, the result cache's
memory tier and the stage registry.  With a cap of one every insert
evicts, and a microsecond switch interval makes the threads interleave
inside the dict operations: an unlocked check, ``move_to_end`` and
``popitem`` then raise ``KeyError``, and an unlocked create-or-update
of a registry entry loses counts.
"""

import sys
import threading
from collections import OrderedDict

import pytest

from repro.kernels import GemmWorkload
from repro.kernels import base as kernels_base
from repro.perf.cache import ResultCache
from repro.perf.instrument import reset_stage_timings, stage, stage_timings

THREADS = 8
ROUNDS = 1000
#: independent runs per test: one run of the unlocked code escapes the
#: race now and then, three in a row almost never
TRIALS = 3


@pytest.fixture
def fast_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def _hammer(worker) -> list[BaseException]:
    """Run ``worker(thread_index)`` on every thread at once, ``TRIALS``
    times; returns what they raised."""
    errors: list[BaseException] = []
    for _ in range(TRIALS):
        errors.extend(_hammer_once(worker))
    return errors


def _hammer_once(worker) -> list[BaseException]:
    errors: list[BaseException] = []
    barrier = threading.Barrier(THREADS, timeout=60)

    def run(tid):
        try:
            barrier.wait()
            worker(tid)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,), daemon=True)
               for t in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "a stress thread hung"
    return errors


class TestThreadSafety:
    def test_stats_memo_survives_concurrent_eviction(self, fast_switching,
                                                      monkeypatch):
        monkeypatch.setattr(kernels_base, "_STATS_MEMO", OrderedDict())
        monkeypatch.setattr(kernels_base, "_STATS_MEMO_MAX", 1)
        w = GemmWorkload()
        variants, cases = w.variants(), w.cases()
        expected = {(v, c.label): w.analytic_stats(v, c)
                    for v in variants for c in cases}

        def worker(tid):
            for r in range(ROUNDS):
                v = variants[(tid + r) % len(variants)]
                c = cases[(3 * tid + r) % len(cases)]
                assert w.analytic_stats(v, c) == expected[(v, c.label)]

        assert _hammer(worker) == []
        assert len(kernels_base._STATS_MEMO) <= 1

    def test_cache_memory_tier_survives_concurrent_eviction(
            self, fast_switching):
        cache = ResultCache(memory_items=1, disk=False)

        def worker(tid):
            # two keys over a one-item tier: every lookup races an evictor
            for r in range(ROUNDS):
                key = f"k{(tid + r) % 2}"
                assert cache.get_or_compute(
                    "stress", key, lambda key=key: key.upper()) == key.upper()

        assert _hammer(worker) == []

    def test_stage_registry_counts_every_update(self, fast_switching):
        reset_stage_timings()

        def worker(tid):
            # a fresh name per round: every thread races to create it
            for r in range(ROUNDS):
                with stage(f"stress{r}"):
                    pass

        try:
            assert _hammer(worker) == []
            calls = {t.name: t.calls for t in stage_timings()}
            assert calls == {f"stress{r}": THREADS * TRIALS
                             for r in range(ROUNDS)}
        finally:
            reset_stage_timings()

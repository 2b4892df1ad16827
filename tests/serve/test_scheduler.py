"""Scheduler: coalescing bit-identity, served-result cache, perf batching."""

import asyncio
import dataclasses
import json
import threading

import pytest

from repro.serve import CharacterizationService
from repro.serve.protocol import Request, normalize_params
from repro.serve.queries import resolve_perf_batch, resolve_query
from repro.serve.scheduler import ModelPool, query_key

from .conftest import run


def make_request(kind, params=None, **kwargs):
    return Request(kind=kind, params=normalize_params(kind, params),
                   **kwargs)


class BlockingResolver:
    """An injectable resolver the test can hold open and release."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = []

    def __call__(self, kind, params):
        self.calls.append((kind, dict(params)))
        self.started.set()
        if not self.release.wait(timeout=10):
            raise TimeoutError("test never released the resolver")
        return {"kind": kind, "echo": dict(params), "tag": len(self.calls)}


class BlockingBatchResolver:
    """A ``perf_batch_resolver`` the test can hold open and release; it
    records each batch as (device list, [workloads of each query])."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.batches = []

    def __call__(self, param_sets, inner_jobs):
        self.batches.append((tuple(param_sets[0]["gpus"]),
                             [list(p["workloads"]) for p in param_sets]))
        self.started.set()
        if not self.release.wait(timeout=10):
            raise TimeoutError("test never released the resolver")
        return [{"echo": dict(p)} for p in param_sets]


def perf_request(workload, gpu):
    return make_request("perf", {"workloads": [workload], "gpus": [gpu]})


def type_error_resolver(kind, params):
    """Module-level, so a process pool can pickle it."""
    raise TypeError("unsupported operand type(s) for +: 'int' and 'str'")


def file_not_found_resolver(kind, params):
    """Module-level, so a process pool can pickle it."""
    raise FileNotFoundError(f"no dataset for {kind}")


async def settle(predicate, timeout_s=5.0):
    """Spin the loop until ``predicate()`` holds."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.005)


class TestCoalescing:
    def test_identical_inflight_queries_share_one_job(self, thread_config):
        resolver = BlockingResolver()

        async def scenario():
            service = CharacterizationService(thread_config,
                                              resolver=resolver)
            try:
                req = make_request("quadrant", {"workload": "gemv"})
                first = asyncio.ensure_future(service.handle(req))
                await settle(lambda: service.scheduler.inflight_count() == 1)
                second = asyncio.ensure_future(service.handle(req))
                await settle(
                    lambda: service.telemetry.counter("coalesced_total") == 1)
                resolver.release.set()
                return await asyncio.gather(first, second), service
            finally:
                await service.stop()

        (r1, r2), service = run(scenario())
        assert len(resolver.calls) == 1          # one model job for both
        assert r1.served_by == "model"
        assert r2.served_by == "coalesced"
        # bit-identity: coalesced waiters get the same payload object,
        # and it serializes identically
        assert r1.result is r2.result
        assert json.dumps(r1.result) == json.dumps(r2.result)
        assert service.telemetry.counter("coalesced_total") == 1

    def test_different_params_do_not_coalesce(self, thread_config):
        resolver = BlockingResolver()

        async def scenario():
            service = CharacterizationService(thread_config,
                                              resolver=resolver)
            try:
                a = asyncio.ensure_future(service.handle(
                    make_request("quadrant", {"workload": "gemv"})))
                b = asyncio.ensure_future(service.handle(
                    make_request("quadrant", {"workload": "spmv"})))
                await settle(lambda: len(resolver.calls) == 2)
                resolver.release.set()
                return await asyncio.gather(a, b)
            finally:
                await service.stop()

        ra, rb = run(scenario())
        assert ra.served_by == rb.served_by == "model"
        assert ra.result != rb.result


class TestServedResultCache:
    def test_repeat_query_hits_cache(self, thread_config):
        resolver = BlockingResolver()
        resolver.release.set()

        async def scenario():
            service = CharacterizationService(thread_config,
                                              resolver=resolver)
            try:
                req = make_request("edp", {"workload": "gemv"})
                first = await service.handle(req)
                second = await service.handle(req)
                return first, second
            finally:
                await service.stop()

        first, second = run(scenario())
        assert first.served_by == "model"
        assert second.served_by == "cache" and not second.stale
        assert len(resolver.calls) == 1
        assert json.dumps(first.result) == json.dumps(second.result)

    def test_fresh_flag_bypasses_cache(self, thread_config):
        resolver = BlockingResolver()
        resolver.release.set()

        async def scenario():
            service = CharacterizationService(thread_config,
                                              resolver=resolver)
            try:
                req = make_request("edp", {"workload": "gemv"})
                await service.handle(req)
                forced = await service.handle(
                    make_request("edp", {"workload": "gemv"}, fresh=True))
                return forced
            finally:
                await service.stop()

        forced = run(scenario())
        assert forced.served_by == "model"
        assert len(resolver.calls) == 2

    def test_results_lru_is_bounded(self, thread_config):
        from repro.serve.admission import AdmissionController
        from repro.serve.scheduler import Scheduler
        from repro.serve.telemetry import Telemetry

        sched = Scheduler(ModelPool(mode="thread"),
                          AdmissionController(), Telemetry(),
                          results_cap=2)
        sched.remember("a", 1)
        sched.remember("b", 2)
        sched.remember("c", 3)
        assert sched.cached("a") == (False, None)   # evicted, oldest
        assert sched.cached("b") == (True, 2)
        assert sched.cached("c") == (True, 3)


class TestQueryKey:
    def test_stable_and_param_sensitive(self):
        p = normalize_params("quadrant", {"workload": "gemv"})
        assert query_key("quadrant", p) == query_key("quadrant", dict(p))
        q = normalize_params("quadrant", {"workload": "spmv"})
        assert query_key("quadrant", p) != query_key("quadrant", q)
        assert query_key("edp", p) != query_key("quadrant", p)


class TestPerfBatching:
    def test_batch_answers_match_direct_resolution(self):
        """The acceptance criterion: batched == one-at-a-time, bitwise."""
        param_sets = [
            normalize_params("perf", {"workloads": ["gemv"],
                                      "gpus": ["A100"]}),
            normalize_params("perf", {"workloads": ["scan"],
                                      "gpus": ["A100"]}),
            normalize_params("perf", {"workloads": ["scan", "gemv"],
                                      "gpus": ["A100"]}),
        ]
        batched = resolve_perf_batch(param_sets, 1)
        direct = [resolve_query("perf", p) for p in param_sets]
        assert len(batched) == len(direct)
        for got, want in zip(batched, direct):
            assert json.dumps(got, sort_keys=True) == \
                json.dumps(want, sort_keys=True)

    def test_mixed_gpu_lists_rejected_within_batch(self):
        with pytest.raises(ValueError):
            resolve_perf_batch([
                normalize_params("perf", {"workloads": ["gemv"],
                                          "gpus": ["A100"]}),
                normalize_params("perf", {"workloads": ["gemv"],
                                          "gpus": ["H200"]}),
            ], 1)

    def test_concurrent_perf_queries_merge_into_one_batch(self,
                                                          thread_config):
        async def scenario():
            service = CharacterizationService(thread_config)
            try:
                reqs = [
                    make_request("perf", {"workloads": ["gemv"],
                                          "gpus": ["A100"]}),
                    make_request("perf", {"workloads": ["scan"],
                                          "gpus": ["A100"]}),
                ]
                answers = await asyncio.gather(
                    *(service.handle(r) for r in reqs))
                return answers, service.telemetry.snapshot()["counters"]
            finally:
                await service.stop()

        answers, counters = run(scenario())
        assert all(a.ok and a.served_by == "model" for a in answers)
        assert counters["perf_batches_total"] == 1
        assert counters["perf_batched_queries_total"] == 2
        # each answer matches its direct (unbatched) computation
        for a, workload in zip(answers, ("gemv", "scan")):
            want = resolve_query("perf", normalize_params(
                "perf", {"workloads": [workload], "gpus": ["A100"]}))
            assert json.dumps(a.result, sort_keys=True) == \
                json.dumps(want, sort_keys=True)

    def test_lone_perf_query_reaches_the_pool_without_a_timer(
            self, thread_config):
        """On an idle pool a perf query is submitted on the next loop
        ticks, not after a sleep: counted in ticks, not wall time."""
        calls = []

        async def fake_run(fn, param_sets, inner_jobs, *, key):
            calls.append([p["workloads"] for p in param_sets])
            return [{} for _ in param_sets]

        async def scenario():
            service = CharacterizationService(thread_config)
            service.pool.run = fake_run
            try:
                waiter = asyncio.ensure_future(
                    service.handle(perf_request("gemv", "A100")))
                for _ in range(2):
                    await asyncio.sleep(0)
                reached = list(calls)
                await waiter
                return reached
            finally:
                await service.stop()

        assert run(scenario()) == [[["gemv"]]]

    def test_busy_pool_groups_waiting_queries_by_device_list(
            self, thread_config):
        """With every worker running a perf batch, new perf queries wait;
        each device list's waiting queries go out as one batch when a
        running batch finishes."""
        resolver = BlockingBatchResolver()
        config = dataclasses.replace(thread_config, workers=1)

        async def scenario():
            service = CharacterizationService(
                config, perf_batch_resolver=resolver)
            try:
                tasks = [asyncio.ensure_future(
                    service.handle(perf_request("gemv", "A100")))]
                await settle(resolver.started.is_set)
                # separate ticks and wall time: these group because the
                # pool is busy, not because they arrived together
                for workload, gpu in (("scan", "A100"), ("gemv", "H200"),
                                      ("spmv", "A100")):
                    tasks.append(asyncio.ensure_future(
                        service.handle(perf_request(workload, gpu))))
                    await asyncio.sleep(0.02)
                assert len(resolver.batches) == 1
                resolver.release.set()
                answers = await asyncio.gather(*tasks)
                return answers, service.telemetry.snapshot()["counters"]
            finally:
                resolver.release.set()
                await service.stop()

        answers, counters = run(scenario())
        assert resolver.batches == [
            (("A100",), [["gemv"]]),
            (("A100",), [["scan"], ["spmv"]]),
            (("H200",), [["gemv"]]),
        ]
        assert all(a.ok and a.served_by == "model" for a in answers)
        assert [a.result["echo"]["workloads"] for a in answers] == \
            [["gemv"], ["scan"], ["gemv"], ["spmv"]]
        assert counters["perf_batches_total"] == 3
        assert counters["perf_batched_queries_total"] == 2


class TestFailures:
    def test_resolver_error_becomes_model_error(self, thread_config):
        def resolver(kind, params):
            raise ValueError("synthetic failure")

        async def scenario():
            service = CharacterizationService(thread_config,
                                              resolver=resolver)
            try:
                return await service.handle(
                    make_request("edp", {"workload": "gemv"}))
            finally:
                await service.stop()

        resp = run(scenario())
        assert not resp.ok
        assert resp.error["code"] == "model_error"
        assert "edp" in resp.error["message"]
        assert "ValueError" in resp.error["message"]

    def test_abort_starts_no_model_work_after_the_kill(self, thread_config):
        """A perf query queued behind a running batch when the service is
        aborted never reaches the model pool, even after that batch's
        worker frees: the loop may go on hosting other services, so the
        kill must stop the scheduler too."""
        resolver = BlockingBatchResolver()
        config = dataclasses.replace(thread_config, workers=1)

        async def scenario():
            service = CharacterizationService(
                config, perf_batch_resolver=resolver)
            waiters = [asyncio.ensure_future(
                service.handle(perf_request("gemv", "A100")))]
            await settle(resolver.started.is_set)
            waiters.append(asyncio.ensure_future(
                service.handle(perf_request("scan", "A100"))))
            await settle(lambda: service.scheduler.inflight_count() == 2)
            await service.abort()
            resolver.release.set()
            # room for the freed worker to pick up anything still queued
            await asyncio.sleep(0.05)
            executor = service.pool._executor
            for waiter in waiters:
                waiter.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)
            await service.stop()
            return executor

        assert run(scenario()) is None  # the pool was not brought back
        assert resolver.batches == [(("A100",), [["gemv"]])]

    def test_resolver_type_error_keeps_the_process_pool(self,
                                                        thread_config):
        """A resolver's own TypeError is its answer, not a sign that the
        process pool is unusable."""
        config = dataclasses.replace(thread_config, pool_mode="process",
                                     workers=1)

        async def scenario():
            service = CharacterizationService(
                config, resolver=type_error_resolver)
            try:
                resp = await service.handle(
                    make_request("edp", {"workload": "gemv"}))
                return resp, service.pool.mode
            finally:
                await service.stop()

        resp, mode = run(scenario())
        assert not resp.ok
        assert resp.error["code"] == "model_error"
        assert "TypeError" in resp.error["message"]
        assert mode == "process"

    def test_resolver_os_error_keeps_the_process_pool(self, thread_config):
        """A resolver's own OSError is its answer as well: only a failure
        of the pool itself rebuilds it."""
        config = dataclasses.replace(thread_config, pool_mode="process",
                                     workers=1)

        async def scenario():
            service = CharacterizationService(
                config, resolver=file_not_found_resolver)
            try:
                resp = await service.handle(
                    make_request("edp", {"workload": "gemv"}))
                return resp, service.pool.mode, [
                    service.telemetry.counter(name) for name in
                    ("pool_rebuilds_total", "pool_inprocess_total")]
            finally:
                await service.stop()

        resp, mode, recoveries = run(scenario())
        assert not resp.ok
        assert resp.error["code"] == "model_error"
        assert "FileNotFoundError" in resp.error["message"]
        assert mode == "process"
        assert recoveries == [0, 0]

    def test_pool_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            ModelPool(workers=0)
        with pytest.raises(ValueError):
            ModelPool(mode="fiber")

"""The persistent served-result store and shard warm restarts."""

import asyncio

from repro.fabric.store import ServedResultStore
from repro.serve import CharacterizationService, ServeConfig
from repro.serve.protocol import Request, normalize_params


def run(coro):
    return asyncio.run(coro)


def make_request(kind, params=None, **kwargs):
    return Request(kind=kind, params=normalize_params(kind, params),
                   **kwargs)


class CountingResolver:
    def __init__(self):
        self.calls = 0

    def __call__(self, kind, params):
        self.calls += 1
        return {"kind": kind, "params": dict(params), "call": self.calls}


class TestStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = ServedResultStore(tmp_path / "store")
        found, _ = store.load("qk1")
        assert not found
        store.store("qk1", {"answer": 42})
        found, payload = store.load("qk1")
        assert found and payload == {"answer": 42}
        assert store.counters() == {"loads": 2, "hits": 1, "stores": 1}

    def test_keys_are_namespaced_by_query_key(self, tmp_path):
        store = ServedResultStore(tmp_path / "store")
        store.store("qk1", "a")
        store.store("qk2", "b")
        assert store.load("qk1") == (True, "a")
        assert store.load("qk2") == (True, "b")

    def test_survives_process_boundary_simulation(self, tmp_path):
        """A second store instance over the same directory sees the
        first one's answers (what a restarted shard does)."""
        ServedResultStore(tmp_path / "store").store("qk", [1, 2, 3])
        fresh = ServedResultStore(tmp_path / "store")
        assert fresh.load("qk") == (True, [1, 2, 3])


class TestWarmRestart:
    def test_restarted_service_answers_from_store_without_recompute(
            self, tmp_path):
        """Acceptance drill: kill a persistent shard, restart it, and the
        first repeated query is served from the store — the resolver runs
        exactly once across both service lifetimes."""
        config = ServeConfig(pool_mode="thread", workers=1, shard_id="s0",
                             persist=True,
                             store_dir=str(tmp_path / "store"))
        resolver = CountingResolver()
        req = make_request("quadrant", {"workload": "gemv"})

        async def one_query():
            service = CharacterizationService(config, resolver=resolver)
            try:
                return await service.handle(req)
            finally:
                await service.stop()

        first = run(one_query())
        assert first.ok and first.served_by == "model"
        assert first.shard_id == "s0"

        second = run(one_query())  # fresh service: empty LRU, same store
        assert second.ok and second.served_by == "store"
        assert second.result == first.result
        assert resolver.calls == 1

    def test_fresh_queries_bypass_the_store(self, tmp_path):
        config = ServeConfig(pool_mode="thread", workers=1, persist=True,
                             store_dir=str(tmp_path / "store"))
        resolver = CountingResolver()

        async def scenario():
            service = CharacterizationService(config, resolver=resolver)
            try:
                await service.handle(
                    make_request("quadrant", {"workload": "gemv"}))
            finally:
                await service.stop()
            service = CharacterizationService(config, resolver=resolver)
            try:
                return await service.handle(
                    make_request("quadrant", {"workload": "gemv"},
                                 fresh=True))
            finally:
                await service.stop()

        resp = run(scenario())
        assert resp.ok and resp.served_by == "model"
        assert resolver.calls == 2

"""The fabric router end to end: placement, failover, auth.

Drives a :class:`HostedFabric` (three in-process shard services behind
an in-process router) through the real TCP wire with the ordinary
:class:`ServeClient` — the same code paths ``repro fabric start`` runs
across processes.
"""

import json
import socket
import time

import pytest

from repro.fabric import router as router_module
from repro.fabric.cluster import HostedFabric
from repro.serve import ProtocolError, ServeClient, ServeConnectionError
from repro.serve.protocol import normalize_params
from repro.serve.queries import resolve_query


def make_fabric(**kwargs):
    kwargs.setdefault("probe_interval_s", 0.1)
    kwargs.setdefault("shard_workers", 1)
    return HostedFabric(3, **kwargs)


class TestRouting:
    def test_same_key_routes_to_same_shard_and_reuses_its_cache(self):
        with make_fabric() as fabric:
            host, port = fabric.address
            with ServeClient(host, port) as client:
                first = client.query("quadrant", {"workload": "gemv"})
                second = client.query("quadrant", {"workload": "gemv"})
        owner = fabric.owner_of("quadrant", {"workload": "gemv"})
        assert first.ok and second.ok
        assert first.shard_id == second.shard_id == owner
        assert first.served_by == "model"
        assert second.served_by == "cache"  # the shard's LRU, via the wire
        assert second.result == first.result

    def test_distinct_keys_spread_over_shards(self):
        mix = [{"workload": w} for w in
               ("gemv", "spmv", "gemm", "scan", "fft", "stencil",
                "reduction")]
        with make_fabric() as fabric:
            host, port = fabric.address
            with ServeClient(host, port) as client:
                answering = {client.query("quadrant", p).shard_id
                             for p in mix}
            expected = {fabric.owner_of("quadrant", p) for p in mix}
        assert answering == expected
        assert len(answering) > 1  # the mix actually shards

    def test_ping_and_metrics_are_answered_by_the_router(self):
        with make_fabric() as fabric:
            host, port = fabric.address
            with ServeClient(host, port) as client:
                pong = client.query("ping")
                metrics = client.query("metrics")
        assert pong.ok and pong.result == "pong"
        assert pong.shard_id == "router"
        assert metrics.ok
        shards = metrics.result["shards"]
        assert sorted(shards) == ["s0", "s1", "s2"]
        assert all(info["healthy"] for info in shards.values())
        assert metrics.result["ring"]["shards"] == 3


class TestFailover:
    def test_killed_owner_fails_over_bit_identically(self):
        params = {"workload": "spmv"}
        with make_fabric() as fabric:
            host, port = fabric.address
            with ServeClient(host, port) as client:
                before = client.query("quadrant", params)
                victim = fabric.owner_of("quadrant", params)
                assert before.shard_id == victim
                fabric.kill_shard(victim)
                # the same request line replays against the next owner;
                # fresh=True forces a recompute there, proving the answer
                # is bit-identical by determinism, not by cache copy
                after = client.query("quadrant", params, fresh=True)
        assert after.ok
        assert after.shard_id != victim
        assert json.dumps(after.result, sort_keys=True) \
            == json.dumps(before.result, sort_keys=True)

    def test_probe_marks_dead_shard_unhealthy(self):
        with make_fabric() as fabric:
            host, port = fabric.address
            with ServeClient(host, port) as client:
                client.query("ping")
                fabric.kill_shard("s2")
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    snapshot = client.query("metrics").result
                    if not snapshot["shards"]["s2"]["healthy"]:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("probe never noticed the dead shard")
        counters = snapshot["router"]["counters"]
        assert counters.get("shard_down_total", 0) >= 1

    def test_all_shards_dead_yields_shard_unavailable(self):
        with make_fabric() as fabric:
            host, port = fabric.address
            for sid in ("s0", "s1", "s2"):
                fabric.kill_shard(sid)
            with ServeClient(host, port) as client:
                resp = client.query("quadrant", {"workload": "gemv"})
        assert not resp.ok
        assert resp.error["code"] == "shard_unavailable"
        assert resp.shard_id == "router"


class TestLargeReplies:
    @pytest.mark.slow
    def test_whole_suite_perf_through_two_shards_equals_direct(self):
        direct = resolve_query("perf", normalize_params("perf", {}))
        with HostedFabric(2, probe_interval_s=0.1,
                          shard_workers=1) as fabric:
            host, port = fabric.address
            with ServeClient(host, port, timeout_s=300) as client:
                resp = client.query("perf", {})
        assert resp.ok, resp.error
        # past asyncio's default 64 KiB line limit the router once dropped
        assert len(json.dumps(resp.result)) > 64 * 1024
        assert json.dumps(resp.result, sort_keys=True) \
            == json.dumps(direct, sort_keys=True)

    def test_over_limit_reply_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(router_module, "REPLY_MAX_BYTES", 1024)
        with make_fabric() as fabric:
            host, port = fabric.address
            with ServeClient(host, port) as client:
                big = client.query("perf", {"workloads": ["gemm"]})
                after = client.query("quadrant", {"workload": "gemm"})
                metrics = client.query("metrics")
        assert not big.ok
        assert big.error["code"] == "reply_too_large"
        assert big.shard_id == "router"
        # the client connection survives and the shard link reopens
        assert after.ok
        counters = metrics.result["router"]["counters"]
        assert counters.get("failover_replays_total", 0) == 0
        assert counters["oversized_replies_total"] == 1


class TestAuth:
    def test_query_before_handshake_is_refused_unparsed(self):
        """An unauthenticated line never reaches the request parser —
        even a syntactically bogus query gets ``auth_required``."""
        with make_fabric(token="secret") as fabric:
            host, port = fabric.address
            with socket.create_connection((host, port), timeout=10) as s:
                s.sendall(b'{"kind": "no-such-kind", "params": 7}\n')
                reply = s.makefile("rb").readline()
        payload = json.loads(reply)
        assert payload["ok"] is False
        assert payload["error"]["code"] == "auth_required"

    def test_wrong_token_raises_bad_token_without_retry(self):
        with make_fabric(token="secret") as fabric:
            host, port = fabric.address
            client = ServeClient(host, port, token="nope", retries=5)
            with pytest.raises(ProtocolError) as excinfo:
                client.connect()
        assert excinfo.value.code == "bad_token"
        # an explicit refusal is not a connection drop: no retries burned
        assert not isinstance(excinfo.value, ServeConnectionError)
        assert client.retry_count == 0

    def test_right_token_works_end_to_end(self):
        with make_fabric(token="secret") as fabric:
            host, port = fabric.address
            with ServeClient(host, port, token="secret") as client:
                assert client.shard_id == "router"  # learned at handshake
                resp = client.query("quadrant", {"workload": "gemv"})
        assert resp.ok
        assert resp.shard_id in ("s0", "s1", "s2")

"""The benchmark's own tests.

Run from the checkout root:  PYTHONPATH=src:. python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import common, run, streams, tracer

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------- streams

def _queries(seed: int) -> list:
    keys = streams.key_space(seed)
    return [keys[i] for i in streams.zipf_stream(500)]


def test_stream_is_identical_for_one_seed():
    assert _queries(7) == _queries(7)
    assert streams.whatif_batch(7) == streams.whatif_batch(7)


def test_stream_differs_across_seeds():
    assert _queries(7) != _queries(8)
    assert streams.whatif_batch(7) != streams.whatif_batch(8)


def test_every_seed_has_the_same_kind_pattern():
    layout = streams.layout()
    for seed in (7, 8):
        assert [k for k, _ in streams.key_space(seed)] == layout


def test_key_space_is_distinct_and_exceeds_results_cap():
    from repro.serve.server import ServeConfig
    keys = streams.key_space(3)
    assert len({streams.query_id(k, p) for k, p in keys}) == len(keys)
    # both shards' LRUs together cannot hold the key space
    assert streams.KEY_SPACE > 2 * ServeConfig().results_cap


def test_stream_repeats_keys_but_not_only():
    n = run.WARMUP_N + run.OPEN_N + run.CLOSED_N
    share = streams.repeat_share(streams.zipf_stream(n))
    assert 0.0 < share < 1.0


def test_stream_queries_are_valid_wire_queries():
    from repro.serve.protocol import normalize_params
    for kind, params in streams.key_space(5):
        normalize_params(kind, params)  # raises on a malformed query


def test_kind_weights_follow_the_loadgen_mix():
    from collections import Counter

    from repro.serve.loadgen import DEFAULT_MIX
    assert dict(streams.KIND_WEIGHTS) == Counter(k for k, _ in DEFAULT_MIX)


def test_suite_matches_the_registry():
    from repro.kernels import workload_names
    assert tuple(workload_names()) == streams.WORKLOADS


def test_grid_digests_cover_the_whatif_catalogue():
    recorded = json.loads((ROOT / "perfbench" / "grid_digests.json")
                          .read_text())
    for i in range(streams.WHATIF_CATALOGUE_SIZE):
        assert f"whatif/{i}" in recorded


# --------------------------------------------------------- percentiles

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert common.highest_percentile(n) == expected
    if expected is not None:
        assert common.samples_beyond(n, expected) >= 10
        higher = [p for p in common.PERCENTILE_LADDER if p > expected]
        assert all(common.samples_beyond(n, p) < 10 for p in higher)


def test_open_loop_keeps_ten_samples_beyond_p99_per_run():
    # the end-to-end run pools its passes; the traced run pools two
    assert common.highest_percentile(run.SERVE_PASSES * run.OPEN_N) >= 99.0
    assert common.highest_percentile(2 * run.OPEN_N) >= 99.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert common.percentile(values, 50) == 50
    assert common.percentile(values, 99) == 99
    assert common.percentile(values, 100) == 100
    assert common.percentile([3.0], 99) == 3.0


# -------------------------------------------------------- metric names

def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_use_allowed_characters():
    names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert common.METRIC_NAME_RE.match(name), name


def test_benchmark_json_matches_the_metrics_printed():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] \
        == list(run.PER_LAYER)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_expected_wrapper_is_defined():
    defined = {n for n, *_ in tracer.FUNCTIONS} \
        | {n for n, *_ in tracer.METHODS} \
        | {f"kernels.{m}" for m in tracer.WORKLOAD_METHODS}
    for workload, names in tracer.EXPECTED.items():
        assert workload in run.WORKLOADS
        assert set(names) <= defined


# ------------------------------------------------------------ tracer

def test_self_times_partition_the_main_thread(tmp_path):
    t = tracer.Tracer(tmp_path)

    def inner():
        return sum(range(1000))

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = t.wrap("a.inner", "a", inner)
    wrapped_outer = t.wrap("b.outer", "b", outer)
    wrapped_outer()
    spans = t.snapshot()["spans"]
    calls, busy, own = spans["b.outer"]
    assert calls == 1
    assert own == pytest.approx(busy - spans["a.inner"][1])
    assert sum(t.main_self.values()) == pytest.approx(busy)


def test_client_attribution_partitions_request_latency():
    from types import SimpleNamespace

    from perfbench import serve_load
    loop = serve_load.Outcome()
    for latency, trace in ((0.010, {"model_s": 0.004, "total_s": 0.006}),
                           (0.002, {"total_s": 0.001})):
        loop.record(latency, 0.0,
                    SimpleNamespace(served_by="model", trace=trace), True, "")
    loop.wall_s = 0.008
    layers, wall = run._client_attribution(loop)
    assert layers == pytest.approx({"model": 0.004, "serve": 0.003,
                                    "fabric": 0.005})
    assert wall == pytest.approx(serve_load.CLIENTS * 0.008)


def test_rebinding_reaches_from_imports_and_keyword_defaults(tmp_path):
    import repro.serve.queries as queries
    import repro.serve.scheduler as scheduler

    original = queries.resolve_query
    t = tracer.Tracer(tmp_path)
    wrapper = t.wrap("serve.resolve_query", "serve", original)
    try:
        assert tracer._rebind(original, wrapper) >= 2
        assert scheduler.resolve_query is wrapper
        assert scheduler.Scheduler.__init__.__kwdefaults__["resolver"] \
            is wrapper
    finally:
        tracer._rebind(wrapper, original)
    assert scheduler.Scheduler.__init__.__kwdefaults__["resolver"] \
        is original


def test_forked_worker_flushes_before_exit(tmp_path):
    import multiprocessing

    t = tracer.Tracer(tmp_path)
    chunk = t.wrap("pool.chunk", "graph", lambda: 1)

    def child():
        chunk()
        import os
        os._exit(0)  # like a pool worker: no atexit handlers run

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=30)
    assert not proc.is_alive()
    record = tracer.load(tmp_path)
    assert record["spans"]["pool.chunk"][0] == 1


# ---------------------------------------------------------- fingerprint

def test_records_from_different_hosts_are_not_compared():
    host = {"nproc": 2, "cpu_model": "x", "numpy": "2", "llc_bytes": 1,
            "python": "3", "matmul_gflops": 50.0}
    a = {"workload": "grid_warm", "trace": 0, "host": host}
    assert common.comparable(a, dict(a)) == []
    other = dict(a, host=dict(host, nproc=1))
    assert common.comparable(a, other)
    slower = dict(a, host=dict(host, matmul_gflops=20.0))
    assert common.comparable(a, slower)


def test_missing_program_exits_nonzero_without_a_result(tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "grid_warm", "--seconds", "1"]) == 2
    assert "correct" not in capsys.readouterr().out

"""A miniature chaos run: injected drops + cache faults, verified answers.

This is the in-suite version of the CI chaos-smoke gate — a few seconds
of load against a self-hosted service while connections drop and cache
reads/writes fail, asserting zero wrong answers and bounded retries.
"""

import pytest

from repro import faults
from repro.perf.cache import ResultCache, set_default_cache
from repro.serve import (
    HostedService,
    ServeConfig,
    loadgen_failures,
    run_loadgen,
)

MIX = [
    ("quadrant", {"workload": "gemv"}),
    ("roofline", {"workloads": ["gemv"], "gpu": "H200"}),
    ("ping", {}),
]


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset_fault_state()
    yield
    faults.clear_plan()


@pytest.fixture
def isolated_cache(tmp_path):
    """Throwaway default cache: injected cache faults stay in tmp."""
    cache = ResultCache(tmp_path / "cache")
    previous = set_default_cache(cache)
    yield cache
    set_default_cache(previous)


def test_chaos_mini_loadgen_zero_wrong_answers(isolated_cache):
    faults.install_plan("serve.conn_drop=0.2,cache.read_corrupt=0.2,"
                        "cache.write_fail=0.2,seed=7")
    config = ServeConfig(host="127.0.0.1", port=0, pool_mode="thread",
                         workers=2, default_deadline_s=10.0)
    with HostedService(config) as hosted:
        host, port = hosted.address
        summary = run_loadgen(host, port, clients=3, duration_s=2.0,
                              mix=MIX, verify=True, client_retries=8)
    assert loadgen_failures(summary, max_retry_rate=0.6) == []
    assert summary["wrong_answers"] == 0
    assert summary["requests"] > 0
    # the plan really injected: drops happened and were retried through
    drops = summary["server_metrics"].get("counters", {}) \
        .get("injected_conn_drops_total", 0)
    assert drops > 0
    assert summary["retries"] > 0
    assert summary["verified"] is True

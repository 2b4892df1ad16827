"""GraphScheduler semantics: determinism, edge values, stats, and errors.

The scheduler's contract (docs/PERF.md): results depend only on the
node set and each node's arguments — identical across worker counts,
insertion orders, and completion races.  That every shipped node
callable is a pure function of its arguments is proved before the run,
by rule R009 (tests/check/test_determinism_rules.py).
"""

import random

import pytest

from repro.graph import GraphScheduler, TaskGraph, TaskNode
from repro.perf.executor import WorkerTaskError
from repro.perf.instrument import (
    reset_stage_timings,
    stage_meta,
    stage_timings,
)


def _square(x):
    return x * x


def _tag(key, base, *inputs):
    """Its dep values, if any, arrive after its own args, in deps order."""
    return f"{key}:{base * 2}" + "".join(f"<{v}" for v in inputs)


def _boom(x):
    raise ValueError(f"bad node {x}")


def _chain_graph(n=12):
    """Independent squares plus a short dependency chain."""
    g = TaskGraph()
    for i in range(n):
        g.add(TaskNode(key=f"sq:{i:02d}", kind="square", fn=_square,
                       args=(i,)))
    g.add(TaskNode(key="tag:a", kind="tag", fn=_tag, args=("a", 3)))
    g.add(TaskNode(key="tag:b", kind="tag", fn=_tag, args=("b", 4),
                   deps=("tag:a", "sq:00")))
    return g


def _expected(n=12):
    out = {f"sq:{i:02d}": i * i for i in range(n)}
    out["tag:a"] = "a:6"
    out["tag:b"] = "b:8<a:6<0"  # deps ("tag:a", "sq:00")
    return out


def _collect(tag, *inputs):
    return (tag, inputs)


def fan_in_graph(fn=_collect):
    """Three producers and one consumer whose deps are not in key order."""
    g = TaskGraph()
    for k in ("a", "b", "c"):
        g.add(TaskNode(key=f"p:{k}", kind="produce", fn=fn, args=(k,)))
    g.add(TaskNode(key="q", kind="consume", fn=fn, args=("q",),
                   deps=("p:c", "p:a", "p:b")))
    return g


#: what every execution path must return for :func:`fan_in_graph`
FAN_IN = {"p:a": ("a", ()), "p:b": ("b", ()), "p:c": ("c", ()),
          "q": ("q", (("c", ()), ("a", ()), ("b", ())))}


class TestDeterminism:
    def test_serial_equals_pooled(self, pool_rule):
        graph = _chain_graph()
        serial = GraphScheduler(1).run(graph)
        pool_rule(max_retries=2, backoff_base_s=0.01)
        pooled = GraphScheduler(3).run(graph)
        assert serial == _expected()
        assert pooled == serial

    def test_results_independent_of_insertion_order(self, pool_rule):
        pool_rule(max_retries=2, backoff_base_s=0.01)
        rng = random.Random(11)
        baseline = None
        for _ in range(4):
            nodes = list(_chain_graph())
            rng.shuffle(nodes)
            g = TaskGraph()
            g.extend(nodes)
            results = GraphScheduler(2).run(g)
            if baseline is None:
                baseline = results
            assert results == baseline

    def test_empty_graph(self):
        assert GraphScheduler(4).run(TaskGraph()) == {}

    @pytest.mark.parametrize("timeout", [float("inf"), "1e400"])
    def test_non_finite_chunk_timeout_counts_as_unset(self, pool_rule,
                                                      timeout):
        # a wait cannot take an infinite timeout: unset means no limit
        pool_rule(max_retries=2, backoff_base_s=0.01,
                  chunk_timeout_s=timeout)
        assert GraphScheduler(2).run(_chain_graph(n=4)) == _expected(n=4)


class TestEdgeValues:
    """Every node runs as ``fn(*args, *inputs)``: its deps' values, in
    ``deps`` order (crash-retry and degrade: test_scheduler_faults)."""

    def test_serial_path(self):
        assert GraphScheduler(1).run(fan_in_graph()) == FAN_IN

    def test_pooled_path(self, pool_rule):
        pool_rule(max_retries=2, backoff_base_s=0.01)
        sched = GraphScheduler(2)
        assert sched.run(fan_in_graph()) == FAN_IN
        assert sched.last_stats.workers == 2


class TestObservability:
    def test_stats_and_stage_meta(self, pool_rule):
        reset_stage_timings()
        graph = _chain_graph(n=6)
        pool_rule(max_retries=2, backoff_base_s=0.01)
        sched = GraphScheduler(2)
        sched.run(graph)
        stats = sched.last_stats
        assert stats.nodes == 8 and stats.workers == 2
        assert stats.makespan_s > 0 and stats.node_wall_s > 0
        assert stats.overlap_ratio == pytest.approx(
            stats.node_wall_s / stats.makespan_s)
        assert set(stats.per_kind_wall_s) == {"square", "tag"}
        meta = stage_meta()["graph"]
        assert meta["runs"] == 1 and meta["nodes"] == 8
        assert meta["workers"] == 2
        assert meta["overlap_ratio"] == pytest.approx(stats.overlap_ratio,
                                                      abs=1e-3)
        # worker-side node timing files under graph/<kind> in the parent
        names = {t.name for t in stage_timings()}
        assert "graph" in names and "graph/square" in names

    def test_serial_path_records_graph_stage_pair(self):
        reset_stage_timings()
        GraphScheduler(1).run(_chain_graph(n=3))
        names = {t.name for t in stage_timings()}
        assert {"graph", "graph/square", "graph/tag"} <= names


class TestErrors:
    """A failing node's error names its label on either path."""

    def test_task_error_propagates_serial(self):
        g = TaskGraph()
        g.add(TaskNode(key="bad", kind="unit", fn=_boom, args=(3,),
                       label="wl-3"))
        with pytest.raises(WorkerTaskError, match="bad node 3") as info:
            GraphScheduler(1).run(g)
        assert info.value.label == "wl-3"

    def test_task_error_propagates_pooled(self, pool_rule):
        g = _chain_graph(n=4)
        g.add(TaskNode(key="bad", kind="unit", fn=_boom, args=(3,),
                       label="wl-3"))
        pool_rule(max_retries=1, backoff_base_s=0.01)
        with pytest.raises(WorkerTaskError, match="bad node 3") as info:
            GraphScheduler(2).run(g)
        assert info.value.label == "wl-3"
        assert "worker traceback" in str(info.value)


"""GraphScheduler semantics: determinism, policy, stats, and errors.

The scheduler's contract (docs/PERF.md): results depend only on the
node set and each node's arguments — identical across worker counts,
insertion orders, and completion races — and the concurrency policy
serializes exactly the nodes the determinism facts cannot prove pure.
"""

import random

import pytest

from repro.analysis.observations import _node_accuracy, _node_dataset
from repro.graph import (
    ConcurrencyPolicy,
    GraphScheduler,
    TaskGraph,
    TaskNode,
    graph_enabled,
)
from repro.graph.policy import function_fid
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


class _KindPolicy(ConcurrencyPolicy):
    """Test double: serialize every node of the given kinds."""

    def __init__(self, exclusive_kinds):
        super().__init__(facts={})
        self.exclusive_kinds = set(exclusive_kinds)

    def concurrent(self, node):
        return node.kind not in self.exclusive_kinds


class TestDeterminism:
    def test_serial_equals_pooled(self):
        graph = _chain_graph()
        serial = GraphScheduler(1).run(graph)
        pooled = GraphScheduler(3, max_retries=2,
                                backoff_base_s=0.01).run(graph)
        assert serial == _expected()
        assert pooled == serial

    def test_results_independent_of_insertion_order(self):
        rng = random.Random(11)
        baseline = None
        for _ in range(4):
            nodes = list(_chain_graph())
            rng.shuffle(nodes)
            g = TaskGraph()
            g.extend(nodes)
            results = GraphScheduler(2, max_retries=2,
                                     backoff_base_s=0.01).run(g)
            if baseline is None:
                baseline = results
            assert results == baseline

    def test_empty_graph(self):
        assert GraphScheduler(4).run(TaskGraph()) == {}


class TestEdgeValues:
    """Every node runs as ``fn(*args, *inputs)``: its deps' values, in
    ``deps`` order (crash-retry and degrade: test_scheduler_faults)."""

    def test_serial_path(self):
        assert GraphScheduler(1).run(fan_in_graph()) == FAN_IN

    def test_pooled_path(self):
        sched = GraphScheduler(2, max_retries=2, backoff_base_s=0.01)
        assert sched.run(fan_in_graph()) == FAN_IN
        assert sched.last_stats.workers == 2

    def test_exclusive_path(self):
        sched = GraphScheduler(2, policy=_KindPolicy({"consume"}),
                               max_retries=2, backoff_base_s=0.01)
        assert sched.run(fan_in_graph()) == FAN_IN
        assert sched.last_stats.exclusive_nodes == 1


class TestPolicy:
    def test_exclusive_nodes_run_in_parent_with_correct_results(self):
        graph = _chain_graph()
        sched = GraphScheduler(3, policy=_KindPolicy({"tag"}),
                               max_retries=2, backoff_base_s=0.01)
        assert sched.run(graph) == _expected()
        assert sched.last_stats.exclusive_nodes == 2

    def test_unknown_callables_default_concurrent(self):
        # test doubles live outside the repro package: no facts id, so
        # the policy cannot (and need not) constrain them
        node = TaskNode(key="k", kind="unit", fn=_square, args=(1,))
        assert function_fid(_square) is None
        assert ConcurrencyPolicy(facts={"purity": {}}).concurrent(node)

    def test_facts_drive_concurrency(self):
        fid = function_fid(_node_dataset)
        assert fid == "analysis/observations.py::_node_dataset"
        node = TaskNode(key="dataset:gemm", kind="dataset-gen",
                        fn=_node_dataset, args=("gemm",))
        pure = ConcurrencyPolicy(
            facts={"purity": {fid: {"pure": True, "ambient": []}}})
        impure = ConcurrencyPolicy(
            facts={"purity": {fid: {"pure": False}}})
        ambient = ConcurrencyPolicy(
            facts={"purity": {fid: {"pure": True, "ambient": ["env"]}}})
        assert pure.concurrent(node)
        assert not impure.concurrent(node)
        assert not ambient.concurrent(node)

    def test_shipped_facts_prove_pipeline_nodes_concurrent(self):
        """The checked-in artifact must keep the graph builders' node
        callables pure and ambient-free — otherwise every pipeline node
        serializes and the overlap gate in CI fails."""
        policy = ConcurrencyPolicy()
        assert policy.facts is not None, "determinism_facts.json missing"
        for fn, name in ((_node_dataset, "gemm"), (_node_accuracy, "gemm")):
            node = TaskNode(key=f"x:{name}", kind="dataset-gen", fn=fn,
                            args=(name,))
            entry = policy.facts["purity"][function_fid(fn)]
            assert entry["pure"] is True and not entry.get("ambient")
            assert policy.concurrent(node)


class TestObservability:
    def test_stats_and_stage_meta(self):
        reset_stage_timings()
        graph = _chain_graph(n=6)
        sched = GraphScheduler(2, max_retries=2, backoff_base_s=0.01)
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
    def test_task_error_propagates_serial(self):
        g = TaskGraph()
        g.add(TaskNode(key="bad", kind="unit", fn=_boom, args=(3,)))
        with pytest.raises(WorkerTaskError, match="bad node 3"):
            GraphScheduler(1).run(g)

    def test_task_error_propagates_pooled(self):
        g = _chain_graph(n=4)
        g.add(TaskNode(key="bad", kind="unit", fn=_boom, args=(3,)))
        with pytest.raises(WorkerTaskError, match="bad node 3"):
            GraphScheduler(2, max_retries=1, backoff_base_s=0.01).run(g)


class TestModeSwitch:
    def test_graph_enabled_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_GRAPH", raising=False)
        assert graph_enabled(None) is True
        assert graph_enabled("graph") is True
        assert graph_enabled("staged") is False
        monkeypatch.setenv("REPRO_GRAPH", "0")
        assert graph_enabled(None) is False
        # an explicit mode outranks the environment
        assert graph_enabled("graph") is True

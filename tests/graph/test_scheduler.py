"""GraphScheduler semantics: determinism, policy, stats, and errors.

The scheduler's contract (docs/PERF.md): results depend only on the
node set and each node's arguments — identical across worker counts,
insertion orders, and completion races — and the concurrency policy
serializes exactly the nodes the determinism facts cannot prove pure.
"""

import json
import os
import random
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis.accuracy import _node_dataset
from repro.graph import (
    ConcurrencyPolicy,
    GraphScheduler,
    TaskGraph,
    TaskNode,
)
from repro.graph.policy import function_fid, load_facts
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

    def test_exclusive_path(self, pool_rule):
        pool_rule(max_retries=2, backoff_base_s=0.01)
        sched = GraphScheduler(2, policy=_KindPolicy({"consume"}))
        assert sched.run(fan_in_graph()) == FAN_IN
        assert sched.last_stats.exclusive_nodes == 1


class TestPolicy:
    def test_exclusive_nodes_run_in_parent_with_correct_results(
            self, pool_rule):
        graph = _chain_graph()
        pool_rule(max_retries=2, backoff_base_s=0.01)
        sched = GraphScheduler(3, policy=_KindPolicy({"tag"}))
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
        assert fid == "analysis/accuracy.py::_node_dataset"
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
        """The checked-in artifact must keep every graph builder's node
        callable pure and ambient-free — otherwise that node serializes
        (a lint node reading its own file would) and the overlap gate in
        CI fails."""
        policy = ConcurrencyPolicy()
        assert policy.facts is not None, "determinism_facts.json missing"
        targets = sorted({e["target"] for e in policy.facts["graph_nodes"]})
        assert {"analysis/accuracy.py::_node_accuracy",
                "analysis/accuracy.py::_node_dataset",
                "analysis/observations.py::_run_observation",
                "check/runner.py::_check_file",
                "harness/sweep.py::_sweep_size",
                "kernels/base.py::case_stats"} <= set(targets)
        for fid in targets:
            entry = policy.facts["purity"][fid]
            assert entry["pure"] is True and not entry.get("ambient"), fid
        node = TaskNode(key="dataset:gemm", kind="dataset-gen",
                        fn=_node_dataset, args=("gemm",))
        assert policy.concurrent(node)


class TestFactsLoading:
    """The facts artifact is parsed once per process and file version."""

    @staticmethod
    def count_reads(monkeypatch):
        reads = []
        read_bytes = Path.read_bytes

        def counting(self):
            reads.append(self)
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", counting)
        return reads

    def test_unchanged_file_is_not_parsed_again(self, tmp_path,
                                                monkeypatch):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({"purity": {}}))
        reads = self.count_reads(monkeypatch)
        first = load_facts(path)
        assert first == {"purity": {}}
        assert load_facts(path) is first
        assert ConcurrencyPolicy(path=path).facts is first
        assert reads == [path]

    def test_rewritten_file_is_read_again(self, tmp_path, monkeypatch):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({"version": 1}))
        reads = self.count_reads(monkeypatch)
        assert load_facts(path) == {"version": 1}
        # same size, newer modification time
        path.write_text(json.dumps({"version": 2}))
        st = path.stat()
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        assert load_facts(path) == {"version": 2}
        # new size, same modification time
        st = path.stat()
        path.write_text(json.dumps({"version": 30}))
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert load_facts(path) == {"version": 30}
        assert len(reads) == 3

    def test_missing_or_bad_file_is_not_remembered(self, tmp_path):
        path = tmp_path / "facts.json"
        assert load_facts(path) is None
        path.write_text("{not json")
        assert load_facts(path) is None
        path.write_text(json.dumps({"purity": {}}))
        assert load_facts(path) == {"purity": {}}

    def test_threads_racing_rewrites_end_on_the_last_version(self,
                                                            tmp_path):
        """Readers racing a writer may store an older document, but never
        under the current file's stamp."""
        path = tmp_path / "facts.json"
        base_ns = path.parent.stat().st_mtime_ns

        def publish(version):
            # atomic replace with a distinct mtime per version, so no
            # two versions share a stamp
            tmp = tmp_path / "facts.tmp"
            tmp.write_text(json.dumps({"version": version}))
            os.utime(tmp, ns=(base_ns, base_ns + version * 10**9))
            os.replace(tmp, path)

        publish(0)
        seen, done = [], threading.Event()

        def reader():
            while not done.is_set():
                seen.append(load_facts(path))

        readers = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in readers:
                t.start()
            for version in range(1, 100):
                publish(version)
        finally:
            done.set()
            for t in readers:
                t.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers)
        assert seen and all(isinstance(doc["version"], int) for doc in seen)
        assert load_facts(path) == {"version": 99}


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


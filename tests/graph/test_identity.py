"""Graph execution is bit-identical to the staged loops it replaced.

Each rewired pipeline (``verify_all``, ``run_performance``,
``sweep_sizes``) is run both ways — graph default vs ``mode="staged"``
legacy — and the results compared field-for-field.  Every node callable
is a deterministic function of its arguments (the determinism facts
prove it), so equality here is exact, not approximate.
"""

from repro.analysis.accuracy import accuracy_table
from repro.analysis.observations import (
    OBSERVATIONS,
    _node_accuracy,
    build_observations_graph,
    verify_all,
)
from repro.gpu import Device
from repro.harness.runner import run_performance
from repro.harness.sweep import sweep_sizes
from repro.kernels import (
    GemmWorkload,
    GemvWorkload,
    ReductionWorkload,
    ScanWorkload,
    SpmvWorkload,
    all_workloads,
    get_workload,
)

FAST_WL = [GemmWorkload(), ScanWorkload(), ReductionWorkload(),
           GemvWorkload(), SpmvWorkload(scale=0.08)]
DEVICES = [Device("A100"), Device("H200"), Device("B200")]


class TestObservationsIdentity:
    def test_graph_matches_staged_on_subset(self):
        staged = verify_all(FAST_WL, DEVICES, mode="staged")
        graphed = verify_all(FAST_WL, DEVICES, n_jobs=2, mode="graph")
        assert len(staged) == len(graphed) == len(OBSERVATIONS)
        for s, g in zip(staged, graphed):
            assert s == g  # ObservationResult eq: verdict AND evidence

    def test_env_kill_switch_selects_staged(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH", "0")
        fallback = verify_all(FAST_WL, DEVICES)
        monkeypatch.delenv("REPRO_GRAPH")
        assert fallback == verify_all(FAST_WL, DEVICES, mode="staged")


def _stats_keys(workloads, every_case):
    """The stats-node deps of one analytic observation, in deps order."""
    keys = []
    for w in workloads:
        cases = w.cases()
        indices = range(len(cases)) if every_case \
            else [cases.index(w.representative_case())]
        keys.extend(f"stats:{w.name}:{i}" for i in indices)
    return keys


class TestObservationsGraphShape:
    def test_subset_graph_wires_stats_nodes(self):
        g = build_observations_graph(FAST_WL, DEVICES)
        stats = sorted(n.key for n in g if n.kind == "analytic-stats")
        assert stats == sorted(_stats_keys(FAST_WL, every_case=True))
        observations = sorted(n.key for n in g
                              if n.kind == "observation-audit")
        assert observations == [f"observation:{i:02d}"
                                for i in range(1, len(OBSERVATIONS) + 1)]
        assert len(g) == len(stats) + len(observations)
        # no warm-up spine for explicit lists: O7 runs free
        assert g.node("observation:07").deps == ()
        for i in (3, 4, 5):
            assert g.node(f"observation:{i:02d}").deps == tuple(
                _stats_keys(FAST_WL, every_case=True))
        for i in (1, 2, 6, 8, 9):
            assert g.node(f"observation:{i:02d}").deps == tuple(
                _stats_keys(FAST_WL, every_case=False))

    def test_full_graph_wires_datasets_accuracy_observations(self):
        g = build_observations_graph()
        kinds = {n.key: n.kind for n in g}
        datasets = [k for k in kinds if k.startswith("dataset:")]
        audits = [k for k in kinds if k.startswith("accuracy:")]
        assert len(datasets) == len(audits) == 9  # fp workloads
        for k in audits:
            name = k.split(":", 1)[1]
            assert g.node(k).deps == (f"dataset:{name}",)
        # observation 7 (Table 6 fidelity) consumes every accuracy audit;
        # the other eight consume the stats nodes of the whole suite
        o7 = g.node("observation:07")
        assert sorted(o7.deps) == sorted(audits)
        suite = all_workloads()
        stats = [k for k, kind in kinds.items() if kind == "analytic-stats"]
        assert sorted(stats) == sorted(_stats_keys(suite, every_case=True))
        for i in (3, 4, 5):
            assert g.node(f"observation:{i:02d}").deps == tuple(
                _stats_keys(suite, every_case=True))
        for i in (1, 2, 6, 8, 9):
            assert g.node(f"observation:{i:02d}").deps == tuple(
                _stats_keys(suite, every_case=False))
        g.order()  # and the whole thing is a valid DAG

    def test_numbers_limit_the_graph_to_what_they_read(self):
        g = build_observations_graph(numbers=[1])
        assert sorted(n.kind for n in g) == \
            ["analytic-stats"] * len(all_workloads()) + ["observation-audit"]
        g = build_observations_graph(numbers=[7])
        assert {n.kind for n in g} == {"dataset-gen", "accuracy-audit",
                                       "observation-audit"}

    def test_accuracy_node_matches_direct_call(self):
        """The graph's accuracy node is the same computation the staged
        audit runs — byte-for-byte the values the seed digests pin."""
        direct = accuracy_table(get_workload("gemv"), Device("H200"))
        assert _node_accuracy("gemv") == direct


class TestHarnessIdentity:
    def test_run_performance_graph_matches_staged(self):
        wl = [GemmWorkload(), GemvWorkload()]
        devs = [Device("A100"), Device("H200")]
        staged = run_performance(wl, devs, mode="staged")
        graphed = run_performance(wl, devs, n_jobs=2, mode="graph")
        assert graphed == staged
        # device-major order is part of the contract
        assert [r.gpu for r in graphed][:1] == ["A100"]

    def test_sweep_graph_matches_staged(self):
        dev = Device("H200")
        staged = sweep_sizes("gemm", dev, mode="staged")
        graphed = sweep_sizes("gemm", dev, n_jobs=2, mode="graph")
        assert graphed == staged
        sizes = [p.size for p in graphed]
        assert sizes == sorted(sizes)

"""The shape of the observation audit's task graph.

Which nodes ``build_observations_graph`` emits and how they are wired:
stats nodes feed the analytic observations, accuracy nodes feed O7, and
for the default suite a dataset warm-up node feeds each accuracy node.
Serial-vs-parallel equality of the pipelines lives in
``tests/perf/test_parallel_paths.py``, and the recorded digests pin
their values.
"""

from repro.analysis.accuracy import (
    AUDIT_SEED,
    _node_accuracy,
    accuracy_table,
)
from repro.analysis.observations import (
    OBSERVATIONS,
    build_observations_graph,
)
from repro.gpu import Device
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
        audits = [f"accuracy:{w.name}" for w in FAST_WL]  # all fp
        assert len(g) == len(stats) + len(observations) + len(audits)
        # O7 reads every accuracy node; explicit lists have no warm-up
        # spine, and each node carries its own workload object (settings
        # such as SpmvWorkload(scale=0.08) included) and the list's H200
        assert g.node("observation:07").deps == tuple(audits)
        for w, key in zip(FAST_WL, audits):
            node = g.node(key)
            assert node.deps == ()
            assert node.args == (w, DEVICES[1], AUDIT_SEED)
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
        """The graph's accuracy node is the direct audit call —
        byte-for-byte the values the seed digests pin."""
        direct = accuracy_table(get_workload("gemv"), Device("H200"))
        assert _node_accuracy(get_workload("gemv"), Device("H200"),
                              AUDIT_SEED) == direct


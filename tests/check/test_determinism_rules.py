"""Fixture packages per D-rule plus the whole-repo D-clean regression."""

import pytest

from repro.check.dataflow import PackageGraph
from repro.check.determinism import analyze_package, facts_to_json
from repro.check.runner import package_root
from repro.graph import TaskGraph, TaskNode


def _rules(sources):
    rep = analyze_package(graph=PackageGraph.from_sources(sources))
    return [(f.rule, f.path, f.line) for f in rep.findings]


_CACHE_PRELUDE = (
    "from repro.perf.cache import content_key, default_cache\n")


class TestD001CacheValueTaint:
    def test_unseeded_rng_in_compute_fires(self):
        rules = _rules({"a.py": _CACHE_PRELUDE + (
            "import numpy as np\n"
            "def noisy():\n"
            "    return np.random.normal()\n"
            "def cached():\n"
            "    key = content_key('k', 1)\n"
            "    return default_cache().get_or_compute('k', key, noisy)\n")})
        assert [r[0] for r in rules] == ["D001"]

    def test_seeded_rng_is_clean(self):
        assert _rules({"a.py": _CACHE_PRELUDE + (
            "import numpy as np\n"
            "def drawn():\n"
            "    return np.random.default_rng(42).normal()\n"
            "def cached():\n"
            "    key = content_key('k', 1)\n"
            "    return default_cache().get_or_compute('k', key, drawn)\n"
        )}) == []

    def test_clock_reaches_cache_through_two_hops(self):
        rules = _rules({"a.py": _CACHE_PRELUDE + (
            "import time\n"
            "def leaf():\n"
            "    return time.perf_counter()\n"
            "def mid():\n"
            "    return leaf()\n"
            "def cached():\n"
            "    key = content_key('k', 1)\n"
            "    return default_cache().get_or_compute('k', key, mid)\n")})
        assert [r[0] for r in rules] == ["D001"]

    def test_lambda_compute_is_followed(self):
        rules = _rules({"a.py": _CACHE_PRELUDE + (
            "import time\n"
            "def cached():\n"
            "    key = content_key('k', 1)\n"
            "    return default_cache().get_or_compute(\n"
            "        'k', key, lambda: time.time())\n")})
        assert [r[0] for r in rules] == ["D001"]

    def test_unsorted_listdir_fires_sorted_is_clean(self):
        rules = _rules({"a.py": _CACHE_PRELUDE + (
            "import os\n"
            "def unsorted_scan():\n"
            "    return os.listdir('.')\n"
            "def sorted_scan():\n"
            "    return sorted(os.listdir('.'))\n"
            "def cached():\n"
            "    key = content_key('k', 1)\n"
            "    default_cache().get_or_compute('a', key, unsorted_scan)\n"
            "    default_cache().get_or_compute('b', key, sorted_scan)\n")})
        assert len(rules) == 1 and rules[0][0] == "D001"

    def test_set_iteration_fires_sorted_is_clean(self):
        rules = _rules({"a.py": _CACHE_PRELUDE + (
            "def from_set(items):\n"
            "    seen = set(items)\n"
            "    return [x for x in seen]\n"
            "def from_sorted(items):\n"
            "    return [x for x in sorted(set(items))]\n"
            "def cached():\n"
            "    key = content_key('k', 1)\n"
            "    default_cache().get_or_compute('a', key,\n"
            "                                   lambda: from_set([1]))\n"
            "    default_cache().get_or_compute('b', key,\n"
            "                                   lambda: from_sorted([1]))\n"
        )})
        assert len(rules) == 1 and rules[0][0] == "D001"

    def test_id_hash_taints_the_value(self):
        rules = _rules({"a.py": _CACHE_PRELUDE + (
            "def addressed(obj):\n"
            "    return id(obj)\n"
            "def cached(obj):\n"
            "    key = content_key('k', 1)\n"
            "    return default_cache().get_or_compute(\n"
            "        'k', key, lambda: addressed(obj))\n")})
        assert [r[0] for r in rules] == ["D001"]

    def test_clock_inside_perf_barrier_is_not_followed(self):
        # calls into perf/ are measurement infrastructure by contract
        assert _rules({
            "perf/meter.py": "import time\n"
                             "def now():\n"
                             "    return time.perf_counter()\n",
            "a.py": _CACHE_PRELUDE + (
                "from repro.perf.meter import now\n"
                "def timed():\n"
                "    now()\n"
                "    return 7\n"
                "def cached():\n"
                "    key = content_key('k', 1)\n"
                "    return default_cache().get_or_compute(\n"
                "        'k', key, timed)\n")}) == []


class TestD002ServePayloadTaint:
    def test_tainted_resolver_fires(self):
        rules = _rules({"serve/queries.py": (
            "import time\n"
            "def _resolve_perf(params):\n"
            "    return {'t': time.time()}\n")})
        assert [r[0] for r in rules] == ["D002"]

    def test_pure_resolver_is_clean(self):
        assert _rules({"serve/queries.py": (
            "def _resolve_perf(params):\n"
            "    return {'t': 1.0}\n")}) == []


_GRAPH_PRELUDE = "from repro.graph import TaskGraph, TaskNode\n"


class TestD003DispatchMutableState:
    """A function fanned out to pool workers that reads a module global
    rebound elsewhere: workers see a fork-time snapshot, so serial and
    parallel runs can diverge.  Every fan-out is a task-graph node, and
    R009 catches the read on the node callable, through helpers too."""

    def test_closure_over_mutated_global_fires(self):
        rules = _rules({"a.py": _GRAPH_PRELUDE + (
            "_MODE = 'fast'\n"
            "def set_mode(m):\n"
            "    global _MODE\n"
            "    _MODE = m\n"
            "def worker(x):\n"
            "    return (x, _MODE)\n"
            "def build():\n"
            "    g = TaskGraph()\n"
            "    g.add(TaskNode(key='k', kind='unit', fn=worker))\n"
            "    return g\n")})
        assert [r[0] for r in rules] == ["R009"]

    def test_mutated_global_read_through_a_helper_fires(self):
        rules = _rules({"a.py": _GRAPH_PRELUDE + (
            "_MODE = 'fast'\n"
            "def set_mode(m):\n"
            "    global _MODE\n"
            "    _MODE = m\n"
            "def mode():\n"
            "    return _MODE\n"
            "def worker(x):\n"
            "    return (x, mode())\n"
            "def build():\n"
            "    g = TaskGraph()\n"
            "    g.add(TaskNode(key='k', kind='unit', fn=worker))\n"
            "    return g\n")})
        assert [r[0] for r in rules] == ["R009"]

    def test_constant_global_read_is_clean(self):
        assert _rules({"a.py": _GRAPH_PRELUDE + (
            "_SCALE = 3\n"
            "def worker(x):\n"
            "    return x * _SCALE\n"
            "def build():\n"
            "    g = TaskGraph()\n"
            "    g.add(TaskNode(key='k', kind='unit', fn=worker))\n"
            "    return g\n")}) == []


class _Driver:
    def work(self, x):
        return x


def _module_level(x):
    return x + 1


class TestD004DispatchPicklable:
    """A fanned-out callable that is a lambda, a nested function or a
    bound method does not pickle to a pool worker.  ``TaskGraph.add``
    rejects each one when the graph is built, before any run, serial
    runs included."""

    @staticmethod
    def _add(fn):
        TaskGraph().add(TaskNode(key="k", kind="unit", fn=fn))

    def test_lambda_dispatch_fires(self):
        with pytest.raises(ValueError, match="module-level"):
            self._add(lambda x: x + 1)

    def test_nested_def_dispatch_fires(self):
        def helper(x):
            return x + 1

        with pytest.raises(ValueError, match="module-level"):
            self._add(helper)

    def test_bound_method_dispatch_fires(self):
        with pytest.raises(ValueError, match="module-level"):
            self._add(_Driver().work)

    def test_module_level_function_is_clean(self):
        self._add(_module_level)


_KEY_PRELUDE = "from repro.perf.cache import content_key\n"


class TestD005D006KeyCompleteness:
    def test_unkeyed_env_read_fires(self):
        rules = _rules({"a.py": _KEY_PRELUDE + (
            "import os\n"
            "def make_key(kind):\n"
            "    scale = os.environ.get('SCALE', '1')\n"
            "    return content_key(kind, 1)\n")})
        assert [r[0] for r in rules] == ["D005"]

    def test_env_read_inside_key_args_is_clean(self):
        assert _rules({"a.py": _KEY_PRELUDE + (
            "import os\n"
            "def make_key(kind):\n"
            "    return content_key(kind,\n"
            "                       os.environ.get('SCALE', '1'))\n"
        )}) == []

    def test_getenv_and_subscript_forms_fire(self):
        rules = _rules({"a.py": _KEY_PRELUDE + (
            "import os\n"
            "def k1(kind):\n"
            "    s = os.getenv('SCALE')\n"
            "    return content_key(kind, 1)\n"
            "def k2(kind):\n"
            "    s = os.environ['SCALE']\n"
            "    return content_key(kind, 1)\n")})
        assert [r[0] for r in rules] == ["D005", "D005"]

    def test_unkeyed_file_read_fires_d006(self):
        rules = _rules({"a.py": _KEY_PRELUDE + (
            "from pathlib import Path\n"
            "def make_key(kind):\n"
            "    spec = Path('spec.json').read_text()\n"
            "    return content_key(kind, 1)\n")})
        assert [r[0] for r in rules] == ["D006"]

    def test_unkeyed_mutated_global_fires_d006(self):
        rules = _rules({"a.py": _KEY_PRELUDE + (
            "_TOKEN = None\n"
            "def set_token(t):\n"
            "    global _TOKEN\n"
            "    _TOKEN = t\n"
            "def make_key(kind):\n"
            "    return content_key(kind, 1) if _TOKEN else None\n")})
        assert [r[0] for r in rules] == ["D006"]

    def test_mutated_global_inside_key_args_is_clean(self):
        assert _rules({"a.py": _KEY_PRELUDE + (
            "_TOKEN = None\n"
            "def set_token(t):\n"
            "    global _TOKEN\n"
            "    _TOKEN = t\n"
            "def make_key(kind):\n"
            "    return content_key(kind, _TOKEN)\n")}) == []

    def test_functions_without_key_calls_do_not_fire(self):
        assert _rules({"a.py": (
            "import os\n"
            "def config():\n"
            "    return os.environ.get('SCALE', '1')\n")}) == []


class TestFactsArtifact:
    def test_facts_render_byte_identical_across_runs(self):
        sources = {"a.py": _CACHE_PRELUDE + (
            "def compute():\n"
            "    return 7\n"
            "def cached():\n"
            "    key = content_key('k', 1)\n"
            "    return default_cache().get_or_compute(\n"
            "        'k', key, compute)\n")}
        r1 = analyze_package(graph=PackageGraph.from_sources(sources))
        r2 = analyze_package(graph=PackageGraph.from_sources(sources))
        assert facts_to_json(r1.facts) == facts_to_json(r2.facts)

    def test_facts_record_witness_for_impure_functions(self):
        sources = {"a.py": (
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
            "def via():\n"
            "    return now()\n")}
        rep = analyze_package(graph=PackageGraph.from_sources(sources))
        assert rep.facts["purity"]["a.py::now"]["pure"] is False
        via = rep.facts["purity"]["a.py::via"]
        assert via["pure"] is False
        assert "time.time" in via["witness"]

    def test_facts_record_pool_and_cache_sites(self):
        """A pool fan-out is a graph node site; a result-cache store is a
        cache site."""
        sources = {"a.py": _GRAPH_PRELUDE + _CACHE_PRELUDE + (
            "def worker(x):\n"
            "    return x\n"
            "def build():\n"
            "    g = TaskGraph()\n"
            "    g.add(TaskNode(key='k', kind='unit', fn=worker))\n"
            "    return g\n"
            "def cached():\n"
            "    key = content_key('k', 1)\n"
            "    return default_cache().get_or_compute('k', key, worker)\n"
        )}
        rep = analyze_package(graph=PackageGraph.from_sources(sources))
        [site] = rep.facts["graph_nodes"]
        assert site["target"] == "a.py::worker"
        assert site["ambient"] == [] and site["tainted"] == []
        [store] = rep.facts["cache_values"]
        assert store["compute"] == "a.py::worker"
        assert "pool_dispatch" not in rep.facts


class TestWholeRepo:
    def test_src_repro_is_d_clean(self):
        rep = analyze_package(package_root())
        assert rep.findings == [], [f.format() for f in rep.findings]
        assert rep.functions_analyzed > 700

    def test_repo_facts_are_byte_identical_across_runs(self):
        r1 = analyze_package(package_root())
        r2 = analyze_package(package_root())
        assert facts_to_json(r1.facts) == facts_to_json(r2.facts)

    def test_repo_facts_cover_the_known_sinks(self):
        facts = analyze_package(package_root()).facts
        cache_mods = {e["module"] for e in facts["cache_values"]}
        assert "analysis/observations.py" in cache_mods
        node_targets = {e["target"] for e in facts["graph_nodes"]}
        assert {"analysis/accuracy.py::_node_accuracy",
                "check/runner.py::_check_file",
                "harness/sweep.py::_sweep_size",
                "kernels/base.py::case_stats"} <= node_targets
        serve_fns = {e["function"] for e in facts["serve_payloads"]}
        assert "serve/queries.py::_resolve_perf" in serve_fns
        key_fns = {(e["module"], e["function"])
                   for e in facts["content_keys"]}
        assert ("serve/scheduler.py", "query_key") in key_fns


class TestR009GraphNodeAmbient:
    def test_env_reading_node_callable_fires(self):
        rules = _rules({"a.py": _GRAPH_PRELUDE + (
            "import os\n"
            "def worker(x):\n"
            "    return x + len(os.environ.get('HOME', ''))\n"
            "def build():\n"
            "    g = TaskGraph()\n"
            "    g.add(TaskNode(key='k', kind='unit', fn=worker))\n"
            "    return g\n")})
        assert [r[0] for r in rules] == ["R009"]

    def test_pure_node_callable_is_clean(self):
        assert _rules({"a.py": _GRAPH_PRELUDE + (
            "def worker(x):\n"
            "    return x * x\n"
            "def build():\n"
            "    g = TaskGraph()\n"
            "    g.add(TaskNode(key='k', kind='unit', fn=worker))\n"
            "    return g\n")}) == []

    def test_ambient_read_reaches_node_through_a_hop(self):
        rules = _rules({"a.py": _GRAPH_PRELUDE + (
            "def slurp():\n"
            "    return open('cfg.txt').read()\n"
            "def worker(x):\n"
            "    return slurp() + str(x)\n"
            "def build():\n"
            "    g = TaskGraph()\n"
            "    g.add(TaskNode(key='k', kind='unit', fn=worker))\n"
            "    return g\n")})
        assert [r[0] for r in rules] == ["R009"]

    def test_keyed_env_read_is_clean(self):
        """An env read folded into a content key is an argument, not
        ambient state — the node's identity captures it."""
        assert _rules({"a.py": _GRAPH_PRELUDE + _CACHE_PRELUDE + (
            "import os\n"
            "def worker(x):\n"
            "    key = content_key('w', os.environ.get('MODE', ''))\n"
            "    return (key, x)\n"
            "def build():\n"
            "    g = TaskGraph()\n"
            "    g.add(TaskNode(key='k', kind='unit', fn=worker))\n"
            "    return g\n")}) == []

    def test_facts_export_graph_node_sites(self):
        rep = analyze_package(graph=PackageGraph.from_sources(
            {"a.py": _GRAPH_PRELUDE + (
                "import os\n"
                "def clean(x):\n"
                "    return x\n"
                "def dirty(x):\n"
                "    return os.environ.get('HOME')\n"
                "def build():\n"
                "    g = TaskGraph()\n"
                "    g.add(TaskNode(key='a', kind='unit', fn=clean))\n"
                "    g.add(TaskNode(key='b', kind='unit', fn=dirty))\n"
                "    return g\n")}))
        sites = {e["target"]: e for e in rep.facts["graph_nodes"]}
        assert sites["a.py::clean"]["ambient"] == []
        assert sites["a.py::dirty"]["ambient"] == ["env"]
        assert rep.facts["purity"]["a.py::dirty"]["ambient"] == ["env"]

    def test_repo_graph_builders_are_r009_clean(self):
        """The shipped node callables must stay provably pure — the
        concurrency policy schedules them on these facts."""
        facts = analyze_package(package_root()).facts
        targets = {e["target"] for e in facts["graph_nodes"]}
        assert {"analysis/accuracy.py::_node_dataset",
                "analysis/accuracy.py::_node_accuracy",
                "analysis/observations.py::_run_observation",
                "check/runner.py::_check_file",
                "kernels/base.py::case_stats",
                "harness/sweep.py::_sweep_size"} <= targets
        for e in facts["graph_nodes"]:
            assert e["ambient"] == [] and e["tainted"] == [], e


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

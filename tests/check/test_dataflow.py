"""The whole-package call graph (check/dataflow.py)."""

import pytest

from repro.check.dataflow import PackageGraph
from repro.check.runner import package_root


def _graph(sources):
    return PackageGraph.from_sources(sources)


def _call_in(graph, relpath, qualname, lineno=None):
    """Resolve the first (or line-selected) call inside one function."""
    import ast

    from repro.check.dataflow import iter_scope
    minfo = graph.modules[relpath]
    finfo = minfo.functions[qualname]
    for node in iter_scope(finfo.node):
        if isinstance(node, ast.Call) \
                and (lineno is None or node.lineno == lineno):
            return graph.resolve_call(minfo, node, finfo)
    raise AssertionError("no call found")


class TestIndexing:
    def test_functions_methods_nested_and_lambdas(self):
        g = _graph({"m.py": (
            "def top():\n"
            "    def inner():\n"
            "        pass\n"
            "    f = lambda x: x\n"
            "    return inner, f\n"
            "\n"
            "class C:\n"
            "    def meth(self):\n"
            "        pass\n")})
        quals = set(g.modules["m.py"].functions)
        assert {"top", "top.inner", "C.meth"} <= quals
        assert any(q.startswith("top.<lambda:") for q in quals)

    def test_dispatch_tables_of_local_functions(self):
        g = _graph({"m.py": (
            "def a():\n    pass\n"
            "def b():\n    pass\n"
            "TABLE = (a, b)\n"
            "BY_NAME = {'a': a}\n"
            "NOT_A_TABLE = (1, 2)\n")})
        tables = g.modules["m.py"].dispatch_tables
        assert tables["TABLE"] == ["a", "b"]
        assert tables["BY_NAME"] == ["a"]
        assert "NOT_A_TABLE" not in tables

    def test_mutated_globals_require_global_statement(self):
        g = _graph({"m.py": (
            "COUNT = 0\n"
            "MEMO = {}\n"
            "def bump():\n"
            "    global COUNT\n"
            "    COUNT += 1\n"
            "def remember(k, v):\n"
            "    MEMO[k] = v\n")})
        m = g.modules["m.py"]
        assert m.mutated_globals == {"COUNT"}
        assert {"COUNT", "MEMO"} <= m.module_globals

    def test_syntax_error_module_is_skipped(self):
        g = _graph({"bad.py": "def broken(:\n", "ok.py": "def f():\n    pass\n"})
        assert "bad.py" not in g.modules
        assert "ok.py" in g.modules


class TestResolution:
    def test_local_and_class_constructor_calls(self):
        g = _graph({"m.py": (
            "class C:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "def f():\n"
            "    pass\n"
            "def caller():\n"
            "    C()\n"
            "    f()\n")})
        hits = _call_in(g, "m.py", "caller", lineno=7)
        assert [h.qualname for h in hits] == ["C.__init__"]
        hits = _call_in(g, "m.py", "caller", lineno=8)
        assert [h.qualname for h in hits] == ["f"]

    def test_cross_module_absolute_import(self):
        g = _graph({
            "a.py": "from repro.b import helper\n"
                    "def caller():\n"
                    "    helper()\n",
            "b.py": "def helper():\n    pass\n"})
        hits = _call_in(g, "a.py", "caller")
        assert [h.fid for h in hits] == ["b.py::helper"]

    def test_relative_import_resolves_against_module_dir(self):
        g = _graph({
            "pkg/a.py": "from .b import helper\n"
                        "def caller():\n"
                        "    helper()\n",
            "pkg/b.py": "def helper():\n    pass\n"})
        hits = _call_in(g, "pkg/a.py", "caller")
        assert [h.fid for h in hits] == ["pkg/b.py::helper"]

    def test_from_dot_import_binds_the_sibling_module(self):
        g = _graph({
            "pkg/__init__.py": "",
            "pkg/a.py": "from . import helper\n"
                        "def caller():\n"
                        "    helper.f()\n",
            "pkg/helper.py": "def f():\n    pass\n"})
        hits = _call_in(g, "pkg/a.py", "caller")
        assert [h.fid for h in hits] == ["pkg/helper.py::f"]

    def test_from_dot_dot_import_binds_the_parent_package_module(self):
        g = _graph({
            "pkg/__init__.py": "",
            "pkg/helper.py": "def f():\n    pass\n",
            "pkg/sub/__init__.py": "",
            "pkg/sub/a.py": "from .. import helper\n"
                            "def caller():\n"
                            "    helper.f()\n"})
        hits = _call_in(g, "pkg/sub/a.py", "caller")
        assert [h.fid for h in hits] == ["pkg/helper.py::f"]

    def test_reexport_through_package_init(self):
        g = _graph({
            "pkg/__init__.py": "from .impl import helper\n",
            "pkg/impl.py": "def helper():\n    pass\n",
            "a.py": "from repro.pkg import helper\n"
                    "def caller():\n"
                    "    helper()\n"})
        hits = _call_in(g, "a.py", "caller")
        assert [h.fid for h in hits] == ["pkg/impl.py::helper"]

    def test_self_method_with_base_class_fallback(self):
        g = _graph({"m.py": (
            "class Base:\n"
            "    def shared(self):\n"
            "        pass\n"
            "class Child(Base):\n"
            "    def go(self):\n"
            "        self.shared()\n")})
        hits = _call_in(g, "m.py", "Child.go")
        assert [h.qualname for h in hits] == ["Base.shared"]

    def test_table_subscript_dispatch_returns_all_members(self):
        g = _graph({"m.py": (
            "def a():\n    pass\n"
            "def b():\n    pass\n"
            "TABLE = (a, b)\n"
            "def caller(i):\n"
            "    TABLE[i]()\n")})
        hits = _call_in(g, "m.py", "caller")
        assert sorted(h.qualname for h in hits) == ["a", "b"]

    def test_external_calls_resolve_to_nothing(self):
        g = _graph({"m.py": (
            "import numpy as np\n"
            "def caller():\n"
            "    np.zeros(3)\n")})
        assert _call_in(g, "m.py", "caller") == []

    def test_nested_def_resolves_through_local_scope(self):
        g = _graph({"m.py": (
            "def outer():\n"
            "    def inner():\n"
            "        pass\n"
            "    inner()\n")})
        hits = _call_in(g, "m.py", "outer")
        assert [h.qualname for h in hits] == ["outer.inner"]


class TestRealPackage:
    def test_builds_over_src_repro(self):
        g = PackageGraph.build(package_root())
        assert len(g.modules) > 80
        assert len(g.sorted_functions()) > 700

    def test_sorted_functions_is_canonical(self):
        g = PackageGraph.build(package_root())
        fids = [f.fid for f in g.sorted_functions()]
        assert fids == sorted(fids)
        assert len(fids) == len(set(fids))

    def test_known_cross_module_edge(self):
        # harness/runner.py dispatches kernels/base.py's case_stats
        # through the pool; the graph must resolve the executor-mapped
        # callee by name across the module boundary
        g = PackageGraph.build(package_root())
        assert "case_stats" in g.modules["kernels/base.py"].functions


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

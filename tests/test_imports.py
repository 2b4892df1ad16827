"""Lazy package exports and what each entry point loads at start-up.

Every package ``__init__`` re-exports through one ``{name: submodule}``
map (:mod:`repro._lazy`), so a process loads only the modules its
command reaches.  These tests pin the exports (each resolves, each map
entry exists, every module imports on its own) and the module sets of
the entry points that must stay light.
"""

import argparse
import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser

SRC = Path(repro.__file__).resolve().parent.parent
PACKAGE_ROOT = SRC / "repro"
PACKAGES = sorted(
    ".".join(("repro",) + p.parent.relative_to(PACKAGE_ROOT).parts)
    for p in PACKAGE_ROOT.rglob("__init__.py"))
MODULES = sorted(
    ".".join(("repro",) + p.with_suffix("").relative_to(PACKAGE_ROOT).parts)
    for p in PACKAGE_ROOT.rglob("*.py")
    if p.name not in ("__init__.py", "__main__.py"))
#: the imports perfbench's audit child makes before its first answer
AUDIT_IMPORTS = ("repro.analysis.observations", "repro.harness.runner",
                 "repro.serve.queries")
SUITE_ORDER = ["gemm", "pic", "fft", "stencil", "scan", "reduction", "bfs",
               "gemv", "spmv", "spgemm"]


def _env(**extra: str) -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **extra,
            "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}


def _run(code: str, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=_env(**env),
                          capture_output=True, text=True, check=True)


def _modules_after(code: str, **env: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter after it runs ``code``."""
    out = _run(code + "\nimport json, sys\n"
               "print(json.dumps(sorted(sys.modules)))", **env)
    return json.loads(out.stdout.splitlines()[-1])


def _export_map(package: str) -> dict[str, str]:
    """The literal ``{name: submodule}`` map a package ``__init__``
    passes to ``lazy_exports``, read from source as ``repro check``
    reads it."""
    init = PACKAGE_ROOT.joinpath(*package.split(".")[1:], "__init__.py")
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and getattr(node.value.func, "id", "") == "lazy_exports":
            return ast.literal_eval(node.value.args[1])
    raise AssertionError(f"{init} declares no lazy export map")


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_all_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, (package, name)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_map_entry_exists(self, package):
        for name, sub in _export_map(package).items():
            module = importlib.import_module(f"{package}.{sub}")
            if sub != name:
                assert hasattr(module, name), (package, name, sub)
            # an export named like a submodule would be shadowed by it
            # the first time that submodule is imported
            assert sub == name or importlib.util.find_spec(
                f"{package}.{name}") is None, (package, name)

    def test_re_exports_are_the_defining_objects(self):
        from repro.analysis import pca
        from repro.analysis.pca import pca as defined
        from repro.gpu import occupancy
        from repro.gpu.occupancy import occupancy as gpu_defined
        assert pca is defined and occupancy is gpu_defined
        assert repro.kernels.all_workloads is \
            importlib.import_module("repro.kernels.base").all_workloads

    def test_star_import_and_unknown_names(self):
        namespace: dict = {}
        exec("from repro.serve import *", namespace)
        assert set(repro.serve.__all__) <= set(namespace)
        with pytest.raises(AttributeError):
            getattr(repro.serve, "no_such_name")
        with pytest.raises(ImportError):
            exec("from repro.gpu import no_such_name", {})

    def test_subpackages_load_on_first_attribute_access(self):
        mods = _modules_after("import repro\nassert repro.sparse.CsrMatrix")
        assert "repro.sparse.csr" in mods
        assert "repro.analysis" not in mods


def test_every_module_imports_in_a_fresh_process(tmp_path):
    """Each module imports on its own, with no import-order dependence.
    One interpreter forks a fresh child per module; NumPy, which is not
    ours, is loaded once before the forks, and compiled modules are
    cached under ``tmp_path`` so the children share them."""
    code = (
        "import importlib, os, sys, traceback\n"
        "import numpy\n"
        "assert not any(m.startswith('repro') for m in sys.modules)\n"
        "for name in sys.argv[1:]:\n"
        "    pid = os.fork()\n"
        "    if pid == 0:\n"
        "        try:\n"
        "            importlib.import_module(name)\n"
        "        except BaseException:\n"
        "            traceback.print_exc()\n"
        "            os._exit(1)\n"
        "        os._exit(0)\n"
        "    if os.waitpid(pid, 0)[1] != 0:\n"
        "        print('FAILED', name)\n")
    env = _env(PYTHONPYCACHEPREFIX=str(tmp_path), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = subprocess.run([sys.executable, "-c", code, *MODULES], env=env,
                         capture_output=True, text=True, check=True)
    assert "FAILED" not in out.stdout, out.stdout + out.stderr


def _subcommands() -> list[str]:
    parser = build_parser()
    return sorted(next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices)


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_help_exits_zero(command):
    out = subprocess.run([sys.executable, "-m", "repro", command, "--help"],
                         env=_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "usage: repro" in out.stdout


def test_workload_names_in_suite_order_from_base_alone():
    out = _run("import sys\n"
               "from repro.kernels.base import workload_names\n"
               "assert 'repro.kernels.gemm' not in sys.modules\n"
               "print(workload_names())")
    assert out.stdout.strip() == str(SUITE_ORDER)


def test_concurrent_first_use_sees_the_whole_suite_once():
    """Threads racing on the registry's first use each see all ten
    workloads, in suite order, as one set of instances."""
    out = _run(
        "import sys, threading\n"
        "from repro.kernels.base import all_workloads\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier = threading.Barrier(8)\n"
        "seen = []\n"
        "def first_use():\n"
        "    barrier.wait()\n"
        "    seen.append(all_workloads())\n"
        "threads = [threading.Thread(target=first_use) for _ in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert len(seen) == 8\n"
        "assert all([id(w) for w in ws] == [id(w) for w in seen[0]]\n"
        "           for ws in seen)\n"
        "print([w.name for w in seen[0]])")
    assert out.stdout.strip() == str(SUITE_ORDER)


class TestStartupModuleSets:
    def test_client_loads_no_numpy(self):
        mods = _modules_after("import repro.serve.client")
        assert "numpy" not in mods
        assert not [m for m in mods if m.startswith("repro.kernels")]

    def test_help_loads_no_numpy(self):
        mods = _modules_after(
            "import runpy, sys\n"
            "sys.argv = ['repro', '--help']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0\n")
        assert "numpy" not in mods and "repro.cli" in mods

    def test_audit_imports_load_no_other_layer(self):
        mods = _modules_after("\n".join(f"import {m}"
                                        for m in AUDIT_IMPORTS))
        assert not [m for m in mods if m.startswith(
            ("repro.check", "repro.fabric", "repro.apps"))]
        assert "asyncio" not in mods
        assert {f"repro.kernels.{w}" for w in SUITE_ORDER} <= set(mods)

    @pytest.mark.slow
    def test_audit_and_grid_import_nothing_after_start_up(self, tmp_path):
        """No import is left to a graph node or a pool worker: after the
        audit's start-up imports, a cold audit and the grid run with no
        further ``repro`` module."""
        out = _run(
            "import sys\n"
            + "\n".join(f"import {m}" for m in AUDIT_IMPORTS) + "\n"
            "before = set(sys.modules)\n"
            "from repro.analysis.observations import verify_all\n"
            "from repro.harness.runner import run_performance\n"
            "assert all(r.holds for r in verify_all(n_jobs=1))\n"
            "run_performance(n_jobs=1)\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.startswith('repro')))",
            REPRO_CACHE_DIR=str(tmp_path))
        assert out.stdout.strip().splitlines()[-1] == "[]"

"""Layer wrappers for the traced run.

:func:`install` wraps the public functions at each layer boundary of the
``repro`` package — datasets, gpu launch/MMA sweeps, workload kernels,
the accuracy audit, harness and analysis pipelines, the task graph, the
result cache, and serve's resolvers — and rebinds every reference to
them, including ``from … import`` bindings and keyword defaults bound at
import time (``serve.Scheduler``'s resolvers).  Nothing in ``repro`` is
edited: the wrappers exist only in processes that called ``install``.

Each wrapper keeps a span stack per thread.  A span's *self* time is its
duration minus the wrapped spans nested in it; per process the tracer
sums calls, inclusive busy time (outermost call of a name only) and
self time per span name, plus self time per layer on the main thread,
which partitions that thread's wall-clock.

Forked pool workers exit without running ``atexit`` handlers, so each
worker writes its cumulative record to ``<out_dir>/<pid>-<token>.json``
whenever a pool chunk (``perf.executor._run_chunk_remote``) returns —
before the worker can exit.  Other processes call :meth:`Tracer.flush`
themselves.  :func:`load` sums every record in a directory.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable

#: (span name, layer, module, attribute) of wrapped module functions
FUNCTIONS: tuple[tuple[str, str, str, str], ...] = (
    ("datasets.generate_matrix", "datasets", "repro.datasets.suitesparse",
     "generate_matrix"),
    ("datasets.generate_graph", "datasets", "repro.datasets.graphs",
     "generate_graph"),
    ("gpu.execute_plan", "gpu", "repro.gpu.launch", "execute_plan"),
    ("gpu.sweep_fp64", "gpu", "repro.gpu.mma", "mma_fp64_batched"),
    ("gpu.sweep_b1", "gpu", "repro.gpu.mma", "mma_b1_batched"),
    ("gpu.sweep_mixed", "gpu", "repro.gpu.mma_mixed", "mma_mixed_batched"),
    ("accuracy.table", "analysis.accuracy", "repro.analysis.accuracy",
     "accuracy_table"),
    ("analysis.verify_all", "analysis", "repro.analysis.observations",
     "verify_all"),
    ("harness.run_performance", "harness", "repro.harness.runner",
     "run_performance"),
    ("analysis.roofline", "analysis", "repro.analysis.roofline",
     "suite_roofline"),
    ("analysis.edp", "analysis", "repro.analysis.edp", "edp_study"),
    ("harness.whatif", "harness", "repro.harness.whatif", "evaluate_whatif"),
    ("serve.resolve_query", "serve", "repro.serve.queries", "resolve_query"),
    ("serve.resolve_perf_batch", "serve", "repro.serve.queries",
     "resolve_perf_batch"),
    ("pool.chunk", "graph", "repro.perf.executor", "_run_chunk_remote"),
)

#: (span name, layer, module, class, method) of wrapped methods
METHODS: tuple[tuple[str, str, str, str, str], ...] = (
    ("graph.run", "graph", "repro.graph.scheduler", "GraphScheduler", "run"),
    ("cache.get", "perf.cache", "repro.perf.cache", "ResultCache",
     "get_or_compute"),
)

#: methods wrapped on every registered workload class, as ``kernels.<m>``
WORKLOAD_METHODS = ("prepare", "reference", "execute", "analytic_stats")

#: spans whose return (outermost, in a forked process) writes the record
FLUSH_SPANS = frozenset({"pool.chunk"})

#: which span names must fire on each workload (the binding audit)
EXPECTED: dict[str, tuple[str, ...]] = {
    "audit_cold": (
        "datasets.generate_matrix", "datasets.generate_graph",
        "gpu.execute_plan", "gpu.sweep_fp64", "kernels.prepare",
        "kernels.reference", "kernels.execute", "kernels.analytic_stats",
        "accuracy.table", "analysis.verify_all", "analysis.edp",
        "graph.run", "pool.chunk", "cache.get"),
    "grid_warm": (
        "datasets.generate_matrix", "datasets.generate_graph",
        "kernels.analytic_stats", "harness.run_performance",
        "analysis.roofline", "analysis.edp", "harness.whatif",
        "graph.run", "pool.chunk", "cache.get"),
    "serve_zipf": (
        "serve.resolve_query", "serve.resolve_perf_batch",
        "kernels.analytic_stats", "harness.run_performance",
        "analysis.roofline", "analysis.edp", "harness.whatif",
        "graph.run", "cache.get"),
}


class _Frame:
    __slots__ = ("name", "layer", "child_s")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    """Per-process span aggregation (see module docstring)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    # ------------------------------------------------------------ state
    def _reset(self) -> None:
        """Fresh aggregates: at start and in every forked child, which
        inherits a copy of its parent's numbers and span stack."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.token = uuid.uuid4().hex[:12]
        #: span name -> [calls, busy_s (outermost), self_s]
        self.spans: dict[str, list[float]] = {}
        #: layer -> self seconds on the main thread (wall partition)
        self.main_self: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self._baselines = self._plan_cache_counts()

    @staticmethod
    def _plan_cache_counts() -> dict[str, int]:
        launch = sys.modules.get("repro.gpu.launch")
        return launch.plan_cache_stats() if launch is not None else {}

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = set()
            local.main = threading.current_thread() is \
                threading.main_thread()
        return local

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.extra[key] = self.extra.get(key, 0.0) + value

    def record(self, name: str, layer: str, dt: float, own: float,
               main: bool, calls: int = 1) -> None:
        """Add one span's duration and self time (``calls=0`` adds only
        self time to an open span)."""
        with self._lock:
            rec = self.spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += dt
            rec[2] += own
            if main:
                self.main_self[layer] = self.main_self.get(layer, 0.0) + own

    # ------------------------------------------------------------- spans
    def wrap(self, name: str, layer: str, fn: Callable,
             hook: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``; ``hook(tracer, frame, fn, args,
        kwargs)`` makes the call when given (flop counts, cache outcome)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = tracer._state()
            if name in st.active:  # re-entrant: the outer span covers it
                return fn(*args, **kwargs)
            st.active.add(name)
            frame = _Frame(name, layer)
            st.stack.append(frame)
            t0 = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, frame, fn, args, kwargs)
            finally:
                dt = time.perf_counter() - t0
                st.stack.pop()
                st.active.discard(name)
                tracer.record(name, layer, dt, dt - frame.child_s, st.main)
                if st.stack:
                    st.stack[-1].child_s += dt
                elif name in FLUSH_SPANS and os.getpid() != tracer.root_pid:
                    tracer.flush()

        return wrapper

    def passthrough(self, fn: Callable, outer: _Frame) -> Callable:
        """Time ``fn`` as self time of the span *below* ``outer`` (the
        span that asked the cache to compute), not as ``outer``'s own."""
        tracer = self

        def call() -> Any:
            st = tracer._state()
            below = st.stack[-2] if len(st.stack) > 1 \
                else _Frame("other", "other")
            frame = _Frame(below.name, below.layer)
            st.stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                dt = time.perf_counter() - t0
                st.stack.pop()
                tracer.record(below.name, below.layer, 0.0,
                              dt - frame.child_s, st.main, calls=0)
                outer.child_s += dt
        return call

    # ------------------------------------------------------------ output
    def snapshot(self) -> dict[str, Any]:
        counts = self._plan_cache_counts()
        extra = dict(self.extra)
        for key in ("hits", "misses"):
            extra[f"gpu.plan_cache_{key}"] = \
                counts.get(key, 0) - self._baselines.get(key, 0)
        with self._lock:
            return {"pid": os.getpid(),
                    "root": os.getpid() == self.root_pid,
                    "spans": {k: list(v) for k, v in self.spans.items()},
                    "main_self": dict(self.main_self),
                    "extra": extra}

    def flush(self) -> None:
        """Write this process's cumulative record (atomic replace)."""
        path = self.out_dir / f"{os.getpid()}-{self.token}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


# ------------------------------------------------------------- hooks

def _sweep_flops(args: tuple) -> float:
    """Flops of one batched ``(..., m, k) @ (..., k, n)`` sweep."""
    import numpy as np
    a, b = args[0], args[1]
    m, k = a.shape[-2:]
    n = b.shape[-1]
    batch = np.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
    return 2.0 * float(batch) * m * n * k


def _fp_sweep_hook(tracer: Tracer, frame: _Frame, fn: Callable,
                   args: tuple, kwargs: dict) -> Any:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    tracer.add("gpu.fp_flop", _sweep_flops(args))
    tracer.add("gpu.fp_sweep_s", time.perf_counter() - t0)
    return out


def _cache_hook(tracer: Tracer, frame: _Frame, fn: Callable,
                args: tuple, kwargs: dict) -> Any:
    cache, kind, key = args[0], args[1], args[2]
    compute = args[3] if len(args) > 3 else kwargs.pop("compute")
    called = []

    def counted() -> Any:
        called.append(True)
        return compute()

    before = cache.stats.memory_hits
    out = fn(cache, kind, key, tracer.passthrough(counted, frame))
    if called:
        tracer.add("cache.misses", 1)
    elif cache.stats.memory_hits > before:
        tracer.add("cache.memory_hits", 1)
    else:
        tracer.add("cache.disk_hits", 1)
    return out


def _graph_hook(tracer: Tracer, frame: _Frame, fn: Callable,
                args: tuple, kwargs: dict) -> Any:
    out = fn(*args, **kwargs)
    stats = args[0].last_stats
    tracer.add("graph.nodes", stats.nodes)
    tracer.add("graph.node_wall_s", stats.node_wall_s)
    tracer.add("graph.capacity_s", stats.makespan_s * stats.workers)
    tracer.add("graph.retried_nodes", stats.retried_nodes)
    return out


_HOOKS: dict[str, Callable] = {
    "gpu.sweep_fp64": _fp_sweep_hook,
    "gpu.sweep_mixed": _fp_sweep_hook,
    "cache.get": _cache_hook,
    "graph.run": _graph_hook,
}


# ----------------------------------------------------------- binding

def _rebind(original: Callable, wrapper: Callable) -> int:
    """Point every reference to ``original`` inside ``repro`` at
    ``wrapper``: module globals (``from … import`` bindings), module-level
    dicts (resolver tables), and positional/keyword defaults of module
    functions and class methods.  Returns how many were rebound."""
    count = 0

    def fix_defaults(fn: Any) -> None:
        nonlocal count
        fn = getattr(fn, "__func__", fn)
        defaults = getattr(fn, "__defaults__", None)
        if defaults and any(d is original for d in defaults):
            fn.__defaults__ = tuple(wrapper if d is original else d
                                    for d in defaults)
            count += 1
        kwdefaults = getattr(fn, "__kwdefaults__", None)
        if kwdefaults:
            for key, value in kwdefaults.items():
                if value is original:
                    kwdefaults[key] = wrapper
                    count += 1

    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                        count += 1
            elif isinstance(value, type) and \
                    value.__module__.startswith("repro"):
                for member in vars(value).values():
                    if callable(member) or isinstance(
                            member, (staticmethod, classmethod)):
                        fix_defaults(member)
            elif callable(value):
                fix_defaults(value)
    return count


def install(tracer: Tracer) -> Tracer:
    """Import the package and wrap every layer boundary with ``tracer``."""
    import repro.cli  # noqa: F401  - loads every layer the CLI can reach
    from repro.kernels import all_workloads

    for module in ("repro.serve.server", "repro.fabric.cluster",
                   "repro.harness.whatif", "repro.analysis.roofline"):
        importlib.import_module(module)
    for name, layer, modname, attr in FUNCTIONS:
        module = importlib.import_module(modname)
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, layer, original,
                                      _HOOKS.get(name)))
    for name, layer, modname, clsname, attr in METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        setattr(cls, attr, tracer.wrap(name, layer, getattr(cls, attr),
                                       _HOOKS.get(name)))
    wrapped: set[type] = set()
    for workload in all_workloads():
        cls = type(workload)
        if cls in wrapped:
            continue
        wrapped.add(cls)
        for attr in WORKLOAD_METHODS:
            setattr(cls, attr, tracer.wrap(f"kernels.{attr}", "kernels",
                                           getattr(cls, attr)))
    tracer._baselines = tracer._plan_cache_counts()
    return tracer


def load(out_dir: Path) -> dict[str, Any]:
    """Sum every process record under ``out_dir``."""
    total: dict[str, Any] = {"spans": {}, "main_self": {}, "extra": {},
                             "processes": 0}
    for path in sorted(Path(out_dir).glob("*.json")):
        rec = json.loads(path.read_text())
        total["processes"] += 1
        for name, (calls, busy, own) in rec["spans"].items():
            acc = total["spans"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += busy
            acc[2] += own
        if rec["root"]:
            for layer, s in rec["main_self"].items():
                total["main_self"][layer] = \
                    total["main_self"].get(layer, 0.0) + s
        for key, value in rec["extra"].items():
            total["extra"][key] = total["extra"].get(key, 0.0) + value
    return total

"""The pipeline's one process-pool engine: drain a task graph.

:class:`GraphScheduler` executes a :class:`~repro.graph.node.TaskGraph`
with deterministic results, stage attribution across the process
boundary, and fault recovery, but without stage barriers: a ready node
runs the moment its dependencies complete.  It is the only code that
opens a process pool for the pipeline: every fan-out is a graph builder
whose command runs one graph, and no node starts a fan-out of its own.

Edges carry values: every node runs as ``fn(*args, *inputs)``, where
``inputs`` are the values of its ``deps`` in ``deps`` order — on the
serial, pooled, exclusive and degrade paths alike — so a consumer gets
its producers' results instead of recomputing them.

Execution model:

* ``n_jobs <= 1`` (or one node): the serial path — nodes run in-process
  in the graph's deterministic topological order.  No pool, no fault
  injection, results bit-identical to the pooled path by construction
  (every node callable is a deterministic function of its arguments).
* pooled: ready nodes are submitted smallest-key-first through the
  pool-worker entry :func:`~repro.perf.executor._run_chunk_remote`, so
  stage-registry snapshots ship back per node and the
  ``executor.worker_crash`` / ``worker_hang`` fault sites fire under
  keys ``graph:<node key>:<attempt>``.
* recovery (docs/ROBUSTNESS.md), the one rule serve's process-mode
  :class:`~repro.serve.scheduler.ModelPool` follows too: a
  :data:`POOL_FAILURES` error, from a future or from ``submit``, or a
  round in which no node finished within ``REPRO_CHUNK_TIMEOUT_S``
  fails the round — completed results are harvested (never
  recomputed), the pool's workers are terminated, and the rest are
  resubmitted to a rebuilt pool after :func:`backoff_s`, degrading to
  the in-process serial path after :data:`MAX_RETRIES` failed rounds.
  Any other exception (a :class:`~repro.perf.executor.WorkerTaskError`,
  a payload that cannot pickle) kills the pool and propagates at once.
* nodes the :class:`~repro.graph.policy.ConcurrencyPolicy` marks
  exclusive (impure per ``determinism_facts.json``) never enter the
  pool: the scheduler drains in-flight work, then runs them in the
  parent process at their topological position.

Every node is timed worker-side under a ``graph/<kind>`` stage pair, and
the run's *overlap ratio* — summed node wall over makespan, the figure
of merit ``repro bench --check`` gates — is recorded via
:func:`~repro.perf.instrument.note_graph_run`.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any

from ..perf.executor import (WorkerTaskError, _env_float,
                             _run_chunk_remote, resolve_n_jobs)
from ..perf.instrument import (merge_stage_timings, note_graph_run,
                               note_worker_count, stage)
from .node import TaskGraph, TaskNode
from .policy import ConcurrencyPolicy

__all__ = ["GraphScheduler", "GraphStats"]

#: a pool's own failures (a worker died, or none could start); any other
#: error is the work's own answer and is never retried
POOL_FAILURES = (BrokenProcessPool, OSError)
#: pool failures absorbed before the remaining work runs in-process
MAX_RETRIES = 3
#: the pause after the n-th pool failure: base * 2**(n - 1), capped
BACKOFF_BASE_S, BACKOFF_CAP_S = 0.05, 2.0


def backoff_s(failures: int) -> float:
    return min(BACKOFF_BASE_S * 2 ** (failures - 1), BACKOFF_CAP_S)


def submit_remote(pool: ProcessPoolExecutor, fn: Any, arg: Any,
                  label: str, fault_key: str,
                  timeout_s: float | None = None) -> Future:
    """Submit ``fn(arg)`` through the pool-worker entry, whose fault
    sites fire under ``fault_key``; an injected hang outlasts
    ``timeout_s`` (2 s when unset), and a failure names ``label``."""
    return pool.submit(_run_chunk_remote, (fn, arg, label, fault_key,
                                           2 * (timeout_s or 1)))


def remote_value(fut: Future) -> Any:
    """The value of a finished :func:`submit_remote` future; the worker's
    stage timings merge into this process's registry."""
    out, timings = fut.result()
    merge_stage_timings(timings)
    return out


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung or dead workers.

    The worker handles are read before ``shutdown``, which drops the
    pool's reference to them.  The pool's manager thread sees the
    workers die, fails every unfinished future (none is cancelled, so
    each caller sees a pool failure) and reaps them; joining it first
    keeps a second thread from racing it to ``waitpid``."""
    procs = list((pool._processes or {}).values())
    manager = pool._executor_manager_thread
    pool.shutdown(wait=False)
    for proc in procs:
        with suppress(OSError, ValueError):  # already gone
            proc.terminate()
    if manager is not None:
        manager.join(timeout=5)
    for proc in procs:
        with suppress(OSError, ValueError):
            proc.join(timeout=5)


def _exec_node(item: tuple) -> tuple[Any, float]:
    """Worker-side node entry: run ``fn(*args)`` under its stage pair.

    Returns ``(value, wall_seconds)`` — the wall clock is measured where
    the work ran, so overlap accounting is contention-honest (a node
    descheduled by a busier sibling reports the longer wall it actually
    took).
    """
    fn, args, kind = item
    t0 = time.perf_counter()
    with stage("graph"):
        with stage(kind):
            value = fn(*args)
    return value, time.perf_counter() - t0


def _call(node: TaskNode, results: dict[str, Any]) -> tuple:
    """``(fn, args, kind)`` of one node, its deps' values appended to its
    own args in ``deps`` order."""
    return (node.fn, node.args + tuple(results[d] for d in node.deps),
            node.kind)


@dataclass
class GraphStats:
    """Observability record of one graph execution."""

    nodes: int = 0
    workers: int = 1
    makespan_s: float = 0.0
    node_wall_s: float = 0.0
    overlap_ratio: float = 1.0
    #: pool rounds that failed (crash/hang) during the run
    failed_rounds: int = 0
    #: node submissions beyond the first attempt
    retried_nodes: int = 0
    #: completed node results carried across a pool rebuild instead of
    #: being recomputed (the property chaos CI asserts)
    reused_nodes: int = 0
    #: nodes that finished on the degrade-to-serial path
    degraded_nodes: int = 0
    #: nodes the policy ran exclusively (impure per the facts)
    exclusive_nodes: int = 0
    per_kind_wall_s: dict[str, float] = field(default_factory=dict)


class GraphScheduler:
    """Execute a :class:`TaskGraph`; results keyed by node key.

    ``n_jobs`` resolves like every worker count (explicit >
    ``REPRO_JOBS`` > CPU count).  A pool round in
    which no node finishes within ``REPRO_CHUNK_TIMEOUT_S`` fails (unset
    = wait forever); the retry budget and backoff are the module's.
    """

    def __init__(self, n_jobs: int | None = None, *,
                 policy: ConcurrencyPolicy | None = None) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.chunk_timeout_s = _env_float("REPRO_CHUNK_TIMEOUT_S")
        self.policy = policy if policy is not None else ConcurrencyPolicy()
        self.last_stats = GraphStats()

    # ------------------------------------------------------------- run
    def run(self, graph: TaskGraph) -> dict[str, Any]:
        """Execute every node; returns ``{key: value}``.

        Deterministic regardless of worker count, completion order, or
        injected faults: the result of each node depends only on its
        arguments, and assembly is by key.
        """
        order = graph.order()
        stats = self.last_stats = GraphStats(nodes=len(order))
        if not order:
            return {}
        workers = min(self.n_jobs, len(order))
        stats.workers = max(workers, 1)
        note_worker_count(stats.workers)
        walls: dict[str, float] = {}
        t0 = time.perf_counter()
        if workers <= 1:
            results: dict[str, Any] = {}
            for key in order:
                results[key] = self._run_inline(graph.node(key), walls,
                                                results)
        else:
            results = self._run_pooled(graph, order, workers, walls, stats)
        stats.makespan_s = time.perf_counter() - t0
        stats.node_wall_s = sum(walls.values())
        stats.overlap_ratio = (stats.node_wall_s / stats.makespan_s
                               if stats.makespan_s > 0 else 1.0)
        for key, wall in walls.items():
            kind = graph.node(key).kind
            stats.per_kind_wall_s[kind] = \
                stats.per_kind_wall_s.get(kind, 0.0) + wall
        note_graph_run(stats.nodes, stats.node_wall_s, stats.makespan_s,
                       workers=stats.workers)
        return results

    # ---------------------------------------------------------- serial
    def _run_inline(self, node: TaskNode, walls: dict[str, float],
                    results: dict[str, Any]) -> Any:
        """Run one node in-process (serial path, exclusive nodes, and the
        degrade fallback).  No fault injection: only pool workers
        self-destruct."""
        try:
            value, wall = _exec_node(_call(node, results))
        except WorkerTaskError:
            raise  # already names its item
        except Exception as exc:
            raise WorkerTaskError(
                f"{node.display}: {type(exc).__name__}: {exc}") from exc
        walls[node.key] = wall
        return value

    # ---------------------------------------------------------- pooled
    def _run_pooled(self, graph: TaskGraph, order: list[str],
                    workers: int, walls: dict[str, float],
                    stats: GraphStats) -> dict[str, Any]:
        dependents = graph.dependents()
        deps_left = {k: len(set(graph.node(k).deps)) for k in order}
        results: dict[str, Any] = {}
        ready: list[str] = []       # concurrent nodes, smallest key first
        exclusive: list[str] = []   # policy-serialized nodes
        attempts = {k: 0 for k in order}

        def _enqueue(key: str) -> None:
            node = graph.node(key)
            if self.policy.concurrent(node):
                heapq.heappush(ready, key)
            else:
                heapq.heappush(exclusive, key)

        def _complete(key: str, value: Any) -> None:
            results[key] = value
            for child in dependents[key]:
                deps_left[child] -= 1
                if deps_left[child] == 0:
                    _enqueue(child)

        def _settle(fut: Future, key: str) -> bool:
            """Take a finished node's result; False when the pool failed
            under it.  Any other exception propagates."""
            if isinstance(fut.exception(), POOL_FAILURES):
                return False
            value, walls[key] = remote_value(fut)
            _complete(key, value)
            return True

        def _retry(key: str) -> None:
            attempts[key] += 1
            heapq.heappush(ready, key)

        for key in order:
            if deps_left[key] == 0:
                _enqueue(key)

        inflight: dict[Future, str] = {}
        pool: ProcessPoolExecutor | None = None
        failed_rounds = 0
        try:
            while len(results) < len(order):
                if ready and pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(workers,
                                        len(order) - len(results)))
                while ready and len(inflight) < workers:
                    key = heapq.heappop(ready)
                    node = graph.node(key)
                    stats.retried_nodes += attempts[key] > 0
                    try:
                        fut = submit_remote(
                            pool, _exec_node, _call(node, results),
                            node.display, f"graph:{key}:{attempts[key]}",
                            self.chunk_timeout_s)
                    except POOL_FAILURES as exc:
                        # broken by a crash no future has reported yet:
                        # fail the round as a future would
                        fut = Future()
                        fut.set_exception(exc)
                    inflight[fut] = key
                if not inflight:
                    if exclusive:
                        # in-flight work drained: run the impure node
                        # alone, in the parent, at its topo position
                        key = heapq.heappop(exclusive)
                        stats.exclusive_nodes += 1
                        _complete(key, self._run_inline(graph.node(key),
                                                        walls, results))
                        continue
                    raise RuntimeError(  # pragma: no cover - order() bars
                        "graph stalled: no ready, in-flight, or "
                        "exclusive nodes left")
                done, _ = futures_wait(set(inflight),
                                       timeout=self.chunk_timeout_s,
                                       return_when=FIRST_COMPLETED)
                round_failed = not done  # nothing finished in time
                for fut in sorted(done, key=lambda f: inflight[f]):
                    key = inflight.pop(fut)
                    if not _settle(fut, key):
                        round_failed = True
                        _retry(key)
                if not round_failed:
                    continue
                # failed round: keep what finished, requeue the rest
                for fut, key in list(inflight.items()):
                    if not (fut.done() and not fut.cancelled()
                            and _settle(fut, key)):
                        _retry(key)
                inflight.clear()
                if pool is not None:
                    _kill_pool(pool)
                    pool = None
                failed_rounds += 1
                stats.failed_rounds = failed_rounds
                stats.reused_nodes = max(stats.reused_nodes, len(results))
                if failed_rounds > MAX_RETRIES:
                    break
                time.sleep(backoff_s(failed_rounds))
        except BaseException as exc:
            # not the pool's failure: retrying would fail the same way
            if pool is not None:
                _kill_pool(pool)
            if isinstance(exc, KeyboardInterrupt):
                raise KeyboardInterrupt(
                    "interrupted; cancelled pending nodes and retries"
                ) from None
            raise
        if pool is not None:
            pool.shutdown(wait=True)
        if len(results) < len(order):
            # repeated pool failures: finish in-process in topo order —
            # completed node results are reused, never recomputed
            remaining = [k for k in order if k not in results]
            stats.degraded_nodes = len(remaining)
            for key in remaining:
                _complete(key, self._run_inline(graph.node(key), walls,
                                                results))
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphScheduler(n_jobs={self.n_jobs})"

"""The dataflow scheduler: drain ready nodes through a shared pool.

:class:`GraphScheduler` executes a :class:`~repro.graph.node.TaskGraph`
with the same contract :class:`~repro.perf.executor.ParallelExecutor`
gives staged fan-outs — deterministic results, stage attribution across
the process boundary, and fault recovery — but without stage barriers:
a ready node runs the moment its dependencies complete, so dataset
generation for workload B overlaps the accuracy audit of workload A and
the per-observation audit nodes of both.

Edges carry values: every node runs as ``fn(*args, *inputs)``, where
``inputs`` are the values of its ``deps`` in ``deps`` order — on the
serial, pooled, exclusive and degrade paths alike — so a consumer gets
its producers' results instead of recomputing them.

Execution model:

* ``n_jobs <= 1`` (or one node): the serial path — nodes run in-process
  in the graph's deterministic topological order.  No pool, no fault
  injection, results bit-identical to the pooled path by construction
  (every node callable is a deterministic function of its arguments).
* pooled: ready nodes are submitted smallest-key-first as single-node
  chunks through :func:`~repro.perf.executor._run_chunk_remote` — the
  same worker entry the executor uses, so stage-registry snapshots ship
  back per node and the ``executor.worker_crash`` / ``worker_hang``
  fault sites fire under keys ``graph:<node key>:<attempt>``.
* recovery mirrors the executor: a broken pool or a hung node ends the
  *round* — completed in-flight results are harvested (never
  recomputed), the pool is rebuilt with backoff, and the survivors are
  resubmitted; after ``max_retries`` failed rounds the remaining nodes
  degrade to the in-process serial path.  Deterministic task errors
  (:class:`~repro.perf.executor.WorkerTaskError`) propagate immediately.
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
from dataclasses import dataclass, field
from typing import Any

from ..perf.executor import (ParallelExecutor, WorkerTaskError, _env_float,
                             _env_int, _run_chunk_remote, resolve_n_jobs)
from ..perf.instrument import (merge_stage_timings, note_graph_run,
                               note_worker_count, stage)
from .node import TaskGraph, TaskNode
from .policy import ConcurrencyPolicy

__all__ = ["GraphScheduler", "GraphStats"]


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

    ``executor`` donates its pool configuration (jobs, per-chunk
    timeout, retry cap, backoff) so graph and staged execution share one
    tuning surface; otherwise ``n_jobs`` resolves exactly like the
    executor's (explicit > ``REPRO_JOBS`` > CPU count) and the timeout /
    retry knobs read ``REPRO_CHUNK_TIMEOUT_S`` / ``REPRO_EXECUTOR_RETRIES``.
    """

    def __init__(self, n_jobs: int | None = None, *,
                 executor: ParallelExecutor | None = None,
                 policy: ConcurrencyPolicy | None = None,
                 chunk_timeout_s: float | None = None,
                 max_retries: int | None = None,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 2.0) -> None:
        if executor is not None:
            self.n_jobs = executor.n_jobs
            self.chunk_timeout_s = executor.chunk_timeout_s \
                if chunk_timeout_s is None else chunk_timeout_s
            self.max_retries = executor.max_retries \
                if max_retries is None else max_retries
            self.backoff_base_s = executor.backoff_base_s
            self.backoff_cap_s = executor.backoff_cap_s
        else:
            self.n_jobs = resolve_n_jobs(n_jobs)
            self.chunk_timeout_s = chunk_timeout_s \
                if chunk_timeout_s is not None \
                else _env_float("REPRO_CHUNK_TIMEOUT_S")
            self.max_retries = max_retries if max_retries is not None \
                else _env_int("REPRO_EXECUTOR_RETRIES", 3)
            self.backoff_base_s = backoff_base_s
            self.backoff_cap_s = backoff_cap_s
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
        degrade fallback).  No fault injection — mirrors the executor's
        serial path, which never self-destructs."""
        try:
            value, wall = _exec_node(_call(node, results))
        except Exception as exc:
            raise WorkerTaskError(
                f"{node.display}: {type(exc).__name__}: {exc}") from exc
        walls[node.key] = wall
        return value

    # ---------------------------------------------------------- pooled
    def _payload(self, node: TaskNode, attempt: int,
                 results: dict[str, Any]) -> tuple:
        hang_s = 2.0 * self.chunk_timeout_s if self.chunk_timeout_s \
            else 2.0
        return (_exec_node, [_call(node, results)],
                [node.display], None, f"graph:{node.key}:{attempt}",
                hang_s)

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
                    stats.retried_nodes += attempts[key] > 0
                    fut = pool.submit(
                        _run_chunk_remote,
                        self._payload(graph.node(key), attempts[key],
                                      results))
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
                round_failed = not done
                for fut in sorted(done, key=lambda f: inflight[f]):
                    key = inflight.pop(fut)
                    exc = fut.exception()
                    if exc is None:
                        out, timings = fut.result()
                        value, wall = out[0]
                        merge_stage_timings(timings)
                        walls[key] = wall
                        _complete(key, value)
                    elif isinstance(exc, WorkerTaskError):
                        raise exc
                    else:  # broken pool / OSError: retry this node
                        round_failed = True
                        attempts[key] += 1
                        heapq.heappush(ready, key)
                if not round_failed:
                    continue
                # harvest in-flight survivors, requeue the rest, rebuild
                for fut, key in list(inflight.items()):
                    if fut.done() and not fut.cancelled() \
                            and fut.exception() is None:
                        out, timings = fut.result()
                        value, wall = out[0]
                        merge_stage_timings(timings)
                        walls[key] = wall
                        _complete(key, value)
                    else:
                        attempts[key] += 1
                        heapq.heappush(ready, key)
                inflight.clear()
                if pool is not None:
                    ParallelExecutor._kill_pool(pool)
                    pool = None
                failed_rounds += 1
                stats.failed_rounds = failed_rounds
                stats.reused_nodes = max(stats.reused_nodes, len(results))
                if failed_rounds > self.max_retries:
                    break
                time.sleep(min(
                    self.backoff_base_s * (2 ** (failed_rounds - 1)),
                    self.backoff_cap_s))
        except KeyboardInterrupt:
            if pool is not None:
                ParallelExecutor._kill_pool(pool)
            raise KeyboardInterrupt(
                "interrupted; cancelled pending graph nodes and "
                "retries") from None
        except BaseException:
            # deterministic task failure: don't hang on remaining nodes
            if pool is not None:
                ParallelExecutor._kill_pool(pool)
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

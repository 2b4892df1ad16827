"""Deterministic, order-preserving fan-out: ``ParallelExecutor.map``.

``map`` cuts its items into contiguous chunks (boundaries depend only on
the item count and chunk size) and runs each chunk as one node of an
edge-free task graph on :class:`~repro.graph.scheduler.GraphScheduler`,
the one process-pool engine, which brings its recovery rule with it
(docs/ROBUSTNESS.md).  Results come back in input order, and
``n_jobs=1`` takes the scheduler's in-process serial path, so serial and
parallel maps return identical results in identical order.

Worker functions must be module-level (picklable).  ``stage_names``
runs each item under a :func:`repro.perf.instrument.stage`, nested
under the chunk node's ``graph/map-chunk`` stage; pool-worker timings
are merged back under the stage active at the ``map`` call site.  A
failing item raises :class:`WorkerTaskError` naming it.

:func:`_run_chunk_remote` is the pool-worker entry of every graph node
and of every call to serve's process-mode model pool.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from typing import Any, Callable, Iterable, Sequence, TypeVar

from .. import faults
from .instrument import (reset_stage_stack, reset_stage_timings,
                         snapshot_stage_timings, stage)

__all__ = ["ParallelExecutor", "WorkerTaskError", "resolve_n_jobs"]

T = TypeVar("T")
R = TypeVar("R")


class WorkerTaskError(RuntimeError):
    """A task failed inside a worker, annotated with which one.

    A bare exception crossing the process boundary loses all context about
    *which* grid point died; this wrapper names the failing item (the
    workload/variant label the caller supplied) and carries the worker-side
    traceback in the message.  Single string argument so it pickles
    losslessly back to the parent.  Task errors are deterministic — the
    retry machinery never retries them, and the label survives however
    many pool rounds happened before the failing chunk ran.
    """

    @property
    def label(self) -> str:
        return str(self.args[0]).split(":", 1)[0] if self.args else ""


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Resolve a worker count: explicit > 1 inside a pool worker >
    ``REPRO_JOBS`` > CPU count.

    A pool worker is already one of its pool's processes, so a fan-out
    it starts without an explicit count runs in-process instead of
    opening a second pool.
    """
    if n_jobs is not None:
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        return n_jobs
    if multiprocessing.parent_process() is not None:
        return 1
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            pass
    return os.cpu_count() or 1


def _env_float(name: str) -> float | None:
    """A positive float from the environment; None when unset or bad."""
    try:
        value = float(os.environ.get(name, ""))
    except ValueError:
        return None
    return value if value > 0 else None


def _chunk_bounds(n_items: int, chunk_size: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) chunk boundaries — a pure function of the
    item count and chunk size, so task decomposition is deterministic."""
    return [(lo, min(lo + chunk_size, n_items))
            for lo in range(0, n_items, chunk_size)]


def _run_chunk(payload: tuple[Callable[[T], R], list[T], list[str] | None,
                              list[str] | None]) -> list[R]:
    fn, chunk, labels, stage_names = payload
    out: list[R] = []
    for i, item in enumerate(chunk):
        try:
            if stage_names:
                with stage(stage_names[i]):
                    out.append(fn(item))
            else:
                out.append(fn(item))
        except WorkerTaskError:
            raise  # a map chunk run as a graph node names its own item
        except Exception as exc:
            label = labels[i] if labels else f"item {i}"
            raise WorkerTaskError(
                f"{label}: {type(exc).__name__}: {exc}\n"
                f"--- worker traceback ---\n{traceback.format_exc()}"
            ) from exc
    return out


def _run_chunk_remote(payload: tuple[Callable[[T], R], list[T],
                                     list[str] | None, list[str] | None,
                                     str, float]
                      ) -> tuple[list[R], list[dict]]:
    """Pool-worker entry: run a chunk and ship its stage registry back.

    Workers are reused across chunks, so the registry is reset per chunk
    — the snapshot is exactly this chunk's delta, and the parent's merge
    is additive across chunks.

    ``fault_key`` names this (chunk, attempt) so injected crashes/hangs
    are deterministic and do not re-fire on the retry; ``hang_s`` is how
    long an injected hang stalls (sized past the parent's chunk timeout).
    """
    fn, chunk, labels, stage_names, fault_key, hang_s = payload
    if faults.site("executor.worker_crash", key=fault_key):
        os._exit(17)  # abrupt death: no cleanup, breaks the pool
    if faults.site("executor.worker_hang", key=fault_key):
        time.sleep(hang_s)
    reset_stage_timings()
    reset_stage_stack()
    out = _run_chunk((fn, chunk, labels, stage_names))
    return out, snapshot_stage_timings()


def _per_item(values: Sequence[str] | Callable[[T], str] | None,
              items: list[T], what: str) -> list[str] | None:
    """One string per item: a callable is applied in the parent."""
    if values is None:
        return None
    out = [values(item) for item in items] if callable(values) \
        else list(values)
    if len(out) != len(items):
        raise ValueError(f"{len(out)} {what} for {len(items)} items")
    return out


class ParallelExecutor:
    """Order-preserving map; each chunk is one task-graph node, and
    ``last_stats`` is the last map's
    :class:`~repro.graph.scheduler.GraphStats`."""

    def __init__(self, n_jobs: int | None = None) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.last_stats = None  # the last map's GraphStats

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Iterable[T], *,
            chunk_size: int | None = None,
            labels: Sequence[str] | Callable[[T], str] | None = None,
            stage_names: Sequence[str] | Callable[[T], str] | None = None
            ) -> list[R]:
        """``[fn(x) for x in items]``, fanned out across processes.

        Results are returned in input order regardless of completion
        order or pool failures.  A worker exception propagates as
        :class:`WorkerTaskError` naming the failing item (``labels`` — a
        string per item or a callable applied in the parent — gives the
        name; the index within its chunk is used otherwise).

        ``stage_names`` (a name per item, or a callable) runs each item
        under that instrumentation stage.
        """
        # the graph package imports this module
        from ..graph import GraphScheduler, TaskGraph, TaskNode

        items = list(items)
        labels = _per_item(labels, items, "labels")
        stage_names = _per_item(stage_names, items, "stage names")
        if not chunk_size:
            # a few chunks per worker bounds imbalance without flooding
            # the pool with tiny tasks
            workers = max(min(self.n_jobs, len(items)), 1)
            chunk_size = max(1, math.ceil(len(items) / (4 * workers)))
        graph = TaskGraph()
        for lo, hi in _chunk_bounds(len(items), chunk_size):
            graph.add(TaskNode(
                key=f"chunk:{lo:010d}", kind="map-chunk", fn=_run_chunk,
                args=((fn, items[lo:hi],
                       labels[lo:hi] if labels else None,
                       stage_names[lo:hi] if stage_names else None),)))
        scheduler = GraphScheduler(self.n_jobs)
        try:
            results = scheduler.run(graph)
        finally:
            self.last_stats = scheduler.last_stats
        return [value for node in graph for value in results[node.key]]

    # ------------------------------------------------------------------
    def starmap(self, fn: Callable[..., R],
                items: Iterable[Sequence[Any]], *,
                chunk_size: int | None = None,
                labels: Sequence[str] | Callable[[Sequence[Any]], str]
                | None = None,
                stage_names: Sequence[str]
                | Callable[[Sequence[Any]], str] | None = None) -> list[R]:
        """Like :meth:`map` but unpacks each item as ``fn(*item)``."""
        return self.map(_Star(fn), items, chunk_size=chunk_size,
                        labels=labels, stage_names=stage_names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelExecutor(n_jobs={self.n_jobs})"


class _Star:
    """Picklable ``fn(*args)`` adapter for :meth:`ParallelExecutor.starmap`."""

    def __init__(self, fn: Callable[..., Any]) -> None:
        self.fn = fn

    def __call__(self, args: Sequence[Any]) -> Any:
        return self.fn(*args)

"""Query scheduling: coalescing, perf batching, bounded model pool.

Three mechanisms keep the event loop responsive and the model work
minimal under concurrent load:

* **Coalescing** — every query's normalized (kind, params) hashes to a
  :func:`repro.perf.cache.content_key`; a request whose key matches an
  in-flight job awaits that job's (shielded) future instead of starting
  new work, and a completed job's answer enters a bounded served-result
  LRU.  The model is deterministic (DESIGN.md decision 4), so a
  coalesced or cached answer is bit-identical to a fresh computation —
  the same guarantee :class:`~repro.perf.cache.ResultCache` relies on.
* **Perf batching** — perf queries arriving within one batch window and
  addressing the same device list merge into a single
  :func:`~repro.serve.queries.resolve_perf_batch` submission (one
  ``ParallelExecutor`` grid evaluation over the union of workloads),
  then split back per query.
* **Bounded pool** — model work runs via ``loop.run_in_executor`` on a
  :class:`ModelPool`: a ``ProcessPoolExecutor`` of ``workers`` processes
  by default, degrading automatically (and permanently, with a
  telemetry gauge flip) to a thread pool where subprocesses are
  unavailable, e.g. sandboxes.  The event loop itself never executes
  model code.
"""

from __future__ import annotations

import asyncio
import functools
import pickle
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, \
    ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Mapping, Sequence

from ..perf.cache import content_key
from .admission import AdmissionController
from .protocol import ProtocolError
from .queries import resolve_perf_batch, resolve_query
from .telemetry import Telemetry

__all__ = ["ModelPool", "Scheduler", "query_key"]


def query_key(kind: str, params: Mapping[str, Any]) -> str:
    """Content address of one normalized query — the coalescing key."""
    return content_key("serve.query", kind, dict(params))


class ModelPool:
    """Bounded executor for model work, off the event loop.

    ``mode="process"`` gives true parallelism and crash isolation;
    ``mode="thread"`` is the in-process fallback (numpy releases the GIL
    for the heavy kernels).  A broken or unavailable process pool flips
    the mode to ``thread`` transparently and retries the submission.
    """

    def __init__(self, workers: int = 2, mode: str = "process") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown pool mode {mode!r}")
        self.workers = workers
        self.mode = mode
        self._executor: Executor | None = None

    def _ensure(self) -> Executor:
        if self._executor is None:
            if self.mode == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers)
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-serve-model")
        return self._executor

    def _degrade(self) -> None:
        old, self._executor = self._executor, None
        self.mode = "thread"
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)

    async def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Execute ``fn(*args)`` in the pool and await its result."""
        loop = asyncio.get_running_loop()
        call = functools.partial(fn, *args)
        try:
            return await loop.run_in_executor(self._ensure(), call)
        except (BrokenProcessPool, OSError, pickle.PicklingError,
                TypeError) as exc:
            if self.mode != "process":
                raise
            # sandboxed / unpicklable: fall back to threads for good
            self._degrade()
            if isinstance(exc, TypeError) and "pickle" not in str(exc):
                raise
            return await loop.run_in_executor(self._ensure(), call)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None


class Scheduler:
    """Coalesces, batches, and dispatches queries onto the model pool."""

    def __init__(self, pool: ModelPool, admission: AdmissionController,
                 telemetry: Telemetry, *, batch_window_s: float = 0.005,
                 inner_jobs: int = 1, results_cap: int = 1024,
                 resolver: Callable[[str, Mapping[str, Any]], Any]
                 = resolve_query,
                 perf_batch_resolver: Callable[
                     [Sequence[Mapping[str, Any]], int], list[Any]]
                 = resolve_perf_batch,
                 store: Any | None = None) -> None:
        self.pool = pool
        self.admission = admission
        self.telemetry = telemetry
        self.batch_window_s = batch_window_s
        self.inner_jobs = inner_jobs
        self.results_cap = results_cap
        self._resolver = resolver
        self._perf_batch_resolver = perf_batch_resolver
        #: optional ServedResultStore: persistent spill of the LRU
        self.store = store
        self._inflight: dict[str, asyncio.Future] = {}
        self._results: OrderedDict[str, Any] = OrderedDict()
        self._pending_perf: dict[
            tuple[str, ...],
            list[tuple[str, dict[str, Any], asyncio.Future]]] = {}
        self._flush_task: asyncio.Task | None = None
        self._tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------ lookup
    def inflight_count(self) -> int:
        return len(self._inflight)

    def peek(self, key: str) -> asyncio.Future | None:
        """The in-flight future for ``key``, if any (coalescing point)."""
        return self._inflight.get(key)

    def cached(self, key: str) -> tuple[bool, Any]:
        """Served-result LRU lookup: (found, payload)."""
        if key in self._results:
            self._results.move_to_end(key)
            return True, self._results[key]
        return False, None

    def persisted(self, key: str) -> tuple[bool, Any]:
        """Persistent-store lookup: (found, payload).

        A hit is promoted into the in-memory LRU so repeat queries stay
        on the fast path — this is how a restarted shard warms from the
        answers its previous incarnation spilled to disk.
        """
        if self.store is None:
            return False, None
        found, payload = self.store.load(key)
        if found:
            self._lru_put(key, payload)
        return found, payload

    def remember(self, key: str, payload: Any) -> None:
        self._lru_put(key, payload)
        if self.store is not None:
            self.store.store(key, payload)

    def _lru_put(self, key: str, payload: Any) -> None:
        self._results[key] = payload
        self._results.move_to_end(key)
        while len(self._results) > self.results_cap:
            self._results.popitem(last=False)

    # ---------------------------------------------------------- dispatch
    def submit(self, kind: str, params: Mapping[str, Any],
               key: str) -> asyncio.Future:
        """Start (or batch) one new model job; returns its shared future.

        The caller has already passed admission and verified no in-flight
        job shares the key.
        """
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        # a crowd whose every waiter timed out must not leak "exception
        # never retrieved" warnings
        fut.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self._inflight[key] = fut
        if kind == "perf":
            self._enqueue_perf(kind, params, key, fut)
        else:
            self._spawn(self._run_single(kind, dict(params), key, fut))
        return fut

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_single(self, kind: str, params: dict[str, Any],
                          key: str, fut: asyncio.Future) -> None:
        try:
            payload = await self.pool.run(self._resolver, kind, params)
        except Exception as exc:
            self._complete(kind, key, fut, error=exc)
        else:
            self._complete(kind, key, fut, payload=payload)

    # ------------------------------------------------------ perf batching
    def _enqueue_perf(self, kind: str, params: Mapping[str, Any], key: str,
                      fut: asyncio.Future) -> None:
        group_key = tuple(params["gpus"])
        self._pending_perf.setdefault(group_key, []).append(
            (key, dict(params), fut))
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = asyncio.get_running_loop().create_task(
                self._flush_after_window())
            self._tasks.add(self._flush_task)
            self._flush_task.add_done_callback(self._tasks.discard)

    async def _flush_after_window(self) -> None:
        await asyncio.sleep(self.batch_window_s)
        pending, self._pending_perf = self._pending_perf, {}
        for group in pending.values():
            self._spawn(self._run_perf_batch(group))

    async def _run_perf_batch(
            self, group: list[tuple[str, dict[str, Any], asyncio.Future]]
    ) -> None:
        self.telemetry.inc("perf_batches_total")
        if len(group) > 1:
            self.telemetry.inc("perf_batched_queries_total", len(group))
        param_sets = [params for _, params, _ in group]
        try:
            payloads = await self.pool.run(
                self._perf_batch_resolver, param_sets, self.inner_jobs)
            if len(payloads) != len(group):
                raise RuntimeError(
                    f"perf batch returned {len(payloads)} answers "
                    f"for {len(group)} queries")
        except Exception as exc:
            for key, _, fut in group:
                self._complete("perf", key, fut, error=exc)
            return
        for (key, _, fut), payload in zip(group, payloads):
            self._complete("perf", key, fut, payload=payload)

    # --------------------------------------------------------- completion
    def _complete(self, kind: str, key: str, fut: asyncio.Future,
                  payload: Any = None, error: Exception | None = None
                  ) -> None:
        self._inflight.pop(key, None)
        if error is not None:
            self.admission.record_result(kind, ok=False)
            if not fut.done():
                if isinstance(error, ProtocolError):
                    fut.set_exception(error)
                else:
                    fut.set_exception(ProtocolError(
                        "model_error",
                        f"{kind}: {type(error).__name__}: {error}"))
            return
        self.admission.record_result(kind, ok=True)
        self.remember(key, payload)
        if not fut.done():
            fut.set_result(payload)

    async def drain(self, timeout_s: float = 5.0) -> None:
        """Let in-flight work finish (bounded); then :meth:`cancel`."""
        tasks = [t for t in self._tasks if not t.done()]
        if tasks:
            await asyncio.wait(tasks, timeout=timeout_s)
        self.cancel()

    def cancel(self) -> None:
        """Cancel every scheduler task and drop the bookkeeping."""
        for task in self._tasks:
            task.cancel()
        self._pending_perf.clear()
        self._inflight.clear()

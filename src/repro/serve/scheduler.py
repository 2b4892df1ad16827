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
* **Perf batching (group commit)** — a perf query goes to the pool on
  the next loop tick when fewer than ``pool.workers`` perf batches are
  running; perf queries that arrive while every worker runs one wait,
  grouped by device list, and each group goes out as one
  :func:`~repro.serve.queries.resolve_perf_batch` submission (one task
  graph over the union of workloads, split back per query) when a
  running batch finishes.  Queries submitted in the same loop tick with
  the same device list also share a batch.  No timer: a batch forms only
  when waiting is unavoidable, and its size is set by how long the
  running batches take.
* **Bounded pool** — model work runs on a :class:`ModelPool`: a
  ``ProcessPoolExecutor`` of ``workers`` processes by default, under the
  pool engine's failure rule (:mod:`repro.graph.scheduler`): a crashed
  pool is killed and rebuilt and the call retried, and a call whose
  retries are spent runs in-process, that call only, with at most
  ``workers`` such calls at once.  A resolver's own exception is its
  answer.  The event loop itself never executes model code.
"""

from __future__ import annotations

import asyncio
import functools
from collections import OrderedDict, deque
from concurrent.futures import Executor, ProcessPoolExecutor, \
    ThreadPoolExecutor
from typing import Any, Callable, Mapping, Sequence

from ..graph import scheduler as engine
from ..perf.cache import content_key
from .admission import AdmissionController
from .protocol import ProtocolError
from .queries import resolve_perf_batch, resolve_query
from .telemetry import Telemetry

__all__ = ["ModelPool", "Scheduler", "query_key"]


def query_key(kind: str, params: Mapping[str, Any]) -> str:
    """Content address of one normalized query — the coalescing key."""
    return content_key("serve.query", kind, dict(params))


def _guarded(call: Callable[[], Any]) -> tuple[bool, Any]:
    """Pool-side shim: ``(True, value)``, or ``(False, exc)`` for the
    call's own exception, so only the pool's failures raise."""
    try:
        return True, call()
    except Exception as exc:
        return False, exc


class ModelPool:
    """Bounded executor for model work, off the event loop.

    ``mode="process"`` gives true parallelism and crash isolation, and
    recovers by the pool engine's rule (:mod:`repro.graph.scheduler`): a
    pool failure kills the workers (``pool_rebuilds_total``) and the
    calls retry on a new pool.  One failed pool spends one attempt, of
    the call that replaces it; the calls it fails with it resubmit for
    free.  Once a call's retry budget is spent, that one call runs
    in-process (``pool_inprocess_total``), at most ``workers`` of them
    at once.  ``mode="thread"`` runs calls on threads (numpy releases
    the GIL for the heavy kernels).
    """

    def __init__(self, workers: int = 2, mode: str = "process", *,
                 telemetry: Telemetry | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown pool mode {mode!r}")
        self.workers = workers
        self.mode = mode
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.telemetry.gauge("pool_mode", mode)
        self.telemetry.gauge("pool_workers", workers)
        self._executor: Executor | None = None
        #: calls whose retries are spent run in-process, at most
        #: ``workers`` at a time, like the pool
        self._inprocess = asyncio.Semaphore(workers)
        self._closed = False

    def _ensure(self) -> Executor:
        if self._closed:
            raise RuntimeError("the model pool is shut down")
        if self._executor is None:
            if self.mode == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers)
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-serve-model")
        return self._executor

    async def run(self, fn: Callable[..., Any], *args: Any,
                  key: str) -> Any:
        """Await ``fn(*args)`` run in the pool; ``key`` names the call."""
        call = functools.partial(fn, *args)
        if self.mode == "thread":
            ok, value = await asyncio.get_running_loop().run_in_executor(
                self._ensure(), _guarded, call)
        else:
            ok, value = await self._run_remote(call, key)
        if not ok:
            raise value
        return value

    async def _run_remote(self, call: Callable[[], Any],
                          key: str) -> tuple[bool, Any]:
        """The call through the engine's worker entry, under fault key
        ``serve:<key>:<submission>``.  Its own errors come back as values:
        what raises is the pool's failure or a call it cannot send."""
        failures = submission = 0
        while failures <= engine.MAX_RETRIES:
            pool = self._ensure()
            # a new fault key per submission: the crash drawn for one
            # does not fire again on the next
            fault_key = f"serve:{key}:{submission}"
            submission += 1
            try:
                fut = engine.submit_remote(pool, _guarded, call, key,
                                           fault_key)
                await asyncio.wrap_future(fut)
                return engine.remote_value(fut)
            except engine.POOL_FAILURES:
                # one crash, one rebuild, one attempt: a call that failed
                # on a pool another call already replaced resubmits
                # without spending one
                if pool is not self._executor:
                    continue
                self._executor = None
                self.telemetry.inc("pool_rebuilds_total")
                failures += 1
                # off the loop: the kill joins workers for up to 5 s
                await asyncio.to_thread(engine._kill_pool, pool)
                if failures <= engine.MAX_RETRIES:
                    await asyncio.sleep(engine.backoff_s(failures))
        # the retry budget is spent: this call runs in-process, and the
        # next one uses the process pool again
        self.telemetry.inc("pool_inprocess_total")
        async with self._inprocess:
            return await asyncio.to_thread(_guarded, call)

    async def shutdown(self) -> None:
        """Close the pool for good; process workers are killed, so a busy
        one cannot hold up interpreter exit."""
        self._closed = True
        old, self._executor = self._executor, None
        if isinstance(old, ProcessPoolExecutor):
            await asyncio.to_thread(engine._kill_pool, old)
        elif old is not None:
            old.shutdown(wait=False, cancel_futures=True)


class Scheduler:
    """Coalesces, batches, and dispatches queries onto the model pool."""

    def __init__(self, pool: ModelPool, admission: AdmissionController,
                 telemetry: Telemetry, *,
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
        self.inner_jobs = inner_jobs
        self.results_cap = results_cap
        self._resolver = resolver
        self._perf_batch_resolver = perf_batch_resolver
        #: optional ServedResultStore: persistent spill of the LRU
        self.store = store
        self._inflight: dict[str, asyncio.Future] = {}
        self._results: OrderedDict[str, Any] = OrderedDict()
        #: perf queries not yet in the pool, one group per device list; a
        #: group takes every query that arrives before its batch starts
        self._perf_groups: dict[
            tuple[str, ...],
            list[tuple[str, dict[str, Any], asyncio.Future]]] = {}
        #: device lists whose group waits for a pool worker, oldest first
        self._perf_waiting: deque[tuple[str, ...]] = deque()
        #: perf batches holding a pool worker (running or about to start)
        self._perf_batches = 0
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
            self._enqueue_perf(params, key, fut)
        else:
            self._spawn(self._run_single(kind, dict(params), key, fut))
        return fut

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _run_single(self, kind: str, params: dict[str, Any],
                          key: str, fut: asyncio.Future) -> None:
        try:
            payload = await self.pool.run(self._resolver, kind, params,
                                          key=key)
        except Exception as exc:
            self._complete(kind, key, fut, error=exc)
        else:
            self._complete(kind, key, fut, payload=payload)

    # ------------------------------------------------------ perf batching
    def _enqueue_perf(self, params: Mapping[str, Any], key: str,
                      fut: asyncio.Future) -> None:
        devices = tuple(params["gpus"])
        group = self._perf_groups.get(devices)
        if group is None:
            group = self._perf_groups[devices] = []
            self._perf_waiting.append(devices)
        group.append((key, dict(params), fut))
        self._start_perf_batches()

    def _start_perf_batches(self) -> None:
        """Give waiting groups the pool's free workers, oldest first."""
        while self._perf_waiting and self._perf_batches < self.pool.workers:
            self._perf_batches += 1
            task = self._spawn(
                self._run_perf_batch(self._perf_waiting.popleft()))
            task.add_done_callback(self._perf_batch_done)

    def _perf_batch_done(self, task: asyncio.Task) -> None:
        # a done callback, so a batch cancelled before its first step
        # frees its worker too
        self._perf_batches -= 1
        self._start_perf_batches()

    async def _run_perf_batch(self, devices: tuple[str, ...]) -> None:
        # the group closes at the task's first step (the next loop tick):
        # queries submitted in the same tick are in it, later ones open
        # a new group
        group = self._perf_groups.pop(devices)
        self.telemetry.inc("perf_batches_total")
        if len(group) > 1:
            self.telemetry.inc("perf_batched_queries_total", len(group))
        param_sets = [params for _, params, _ in group]
        try:
            payloads = await self.pool.run(
                self._perf_batch_resolver, param_sets, self.inner_jobs,
                key=group[0][0])
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
        self._perf_groups.clear()
        self._perf_waiting.clear()
        self._inflight.clear()

"""The asyncio characterization-query service.

``CharacterizationService.handle`` takes a decoded
:class:`~repro.serve.protocol.Request` through the pipeline (admission
-> coalesce/cache -> model pool -> response) and ``handle_line`` wraps
it for the JSON-lines wire.  The TCP side — framing, handshake gate,
per-token rate check, connection teardown, listener lifecycle — is the
shared :class:`~repro.serve.frontend.FrontEnd`, which feeds each query
line to ``handle_line`` after the service's ``serve.conn_drop`` fault
site.

Degradation semantics (see docs/SERVE.md): a request that passes the
rate gate but finds its query kind's circuit breaker open — or that
overruns its deadline — is answered from the last-good served-result
store when possible, with ``stale: true`` and ``served_by: "stale"``;
only when no previous answer exists does the client see a
``circuit_open`` / ``deadline_exceeded`` error.  A client timeout never
cancels the underlying job (the shared future is shielded), so the job
still completes and refreshes the store for the next request.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .. import faults
from .admission import AdmissionController
from .frontend import FrontEnd
from .protocol import (
    ProtocolError,
    Request,
    Response,
    decode_request,
    encode_response,
)
from .scheduler import ModelPool, Scheduler, query_key
from .telemetry import Telemetry, Trace

__all__ = ["CharacterizationService", "ServeConfig", "run_query_locally"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 7341
    #: model pool size and kind ("process" | "thread")
    workers: int = 2
    pool_mode: str = "process"
    #: graph-scheduler jobs inside one (possibly batched) perf grid
    inner_jobs: int = 1
    max_queue_depth: int = 64
    #: global queries/second (None disables rate limiting)
    rate: float | None = None
    burst: float | None = None
    default_deadline_s: float = 30.0
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 10.0
    results_cap: int = 1024
    #: fabric identity stamped on every response (None outside a fabric)
    shard_id: str | None = None
    #: shared handshake secret; required before binding non-loopback
    token: str | None = None
    #: per-token queries/second after the handshake (None disables)
    auth_rate: float | None = None
    auth_burst: float | None = None
    #: spill the served-result LRU through ResultCache (warm restarts)
    persist: bool = False
    #: persistent store directory (None = the default cache dir)
    store_dir: str | None = None


@dataclass
class _ServiceParts:
    telemetry: Telemetry
    admission: AdmissionController
    pool: ModelPool
    scheduler: Scheduler
    store: Any


def _build_parts(config: ServeConfig,
                 resolver: Callable[..., Any] | None,
                 perf_batch_resolver: Callable[..., Any] | None,
                 clock: Callable[[], float] | None) -> _ServiceParts:
    telemetry = Telemetry()
    admission_kwargs: dict[str, Any] = dict(
        max_queue_depth=config.max_queue_depth,
        rate=config.rate, burst=config.burst,
        breaker_threshold=config.breaker_threshold,
        breaker_cooldown_s=config.breaker_cooldown_s,
        telemetry=telemetry)
    if clock is not None:
        admission_kwargs["clock"] = clock
    admission = AdmissionController(**admission_kwargs)
    pool = ModelPool(workers=config.workers, mode=config.pool_mode,
                     telemetry=telemetry)
    scheduler_kwargs: dict[str, Any] = dict(
        inner_jobs=config.inner_jobs,
        results_cap=config.results_cap)
    if resolver is not None:
        scheduler_kwargs["resolver"] = resolver
    if perf_batch_resolver is not None:
        scheduler_kwargs["perf_batch_resolver"] = perf_batch_resolver
    store = None
    if config.persist:
        # imported here, not at module top: fabric modules import serve
        # submodules, so a top-level import would be circular
        from ..fabric.store import ServedResultStore
        store = ServedResultStore(config.store_dir)
        scheduler_kwargs["store"] = store
    scheduler = Scheduler(pool, admission, telemetry, **scheduler_kwargs)
    return _ServiceParts(telemetry, admission, pool, scheduler, store)


class CharacterizationService(FrontEnd):
    """The query service: pipeline + optional TCP listener."""

    def __init__(self, config: ServeConfig | None = None, *,
                 resolver: Callable[..., Any] | None = None,
                 perf_batch_resolver: Callable[..., Any] | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        config = config if config is not None else ServeConfig()
        parts = _build_parts(config, resolver, perf_batch_resolver, clock)
        super().__init__(config, parts.telemetry, config.shard_id)
        self.admission = parts.admission
        self.pool = parts.pool
        self.scheduler = parts.scheduler
        self.store = parts.store
        if self.config.shard_id is not None:
            self.telemetry.gauge("shard_id", self.config.shard_id)

    # ------------------------------------------------------------ pipeline
    async def handle(self, req: Request,
                     trace: Trace | None = None) -> Response:
        """One request through admission, scheduling, and the model."""
        trace = trace if trace is not None else Trace()
        self.telemetry.inc("requests_total")
        self.telemetry.inc(f"requests_{req.kind}_total")
        try:
            resp = await self._pipeline(req, trace)
        except ProtocolError as exc:
            resp = self._error(req, exc.code, exc.message, trace)
        except Exception as exc:  # pragma: no cover - defensive
            resp = self._error(req, "internal",
                               f"{type(exc).__name__}: {exc}", trace)
        self.telemetry.observe_latency(req.kind, trace.elapsed_s)
        self.telemetry.observe_trace(trace)
        if not resp.ok:
            self.telemetry.inc("errors_total")
        return resp

    async def _pipeline(self, req: Request, trace: Trace) -> Response:
        if req.kind == "ping":
            return self._ok(req, "pong", "model", trace)
        if req.kind == "metrics":
            return self._ok(req, self.telemetry.snapshot(), "model", trace)

        with trace.phase("resolve"):
            key = query_key(req.kind, req.params)

        if not req.fresh:
            hit, payload = self.scheduler.cached(key)
            if hit:
                self.telemetry.inc("cache_hits_total")
                return self._ok(req, payload, "cache", trace)
            hit, payload = self.scheduler.persisted(key)
            if hit:
                # a previous process's answer, spilled through disk:
                # bit-identical by the determinism contract
                self.telemetry.inc("store_hits_total")
                return self._ok(req, payload, "store", trace)

        with trace.phase("queue"):
            if not self.admission.try_rate():
                raise ProtocolError("rate_limited",
                                    "global rate limit exceeded")
            if not self.admission.allow_model(req.kind):
                return self._fallback(req, key, trace, "circuit_open",
                                      f"{req.kind} circuit breaker is open")
            fut = self.scheduler.peek(key)
            if fut is not None:
                served_by = "coalesced"
                self.telemetry.inc("coalesced_total")
            else:
                if not self.admission.try_depth(
                        self.scheduler.inflight_count()):
                    raise ProtocolError(
                        "overloaded",
                        f"admission queue full "
                        f"({self.admission.max_queue_depth} in flight)")
                served_by = "model"
                fut = self.scheduler.submit(req.kind, req.params, key)

        deadline = req.deadline_s if req.deadline_s is not None \
            else self.config.default_deadline_s
        with trace.phase("model"):
            try:
                payload = await asyncio.wait_for(asyncio.shield(fut),
                                                 deadline)
            except asyncio.TimeoutError:
                self.telemetry.inc("deadline_exceeded_total")
                if served_by == "model":
                    # the kind is over deadline: that is breaker signal,
                    # counted once per job, not per coalesced waiter
                    self.admission.record_result(req.kind, ok=False)
                return self._fallback(
                    req, key, trace, "deadline_exceeded",
                    f"no answer within {deadline:.3f}s "
                    "(the job continues; retry may hit its cached result)")
        return self._ok(req, payload, served_by, trace)

    # ------------------------------------------------------------ replies
    def _fallback(self, req: Request, key: str, trace: Trace,
                  code: str, message: str) -> Response:
        """Last-good answer marked stale, else the given error."""
        hit, payload = self.scheduler.cached(key)
        if not hit:
            hit, payload = self.scheduler.persisted(key)
        if hit:
            self.telemetry.inc("stale_served_total")
            return Response(id=req.id, ok=True, result=payload,
                            served_by="stale", stale=True,
                            trace=trace.to_dict(),
                            shard_id=self.config.shard_id)
        raise ProtocolError(code, message)

    def _ok(self, req: Request, payload: Any, served_by: str,
            trace: Trace) -> Response:
        return Response(id=req.id, ok=True, result=payload,
                        served_by=served_by, trace=trace.to_dict(),
                        shard_id=self.config.shard_id)

    def _error(self, req: Request, code: str, message: str,
               trace: Trace) -> Response:
        return Response(id=req.id, ok=False,
                        error={"code": code, "message": message},
                        served_by="model", trace=trace.to_dict(),
                        shard_id=self.config.shard_id)

    # ---------------------------------------------------------- wire layer
    async def handle_line(self, line: str) -> str:
        """Decode one request line, serve it, encode the response line."""
        trace = Trace()
        try:
            req = decode_request(line)
        except ProtocolError as exc:
            self.telemetry.inc("requests_total")
            self.telemetry.inc("errors_total")
            resp = Response(id=None, ok=False,
                            error={"code": exc.code, "message": exc.message},
                            trace=trace.to_dict(),
                            shard_id=self.config.shard_id)
            return encode_response(resp)
        resp = await self.handle(req, trace)
        with trace.phase("serialize"):
            encoded = encode_response(resp)
        # the serialize span cannot appear inside the line it times; it
        # is folded into the phase histograms instead (docs/SERVE.md)
        self.telemetry.observe_trace(
            _span_only(trace, "serialize"))
        return encoded

    async def _answer(self, text: str, session: Any) -> bytes | None:
        if faults.site("serve.conn_drop"):
            # injected drop: close without replying — the client's retry
            # re-asks an idempotent, content-keyed query
            self.telemetry.inc("injected_conn_drops_total")
            return None
        return (await self.handle_line(text)).encode()

    # ------------------------------------------------------------ lifecycle
    async def _drain(self) -> None:
        await self.scheduler.drain()

    async def _release(self) -> None:
        await self.pool.shutdown()

    async def abort(self) -> None:
        """Abrupt shutdown: reset every connection, skip the drain.

        The failover drill's stand-in for a killed shard process —
        clients see connection resets mid-query, exactly what the
        router's replay path must absorb.  The event loop may host other
        services and keeps running, so the scheduler's tasks are
        cancelled too: no model work starts after the kill, and the
        pool's busy workers are killed with it.
        """
        server, self._tcp_server = self._tcp_server, None
        if server is not None:
            server.close()
        for writer in list(self._conns.values()):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self.scheduler.cancel()
        await self.pool.shutdown()
        if server is not None:
            # after the resets: a server may wait for its connections
            await server.wait_closed()


def _span_only(trace: Trace, name: str) -> Trace:
    """A trace view holding one span (for per-phase histogram folding)."""
    view = Trace(clock=trace._clock)
    if name in trace.spans:
        view.spans[name] = trace.spans[name]
    return view


def run_query_locally(kind: str, params: Mapping[str, Any] | None = None,
                      *, config: ServeConfig | None = None,
                      deadline_s: float | None = None,
                      fresh: bool = False) -> Response:
    """``repro query --local``: one request through an in-process service.

    Spins up the full pipeline (no TCP), serves one query, and tears it
    down — the reference path the bit-identity tests compare the wire
    path against.
    """
    from .protocol import normalize_params

    if config is None:
        config = ServeConfig(pool_mode="thread", workers=1)
    req = Request(kind=kind, params=normalize_params(kind, params),
                  id="local", deadline_s=deadline_s, fresh=fresh)

    async def _run() -> Response:
        service = CharacterizationService(config)
        try:
            return await service.handle(req)
        finally:
            await service.stop()

    return asyncio.run(_run())

"""The asyncio characterization-query service and its TCP front end.

:class:`CharacterizationService` is transport-free: ``handle`` takes a
decoded :class:`~repro.serve.protocol.Request` through the pipeline
(admission -> coalesce/cache -> model pool -> response) and
``handle_line`` wraps it for the JSON-lines wire.  The stdlib-only TCP
server (`asyncio.start_server`) feeds lines to ``handle_line``, one
connection per client, many concurrent clients per event loop.

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
import socket
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .. import faults
from .admission import AdmissionController
from .protocol import (
    ProtocolError,
    Request,
    Response,
    decode_request,
    encode_response,
    is_handshake_line,
)
from .scheduler import ModelPool, Scheduler, query_key
from .telemetry import Telemetry, Trace

__all__ = ["CharacterizationService", "ServeConfig",
           "require_loopback_or_token", "run_query_locally"]

#: hosts the server may bind without authentication
_LOOPBACK_HOSTS = frozenset({"localhost", "::1"})


def require_loopback_or_token(host: str, has_token: bool,
                              what: str = "serve") -> None:
    """Refuse to bind a non-loopback interface without authentication.

    Binding ``0.0.0.0`` (or any routable address) exposes the model to
    the network; the fabric's contract is that such a listener always
    demands the shared-token handshake first.  Loopback binds stay
    token-optional for local development.
    """
    if has_token:
        return
    if host in _LOOPBACK_HOSTS or host.startswith("127."):
        return
    raise ValueError(
        f"refusing to bind {what} on non-loopback {host!r} without "
        f"authentication; pass --token (or REPRO_SERVE_TOKEN)")


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
    histogram_window: int = 2048
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
    telemetry = Telemetry(histogram_window=config.histogram_window)
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


class CharacterizationService:
    """The query service: pipeline + optional TCP listener."""

    def __init__(self, config: ServeConfig | None = None, *,
                 resolver: Callable[..., Any] | None = None,
                 perf_batch_resolver: Callable[..., Any] | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        parts = _build_parts(self.config, resolver, perf_batch_resolver,
                             clock)
        self.telemetry = parts.telemetry
        self.admission = parts.admission
        self.pool = parts.pool
        self.scheduler = parts.scheduler
        self.store = parts.store
        self.auth = None
        if self.config.token:
            from ..fabric.auth import Authenticator  # avoid import cycle
            self.auth = Authenticator(self.config.token,
                                      rate=self.config.auth_rate,
                                      burst=self.config.auth_burst)
        self._tcp_server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
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
                return self._degraded(req, key, trace, "circuit_open",
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
                return self._degraded(
                    req, key, trace, "deadline_exceeded",
                    f"no answer within {deadline:.3f}s "
                    "(the job continues; retry may hit its cached result)")
        return self._ok(req, payload, served_by, trace)

    # ------------------------------------------------------------ replies
    def _degraded(self, req: Request, key: str, trace: Trace,
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

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.telemetry.inc("connections_total")
        self._writers.add(writer)
        authed: str | None = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # an oversized line (no newline within the stream
                    # limit) cannot be parsed or resynchronized past:
                    # refuse this connection; the accept loop lives on
                    self.telemetry.inc("oversized_lines_total")
                    break
                if not line:
                    break
                if not line.endswith(b"\n"):
                    # EOF cut the line mid-frame (the peer died while
                    # writing): a fragment is not a request — discard it
                    self.telemetry.inc("truncated_lines_total")
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                if self.auth is not None and authed is None:
                    # token-protected: the first line must be a valid
                    # handshake — refused before any query parsing
                    from ..fabric.auth import auth_gate
                    reply, authed = auth_gate(self.auth, text,
                                              self.config.shard_id)
                    writer.write(reply.encode())
                    await writer.drain()
                    if authed is None:
                        self.telemetry.inc("auth_refused_total")
                        break
                    self.telemetry.inc("auth_ok_total")
                    continue
                if self.auth is None and is_handshake_line(text):
                    # tokenless server: politely confirm a handshake so
                    # fabric clients configured with a token still work
                    from ..fabric.auth import handshake_ok_line
                    writer.write(handshake_ok_line(
                        self.config.shard_id).encode())
                    await writer.drain()
                    continue
                if self.auth is not None \
                        and not self.auth.try_rate(authed):
                    self.telemetry.inc("token_rate_limited_total")
                    writer.write(encode_response(Response(
                        id=None, ok=False,
                        error={"code": "rate_limited",
                               "message": "per-token rate limit "
                                          "exceeded"},
                        shard_id=self.config.shard_id)).encode())
                    await writer.drain()
                    continue
                if faults.site("serve.conn_drop"):
                    # injected drop: close without replying — the client's
                    # retry re-asks an idempotent, content-keyed query
                    self.telemetry.inc("injected_conn_drops_total")
                    break
                writer.write((await self.handle_line(text)).encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # service shutdown: just close the connection
        finally:
            self._writers.discard(writer)
            # shutdown() before close(): a forked model-pool worker may
            # hold a duplicate of this fd (the pool is created lazily,
            # after connections exist), and close() alone would leave the
            # connection open until every copy dies — the client would
            # hang to its socket timeout instead of seeing EOF.
            # shutdown() acts on the connection itself, so the FIN goes
            # out regardless of duplicated descriptors.
            try:
                sock = writer.get_extra_info("socket")
                if sock is not None:
                    sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already disconnected
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                pass

    # ------------------------------------------------------------ lifecycle
    async def start_tcp(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        require_loopback_or_token(self.config.host, self.auth is not None)
        self._tcp_server = await asyncio.start_server(
            self._client_connected, self.config.host, self.config.port)
        sock = self._tcp_server.sockets[0]
        host, port = sock.getsockname()[:2]
        self.telemetry.gauge("listen", f"{host}:{port}")
        return host, port

    async def stop(self) -> None:
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        await self.scheduler.drain()
        self.pool.shutdown()

    async def abort(self) -> None:
        """Abrupt shutdown: reset every connection, skip the drain.

        The failover drill's stand-in for a killed shard process —
        clients see connection resets mid-query, exactly what the
        router's replay path must absorb.  The event loop may host other
        services and keeps running, so the scheduler's tasks are
        cancelled too: no model work starts after the kill.
        """
        server, self._tcp_server = self._tcp_server, None
        if server is not None:
            server.close()
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self.scheduler.cancel()
        self.pool.shutdown()
        if server is not None:
            # after the resets: a server may wait for its connections
            await server.wait_closed()

    async def serve_forever(self) -> None:
        """``repro serve``: run until cancelled."""
        assert self._tcp_server is not None, "call start_tcp() first"
        try:
            await self._tcp_server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()


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

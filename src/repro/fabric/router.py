"""The fabric router: consistent-hash placement over N serve shards.

One asyncio process accepts client connections speaking the ordinary
serve wire protocol (handshake first when a token is configured, then
JSON-lines queries) and forwards each query line — verbatim, so shard-
side coalescing and caching see exactly what a direct client would have
sent — to the shard owning the query's content key on a
:class:`~repro.fabric.ring.HashRing`, and relays the shard's reply line
back as bytes.  Only a replayed reply, or one from a shard without an
id, is parsed and stamped with the answering ``shard_id``.

Failure handling is replay, not apology: when the owning shard's
connection dies mid-query, the shard is marked down, its hash ranges
implicitly re-own to the next ring points, and the *same* request line
replays against the next owner.  Queries are idempotent (content-keyed,
deterministic answers), so a replay is safe and the reply is
bit-identical to what the dead shard would have said.  A background
probe loop pings every shard each interval, re-admitting recovered
shards; the deterministic fault sites ``fabric.shard_down`` (probe sees
a shard as dead for one round) and ``fabric.route_stale`` (route one
query on the pre-change membership view) drive exactly these paths in
chaos runs.

``ping`` and ``metrics`` are answered by the router itself — ``metrics``
returns the router's own counters plus per-shard health, which is what
``repro fabric status`` renders.

The client side of the wire — framing, the handshake gate, the
per-token rate check, teardown and the listener — is the shared
:class:`~repro.serve.frontend.FrontEnd`, the same code every shard runs.
The router adds :meth:`FabricRouter._answer` (routing), one set of
shard links per client connection, and the probe loop.  Its timeouts
and retry pacing are the module constants below.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any

from .. import faults
from ..serve.frontend import FrontEnd
from ..serve.protocol import (
    REPLY_MAX_BYTES,
    ProtocolError,
    Response,
    decode_request,
    encode_handshake,
    encode_response,
    names_shard,
)
from ..serve.scheduler import query_key
from ..serve.telemetry import Telemetry
from .ring import HashRing

__all__ = ["FabricRouter", "RouterConfig", "ShardSpec"]

#: the shard_id the router stamps on answers it produced itself
ROUTER_ID = "router"
#: one probe's reply deadline
PROBE_TIMEOUT_S = 2.0
#: opening a shard link
CONNECT_TIMEOUT_S = 5.0
#: per-forward reply deadline (covers the shard's own model time)
SHARD_TIMEOUT_S = 60.0
#: full passes over the candidate shards before giving up
ROUTE_ATTEMPTS = 3
#: pause between passes, times the pass number (lets transient drops
#: clear)
ROUTE_BACKOFF_S = 0.02


@dataclass(frozen=True)
class ShardSpec:
    """Address of one serve shard."""

    shard_id: str
    host: str
    port: int


@dataclass(frozen=True)
class RouterConfig:
    """Everything ``repro fabric start`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 7440
    #: shared secret for both client->router and router->shard handshakes
    token: str | None = None
    #: per-token queries/second after the handshake (None disables)
    auth_rate: float | None = None
    auth_burst: float | None = None
    probe_interval_s: float = 1.0


class ReplyTooLarge(Exception):
    """A shard reply outgrew :data:`REPLY_MAX_BYTES` (the shard is fine)."""


class _ShardLink:
    """One lazily-opened router->shard JSON-lines connection."""

    def __init__(self, spec: ShardSpec, token: str | None,
                 reply_timeout_s: float) -> None:
        self.spec = spec
        self.token = token
        self.reply_timeout_s = reply_timeout_s
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _open(self) -> None:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.spec.host, self.spec.port,
                                    limit=REPLY_MAX_BYTES),
            CONNECT_TIMEOUT_S)
        if self.token is not None:
            writer.write(encode_handshake(self.token).encode())
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(),
                                          self.reply_timeout_s)
            refused = True
            if line:
                try:
                    refused = not json.loads(line).get("ok")
                except ValueError:
                    pass
            if refused:
                writer.close()
                raise ConnectionError(
                    f"shard {self.spec.shard_id} refused the handshake")
        self._reader, self._writer = reader, writer

    async def ask(self, line: str) -> bytes:
        """Send one request line, await one reply line (as bytes).

        Raises :class:`ReplyTooLarge` when the reply outgrows the stream
        limit; the rest of that line is still in flight, so the
        connection is closed (the next ask reopens it)."""
        try:
            if self._writer is None:
                await self._open()
            assert self._writer is not None and self._reader is not None
            if not line.endswith("\n"):
                line += "\n"
            self._writer.write(line.encode())
            await self._writer.drain()
            reply = await asyncio.wait_for(self._reader.readline(),
                                           self.reply_timeout_s)
        except ValueError as exc:  # readline: no newline within the limit
            await self.close()
            raise ReplyTooLarge(
                f"shard {self.spec.shard_id} replied with more than "
                f"{REPLY_MAX_BYTES} bytes") from exc
        except (OSError, asyncio.TimeoutError, ConnectionError):
            await self.close()
            raise
        except asyncio.CancelledError:
            await self.close()
            raise
        if not reply or not reply.endswith(b"\n"):
            await self.close()
            raise ConnectionError(
                f"shard {self.spec.shard_id} closed mid-reply")
        return reply

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass


class FabricRouter(FrontEnd):
    """Routes serve queries across shards; fails over on dead owners."""

    NAME = "fabric router"
    SERVED_BY = ROUTER_ID

    def __init__(self, shards: list[ShardSpec] | tuple[ShardSpec, ...],
                 config: RouterConfig | None = None) -> None:
        specs = list(shards)
        if not specs:
            raise ValueError("a fabric needs at least one shard")
        super().__init__(config if config is not None else RouterConfig(),
                         Telemetry(), ROUTER_ID)
        self.specs: dict[str, ShardSpec] = {}
        for spec in specs:
            if spec.shard_id in self.specs:
                raise ValueError(f"duplicate shard id {spec.shard_id!r}")
            self.specs[spec.shard_id] = spec
        self.ring = HashRing(list(self.specs))
        self._down: set[str] = set()
        #: membership view from before the last change (what a stale
        #: routing table would still believe); fabric.route_stale uses it
        self._stale_alive: tuple[str, ...] = tuple(self.specs)
        self._probe_round = 0
        self._probe_task: asyncio.Task | None = None

    # ---------------------------------------------------------- membership
    def alive_ids(self) -> tuple[str, ...]:
        return tuple(sid for sid in self.specs if sid not in self._down)

    def _set_down(self, shard_id: str, down: bool) -> None:
        changed = (shard_id not in self._down) if down \
            else (shard_id in self._down)
        if not changed:
            return
        self._stale_alive = self.alive_ids()
        if down:
            self._down.add(shard_id)
            self.telemetry.inc("shard_down_total")
        else:
            self._down.discard(shard_id)
            self.telemetry.inc("shard_up_total")
        self.telemetry.gauge("shards_alive", len(self.alive_ids()))

    # ------------------------------------------------------------- routing
    async def _answer(self, text: str,
                      links: dict[str, _ShardLink]) -> bytes:
        """Forward one query line to its owner; replay on a dead one."""
        try:
            req = decode_request(text)
        except ProtocolError as exc:
            self.telemetry.inc("errors_total")
            return encode_response(Response(
                id=None, ok=False,
                error={"code": exc.code, "message": exc.message},
                served_by=ROUTER_ID, shard_id=ROUTER_ID)).encode()
        self.telemetry.inc("requests_total")
        if req.kind == "ping":
            return encode_response(Response(
                id=req.id, ok=True, result="pong",
                served_by=ROUTER_ID, shard_id=ROUTER_ID)).encode()
        if req.kind == "metrics":
            return encode_response(Response(
                id=req.id, ok=True, result=self.status_snapshot(),
                served_by=ROUTER_ID, shard_id=ROUTER_ID)).encode()

        key = query_key(req.kind, req.params)
        order = self.ring.owners(key, self.alive_ids())
        if faults.site("fabric.route_stale", key=key):
            # route on the membership view from before the last change,
            # then fall back to the current one — deterministically
            # exercising the replay path when the stale owner is gone
            self.telemetry.inc("stale_routes_total")
            stale = self.ring.owners(key, self._stale_alive)
            order = stale + [s for s in order if s not in stale]
        # last resort: shards currently marked down may be back already
        candidates = order + [s for s in self.specs if s not in order]

        replays = 0
        last_detail = "no shard configured"
        for attempt in range(ROUTE_ATTEMPTS):
            if attempt:
                await asyncio.sleep(ROUTE_BACKOFF_S * attempt)
            for shard_id in candidates:
                try:
                    reply = await links[shard_id].ask(text)
                except ReplyTooLarge as exc:
                    # every owner would give the same oversized answer:
                    # refuse it in a typed reply, no failover
                    self.telemetry.inc("errors_total")
                    self.telemetry.inc("oversized_replies_total")
                    return encode_response(Response(
                        id=req.id, ok=False,
                        error={"code": "reply_too_large",
                               "message": str(exc)},
                        served_by=ROUTER_ID, shard_id=ROUTER_ID)).encode()
                except (OSError, ConnectionError,
                        asyncio.TimeoutError) as exc:
                    self._set_down(shard_id, True)
                    self.telemetry.inc("failover_replays_total")
                    replays += 1
                    detail = str(exc) or type(exc).__name__
                    last_detail = f"shard {shard_id}: {detail}"
                    continue
                if replays:
                    self.telemetry.inc("failovers_total")
                elif names_shard(reply, shard_id):
                    return reply  # relayed byte for byte, never parsed
                return self._annotate(reply, shard_id, replays)
        self.telemetry.inc("errors_total")
        return encode_response(Response(
            id=req.id, ok=False,
            error={"code": "shard_unavailable",
                   "message": f"no shard could answer {req.kind!r} "
                              f"(last: {last_detail})"},
            served_by=ROUTER_ID, shard_id=ROUTER_ID)).encode()

    @staticmethod
    def _annotate(reply: bytes, shard_id: str, replays: int) -> bytes:
        """Stamp the answering shard (and replay count) onto the reply."""
        try:
            payload = json.loads(reply)
        except ValueError:
            return reply  # pass an unparseable reply through untouched
        if not isinstance(payload, dict):
            return reply
        payload.setdefault("shard_id", shard_id)
        if replays:
            payload["failover_replays"] = replays
        return json.dumps(payload, separators=(",", ":")).encode() + b"\n"

    # -------------------------------------------------------------- probes
    async def _probe(self, shard_id: str) -> bool:
        if faults.site("fabric.shard_down",
                       key=f"{shard_id}:{self._probe_round}"):
            # injected drill: this probe round sees the shard as dead,
            # so its hash ranges re-own until the next round revives it
            self.telemetry.inc("injected_shard_downs_total")
            return False
        link = _ShardLink(self.specs[shard_id], self.config.token,
                          PROBE_TIMEOUT_S)
        try:
            reply = await link.ask('{"kind":"ping"}\n')
        except (OSError, ConnectionError, asyncio.TimeoutError):
            return False
        finally:
            await link.close()
        try:
            return bool(json.loads(reply).get("ok"))
        except ValueError:
            return False

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.probe_interval_s)
            self._probe_round += 1
            self.telemetry.inc("probe_rounds_total")
            for shard_id in tuple(self.specs):
                healthy = await self._probe(shard_id)
                self._set_down(shard_id, not healthy)

    # ------------------------------------------------------------- status
    def status_snapshot(self) -> dict[str, Any]:
        """What ``repro fabric status`` renders (the metrics answer)."""
        snapshot = self.telemetry.snapshot()
        shards = {
            sid: {"host": spec.host, "port": spec.port,
                  "healthy": sid not in self._down}
            for sid, spec in self.specs.items()}
        return {"router": snapshot, "shards": shards,
                "ring": {"replicas": self.ring.replicas,
                         "shards": len(self.specs)}}

    # --------------------------------------------------------- wire layer
    def _open_session(self) -> dict[str, _ShardLink]:
        """One lazily-opened link per shard for each client connection."""
        return {sid: _ShardLink(spec, self.config.token, SHARD_TIMEOUT_S)
                for sid, spec in self.specs.items()}

    async def _close_session(self, links: dict[str, _ShardLink]) -> None:
        for link in links.values():
            await link.close()

    # ----------------------------------------------------------- lifecycle
    async def start_tcp(self) -> tuple[str, int]:
        """Bind, start probing, start serving; returns (host, port)."""
        address = await super().start_tcp()
        self.telemetry.gauge("shards", len(self.specs))
        self.telemetry.gauge("shards_alive", len(self.alive_ids()))
        self._probe_task = asyncio.get_running_loop().create_task(
            self._probe_loop())
        return address

    async def _release(self) -> None:
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None

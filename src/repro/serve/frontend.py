"""The JSON-lines TCP front end shared by the shard service and the router.

:class:`FrontEnd` owns everything between the socket and a server's
answer: line framing (oversized and truncated lines close the
connection), the handshake gate, the per-token rate check, connection
tracking and teardown, and the listener's lifecycle.  A server supplies
one coroutine, :meth:`FrontEnd._answer`, that turns a request line into
a reply line, and may keep per-connection state
(:meth:`_open_session`/:meth:`_close_session`) and hooks into
:meth:`stop` (:meth:`_drain`, :meth:`_release`).

The handshake gate: with a token configured, the first line of every
connection must be a valid handshake frame.  Anything else is refused
with ``auth_required`` or ``bad_token`` *before* request parsing, and
the connection closes.  A tokenless front end confirms a handshake
politely, so clients configured with a token still work.  Either way the
confirmation carries the front end's identity (a shard id, or
``router``).  After the handshake every line passes the token's rate
bucket.

Stop order (:meth:`stop`): stop accepting; let in-flight work finish
(:meth:`_drain`, then each busy connection finishes its current line,
bounded by :data:`DRAIN_TIMEOUT_S`); close the live connections; await
the listener's ``wait_closed``; release what the server holds
(:meth:`_release`).  Connections close *before* ``wait_closed`` because
from Python 3.12 on it waits for every live connection.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any

from .protocol import (
    HANDSHAKE_VERSION,
    ProtocolError,
    Response,
    encode_response,
    is_handshake_line,
)
from .telemetry import Telemetry

__all__ = ["DRAIN_TIMEOUT_S", "FrontEnd", "require_loopback_or_token"]

#: hosts a front end may bind without authentication
_LOOPBACK_HOSTS = frozenset({"localhost", "::1"})

#: longest :meth:`FrontEnd.stop` waits for busy connections to finish
#: their current line before cancelling them
DRAIN_TIMEOUT_S = 5.0


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


class FrontEnd:
    """One TCP listener speaking the JSON-lines wire protocol.

    ``config`` provides ``host``, ``port``, ``token``, ``auth_rate`` and
    ``auth_burst``; ``identity`` is stamped as ``shard_id`` on the lines
    the front end writes itself (handshake replies, rate refusals).
    """

    #: names the server in the non-loopback bind refusal
    NAME = "serve"
    #: ``served_by`` of the rate refusal (the handshake replies say auth)
    SERVED_BY = "model"

    def __init__(self, config: Any, telemetry: Telemetry,
                 identity: str | None) -> None:
        self.config = config
        self.telemetry = telemetry
        self.identity = identity
        self.auth = None
        if config.token:
            from ..fabric.auth import Authenticator  # avoid import cycle
            self.auth = Authenticator(config.token, rate=config.auth_rate,
                                      burst=config.auth_burst)
        self._hello = encode_response(Response(
            id=None, ok=True,
            result={"fabric": HANDSHAKE_VERSION, "shard_id": identity},
            served_by="auth", shard_id=identity)).encode()
        self._rate_limited = self._refusal(
            "rate_limited", "per-token rate limit exceeded", self.SERVED_BY)
        self._tcp_server: asyncio.AbstractServer | None = None
        #: live connections: handler task -> its writer
        self._conns: dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: handler tasks waiting for their next line (idle connections)
        self._reading: set[asyncio.Task] = set()
        self._closing = False

    # ------------------------------------------------------------- hooks
    async def _answer(self, text: str, session: Any) -> bytes | None:
        """The reply line to one request line; None closes the connection
        without replying."""
        raise NotImplementedError

    def _open_session(self) -> Any:
        """Per-connection state handed to every :meth:`_answer`."""
        return None

    async def _close_session(self, session: Any) -> None:
        """Release what :meth:`_open_session` made."""

    async def _drain(self) -> None:
        """Stop step 2: let the server's own in-flight work finish."""

    async def _release(self) -> None:
        """Stop step 5: release what the server holds."""

    # ------------------------------------------------------------ replies
    def _refusal(self, code: str, message: str, served_by: str) -> bytes:
        return encode_response(Response(
            id=None, ok=False, error={"code": code, "message": message},
            served_by=served_by, shard_id=self.identity)).encode()

    # ------------------------------------------------------- connections
    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self.telemetry.inc("connections_total")
        self._conns[task] = writer
        session = self._open_session()
        token: str | None = None
        try:
            # a stopping front end starts no new line: not after the
            # current reply, and not for a line that arrives while it
            # drains
            while not self._closing:
                self._reading.add(task)
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # an oversized line (no newline within the stream
                    # limit) cannot be parsed or resynchronized past:
                    # refuse this connection; the accept loop lives on
                    self.telemetry.inc("oversized_lines_total")
                    break
                finally:
                    self._reading.discard(task)
                if not line or self._closing:
                    break
                if not line.endswith(b"\n"):
                    # EOF cut the line mid-frame (the peer died while
                    # writing): a fragment is not a request — discard it
                    self.telemetry.inc("truncated_lines_total")
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                if self.auth is not None and token is None:
                    # token-protected: the first line must be a valid
                    # handshake — refused before any query parsing
                    try:
                        token = self.auth.handshake(text)
                    except ProtocolError as exc:
                        writer.write(self._refusal(exc.code, exc.message,
                                                   "auth"))
                        await writer.drain()
                        self.telemetry.inc("auth_refused_total")
                        break
                    writer.write(self._hello)
                    await writer.drain()
                    self.telemetry.inc("auth_ok_total")
                    continue
                if self.auth is None and is_handshake_line(text):
                    writer.write(self._hello)
                    await writer.drain()
                    continue
                if self.auth is not None and not self.auth.try_rate(token):
                    self.telemetry.inc("token_rate_limited_total")
                    writer.write(self._rate_limited)
                    await writer.drain()
                    continue
                reply = await self._answer(text, session)
                if reply is None:
                    break
                writer.write(reply)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # stop() or loop shutdown closes this connection.  The task
            # ends normally: asyncio's stream protocol reads the handler
            # task's exception() when it ends, which raises (and logs)
            # on a cancelled task
            pass
        finally:
            del self._conns[task]
            await self._close_session(session)
            await _close_writer(writer)

    async def _close_connections(self) -> None:
        """Stop step 3: idle connections close now; busy ones finish
        their current line first (bounded), then close."""
        for task in self._reading:
            task.cancel()
        tasks = list(self._conns)
        if not tasks:
            return
        _, late = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
        for task in late:
            task.cancel()
        if late:
            await asyncio.wait(late)

    # ----------------------------------------------------------- lifecycle
    async def start_tcp(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        require_loopback_or_token(self.config.host, self.auth is not None,
                                  self.NAME)
        self._tcp_server = await asyncio.start_server(
            self._client_connected, self.config.host, self.config.port)
        host, port = self._tcp_server.sockets[0].getsockname()[:2]
        self.telemetry.gauge("listen", f"{host}:{port}")
        return host, port

    async def stop(self) -> None:
        """Graceful stop, in the order the module docstring gives."""
        server, self._tcp_server = self._tcp_server, None
        self._closing = True
        if server is not None:
            server.close()
        await self._drain()
        await self._close_connections()
        if server is not None:
            await server.wait_closed()
        await self._release()

    async def serve_forever(self) -> None:
        """Serve until cancelled, then :meth:`stop`.

        Not ``asyncio.Server.serve_forever``: cancelled, that awaits
        ``wait_closed`` before :meth:`stop` could close the connections
        it waits for."""
        assert self._tcp_server is not None, "call start_tcp() first"
        try:
            await asyncio.get_running_loop().create_future()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    # shutdown() before close(): a forked model-pool worker may hold a
    # duplicate of this fd (the pool is created lazily, after connections
    # exist), and close() alone would leave the connection open until
    # every copy dies — the client would hang to its socket timeout
    # instead of seeing EOF.  shutdown() acts on the connection itself,
    # so the FIN goes out regardless of duplicated descriptors.
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

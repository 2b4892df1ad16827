"""Clients for the characterization-query service.

:class:`ServeClient` is the blocking TCP JSON-lines client the CLI and
load generator use — stdlib sockets only, one connection, sequential
queries.

Transport failures are survivable (docs/ROBUSTNESS.md): every query is
idempotent — answers are content-keyed and deterministic — so a dropped
connection (reset, short read, server drain) raises the typed
:class:`ServeConnectionError` naming the endpoint and query kind, and
:meth:`ServeClient.query` transparently reconnects and re-asks up to
``retries`` times with deterministic jittered exponential backoff.  Only
connection-level failures are retried; server-side errors come back as
``ok: false`` responses and protocol violations raise immediately.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

import socket

from .protocol import (
    ProtocolError,
    Request,
    Response,
    decode_response,
    encode_handshake,
    encode_request,
    normalize_params,
)

__all__ = ["ServeClient", "ServeConnectionError"]


class ServeConnectionError(ProtocolError):
    """The connection to the server died mid-query.

    Carries the endpoint, the query kind, the last-known shard identity,
    and how many retries this client has already burned, so a failure
    inside a load generator or sweep names exactly which call to which
    server (and which fabric shard) dropped — not just a bare
    ``ConnectionResetError``.  Subclasses :class:`ProtocolError` (code
    ``conn_dropped``) so existing handlers that catch protocol errors
    keep working.
    """

    def __init__(self, host: str, port: int, kind: str, detail: str, *,
                 shard_id: str | None = None, retry_count: int = 0) -> None:
        shard = f" (shard {shard_id})" if shard_id else ""
        retries = f"; {retry_count} retr" \
                  f"{'y' if retry_count == 1 else 'ies'} so far" \
            if retry_count else ""
        super().__init__(
            "conn_dropped",
            f"connection to {host}:{port}{shard} dropped during "
            f"{kind!r} query: {detail}{retries}")
        self.host = host
        self.port = port
        self.kind = kind
        self.shard_id = shard_id
        self.retry_count = retry_count


class ServeClient:
    """Blocking TCP client: one JSON line out, one JSON line back.

    ``retries`` bounds how many times a dropped connection is re-asked
    (0 disables); backoff between attempts is ``backoff_base_s * 2**n``
    capped at ``backoff_cap_s``, jittered deterministically from the
    attempt counter so concurrent clients do not stampede in lockstep.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7341, *,
                 timeout_s: float = 60.0, retries: int = 2,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 1.0,
                 token: str | None = None) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        #: shared fabric secret; sent as a handshake line on connect
        self.token = token
        #: connection-drop retries performed over this client's lifetime
        self.retry_count = 0
        #: last shard that answered (learned from handshake / responses)
        self.shard_id: str | None = None
        self._sock: socket.socket | None = None
        self._file = None
        self._counter = 0

    # ------------------------------------------------------------ plumbing
    def connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout_s)
        self._sock = sock
        self._file = sock.makefile("r", encoding="utf-8", newline="\n")
        if self.token is not None:
            self._handshake()

    def _handshake(self) -> None:
        """Authenticate the fresh connection (one line each way).

        A connection-level failure raises :class:`ServeConnectionError`
        (retriable); an explicit refusal raises plain
        :class:`ProtocolError` with the server's code (``bad_token`` /
        ``auth_required``) — retrying a rejected credential is pointless.
        """
        assert self._sock is not None and self._file is not None
        try:
            self._sock.sendall(encode_handshake(self.token).encode())
            line = self._file.readline()
        except OSError as exc:
            self.close()
            raise self._conn_error("handshake", str(exc)) from exc
        if not line or not line.endswith("\n"):
            self.close()
            raise self._conn_error(
                "handshake", "connection closed during the handshake")
        resp = decode_response(line)
        if not resp.ok:
            err = resp.error or {}
            self.close()
            raise ProtocolError(err.get("code", "bad_token"),
                                err.get("message", "handshake refused"))
        shard = resp.shard_id
        if shard is None and isinstance(resp.result, dict):
            shard = resp.result.get("shard_id")
        if shard is not None:
            self.shard_id = shard

    def _conn_error(self, kind: str, detail: str) -> ServeConnectionError:
        return ServeConnectionError(self.host, self.port, kind, detail,
                                    shard_id=self.shard_id,
                                    retry_count=self.retry_count)

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        self.connect()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # --------------------------------------------------------------- query
    def _backoff_s(self, attempt: int) -> float:
        base = min(self.backoff_base_s * (2 ** attempt), self.backoff_cap_s)
        # deterministic jitter in [0.5, 1.0) from the repo's LCG constants
        mix = (1664525 * (attempt + 1) + 1013904223) & 0xFFFFFFFF
        return base * (0.5 + (mix / float(1 << 32)) / 2.0)

    def _query_once(self, req: Request) -> Response:
        """One send/receive over the current connection.

        Any way the connection can die mid-query — reset, refused
        reconnect, the server closing without replying, a reply cut off
        mid-line — raises :class:`ServeConnectionError` after closing
        the socket, so the retry path always starts from a clean
        connection.
        """
        try:
            self.connect()
        except OSError as exc:
            self.close()
            raise self._conn_error(req.kind,
                                   f"connect failed: {exc}") from exc
        assert self._sock is not None and self._file is not None
        try:
            self._sock.sendall(encode_request(req).encode())
            line = self._file.readline()
        except OSError as exc:
            self.close()
            raise self._conn_error(req.kind, str(exc)) from exc
        if not line:
            self.close()
            raise self._conn_error(
                req.kind, "server closed the connection before replying")
        if not line.endswith("\n"):
            # short read: the connection died mid-reply; the fragment is
            # not trustworthy, so drop it and the socket together
            self.close()
            raise self._conn_error(
                req.kind, f"reply truncated after {len(line)} bytes")
        resp = decode_response(line)
        if resp.shard_id is not None:
            self.shard_id = resp.shard_id
        return resp

    def query(self, kind: str, params: Mapping[str, Any] | None = None, *,
              deadline_s: float | None = None, fresh: bool = False,
              id: str | None = None) -> Response:
        """Send one query, retrying dropped connections, and block for
        the response.

        Raises :class:`ServeConnectionError` when the connection drops
        more than ``retries`` times, and plain :class:`ProtocolError` on
        a protocol violation (unparseable reply); a server-side error
        comes back as a normal ``ok: false`` response for the caller to
        inspect.
        """
        if id is None:
            self._counter += 1
            id = f"c{self._counter}"
        req = Request(kind=kind,
                      params=normalize_params(kind, params),
                      id=id, deadline_s=deadline_s, fresh=fresh)
        attempt = 0
        while True:
            try:
                return self._query_once(req)
            except ServeConnectionError:
                if attempt >= self.retries:
                    raise
                time.sleep(self._backoff_s(attempt))
                attempt += 1
                self.retry_count += 1

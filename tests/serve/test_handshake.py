"""Handshake framing under hostile input, at both wire front ends.

Raw-socket drills against an authenticated server: malformed, truncated,
oversized, and out-of-order handshake lines must each produce a typed
refusal (or a clean close) without ever crashing the accept loop — after
every abuse case the server still answers a well-formed connection.

The shard service and the fabric router share one front end, so every
drill runs against both: each ``TestRouter*`` class reruns its base
class's tests on a router over one shard (``FRONT = "router"``).
"""

import json
import socket
from contextlib import contextmanager

import pytest

from repro.fabric.router import FabricRouter, RouterConfig, ShardSpec
from repro.serve import (
    HANDSHAKE_MAX_BYTES,
    CharacterizationService,
    ServeClient,
    ServeConfig,
    ServeConnectionError,
    encode_handshake,
)
from repro.serve.client import ServeConnectionError as _SCE
from repro.serve.loadgen import ServerHost
from repro.serve.protocol import is_handshake_line

TOKEN = "hunter2"
#: the identity each front end stamps on its handshake reply
IDENTITY = {"service": "s9", "router": "router"}


@contextmanager
def hosted(front, token=None, **rate):
    """The address of one front end: the service (shard ``s9``), or a
    router over that shard.  ``rate`` (``auth_rate``, ``auth_burst``)
    goes to the front end."""
    host = ServerHost()
    try:
        shard_rate = rate if front == "service" else {}
        shard = host.serve(CharacterizationService(ServeConfig(
            host="127.0.0.1", port=0, pool_mode="thread", workers=1,
            shard_id="s9", token=token, **shard_rate)))
        if front == "service":
            yield shard
        else:
            yield host.serve(FabricRouter(
                [ShardSpec("s9", *shard)],
                RouterConfig(host="127.0.0.1", port=0, token=token,
                             probe_interval_s=60.0, **rate)))
    finally:
        host.stop()


@pytest.fixture(scope="class")
def auth_service(request):
    with hosted(request.cls.FRONT, token=TOKEN) as address:
        yield address


def exchange(address, payload: bytes, lines: int = 1) -> list[bytes]:
    """Send raw bytes, read up to ``lines`` reply lines."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        return [reader.readline() for _ in range(lines)]


def refusal_code(reply: bytes) -> str:
    payload = json.loads(reply)
    assert payload["ok"] is False
    return payload["error"]["code"]


def assert_still_serving(address):
    """The abuse above must not have taken the accept loop down."""
    with ServeClient(*address, token=TOKEN) as client:
        assert client.query("ping").result == "pong"


class TestHandshakeAccepts:
    FRONT = "service"

    def test_valid_handshake_then_ping(self, auth_service):
        payload = encode_handshake(TOKEN).encode() + b'{"kind":"ping"}\n'
        hello, pong = exchange(auth_service, payload, lines=2)
        hello = json.loads(hello)
        assert hello["ok"] is True
        assert hello["result"]["shard_id"] == IDENTITY[self.FRONT]
        assert json.loads(pong)["result"] == "pong"

    def test_tokenless_server_answers_handshake_politely(self):
        """A client configured with a token can still talk to a plain
        server: the handshake gets a friendly OK instead of an error."""
        with hosted(self.FRONT) as address:
            with ServeClient(*address, token="whatever") as client:
                assert client.shard_id == IDENTITY[self.FRONT]
                assert client.query("ping").result == "pong"


class TestRouterHandshakeAccepts(TestHandshakeAccepts):
    FRONT = "router"


class TestHandshakeRefusals:
    FRONT = "service"

    def test_query_before_handshake_is_auth_required(self, auth_service):
        reply, = exchange(auth_service,
                          b'{"kind": "quadrant", "params": '
                          b'{"workload": "gemv"}}\n')
        assert refusal_code(reply) == "auth_required"
        assert_still_serving(auth_service)

    @pytest.mark.parametrize("junk", [
        b"not json at all\n",
        b"{}\n",
        b'{"fabric": "one", "token": "hunter2"}\n',
        b'["fabric", 1]\n',
        b"\xff\xfe\x00garbage\x00\n",
        # nested past json's recursion depth, yet within the size cap
        pytest.param(b'{"fabric": 1, "x": ' + b"[" * 1200 + b"]" * 1200
                     + b"}\n", id="deep-nesting"),
    ])
    def test_malformed_lines_are_refused(self, auth_service, junk):
        reply, = exchange(auth_service, junk)
        assert refusal_code(reply) in ("auth_required", "bad_token")
        assert_still_serving(auth_service)

    def test_wrong_token_is_bad_token(self, auth_service):
        reply, = exchange(auth_service, encode_handshake("nope").encode())
        assert refusal_code(reply) == "bad_token"

    def test_wrong_version_is_bad_token(self, auth_service):
        line = json.dumps({"fabric": 99, "token": TOKEN}) + "\n"
        reply, = exchange(auth_service, line.encode())
        assert refusal_code(reply) == "bad_token"

    def test_oversized_handshake_is_bad_token(self, auth_service):
        padded = json.dumps({"fabric": 1, "token": TOKEN,
                             "pad": "x" * HANDSHAKE_MAX_BYTES}) + "\n"
        reply, = exchange(auth_service, padded.encode())
        assert refusal_code(reply) == "bad_token"
        assert_still_serving(auth_service)

    def test_refused_connection_is_closed(self, auth_service):
        refusal, then = exchange(auth_service,
                                 encode_handshake("nope").encode()
                                 + b'{"kind":"ping"}\n', lines=2)
        assert refusal_code(refusal) == "bad_token"
        assert then == b""  # EOF: no service after a refusal


def test_deep_nesting_is_not_a_handshake_line():
    """A tokenless front end asks this of every line naming "fabric":
    nesting past json's depth makes the line a query, not a crash."""
    assert not is_handshake_line(
        '{"fabric": 1, "x": ' + "[" * 1200 + "]" * 1200 + "}")


class TestRouterHandshakeRefusals(TestHandshakeRefusals):
    FRONT = "router"


class TestFraming:
    FRONT = "service"

    def test_unterminated_giant_line_closes_cleanly(self, auth_service):
        """A line exceeding the stream limit (64 KiB) cannot be parsed or
        resynchronized past: the server drops the connection instead of
        crashing the reader task."""
        with socket.create_connection(auth_service, timeout=10) as sock:
            try:
                sock.sendall(b"a" * (128 * 1024))
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # server already dropped us: equally fine
            assert sock.makefile("rb").readline() == b""
        assert_still_serving(auth_service)

    def test_truncated_handshake_then_close(self, auth_service):
        """A client dying mid-handshake-line leaves nothing to answer."""
        half = encode_handshake(TOKEN).encode()[:10]
        with socket.create_connection(auth_service, timeout=10) as sock:
            sock.sendall(half)
            sock.shutdown(socket.SHUT_WR)
            assert sock.makefile("rb").readline() == b""
        assert_still_serving(auth_service)

    def test_empty_lines_before_handshake_are_ignored(self, auth_service):
        payload = b"\n\n" + encode_handshake(TOKEN).encode()
        hello, = exchange(auth_service, payload)
        assert json.loads(hello)["ok"] is True


class TestRouterFraming(TestFraming):
    FRONT = "router"


class TestPerTokenRate:
    FRONT = "service"

    def test_second_immediate_query_is_rate_limited(self):
        with hosted(self.FRONT, token=TOKEN, auth_rate=0.001,
                    auth_burst=1.0) as address:
            with ServeClient(*address, token=TOKEN) as client:
                first = client.query("ping")
                second = client.query("ping")
        assert first.ok
        assert not second.ok
        assert second.error["code"] == "rate_limited"
        assert second.shard_id == IDENTITY[self.FRONT]


class TestRouterPerTokenRate(TestPerTokenRate):
    FRONT = "router"


class TestClientErrors:
    def test_conn_error_names_shard_and_retry_budget(self):
        exc = ServeConnectionError("h", 7341, "perf", "reset by peer",
                                   shard_id="s1", retry_count=2)
        assert exc.code == "conn_dropped"
        assert "shard s1" in exc.message
        assert "2 retries" in exc.message
        assert (exc.shard_id, exc.retry_count) == ("s1", 2)

    def test_conn_error_minimal_form(self):
        exc = _SCE("h", 7341, "ping", "boom")
        assert "shard" not in exc.message
        assert "retr" not in exc.message

    def test_connect_refused_surfaces_as_typed_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServeClient("127.0.0.1", port, retries=0)
        with pytest.raises(ServeConnectionError) as excinfo:
            client.query("ping")
        assert excinfo.value.code == "conn_dropped"
        assert excinfo.value.kind == "ping"

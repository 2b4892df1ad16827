"""``repro.serve`` — the async characterization-query service.

The batch CLI answers the paper's questions once per invocation; this
subsystem serves them continuously: a JSON-lines request/response
protocol over typed query kinds (``perf``, ``quadrant``, ``accuracy``,
``edp``, ``roofline``, ``whatif``, ``observations``, plus service-level
``metrics``/``ping``), an asyncio pipeline that coalesces identical
in-flight queries by content key, batches compatible perf queries into
one task-graph run, and runs model work on a bounded process pool;
admission control (queue-depth cap, token-bucket rate limiting,
per-kind circuit breakers degrading to last-good answers marked stale);
and per-request trace spans with rolling latency histograms exported as
a ``metrics`` snapshot.

Entry points: ``repro serve`` (TCP server), ``repro query`` (one-shot
client, ``--local`` for in-process), ``repro loadgen`` (closed-loop load
harness).  Protocol and degradation semantics: docs/SERVE.md.
"""

from .admission import AdmissionController, CircuitBreaker, TokenBucket
from .client import ServeClient, ServeConnectionError
from .frontend import require_loopback_or_token
from .loadgen import (
    DEFAULT_MIX,
    HostedService,
    format_loadgen_report,
    loadgen_failures,
    reference_digests,
    run_loadgen,
)
from .protocol import (
    ERROR_CODES,
    HANDSHAKE_MAX_BYTES,
    HANDSHAKE_VERSION,
    PROTOCOL_VERSION,
    ProtocolError,
    QUERY_KINDS,
    Request,
    Response,
    decode_handshake,
    decode_request,
    decode_response,
    encode_handshake,
    encode_request,
    encode_response,
    is_handshake_line,
    normalize_params,
)
from .queries import resolve_perf_batch, resolve_query
from .scheduler import ModelPool, Scheduler, query_key
from .server import CharacterizationService, ServeConfig, run_query_locally
from .telemetry import RollingHistogram, Telemetry, Trace

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "TokenBucket",
    "ServeClient",
    "ServeConnectionError",
    "DEFAULT_MIX",
    "HostedService",
    "format_loadgen_report",
    "loadgen_failures",
    "reference_digests",
    "run_loadgen",
    "ERROR_CODES",
    "HANDSHAKE_MAX_BYTES",
    "HANDSHAKE_VERSION",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QUERY_KINDS",
    "Request",
    "Response",
    "decode_handshake",
    "decode_request",
    "decode_response",
    "encode_handshake",
    "encode_request",
    "encode_response",
    "is_handshake_line",
    "normalize_params",
    "resolve_perf_batch",
    "resolve_query",
    "ModelPool",
    "Scheduler",
    "query_key",
    "CharacterizationService",
    "ServeConfig",
    "require_loopback_or_token",
    "run_query_locally",
    "RollingHistogram",
    "Telemetry",
    "Trace",
]

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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AdmissionController": "admission", "CircuitBreaker": "admission",
    "TokenBucket": "admission",
    "ServeClient": "client", "ServeConnectionError": "client",
    "require_loopback_or_token": "frontend",
    "DEFAULT_MIX": "loadgen", "HostedService": "loadgen",
    "format_loadgen_report": "loadgen", "loadgen_failures": "loadgen",
    "reference_digests": "loadgen", "run_loadgen": "loadgen",
    "ERROR_CODES": "protocol", "HANDSHAKE_MAX_BYTES": "protocol",
    "HANDSHAKE_VERSION": "protocol", "PROTOCOL_VERSION": "protocol",
    "ProtocolError": "protocol", "QUERY_KINDS": "protocol",
    "Request": "protocol", "Response": "protocol",
    "decode_handshake": "protocol", "decode_request": "protocol",
    "decode_response": "protocol", "encode_handshake": "protocol",
    "encode_request": "protocol", "encode_response": "protocol",
    "is_handshake_line": "protocol", "normalize_params": "protocol",
    "resolve_perf_batch": "queries", "resolve_query": "queries",
    "ModelPool": "scheduler", "Scheduler": "scheduler",
    "query_key": "scheduler",
    "CharacterizationService": "server", "ServeConfig": "server",
    "run_query_locally": "server",
    "RollingHistogram": "telemetry", "Telemetry": "telemetry",
    "Trace": "telemetry",
})

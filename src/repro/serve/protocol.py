"""JSON-lines wire protocol of the characterization-query service.

One request per line, one response per line.  A request is::

    {"id": "q1", "kind": "perf", "params": {...},
     "deadline_s": 5.0, "fresh": false}

``kind`` selects a typed query (see :data:`QUERY_KINDS`); ``params`` are
validated and *normalized* here — defaults filled in, unknown keys
rejected — so that two requests meaning the same thing have the same
canonical params and therefore the same coalescing key
(:func:`repro.perf.cache.content_key` over the normalized form).
``fresh: true`` bypasses the served-result cache (the model still runs
deterministically, so the answer is bit-identical either way).

A response echoes the request id::

    {"id": "q1", "ok": true, "result": ..., "served_by": "model",
     "stale": false, "trace": {"queue_s": ..., "resolve_s": ...,
     "model_s": ...}}

or, on failure, ``ok: false`` with ``error: {code, message}`` where
``code`` is one of :data:`ERROR_CODES`.  ``served_by`` says how the
answer was produced (``model`` / ``coalesced`` / ``cache`` / ``stale``);
``stale: true`` marks a degraded answer served from the last-good store
while the model path is failing or over deadline.

Floats survive the wire bit-exactly: ``json`` serializes with
``repr``-shortest round-tripping, so a served number equals the directly
computed one — the bit-identity contract the test suite asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..gpu.specs import ALL_GPUS, get_gpu
from ..kernels.base import workload_names

__all__ = [
    "ERROR_CODES",
    "HANDSHAKE_MAX_BYTES",
    "HANDSHAKE_VERSION",
    "PROTOCOL_VERSION",
    "REPLY_MAX_BYTES",
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
    "names_shard",
    "normalize_params",
]

PROTOCOL_VERSION = 1

#: version of the authentication handshake frame (independent of the
#: query protocol so auth can evolve without invalidating query clients)
HANDSHAKE_VERSION = 1

#: hard cap on a handshake line — tokens are short; anything longer is
#: refused before being inspected further
HANDSHAKE_MAX_BYTES = 4096

#: the largest reply line a fabric router relays: a whole-suite ``perf``
#: answer on every GPU is ~160 KB, so this leaves wide headroom while
#: still bounding what one reply may buffer
REPLY_MAX_BYTES = 4 << 20

#: every error code a response may carry
ERROR_CODES = frozenset({
    "bad_request",       # unparseable line / malformed envelope
    "unknown_kind",      # kind not in QUERY_KINDS
    "bad_params",        # params failed validation
    "overloaded",        # admission queue-depth cap hit
    "rate_limited",      # token bucket empty
    "deadline_exceeded", # per-query deadline passed, no degraded answer
    "circuit_open",      # breaker open and no stale answer to degrade to
    "model_error",       # resolver raised
    "internal",          # anything else server-side
    "auth_required",     # token-protected server: no handshake yet
    "bad_token",         # handshake carried a wrong/ill-formed token
    "shard_unavailable", # router: no shard could answer (all owners down)
    "reply_too_large",   # router: a shard reply exceeds REPLY_MAX_BYTES
    "conn_dropped",      # client-side: the connection died mid-query
                         # (never sent by the server; raised locally by
                         # ServeClient, and retried when retries remain)
})

_DEFAULT_GPUS = [g.name for g in ALL_GPUS]


class ProtocolError(Exception):
    """A request that cannot be served, with its wire error code."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------- params

def _require(params: Mapping[str, Any], allowed: set[str], kind: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise ProtocolError(
            "bad_params",
            f"{kind}: unknown parameter(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")


def _norm_workload(name: Any, kind: str) -> str:
    known = workload_names()
    if not isinstance(name, str) or name not in known:
        raise ProtocolError(
            "bad_params",
            f"{kind}: workload must be one of {known}, got {name!r}")
    return name


def _norm_workload_list(names: Any, kind: str) -> list[str] | None:
    if names is None:
        return None
    if not isinstance(names, (list, tuple)) or not names:
        raise ProtocolError(
            "bad_params", f"{kind}: workloads must be a non-empty list")
    return [_norm_workload(n, kind) for n in names]


def _norm_gpu(name: Any, kind: str) -> str:
    if not isinstance(name, str):
        raise ProtocolError("bad_params", f"{kind}: gpu must be a string")
    try:
        return get_gpu(name).name
    except (KeyError, ValueError) as exc:
        raise ProtocolError(
            "bad_params",
            f"{kind}: unknown gpu {name!r} (known: {_DEFAULT_GPUS})"
        ) from exc


def _norm_gpu_list(names: Any, kind: str) -> list[str]:
    if names is None:
        return list(_DEFAULT_GPUS)
    if not isinstance(names, (list, tuple)) or not names:
        raise ProtocolError(
            "bad_params", f"{kind}: gpus must be a non-empty list")
    return [_norm_gpu(n, kind) for n in names]


def _norm_perf(p: Mapping[str, Any]) -> dict[str, Any]:
    _require(p, {"workloads", "gpus"}, "perf")
    return {"workloads": _norm_workload_list(p.get("workloads"), "perf"),
            "gpus": _norm_gpu_list(p.get("gpus"), "perf")}


def _norm_quadrant(p: Mapping[str, Any]) -> dict[str, Any]:
    _require(p, {"workload"}, "quadrant")
    if "workload" not in p:
        raise ProtocolError("bad_params", "quadrant: workload is required")
    return {"workload": _norm_workload(p["workload"], "quadrant")}


def _norm_accuracy(p: Mapping[str, Any]) -> dict[str, Any]:
    _require(p, {"workload", "gpu"}, "accuracy")
    if "workload" not in p:
        raise ProtocolError("bad_params", "accuracy: workload is required")
    return {"workload": _norm_workload(p["workload"], "accuracy"),
            "gpu": _norm_gpu(p.get("gpu", "H200"), "accuracy")}


def _norm_edp(p: Mapping[str, Any]) -> dict[str, Any]:
    _require(p, {"workload", "gpu", "repeats"}, "edp")
    if "workload" not in p:
        raise ProtocolError("bad_params", "edp: workload is required")
    repeats = p.get("repeats")
    if repeats is not None and (not isinstance(repeats, int)
                                or isinstance(repeats, bool) or repeats < 1):
        raise ProtocolError("bad_params", "edp: repeats must be an int >= 1")
    return {"workload": _norm_workload(p["workload"], "edp"),
            "gpu": _norm_gpu(p.get("gpu", "H200"), "edp"),
            "repeats": repeats}


def _norm_roofline(p: Mapping[str, Any]) -> dict[str, Any]:
    _require(p, {"workloads", "gpu"}, "roofline")
    return {"workloads": _norm_workload_list(p.get("workloads"), "roofline"),
            "gpu": _norm_gpu(p.get("gpu", "H200"), "roofline")}


_WHATIF_SCALABLE = {"tc_fp64", "cc_fp64", "tc_fp16", "tc_b1", "dram_bw",
                    "l1_bw", "launch_overhead_s", "stage_latency_s"}


def _norm_whatif(p: Mapping[str, Any]) -> dict[str, Any]:
    _require(p, {"base", "scales", "workloads", "variant"}, "whatif")
    scales = p.get("scales")
    if not isinstance(scales, Mapping) or not scales:
        raise ProtocolError(
            "bad_params",
            "whatif: scales must be a non-empty {resource: factor} map")
    out_scales: dict[str, float] = {}
    for key in sorted(scales):
        if key not in _WHATIF_SCALABLE:
            raise ProtocolError(
                "bad_params",
                f"whatif: cannot scale {key!r}; "
                f"scalable: {sorted(_WHATIF_SCALABLE)}")
        factor = scales[key]
        if not isinstance(factor, (int, float)) or isinstance(factor, bool) \
                or factor <= 0:
            raise ProtocolError(
                "bad_params", f"whatif: scale for {key} must be > 0")
        out_scales[key] = float(factor)
    variant = p.get("variant", "tc")
    if variant not in ("tc", "cc", "cce", "baseline"):
        raise ProtocolError(
            "bad_params", f"whatif: unknown variant {variant!r}")
    return {"base": _norm_gpu(p.get("base", "B200"), "whatif"),
            "scales": out_scales,
            "workloads": _norm_workload_list(p.get("workloads"), "whatif"),
            "variant": variant}


def _norm_empty(kind: str) -> Callable[[Mapping[str, Any]], dict[str, Any]]:
    def norm(p: Mapping[str, Any]) -> dict[str, Any]:
        _require(p, set(), kind)
        return {}
    return norm


#: kind -> params normalizer.  ``metrics``/``ping`` are service-level and
#: never reach the model pool.
QUERY_KINDS: dict[str, Callable[[Mapping[str, Any]], dict[str, Any]]] = {
    "perf": _norm_perf,
    "quadrant": _norm_quadrant,
    "accuracy": _norm_accuracy,
    "edp": _norm_edp,
    "roofline": _norm_roofline,
    "whatif": _norm_whatif,
    "observations": _norm_empty("observations"),
    "metrics": _norm_empty("metrics"),
    "ping": _norm_empty("ping"),
}


def normalize_params(kind: str, params: Mapping[str, Any] | None
                     ) -> dict[str, Any]:
    """Validate ``params`` for ``kind`` and fill canonical defaults."""
    if kind not in QUERY_KINDS:
        raise ProtocolError(
            "unknown_kind",
            f"unknown query kind {kind!r}; known: {sorted(QUERY_KINDS)}")
    if params is None:
        params = {}
    if not isinstance(params, Mapping):
        raise ProtocolError("bad_params", "params must be an object")
    return QUERY_KINDS[kind](params)


# -------------------------------------------------------------- handshake

def encode_handshake(token: str) -> str:
    """The authentication frame a client sends as its first line."""
    return json.dumps({"fabric": HANDSHAKE_VERSION, "token": token},
                      separators=(",", ":")) + "\n"


def decode_handshake(line: str) -> str:
    """Validate one handshake line and return its token.

    Raises :class:`ProtocolError` with ``auth_required`` when the line is
    not a handshake at all (so a token-protected server can refuse a bare
    query before parsing it) and ``bad_token`` when it is a handshake but
    an unacceptable one (oversized, wrong version, ill-formed token).
    """
    if len(line) > HANDSHAKE_MAX_BYTES:
        raise ProtocolError(
            "bad_token",
            f"handshake line exceeds {HANDSHAKE_MAX_BYTES} bytes")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        raise ProtocolError(
            "auth_required",
            "this server requires a fabric handshake as the first line") \
            from None
    if not isinstance(payload, dict) or "fabric" not in payload:
        raise ProtocolError(
            "auth_required",
            "this server requires a fabric handshake as the first line")
    if payload.get("fabric") != HANDSHAKE_VERSION:
        raise ProtocolError(
            "bad_token",
            f"unsupported handshake version {payload.get('fabric')!r} "
            f"(speaking {HANDSHAKE_VERSION})")
    token = payload.get("token")
    if not isinstance(token, str) or not token:
        raise ProtocolError(
            "bad_token", "handshake token must be a non-empty string")
    return token


def is_handshake_line(text: str) -> bool:
    """Cheaply recognize a handshake frame (for tokenless servers)."""
    if '"fabric"' not in text[:64]:
        return False
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return False
    return isinstance(payload, dict) and "fabric" in payload


# -------------------------------------------------------------- envelopes

@dataclass(frozen=True)
class Request:
    """One decoded, validated query."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    id: str | None = None
    deadline_s: float | None = None
    #: bypass the served-result cache (the answer is bit-identical either
    #: way; this forces the model path — used by load tests)
    fresh: bool = False


@dataclass(frozen=True)
class Response:
    """One reply, mirroring the request id."""

    id: str | None
    ok: bool
    result: Any = None
    error: dict[str, str] | None = None
    #: model | coalesced | cache | store | stale | auth | router
    served_by: str = "model"
    stale: bool = False
    trace: dict[str, float] | None = None
    #: which shard produced the answer (None outside the fabric)
    shard_id: str | None = None
    #: dead owners the fabric router replayed past before this answer
    failover_replays: int = 0


def encode_request(req: Request) -> str:
    payload: dict[str, Any] = {"kind": req.kind, "params": req.params}
    if req.id is not None:
        payload["id"] = req.id
    if req.deadline_s is not None:
        payload["deadline_s"] = req.deadline_s
    if req.fresh:
        payload["fresh"] = True
    return json.dumps(payload, separators=(",", ":")) + "\n"


def decode_request(line: str) -> Request:
    """Parse and validate one request line (normalizing its params)."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad_request", f"unparseable JSON: {exc}") \
            from exc
    if not isinstance(payload, dict):
        raise ProtocolError("bad_request", "request must be a JSON object")
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise ProtocolError("bad_request", "request needs a string 'kind'")
    req_id = payload.get("id")
    if req_id is not None and not isinstance(req_id, str):
        raise ProtocolError("bad_request", "'id' must be a string")
    deadline = payload.get("deadline_s")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) \
                or isinstance(deadline, bool) or deadline <= 0:
            raise ProtocolError("bad_request", "'deadline_s' must be > 0")
        deadline = float(deadline)
    fresh = payload.get("fresh", False)
    if not isinstance(fresh, bool):
        raise ProtocolError("bad_request", "'fresh' must be a boolean")
    params = normalize_params(kind, payload.get("params"))
    return Request(kind=kind, params=params, id=req_id,
                   deadline_s=deadline, fresh=fresh)


def encode_response(resp: Response) -> str:
    payload: dict[str, Any] = {
        "id": resp.id,
        "ok": resp.ok,
        "served_by": resp.served_by,
        "stale": resp.stale,
    }
    if resp.ok:
        payload["result"] = resp.result
    else:
        payload["error"] = resp.error
    if resp.trace is not None:
        payload["trace"] = resp.trace
    if resp.shard_id is not None:
        payload["shard_id"] = resp.shard_id
    if resp.failover_replays:
        payload["failover_replays"] = resp.failover_replays
    return json.dumps(payload, separators=(",", ":")) + "\n"


def names_shard(line: bytes, shard_id: str) -> bool:
    """Whether an encoded response line already carries ``shard_id``.

    :func:`encode_response` writes ``shard_id`` as the last member of
    every reply a shard produces (only a router-stamped replay count may
    follow it), so a stamped line ends with that member.  The fabric
    router relays such a line as bytes, without parsing it.
    """
    return line.endswith(
        b',"shard_id":' + json.dumps(shard_id).encode() + b"}\n")


def decode_response(line: str) -> Response:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            "bad_request", f"unparseable response: {exc}") from exc
    if not isinstance(payload, dict) or "ok" not in payload:
        raise ProtocolError("bad_request", "malformed response envelope")
    return Response(
        id=payload.get("id"),
        ok=bool(payload["ok"]),
        result=payload.get("result"),
        error=payload.get("error"),
        served_by=payload.get("served_by", "model"),
        stale=bool(payload.get("stale", False)),
        trace=payload.get("trace"),
        shard_id=payload.get("shard_id"),
        failover_replays=payload.get("failover_replays", 0),
    )

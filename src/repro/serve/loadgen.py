"""Closed-loop load generator for the characterization service.

``repro loadgen`` drives N blocking clients (threads, one TCP connection
each) against a running server for a fixed duration.  Each client loops:
pick a query from the mix (deterministic per-client LCG, the repo's
fixed-seed discipline), send it, record the latency and how it was
served.  The run summary reports throughput, latency percentiles, the
reuse rate (answers served by coalescing, the served-result cache, or a
stale degrade — the "no new model work" fraction), and every protocol
error observed; the CLI turns errors or a p99 bound violation into a
non-zero exit so CI can gate on it.

``--self-host`` boots the full TCP service on an ephemeral port inside
this process (:class:`ServerHost`: event loop on a background thread)
and aims the clients at it — the zero-setup smoke mode CI uses.

``--chaos RATE`` layers the fault plan on top (docs/ROBUSTNESS.md):
connection drops, worker crashes, and cache corruption all fire at RATE
while ``verify`` digests every served answer against the in-process
deterministic reference — the chaos-smoke gate is *zero wrong answers
and a bounded retry rate* under sustained injected failure.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from typing import Any, Coroutine, Mapping, Sequence

from .client import ServeClient
from .protocol import ProtocolError, normalize_params
from .server import CharacterizationService, ServeConfig

__all__ = ["DEFAULT_MIX", "HostedService", "ServerHost",
           "format_loadgen_report", "loadgen_failures", "reference_digests",
           "run_loadgen"]

#: the repeated-query workload: the questions a practitioner actually
#: asks before an MMU port, all answerable from the analytic model
DEFAULT_MIX: tuple[tuple[str, dict[str, Any]], ...] = (
    ("quadrant", {"workload": "gemv"}),
    ("quadrant", {"workload": "spmv"}),
    ("perf", {"workloads": ["gemv"], "gpus": ["A100"]}),
    ("perf", {"workloads": ["scan"], "gpus": ["H200"]}),
    ("roofline", {"workloads": ["reduction"], "gpu": "H200"}),
    ("edp", {"workload": "reduction", "gpu": "H200"}),
    ("whatif", {"base": "B200", "scales": {"tc_fp64": 2.0},
                "workloads": ["gemm"]}),
)


#: longest a caller waits on the hosted loop (bind, kill, shutdown)
_HOST_TIMEOUT_S = 30.0


class ServerHost:
    """TCP servers on one background event loop.

    A server is anything with ``async start_tcp() -> (host, port)`` and
    ``async stop()``: a :class:`CharacterizationService` or a fabric
    router.  :meth:`serve` binds one on the loop and returns its address
    (re-raising a bind failure), :meth:`call` runs any other coroutine
    there, and :meth:`stop` stops the servers, last served first, then
    cancels what is left and closes the loop.

    Servers in one interpreter share the loop rather than each getting
    a loop thread: such threads never run Python in parallel, they only
    hand the interpreter lock to each other at every hop.  The price is
    that a blocking call on the loop stalls every hosted server.
    """

    def __init__(self) -> None:
        self._loop = asyncio.new_event_loop()
        self._servers: list[Any] = []
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-host")
        self._thread.start()

    def _run(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            for server in reversed(self._servers):
                loop.run_until_complete(server.stop())
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    def call(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Run ``coro`` on the loop; its result, or its exception."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout=_HOST_TIMEOUT_S)

    def serve(self, server: Any) -> tuple[str, int]:
        """Bind ``server`` on the loop; stopped again by :meth:`stop`."""
        address = self.call(server.start_tcp())
        self._servers.append(server)
        return address

    def stop(self) -> None:
        if not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=_HOST_TIMEOUT_S)


class HostedService:
    """A full TCP service on a :class:`ServerHost` (ephemeral port).

    ``address`` is valid once the context manager enters.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config if config is not None \
            else ServeConfig(port=0, pool_mode="thread")
        self.service: CharacterizationService | None = None
        self.address: tuple[str, int] | None = None
        self._host: ServerHost | None = None

    def start(self) -> tuple[str, int]:
        self._host = ServerHost()
        try:
            self.service = CharacterizationService(self.config)
            self.address = self._host.serve(self.service)
        except BaseException:
            self.stop()
            raise
        return self.address

    def stop(self) -> None:
        if self._host is not None:
            self._host.stop()

    def __enter__(self) -> "HostedService":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


class _ClientStats:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.served_by: dict[str, int] = {}
        self.kinds: dict[str, int] = {}
        self.shards: dict[str, int] = {}
        self.errors: list[str] = []
        self.retries = 0
        self.wrong_answers = 0


def _answer_digest(result: Any) -> str:
    """Canonical digest of one query answer (tuples == lists in JSON)."""
    return hashlib.sha256(
        json.dumps(result, sort_keys=True,
                   separators=(",", ":")).encode()).hexdigest()


def reference_digests(mix: Sequence[tuple[str, Mapping[str, Any]]]
                      ) -> dict[int, str]:
    """Ground-truth answer digest per mix entry, computed in-process.

    The model is deterministic, so the served answer must digest to
    exactly this — under any amount of injected chaos.  ``metrics`` (and
    other non-model kinds) have no fixed answer and are skipped.
    """
    from .queries import resolve_query

    digests: dict[int, str] = {}
    for i, (kind, params) in enumerate(mix):
        if kind in ("metrics", "ping"):
            continue
        digests[i] = _answer_digest(
            resolve_query(kind, normalize_params(kind, params)))
    return digests


def _lcg(seed: int):
    """The repo's deterministic LCG discipline, as a picker stream."""
    state = (seed * 2654435761 + 1013904223) & 0xFFFFFFFF
    while True:
        state = (state * 1664525 + 1013904223) & 0xFFFFFFFF
        yield state >> 8


def _client_loop(index: int, host: str, port: int, t_end: float,
                 mix: Sequence[tuple[str, Mapping[str, Any]]],
                 deadline_s: float | None, fresh: bool,
                 barrier: threading.Barrier, out: _ClientStats,
                 retries: int, expected: Mapping[int, str] | None,
                 token: str | None = None) -> None:
    picks = _lcg(index)
    try:
        barrier.wait(timeout=30)
    except threading.BrokenBarrierError:  # pragma: no cover - peer died
        return
    client = ServeClient(host, port, retries=retries, token=token)
    try:
        with client:
            while time.monotonic() < t_end:
                pick = next(picks) % len(mix)
                kind, params = mix[pick]
                t0 = time.perf_counter()
                try:
                    resp = client.query(kind, params,
                                        deadline_s=deadline_s, fresh=fresh)
                except ProtocolError as exc:
                    out.errors.append(f"{kind}: [{exc.code}] {exc.message}")
                    return
                out.latencies.append(time.perf_counter() - t0)
                out.kinds[kind] = out.kinds.get(kind, 0) + 1
                if resp.shard_id is not None:
                    out.shards[resp.shard_id] = \
                        out.shards.get(resp.shard_id, 0) + 1
                if resp.ok:
                    out.served_by[resp.served_by] = \
                        out.served_by.get(resp.served_by, 0) + 1
                    if expected is not None and pick in expected \
                            and _answer_digest(resp.result) != expected[pick]:
                        out.wrong_answers += 1
                        out.errors.append(
                            f"{kind}: WRONG ANSWER (digest mismatch vs "
                            f"the in-process reference)")
                else:
                    err = resp.error or {}
                    out.errors.append(
                        f"{kind}: [{err.get('code', '?')}] "
                        f"{err.get('message', '')}")
    except (OSError, ProtocolError) as exc:
        out.errors.append(f"client {index}: {exc}")
    finally:
        out.retries = client.retry_count


def _percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    rank = max(int(q * len(ordered) + 0.999999), 1)
    return ordered[min(rank, len(ordered)) - 1]


def run_loadgen(host: str, port: int, *, clients: int = 8,
                duration_s: float = 10.0,
                mix: Sequence[tuple[str, Mapping[str, Any]]] = DEFAULT_MIX,
                deadline_s: float | None = None,
                fresh: bool = False, verify: bool = False,
                client_retries: int = 2,
                token: str | None = None) -> dict[str, Any]:
    """Drive the server and summarize the run (see module docstring).

    ``verify`` digests every OK answer against an in-process reference
    computation — the chaos gate's "zero wrong answers" check.
    ``client_retries`` is each client's dropped-connection retry budget
    (raise it when driving a server with ``serve.conn_drop`` injected).
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    expected = reference_digests(mix) if verify else None
    stats = [_ClientStats() for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)
    t_end = time.monotonic() + duration_s
    threads = [
        threading.Thread(target=_client_loop,
                         args=(i, host, port, t_end, mix, deadline_s,
                               fresh, barrier, stats[i], client_retries,
                               expected, token),
                         name=f"repro-loadgen-{i}", daemon=True)
        for i in range(clients)]
    for t in threads:
        t.start()
    barrier.wait(timeout=30)
    t0 = time.monotonic()
    for t in threads:
        t.join(timeout=duration_s + 60)
    wall = time.monotonic() - t0

    latencies = sorted(x for s in stats for x in s.latencies)
    errors = [e for s in stats for e in s.errors]
    served_by: dict[str, int] = {}
    kinds: dict[str, int] = {}
    shards: dict[str, int] = {}
    for s in stats:
        for k, v in s.served_by.items():
            served_by[k] = served_by.get(k, 0) + v
        for k, v in s.kinds.items():
            kinds[k] = kinds.get(k, 0) + v
        for k, v in s.shards.items():
            shards[k] = shards.get(k, 0) + v
    total = len(latencies)
    reused = sum(served_by.get(k, 0)
                 for k in ("cache", "coalesced", "stale"))
    retries = sum(s.retries for s in stats)
    wrong = sum(s.wrong_answers for s in stats)

    metrics: dict[str, Any] | None = None
    try:
        with ServeClient(host, port, token=token) as client:
            resp = client.query("metrics")
            if resp.ok:
                metrics = resp.result
    except (OSError, ProtocolError):  # pragma: no cover - server gone
        pass

    return {
        "clients": clients,
        "duration_s": wall,
        "requests": total,
        "errors": len(errors),
        "error_samples": errors[:8],
        "throughput_qps": (total / wall) if wall > 0 else 0.0,
        "reuse_rate": (reused / total) if total else 0.0,
        "retries": retries,
        "retry_rate": (retries / total) if total else 0.0,
        "wrong_answers": wrong,
        "verified": verify,
        "served_by": dict(sorted(served_by.items())),
        "kinds": dict(sorted(kinds.items())),
        "shards": dict(sorted(shards.items())),
        "latency": {
            "p50_s": _percentile(latencies, 0.50),
            "p95_s": _percentile(latencies, 0.95),
            "p99_s": _percentile(latencies, 0.99),
            "max_s": latencies[-1] if latencies else 0.0,
        },
        "server_metrics": metrics,
    }


def loadgen_failures(summary: Mapping[str, Any],
                     p99_max_s: float | None = None,
                     min_reuse_rate: float | None = None,
                     max_retry_rate: float | None = None) -> list[str]:
    """The CI gate: reasons this run should fail the build."""
    failures = []
    if summary["requests"] == 0:
        failures.append("no requests completed")
    if summary.get("wrong_answers"):
        failures.append(
            f"{summary['wrong_answers']} WRONG answer(s): a served result "
            f"diverged from the deterministic reference")
    if summary["errors"]:
        failures.append(
            f"{summary['errors']} protocol error(s), e.g. "
            f"{summary['error_samples'][:1]}")
    if max_retry_rate is not None \
            and summary.get("retry_rate", 0.0) > max_retry_rate:
        failures.append(
            f"retry rate {summary['retry_rate']:.2%} exceeds bound "
            f"{max_retry_rate:.2%} (recovery is thrashing)")
    if p99_max_s is not None \
            and summary["latency"]["p99_s"] > p99_max_s:
        failures.append(
            f"p99 {summary['latency']['p99_s']:.3f}s exceeds bound "
            f"{p99_max_s:.3f}s")
    if min_reuse_rate is not None \
            and summary["reuse_rate"] < min_reuse_rate:
        failures.append(
            f"reuse rate {summary['reuse_rate']:.2%} below "
            f"{min_reuse_rate:.2%}")
    return failures


def format_loadgen_report(summary: Mapping[str, Any]) -> str:
    """Human-readable run summary for the CLI."""
    from ..harness.report import format_table

    lat = summary["latency"]
    rows = [
        ["clients", summary["clients"]],
        ["duration", f"{summary['duration_s']:.2f} s"],
        ["requests", summary["requests"]],
        ["errors", summary["errors"]],
        ["throughput", f"{summary['throughput_qps']:.1f} q/s"],
        ["reuse rate", f"{summary['reuse_rate']:.2%}"],
        ["conn retries", f"{summary.get('retries', 0)} "
                         f"({summary.get('retry_rate', 0.0):.2%})"],
        ["verified answers",
         ("yes, %d wrong" % summary.get("wrong_answers", 0))
         if summary.get("verified") else "off"],
        ["p50 / p95 / p99",
         f"{lat['p50_s'] * 1e3:.2f} / {lat['p95_s'] * 1e3:.2f} / "
         f"{lat['p99_s'] * 1e3:.2f} ms"],
        ["max latency", f"{lat['max_s'] * 1e3:.2f} ms"],
    ]
    for served, count in summary["served_by"].items():
        rows.append([f"served by {served}", count])
    for shard, count in summary.get("shards", {}).items():
        rows.append([f"shard {shard}", count])
    return format_table(["metric", "value"], rows,
                        title="loadgen: closed-loop run summary")

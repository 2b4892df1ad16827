"""Load generation for ``serve_zipf``: service handle, open and closed loops.

The load comes from this one process with at most two client threads,
each holding one connection (:class:`repro.serve.client.ServeClient`,
the public wire client).  Every answer is digested and compared with the
in-process reference answer of its query.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.common import ROOT, child_env, digest

#: client threads (and connections) of every loop
CLIENTS = 2
#: longest wait for one service control reply (boot included)
REPLY_S = 60.0


class Service:
    """A ``perfbench.service`` process and its stdin/stdout control line."""

    def __init__(self, cache_dir: Path, log: Path,
                 trace_dir: Path | None = None) -> None:
        cmd = [sys.executable, "-m", "perfbench.service"]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        self._log = open(log, "w")
        self.t_spawn = time.time()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(cache_dir), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log)
        try:
            self.ready = self._read()
        except BaseException:
            self.close()
            raise
        self.router = tuple(self.ready["router"])
        self.shards = {sid: tuple(addr)
                       for sid, addr in self.ready["shards"].items()}

    def _read(self) -> dict[str, Any]:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"service gave no reply (rc={self.proc.poll()}); see "
                f"{self._log.name}")
        return json.loads(line)

    def _ask(self, cmd: str) -> dict[str, Any]:
        assert self.proc.stdin is not None
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self._read()

    def mark(self) -> dict[str, Any]:
        """CPU seconds and peak RSS of the service process so far."""
        return self._ask("mark")

    def stop(self) -> dict[str, Any]:
        final = self._ask("stop")
        self.proc.wait(timeout=30)
        self.close()
        return final

    def close(self) -> None:
        """Kill the process if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        self._log.close()


@dataclass
class Outcome:
    """What one loop observed, request by request."""

    latency_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    served_by: list[str] = field(default_factory=list)
    server_s: list[float] = field(default_factory=list)
    #: server-side phase -> seconds summed over the replies' traces
    #: (``resolve``, ``queue``, ``model``, ``total``)
    phase_s: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, latency: float, late: float, resp: Any,
               ok: bool, what: str) -> None:
        with self.lock:
            self.attempted += 1
            self.latency_s.append(latency)
            self.late_s.append(late)
            if resp is not None:
                trace = resp.trace or {}
                self.served_by.append(resp.served_by)
                self.server_s.append(trace.get("total_s", 0.0))
                for name, seconds in trace.items():
                    phase = name.removesuffix("_s")
                    self.phase_s[phase] = self.phase_s.get(phase, 0.0) \
                        + seconds
            if not ok:
                self.errors.append(what)


def _ask(client: Any, query: tuple[str, dict], want: str
         ) -> tuple[Any, bool, str]:
    """One query; (response or None, answer correct, error text)."""
    from repro.serve.protocol import ProtocolError
    kind, params = query
    try:
        resp = client.query(kind, params)
    except (OSError, ProtocolError) as exc:
        return None, False, f"{kind}: {exc}"
    if not resp.ok:
        return resp, False, f"{kind}: {resp.error}"
    if digest(resp.result) != want:
        return resp, False, f"{kind}: WRONG ANSWER"
    return resp, True, ""


def _client(addr: tuple[str, int]) -> Any:
    from repro.serve.client import ServeClient
    return ServeClient(addr[0], addr[1], retries=0, timeout_s=60.0)


def _run_threads(target, n: int) -> None:
    threads = [threading.Thread(target=target, args=(k,), daemon=True)
               for k in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170)
        if t.is_alive():
            raise RuntimeError("a load client did not finish")


def closed_loop(addr: tuple[str, int], queries: list[tuple[str, dict]],
                expected: list[str]) -> Outcome:
    """``CLIENTS`` callers, each sending its next request only after the
    previous reply, over a fixed request list."""
    out = Outcome()
    cursor = iter(range(len(queries)))
    take = threading.Lock()

    def worker(_: int) -> None:
        with _client(addr) as client:
            while True:
                with take:
                    i = next(cursor, None)
                if i is None:
                    return
                t0 = time.perf_counter()
                resp, ok, what = _ask(client, queries[i], expected[i])
                out.record(time.perf_counter() - t0, 0.0, resp, ok, what)

    t0 = time.perf_counter()
    _run_threads(worker, CLIENTS)
    out.wall_s = time.perf_counter() - t0
    return out


def open_loop(addr: tuple[str, int], queries: list[tuple[str, dict]],
              expected: list[str], rate_qps: float) -> Outcome:
    """Requests due at a fixed offered rate, whatever the replies do.

    Request ``i`` is due at ``start + i / rate`` and is sent by client
    ``i % CLIENTS``; latency runs from the due time, so a stall also
    charges the requests queued behind it, and ``late_s`` records how
    far behind schedule each send went out.
    """
    out = Outcome()
    start = time.perf_counter() + 0.05

    def worker(k: int) -> None:
        with _client(addr) as client:
            for i in range(k, len(queries), CLIENTS):
                due = start + i / rate_qps
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                resp, ok, what = _ask(client, queries[i], expected[i])
                out.record(time.perf_counter() - due, sent - due, resp, ok,
                           what)

    _run_threads(worker, CLIENTS)
    out.wall_s = time.perf_counter() - start
    return out


def hop_probe(service: Service, queries: list[tuple[str, dict]],
              expected: list[str]) -> tuple[float, float, list[str]]:
    """The same (cached) queries through the router and straight to the
    shard that owns them; returns (router p50 s, direct p50 s, errors)."""
    from perfbench.common import median
    via_router, direct, errors = [], [], []
    clients = {sid: _client(addr) for sid, addr in service.shards.items()}
    try:
        with _client(service.router) as router:
            for query, want in zip(queries, expected):
                t0 = time.perf_counter()
                resp, ok, what = _ask(router, query, want)
                via_router.append(time.perf_counter() - t0)
                if not ok:
                    errors.append(what)
                    continue
                t0 = time.perf_counter()
                _, ok, what = _ask(clients[resp.shard_id], query, want)
                direct.append(time.perf_counter() - t0)
                if not ok:
                    errors.append(what)
    finally:
        for client in clients.values():
            client.close()
    return median(via_router), median(direct), errors


def router_counters(service: Service) -> dict[str, int]:
    """The router's own counters (its ``metrics`` answer)."""
    with _client(service.router) as client:
        resp = client.query("metrics")
    return resp.result["router"]["counters"] if resp.ok else {}

"""Fabric assembly: shard processes, or shards and router in-process.

Two ways to stand a fabric up:

* :func:`spawn_local_shards` launches N real ``repro serve`` *processes*
  (``python -m repro serve --port 0 ...``), parses each one's listen
  banner for the ephemeral port, and returns their
  :class:`~repro.fabric.router.ShardSpec` list — what ``repro fabric
  start`` runs in production shape.
* :class:`HostedFabric` runs N in-process shard services (thread-pool
  model workers) behind an in-process router, all on one background
  event loop — the zero-setup shape the tests and ``repro loadgen
  --router`` use, with :meth:`HostedFabric.kill_shard` as the failover
  drill trigger.

Both shapes speak the same wire protocol through the same router code,
so a drill passing against ``HostedFabric`` exercises the code paths the
process deployment runs.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from ..serve.loadgen import ServerHost
from ..serve.protocol import normalize_params
from ..serve.scheduler import query_key
from ..serve.server import CharacterizationService, ServeConfig
from .router import FabricRouter, RouterConfig, ShardSpec

__all__ = ["HostedFabric", "spawn_local_shards", "terminate_shards"]

#: matches the ``repro serve`` listen banner to learn the bound port
_BANNER_RE = re.compile(r"listening on ([^\s:]+):(\d+)")


class HostedFabric:
    """N in-process shards behind an in-process router (tests, loadgen).

    Every shard is a full :class:`CharacterizationService` (thread model
    pool, its own listener, port and caches); the router
    consistent-hashes across them over loopback TCP exactly as it would
    across processes.  The shards and the router share one background
    event loop (:class:`~repro.serve.loadgen.ServerHost`), so a blocking
    call on it — the persisted-store disk read under ``persist`` is the
    only one — delays the router and every shard.  ``address`` is the
    router endpoint once started.
    """

    def __init__(self, shards: int = 3, *, token: str | None = None,
                 persist: bool = False, store_dir: str | None = None,
                 probe_interval_s: float = 0.25,
                 shard_workers: int = 2) -> None:
        if shards < 1:
            raise ValueError("a fabric needs at least one shard")
        self._configs = [
            ServeConfig(host="127.0.0.1", port=0, pool_mode="thread",
                        workers=shard_workers, shard_id=f"s{i}", token=token,
                        persist=persist, store_dir=store_dir)
            for i in range(shards)]
        self._router_config = RouterConfig(
            host="127.0.0.1", port=0, token=token,
            probe_interval_s=probe_interval_s)
        self._host: ServerHost | None = None
        self._shards: dict[str, CharacterizationService] = {}
        self.router: FabricRouter | None = None
        self.address: tuple[str, int] | None = None

    def start(self) -> tuple[str, int]:
        self._host = ServerHost()
        specs = []
        try:
            for config in self._configs:
                service = CharacterizationService(config)
                host, port = self._host.serve(service)
                self._shards[config.shard_id] = service
                specs.append(ShardSpec(config.shard_id, host, port))
            self.router = FabricRouter(specs, self._router_config)
            self.address = self._host.serve(self.router)
        except BaseException:
            self.stop()
            raise
        return self.address

    def stop(self) -> None:
        if self._host is not None:
            self._host.stop()

    def kill_shard(self, shard_id: str) -> None:
        """Abruptly kill one shard (connections reset, no drain).

        The shared loop keeps running: the router and the other shards
        go on serving, and the victim's keys fail over to the next
        owners.
        """
        assert self._host is not None, "fabric not started"
        self._host.call(self._shards[shard_id].abort())

    def owner_of(self, kind: str, params: dict[str, Any] | None) -> str:
        """Which shard currently owns this query (the drill's victim)."""
        assert self.router is not None, "fabric not started"
        key = query_key(kind, normalize_params(kind, params))
        owner = self.router.ring.owner(key, self.router.alive_ids())
        assert owner is not None
        return owner

    def __enter__(self) -> "HostedFabric":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


# ------------------------------------------------------------- processes

def _await_banner(proc: subprocess.Popen, shard_id: str,
                  timeout_s: float) -> tuple[str, int]:
    """Read the shard's stdout until the listen banner names its port."""
    deadline = time.monotonic() + timeout_s
    collected: list[str] = []
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"shard {shard_id} exited with {proc.returncode} before "
                f"listening; output: {''.join(collected)[-2000:]!r}")
        ready, _, _ = select.select([proc.stdout], [], [], 0.25)
        if not ready:
            continue
        line = proc.stdout.readline()
        if not line:
            continue
        collected.append(line)
        match = _BANNER_RE.search(line)
        if match:
            return match.group(1), int(match.group(2))
    raise RuntimeError(
        f"shard {shard_id} did not report a listen address within "
        f"{timeout_s:.0f}s; output: {''.join(collected)[-2000:]!r}")


def spawn_local_shards(count: int, *, token: str | None = None,
                       store_dir: str | None = None,
                       pool: str = "process", workers: int = 2,
                       timeout_s: float = 60.0
                       ) -> tuple[list[subprocess.Popen],
                                  list[ShardSpec]]:
    """Launch N ``repro serve`` shard processes on ephemeral ports.

    The token travels via ``REPRO_SERVE_TOKEN`` (not argv, which is
    world-readable in a process listing).  Persistence is always on —
    the shards share ``store_dir`` so failover peers and restarts warm
    from each other's answers.
    """
    if count < 1:
        raise ValueError("a fabric needs at least one shard")
    env = dict(os.environ)
    # make the repro package importable in the children regardless of
    # how this process found it
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_root + (
            os.pathsep + existing if existing else "")
    if token is not None:
        env["REPRO_SERVE_TOKEN"] = token
    procs: list[subprocess.Popen] = []
    specs: list[ShardSpec] = []
    try:
        for i in range(count):
            shard_id = f"s{i}"
            cmd = [sys.executable, "-m", "repro", "serve",
                   "--host", "127.0.0.1", "--port", "0",
                   "--shard-id", shard_id, "--pool", pool,
                   "--workers", str(workers), "--persist"]
            if store_dir is not None:
                cmd += ["--store-dir", store_dir]
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=env)
            procs.append(proc)
            host, port = _await_banner(proc, shard_id, timeout_s)
            specs.append(ShardSpec(shard_id, host, port))
    except BaseException:
        terminate_shards(procs)
        raise
    return procs, specs


def terminate_shards(procs: list[subprocess.Popen],
                     timeout_s: float = 10.0) -> None:
    """SIGTERM every shard (they drain), escalating to SIGKILL."""
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    deadline = time.monotonic() + timeout_s
    for proc in procs:
        remaining = max(0.1, deadline - time.monotonic())
        try:
            proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5)

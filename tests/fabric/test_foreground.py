"""``repro fabric start`` in its process shape, stopped by SIGTERM.

The foreground runner that ``repro serve`` and ``repro fabric start``
share, driven as a user runs it: a router process over two ``repro
serve`` shard processes.  The stop must not wait on the idle client
that is still connected (Python 3.12's ``Server.wait_closed`` waits for
live connections), and must take the shard processes down with it.
"""

import os
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fabric.cluster import _await_banner
from repro.serve import ServeClient

SRC = str(Path(__file__).resolve().parents[2] / "src")
#: one ``repro fabric status`` table row: shard, host, port, health
STATUS_ROW = re.compile(r"^(s\d+)\s+(\S+)\s+(\d+)\s+(up|DOWN)\s*$", re.M)


def _env() -> dict:
    env = dict(os.environ)
    # the banners must reach the pipes without the environment's help
    env.pop("PYTHONUNBUFFERED", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return env


def _refuses(host: str, port: int) -> bool:
    try:
        socket.create_connection((host, port), timeout=2).close()
    except ConnectionRefusedError:
        return True
    return False


def test_fabric_start_serves_then_stops_on_sigterm(tmp_path):
    env = _env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fabric", "start", "--shards", "2",
         "--port", "0", "--pool", "thread", "--workers", "1",
         "--store-dir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, start_new_session=True)
    try:
        host, port = _await_banner(proc, "router", timeout_s=60)
        status = subprocess.run(
            [sys.executable, "-m", "repro", "fabric", "status",
             "--port", str(port)],
            capture_output=True, text=True, env=env, timeout=60)
        assert status.returncode == 0, status.stdout + status.stderr
        shards = {sid: (h, int(p)) for sid, h, p, health
                  in STATUS_ROW.findall(status.stdout) if health == "up"}
        assert sorted(shards) == ["s0", "s1"], status.stdout

        with ServeClient(host, port) as idle:
            assert idle.query("ping").result == "pong"
            answer = idle.query("quadrant", {"workload": "gemv"})
            assert answer.ok, answer.error
            assert answer.shard_id in shards
            # the client stays connected, idle, through the stop
            proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pytest.fail("repro fabric start did not exit within 15 s "
                            "of SIGTERM")
        assert code == 0, proc.stdout.read()
        for shard_host, shard_port in shards.values():
            assert _refuses(shard_host, shard_port)
    finally:
        # the router and its shards share a process group: take down
        # whatever a failed stop left behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
        proc.stdout.close()

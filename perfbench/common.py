"""Shared helpers: percentiles, digests, host fingerprint, child spawning.

Everything here is plain Python plus NumPy, importable without the
``repro`` package, so the benchmark's own tests can exercise it alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any

#: the checkout root (this file lives in ``<root>/perfbench/``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: worker count every workload passes explicitly (``n_jobs=2``)
N_JOBS = 2

#: metric names: a letter or digit first, then letters, digits, ``_.-``
METRIC_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")

#: percentiles the reporting rule may choose from, highest last
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: samples that must lie beyond a reported percentile
MIN_TAIL_SAMPLES = 10


# ------------------------------------------------------------- statistics

def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples
    (exact arithmetic: 99.9 % of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(n * Fraction(str(p)) / 100))


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank percentile ``p``."""
    return n - _rank(n, p)


def highest_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of unsorted values."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[min(_rank(len(ordered), p), len(ordered)) - 1]


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ---------------------------------------------------------------- digests

def digest(obj: Any) -> str:
    """SHA-256 of the canonical JSON form of plain data."""
    return hashlib.sha256(json.dumps(
        obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# -------------------------------------------------------------------- host

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _llc_bytes() -> int:
    """Size of the last-level cache of CPU 0 (0 when unknown)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best_level, best_size = -1, 0
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            raw = (index / "size").read_text().strip().upper()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(raw[-1:], 1)
        size = int(raw.rstrip("KMG") or 0) * scale
        if level >= best_level:
            best_level, best_size = level, size
    return best_size


def host_matmul_gflops() -> float:
    """Median NumPy dgemm rate on 384 x 384 operands over at least 0.3 s
    and 5 products, in GFLOP/s."""
    import numpy as np

    n = 384

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    rates = []
    t_end = time.perf_counter() + 0.3
    while time.perf_counter() < t_end or len(rates) < 5:
        t0 = time.perf_counter()
        np.matmul(a, b)
        rates.append(2.0 * n ** 3 / (time.perf_counter() - t0) / 1e9)
    return median(rates)


def host_fingerprint() -> dict[str, Any]:
    """Identity of the measuring host; runs compare only when these match."""
    import numpy as np

    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "numpy": np.__version__, "llc_bytes": _llc_bytes(),
            "python": platform.python_version()}


#: relative difference in host matmul rate beyond which two runs are
#: treated as taken on different machines
MATMUL_TOLERANCE = 0.25


def comparable(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Reasons two result records must not be compared (empty = fine)."""
    reasons = []
    fa, fb = a.get("host", {}), b.get("host", {})
    for key in sorted(set(fa) | set(fb)):
        if key != "matmul_gflops" and fa.get(key) != fb.get(key):
            reasons.append(f"host {key} differs: {fa.get(key)!r} vs "
                           f"{fb.get(key)!r}")
    ra, rb = fa.get("matmul_gflops"), fb.get("matmul_gflops")
    if ra and rb and abs(ra - rb) / max(ra, rb) > MATMUL_TOLERANCE:
        reasons.append(f"host matmul rate differs: {ra:.1f} vs {rb:.1f} "
                       f"GFLOP/s")
    for key in ("workload", "trace"):
        if a.get(key) != b.get(key):
            reasons.append(f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}")
    return reasons


# --------------------------------------------------------------- children

#: longest one benchmark child may run (a run must end within 180 s)
CHILD_TIMEOUT_S = 150.0

def child_env(cache_dir: Path | None = None) -> dict[str, str]:
    """Environment for benchmark children: no inherited ``REPRO_*``
    settings, the checkout's ``src`` and root on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def run_child(args: list[str], env: dict[str, str]
              ) -> tuple[dict[str, Any], float]:
    """Run ``python -m perfbench.child ARGS``; returns (report, spawn time).

    The child prints one JSON report as its last stdout line.  Any
    failure raises ``RuntimeError`` carrying the child's stderr tail.
    """
    t_spawn = time.time()
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.child", *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child {args[0]} timed out after "
                           f"{CHILD_TIMEOUT_S}s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {args[0]} failed (rc={proc.returncode}): "
                           f"{err[-2000:]}")
    return json.loads(lines[-1]), t_spawn


def dir_bytes(path: Path) -> int:
    """Total size of the cache entries (``*/*.pkl``) under ``path``."""
    total = 0
    for entry in path.glob("*/*.pkl"):
        try:
            total += entry.stat().st_size
        except OSError:
            continue
    return total

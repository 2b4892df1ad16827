"""Resumable size sweeps: a JSON-lines checkpoint journal per grid point.

``repro sweep`` runs can die — an OOM kill, a pre-empted node, the
``sweep.kill`` chaos site — and a full size sweep is expensive enough
that starting over is wasteful.  :class:`SweepJournal` checkpoints each
completed grid point as one JSON line keyed by its *content key* (the
workload, size, variants, GPU, and a digest of the package source), and
:func:`resumable_sweep` consults the journal before computing: journaled
points are reused verbatim, missing ones are computed and appended.

The contract chaos CI enforces: a sweep SIGKILLed mid-run and resumed
with ``repro sweep --resume`` produces a payload *byte-identical* to the
uninterrupted run.  Three properties make that hold:

* every evaluation is deterministic (analytic models, fixed seeds), so a
  recomputed point equals the journaled one bit-for-bit;
* floats round-trip JSON exactly (``repr``-shortest), so a point read
  back from the journal serializes to the same bytes as a fresh one;
* content keys mix in :func:`~repro.perf.cache.package_source_token`, so
  a journal written by different code is silently ignored rather than
  resumed into a stale payload.

Appends are flushed and fsynced per line, and loads skip a torn final
line, so a kill at any instant loses at most the point being written.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .. import faults
from ..gpu.device import Device
from ..kernels.base import Variant
from ..graph import GraphScheduler, TaskGraph
from ..perf.cache import content_key, package_source_token
from .sweep import SIZE_SWEEPS, SweepPoint, build_sweep_graph, find_crossover

__all__ = ["SweepJournal", "point_key", "resumable_sweep",
           "serialize_payload"]


def point_key(name: str, size: int, variants: tuple[Variant, ...],
              gpu_name: str) -> str:
    """Content key of one grid point (stable across processes/machines)."""
    return content_key("sweep.point", name, size,
                       [v.value for v in variants], gpu_name,
                       package_source_token())


class SweepJournal:
    """Append-only JSON-lines checkpoint file, one completed point per line.

    Each line is ``{"key": <content key>, "points": [<point dict>...]}``
    serialized canonically (sorted keys, compact separators).  Duplicate
    keys keep the last occurrence; unparseable or torn lines (the write
    that was racing the kill) are skipped, not fatal.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def load(self) -> dict[str, list[dict]]:
        """Journaled ``{key: points}`` records; empty if no journal yet."""
        records: dict[str, list[dict]] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:  # torn tail from a mid-write kill
                continue
            if isinstance(rec, dict) and isinstance(rec.get("key"), str) \
                    and isinstance(rec.get("points"), list):
                records[rec["key"]] = rec["points"]
        return records

    def append(self, key: str, points: list[dict]) -> None:
        """Durably journal one completed grid point."""
        line = json.dumps({"key": key, "points": points}, sort_keys=True,
                          separators=(",", ":"))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def clear(self) -> None:
        """Start a fresh journal (used when resuming is not requested)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def _point_dict(p: SweepPoint) -> dict:
    return {"workload": p.workload, "size": p.size, "variant": p.variant,
            "time_s": p.time_s, "flops": p.flops}


def resumable_sweep(name: str, device: Device,
                    variants: tuple[Variant, ...] = (Variant.BASELINE,
                                                     Variant.TC),
                    *, journal: SweepJournal | None = None,
                    resume: bool = False,
                    n_jobs: int | None = None) -> dict:
    """A size sweep that checkpoints per grid point and can resume.

    Returns the payload dict ``{workload, gpu, variants, points,
    crossover}``.  With a ``journal``, each completed grid point is
    appended durably; with ``resume=True``, points already journaled
    (under matching content keys — same code, same grid point) are reused
    instead of recomputed.  The pending points run as the
    :func:`~repro.harness.sweep.build_sweep_graph` nodes of their sizes,
    in one graph; journal appends stay in this process, in size order.
    The ``sweep.kill`` fault site fires after a fresh point is journaled,
    modelling SIGKILL at the worst instant.
    """
    if name not in SIZE_SWEEPS:
        raise ValueError(f"no size sweep for {name!r}; available: "
                         f"{sorted(SIZE_SWEEPS)}")
    sizes = SIZE_SWEEPS[name][2]
    gpu_name = device.spec.name
    keys = {s: point_key(name, s, variants, gpu_name) for s in sizes}
    done: dict[str, list[dict]] = {}
    if journal is not None:
        if resume:
            journaled = journal.load()
            done = {k: journaled[k] for k in keys.values() if k in journaled}
        else:
            journal.clear()
    # build_sweep_graph adds one node per size, in ``sizes`` order
    pending = {keys[s]: node for s, node in zip(
        sizes, build_sweep_graph(name, device, variants))
        if keys[s] not in done}
    graph = TaskGraph()
    graph.extend(list(pending.values()))
    computed = GraphScheduler(n_jobs).run(graph)
    fresh = {key: [_point_dict(p) for p in computed[node.key]]
             for key, node in pending.items()}
    points: list[dict] = []
    for s in sizes:
        key = keys[s]
        if key in done:
            points.extend(done[key])
            continue
        record = fresh[key]
        if journal is not None:
            journal.append(key, record)
            if faults.site("sweep.kill"):
                os._exit(9)  # SIGKILL stand-in: no cleanup, no atexit
        points.extend(record)
    sweep_points = [SweepPoint(**p) for p in points]
    crossover = find_crossover(sweep_points)
    return {
        "workload": name,
        "gpu": gpu_name,
        "variants": [v.value for v in variants],
        "points": points,
        "crossover": crossover,
    }


def serialize_payload(payload: dict) -> str:
    """Canonical payload bytes — what the kill-and-resume gate compares."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")) + "\n"

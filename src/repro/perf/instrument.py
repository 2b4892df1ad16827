"""Per-stage wall-clock instrumentation with nested attribution.

Pipeline stages (dataset generation, grid evaluation, observation audit,
functional accuracy runs, report assembly) record their wall-clock into a
process-global registry via the :func:`stage` context manager.  Stages
nest: entering ``stage("analysis.accuracy_table")`` inside
``stage("analysis.verify_all")`` records the child under the path
``analysis.verify_all/analysis.accuracy_table``, and every entry tracks
both *inclusive* seconds (the whole span) and *self* seconds (the span
minus enclosed child spans).  Self seconds partition wall-clock without
double counting, which is what makes the profiler's ``coverage`` ratio
(attributed / wall) well defined — the metric ``repro bench --profile``
reports and the CI gate bounds.

The harness report layer formats the registry into the run report,
``repro ... --timings`` prints it, and the ``REPRO_STAGE_JSON`` hook dumps
it for the cross-process bench profiler.  Worker processes return their
registries to the parent through :class:`~repro.perf.executor.ParallelExecutor`,
which merges them under the stage active at the call site via
:func:`merge_stage_timings` — so fan-out never loses attribution.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["StageTiming", "stage", "record_stage", "stage_timings",
           "reset_stage_timings", "reset_stage_stack",
           "snapshot_stage_timings", "merge_stage_timings",
           "current_stage_path", "note_worker_count", "note_graph_run",
           "stage_meta", "fork_safe_lock", "SEP"]

#: path separator between nested stage names (stage names must not use it)
SEP = "/"


@dataclass
class StageTiming:
    """Accumulated wall-clock for one named pipeline stage.

    ``name`` is the full nesting path (``SEP``-joined); ``seconds`` is
    inclusive wall-clock, ``self_seconds`` excludes enclosed child stages.
    """

    name: str
    seconds: float = 0.0
    calls: int = 0
    self_seconds: float = 0.0

    @property
    def leaf(self) -> str:
        """The stage's own name, without the nesting path."""
        return self.name.rsplit(SEP, 1)[-1]

    @property
    def depth(self) -> int:
        return self.name.count(SEP)


def fork_safe_lock() -> threading.Lock:
    """A lock for state shared by serve's threads.  Pool workers are
    forked, and a fork waits for the lock, so no child inherits it held
    by a thread that does not exist in the child."""
    lock = threading.Lock()
    os.register_at_fork(before=lock.acquire, after_in_parent=lock.release,
                        after_in_child=lock.release)
    return lock


_REGISTRY: dict[str, StageTiming] = {}
#: run metadata the executor annotates (e.g. the effective worker count)
_META: dict[str, object] = {}
# serve's thread-mode pool records stages from many threads: the lock
# makes each registry update whole (a float ``+=`` is not atomic)
_LOCK = fork_safe_lock()
# the nesting stack is per-thread (the serve pool runs queries on
# threads); each frame is [name, child_seconds_accumulator]
_LOCAL = threading.local()


def _stack() -> list[list]:
    st = getattr(_LOCAL, "stack", None)
    if st is None:
        st = _LOCAL.stack = []
    return st


def current_stage_path() -> str:
    """The ``SEP``-joined path of the stages active on this thread."""
    return SEP.join(frame[0] for frame in _stack())


def record_stage(name: str, seconds: float,
                 self_seconds: float | None = None,
                 calls: int = 1) -> None:
    """Accumulate ``seconds`` of wall-clock under the full path ``name``.

    Direct calls (no active :func:`stage` scope) count the whole span as
    self time.
    """
    with _LOCK:
        entry = _REGISTRY.get(name)
        if entry is None:
            entry = _REGISTRY[name] = StageTiming(name)
        entry.seconds += seconds
        entry.self_seconds += seconds if self_seconds is None \
            else self_seconds
        entry.calls += calls


@contextmanager
def stage(name: str):
    """Context manager timing one stage execution into the registry.

    Nested scopes record under their parent's path, and the parent's
    self time excludes the child's span.
    """
    stack = _stack()
    path = f"{current_stage_path()}{SEP}{name}" if stack else name
    frame = [name, 0.0]
    stack.append(frame)
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        stack.pop()
        record_stage(path, dt, self_seconds=max(dt - frame[1], 0.0))
        if stack:
            stack[-1][1] += dt


def stage_timings() -> list[StageTiming]:
    """All recorded stages in first-recorded order."""
    with _LOCK:
        return list(_REGISTRY.values())


def snapshot_stage_timings() -> list[dict]:
    """The registry as plain dicts (picklable; worker -> parent hand-off)."""
    with _LOCK:
        return [{"name": t.name, "seconds": t.seconds, "calls": t.calls,
                 "self_seconds": t.self_seconds}
                for t in _REGISTRY.values()]


def merge_stage_timings(records: list[dict], prefix: str | None = None) -> None:
    """Merge a worker registry snapshot into this process's registry.

    ``prefix`` (default: the stage path active on this thread) is
    prepended to every record, so a fan-out inside
    ``stage("analysis.verify_all")`` files worker stages as that stage's
    children.  The merged roots' inclusive time is charged against the
    current stage frame, keeping the parent's self time exclusive.
    """
    if prefix is None:
        prefix = current_stage_path()
    stack = _stack()
    for rec in records:
        name = f"{prefix}{SEP}{rec['name']}" if prefix else rec["name"]
        record_stage(name, float(rec["seconds"]),
                     self_seconds=float(rec.get("self_seconds",
                                                rec["seconds"])),
                     calls=int(rec.get("calls", 1)))
        if stack and SEP not in rec["name"]:
            # a worker-side root: its span elapsed inside the current
            # frame, so discount it from the frame's self time
            stack[-1][1] += float(rec["seconds"])


def note_worker_count(n: int) -> None:
    """Record the widest effective fan-out of the run (``--timings``)."""
    with _LOCK:
        _META["max_workers"] = max(int(n), int(_META.get("max_workers", 0)))


def note_graph_run(nodes: int, node_wall_s: float, makespan_s: float, *,
                   workers: int = 1) -> None:
    """Accumulate one task-graph execution into the run metadata.

    ``overlap_ratio`` — summed node wall over summed makespan — is the
    graph scheduler's figure of merit: 1.0 means stages ran back to
    back (no overlap), above 1.0 means independent nodes genuinely
    overlapped.  The bench profiler lifts it from the ``REPRO_STAGE_JSON``
    meta into ``BENCH_perf.json``, where ``repro bench --check`` gates
    it (the ``min_overlap_ratio`` budget applies only to multi-worker
    runs — a serial schedule cannot overlap).
    """
    with _LOCK:
        g = _META.get("graph")
        if not isinstance(g, dict):
            g = _META["graph"] = {"runs": 0, "nodes": 0, "workers": 1,
                                  "node_wall_s": 0.0, "makespan_s": 0.0,
                                  "overlap_ratio": 1.0}
        g["runs"] += 1
        g["nodes"] += int(nodes)
        g["workers"] = max(int(workers), g["workers"])
        g["node_wall_s"] = round(g["node_wall_s"] + float(node_wall_s), 6)
        g["makespan_s"] = round(g["makespan_s"] + float(makespan_s), 6)
        g["overlap_ratio"] = round(g["node_wall_s"] / g["makespan_s"], 3) \
            if g["makespan_s"] > 0 else 1.0


def stage_meta() -> dict[str, object]:
    """Run metadata recorded alongside the stage registry."""
    with _LOCK:
        return dict(_META)


def reset_stage_timings() -> None:
    """Clear the registry (tests and repeated in-process runs)."""
    with _LOCK:
        _REGISTRY.clear()
        _META.clear()


def reset_stage_stack() -> None:
    """Drop stage frames this thread inherited across a ``fork``.

    A pool worker forked inside a ``stage(...)`` scope inherits the
    parent's nesting stack, but the scopes that pushed those frames only
    exit in the parent — left in place they prefix every worker record
    with the parent's path, so :func:`merge_stage_timings` (which
    prepends that path itself) doubled it and its worker-root discount
    never fired.  Worker entry points clear the stack next to
    :func:`reset_stage_timings`; worker-side scopes are symmetric, so
    the stack returns to empty between chunks.
    """
    _stack().clear()

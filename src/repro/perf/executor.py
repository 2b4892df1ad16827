"""The pool-worker entry and the worker-count rule.

:func:`_run_chunk_remote` is the function every pool worker enters: each
node of a task graph (:mod:`repro.graph.scheduler`, the one process-pool
engine, reaches it through ``submit_remote``) and each call to serve's
process-mode model pool.  It fires the ``executor.worker_crash`` /
``worker_hang`` fault sites under the caller's key, and ships the call's
stage timings back with its value.  A call that fails raises
:class:`WorkerTaskError` naming it.

:func:`resolve_n_jobs` resolves every worker count the same way.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Any, Callable

from .. import faults
from .instrument import (reset_stage_stack, reset_stage_timings,
                         snapshot_stage_timings)

__all__ = ["WorkerTaskError", "resolve_n_jobs"]


class WorkerTaskError(RuntimeError):
    """A task failed inside a worker, annotated with which one.

    A bare exception crossing the process boundary loses all context about
    *which* grid point died; this wrapper names the failing node (its
    label) and carries the worker-side traceback in the message.  Single
    string argument so it pickles losslessly back to the parent.  Task
    errors are deterministic — the retry machinery never retries them,
    and the label survives however many pool rounds happened before the
    failing node ran.
    """

    @property
    def label(self) -> str:
        return str(self.args[0]).split(":", 1)[0] if self.args else ""


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Resolve a worker count: explicit > ``REPRO_JOBS`` > CPU count."""
    if n_jobs is not None:
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        return n_jobs
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            pass
    return os.cpu_count() or 1


def _env_float(name: str) -> float | None:
    """A positive float from the environment; None when unset or bad."""
    try:
        value = float(os.environ.get(name, ""))
    except ValueError:
        return None
    return value if value > 0 else None


def _run_chunk_remote(payload: tuple[Callable[[Any], Any], Any, str, str,
                                     float]) -> tuple[Any, list[dict]]:
    """Pool-worker entry: ``fn(arg)``, and its stage registry shipped back.

    Workers are reused across calls, so the registry is reset per call —
    the snapshot is exactly this call's delta, and the parent's merge is
    additive.

    ``fault_key`` names this (call, attempt) so injected crashes/hangs
    are deterministic and do not re-fire on the retry; ``hang_s`` is how
    long an injected hang stalls (sized past the parent's round timeout).
    An exception raises as a :class:`WorkerTaskError` naming ``label``.
    """
    fn, arg, label, fault_key, hang_s = payload
    if faults.site("executor.worker_crash", key=fault_key):
        os._exit(17)  # abrupt death: no cleanup, breaks the pool
    if faults.site("executor.worker_hang", key=fault_key):
        time.sleep(hang_s)
    reset_stage_timings()
    reset_stage_stack()
    try:
        out = fn(arg)
    except WorkerTaskError:
        raise  # already names its node
    except Exception as exc:
        raise WorkerTaskError(
            f"{label}: {type(exc).__name__}: {exc}\n"
            f"--- worker traceback ---\n{traceback.format_exc()}"
        ) from exc
    return out, snapshot_stage_timings()

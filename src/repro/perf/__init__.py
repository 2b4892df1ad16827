"""Cross-cutting evaluation-engine layer: the pool-worker entry,
content-addressed result caching, and per-stage instrumentation.

The characterization pipeline is an embarrassingly parallel grid
(workload x variant x case x GPU) built from deterministic generators, so
two orthogonal mechanisms cover almost all of its cost:

* fan-out — every parallel call site builds a task graph that
  :class:`~repro.graph.GraphScheduler` runs; :mod:`repro.perf.executor`
  holds what its pool workers run (the worker entry, the worker-count
  rule and :class:`WorkerTaskError`);
* :class:`ResultCache` — a two-tier (in-memory LRU + on-disk) store keyed
  by a stable content hash of (qualname, params, library version, source
  code), exploiting the fixed-seed LCG determinism guarantee (DESIGN.md
  decision 4): cached and freshly computed artifacts are bit-identical.

:mod:`repro.perf.instrument` records per-stage wall-clock so regressions
are visible, and :mod:`repro.perf.bench` measures cold/warm pipeline
wall-clock into ``BENCH_perf.json`` for the perf trajectory across PRs.
"""

from .cache import (
    CacheStats,
    DiskStats,
    PruneResult,
    ResultCache,
    cache_enabled,
    content_key,
    default_cache,
    default_cache_dir,
    default_max_disk_bytes,
    package_source_token,
    set_default_cache,
    source_token,
)
from .executor import WorkerTaskError, resolve_n_jobs
from .instrument import (
    StageTiming,
    record_stage,
    reset_stage_timings,
    stage,
    stage_timings,
)

__all__ = [
    "CacheStats",
    "DiskStats",
    "PruneResult",
    "ResultCache",
    "cache_enabled",
    "content_key",
    "default_cache",
    "default_cache_dir",
    "default_max_disk_bytes",
    "package_source_token",
    "set_default_cache",
    "source_token",
    "WorkerTaskError",
    "resolve_n_jobs",
    "StageTiming",
    "record_stage",
    "reset_stage_timings",
    "stage",
    "stage_timings",
]

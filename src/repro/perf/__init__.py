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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CacheStats": "cache", "DiskStats": "cache", "PruneResult": "cache",
    "ResultCache": "cache", "cache_enabled": "cache", "content_key": "cache",
    "default_cache": "cache", "default_cache_dir": "cache",
    "default_max_disk_bytes": "cache", "package_source_token": "cache",
    "set_default_cache": "cache", "source_token": "cache",
    "WorkerTaskError": "executor", "resolve_n_jobs": "executor",
    "StageTiming": "instrument", "record_stage": "instrument",
    "reset_stage_timings": "instrument", "stage": "instrument",
    "stage_timings": "instrument",
})

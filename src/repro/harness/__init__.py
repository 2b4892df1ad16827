"""Evaluation harness: the runner and report formatting used by the
figure/table regenerators in ``benchmarks/``."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "evaluate": "artifact", "full_evaluation": "artifact",
    "quick_test": "artifact",
    "format_seconds": "report", "format_si": "report",
    "format_speedups": "report", "format_stage_timings": "report",
    "format_table": "report",
    "SIZE_SWEEPS": "sweep", "SweepPoint": "sweep", "find_crossover": "sweep",
    "sweep_sizes": "sweep",
    "WhatIfResult": "whatif", "evaluate_whatif": "whatif",
    "hypothetical": "whatif",
    "PerfRecord": "runner", "default_devices": "runner",
    "run_performance": "runner", "speedup_summary": "runner",
})

"""Benchmark-suite comparison substrate (Figure 11, Table 7)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "METRIC_NAMES": "metrics", "MetricPoint": "metrics",
    "metrics_for_stats": "metrics", "suite_metric_points": "metrics",
    "RODINIA_KERNELS": "minikernels", "SHOC_KERNELS": "minikernels",
    "MiniKernel": "minikernels",
})

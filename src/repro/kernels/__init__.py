"""The ten Cubie workloads (Table 2), their variants, and the registry."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CC_EFF": "base", "CC_EFF_MMA": "base", "MLP_FULL": "base",
    "MLP_IRREGULAR": "base", "MLP_MMA_CC": "base", "TC_EFF": "base",
    "TC_EFF_CONST": "base", "Quadrant": "base", "Variant": "base",
    "Workload": "base", "WorkloadCase": "base", "all_workloads": "base",
    "get_workload": "base", "register_workload": "base",
    "workload_names": "base",
    "BfsWorkload": "bfs",
    "FftWorkload": "fft",
    "GemmWorkload": "gemm",
    "GemvWorkload": "gemv",
    "PicWorkload": "pic",
    "ReductionWorkload": "reduction",
    "ScanWorkload": "scan",
    "SpgemmWorkload": "spgemm",
    "SpmvWorkload": "spmv",
    "StencilWorkload": "stencil",
})

"""Simulated GPU substrate: specs, MMA emulation, counters, and models.

This package stands in for the physical A100/H200/B200 GPUs of the paper.
See DESIGN.md section 2 for the substitution rationale.
"""

from .._lazy import lazy_exports

# bound now: ``occupancy`` names both a function and its submodule, and
# the first import of ``repro.gpu.occupancy`` would bind the module over
# a lazy export
from .occupancy import occupancy as occupancy

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AccessStream": "counters", "KernelStats": "counters",
    "MMA_SHAPES": "isa", "MmaShape": "isa", "Precision": "isa",
    "find_shape": "isa", "shapes_for": "isa",
    "DEFAULT_SM": "occupancy", "KernelResources": "occupancy",
    "Occupancy": "occupancy", "SmResources": "occupancy",
    "Device": "device", "KernelResult": "device", "all_devices": "device",
    "MemoryModel": "memory", "MemoryTraffic": "memory",
    "mma_mixed_batched": "mma_mixed", "quantize": "mma_mixed",
    "unit_roundoff": "mma_mixed",
    "mma_b1_batched": "mma", "mma_fp64_batched": "mma", "mma_m8n8k4": "mma",
    "mma_m8n8k4_batched": "mma", "mma_m8n8k128_b1": "mma",
    "pack_bits_rows": "mma", "warp_gemm_m8n8k4": "mma",
    "PowerModel": "power", "PowerTrace": "power", "geomean_edp": "power",
    "A100": "specs", "ALL_GPUS": "specs", "B200": "specs", "H200": "specs",
    "GPUSpec": "specs", "get_gpu": "specs",
    "TimingBreakdown": "timing", "TimingModel": "timing",
    "Timeline": "trace", "TimelineEvent": "trace",
})
__all__ += ["occupancy"]

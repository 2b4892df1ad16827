"""Cubie reproduction: characterizing matrix multiplication units across
general parallel patterns in scientific computing (PPoPP'26).

Public API tour
---------------
* :mod:`repro.gpu` — the simulated GPU substrate (A100/H200/B200 specs,
  functional FP64/bit MMA emulation, timing/power/memory models).
* :mod:`repro.kernels` — the ten Cubie workloads, each with baseline / TC /
  CC / CC-E variants.
* :mod:`repro.sparse` — CSR, mBSR, DASP, and bitmap storage substrates.
* :mod:`repro.datasets` — deterministic input generation (LINPACK-style
  LCG, SuiteSparse stand-ins, population sweeps).
* :mod:`repro.analysis` — quadrants, accuracy, roofline, EDP, PCA, dwarfs.
* :mod:`repro.harness` — runners and report formatting for the
  figure/table regenerators in ``benchmarks/``.

Every package exports lazily (:mod:`repro._lazy`): ``import repro`` loads
no subpackage, and a name's module is imported on its first use, so a
command pays at start-up only for the modules it reaches.

Quickstart
----------
>>> from repro.gpu import Device
>>> from repro.kernels import get_workload, Variant
>>> w = get_workload("gemm")
>>> result = w.run_case(Variant.TC, w.cases()[0], Device("H200"))
>>> result.tflops > 0
True
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "analysis": "analysis", "datasets": "datasets", "gpu": "gpu",
    "harness": "harness", "kernels": "kernels", "sparse": "sparse",
    "suites": "suites",
    "Device": "gpu",
    "Variant": "kernels", "all_workloads": "kernels",
    "get_workload": "kernels",
})
__all__ += ["__version__"]

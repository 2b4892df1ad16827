"""Application layer: the HPC codes the Cubie kernels serve.

These are working miniature applications (not stubs) built entirely on the
public API — a CG solver (SpMV + Reduction), an algebraic multigrid
(SpGEMM + SpMV, the AmgT setting), a wave solver (Stencil), and a plasma
pusher (PiC) — each with modeled device costs so the paper's
application-researcher questions can be asked end to end.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AmgHierarchy": "amg", "AmgLevel": "amg", "build_hierarchy": "amg",
    "modeled_setup_cost": "amg", "modeled_vcycle_cost": "amg", "solve": "amg",
    "v_cycle": "amg",
    "CgResult": "cg", "conjugate_gradient": "cg",
    "modeled_iteration_cost": "cg",
    "PlasmaSimulation": "plasma",
    "WaveSimulation": "wave", "cfl_limit": "wave",
})

"""Conjugate-gradient solver built on the Cubie kernels.

The paper's SpMV and Reduction workloads exist because solvers like CG
spend their time in exactly these two kernels.  This module implements CG
on the package's own CSR substrate and costs every iteration on a
simulated device through the SpMV and Reduction workload models, so an
application researcher can ask the paper's question — *do MMUs pay off for
my solver?* — end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.device import Device
from ..kernels.base import Variant
from ..kernels.reduction import ReductionWorkload
from ..kernels.spmv import SpmvWorkload, gather_segment_bytes
from ..sparse.csr import CsrMatrix
from ..sparse.dasp import DaspLayout

__all__ = ["CgResult", "conjugate_gradient", "modeled_iteration_cost"]


@dataclass
class CgResult:
    """Solution and convergence history."""

    x: np.ndarray
    residuals: list[float]
    iterations: int
    converged: bool

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]


def conjugate_gradient(a: CsrMatrix, b: np.ndarray, *,
                       tol: float = 1e-8, max_iter: int = 500,
                       x0: np.ndarray | None = None) -> CgResult:
    """Unpreconditioned CG for SPD systems, using the CSR substrate's
    serial-order SpMV (the numerics reference path)."""
    if a.n_rows != a.n_cols:
        raise ValueError("CG needs a square matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.n_rows,):
        raise ValueError(f"b must have shape ({a.n_rows},)")
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=float).copy()
    r = b - a.spmv_serial(x)
    p = r.copy()
    rs = float(r @ r)
    b_norm = float(np.linalg.norm(b)) or 1.0
    residuals = [float(np.sqrt(rs)) / b_norm]
    if residuals[0] < tol:
        return CgResult(x, residuals, 0, True)
    for it in range(1, max_iter + 1):
        ap = a.spmv_serial(p)
        denom = float(p @ ap)
        if denom <= 0:
            # matrix not SPD along p: bail out with what we have
            return CgResult(x, residuals, it - 1, False)
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        residuals.append(float(np.sqrt(rs_new)) / b_norm)
        if residuals[-1] < tol:
            return CgResult(x, residuals, it, True)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return CgResult(x, residuals, max_iter, False)


def modeled_iteration_cost(a: CsrMatrix, device: Device,
                           variant: Variant = Variant.TC) -> dict[str, float]:
    """Model one CG iteration's time/energy on a device.

    One iteration = 1 SpMV + 2 dot products (reductions) + 3 AXPYs.
    SpMV is costed through the SpMV workload's stat builder on this very
    matrix's DASP layout; the dots through the Reduction model; AXPYs as
    streaming vector traffic.
    """
    spmv = SpmvWorkload()
    tile_seg = gather_segment_bytes(a)
    spmv_stats = spmv._stats(variant, a, DaspLayout.from_csr(a), tile_seg)
    t_spmv = device.timing.time(spmv_stats)

    red = ReductionWorkload()
    red_stats = red._stats(variant, n=max(a.n_rows, 64), seg=64)
    t_dot = device.timing.time(red_stats)

    from ..gpu.counters import KernelStats
    axpy = KernelStats()
    axpy.add_fma(2.0 * a.n_rows)
    axpy.read_dram(16.0 * a.n_rows, segment_bytes=1 << 16)
    axpy.write_dram(8.0 * a.n_rows, segment_bytes=1 << 16)
    t_axpy = device.timing.time(axpy)

    total = t_spmv + 2 * t_dot + 3 * t_axpy
    power = device.power.steady_power(spmv_stats)  # SpMV dominates
    return {
        "spmv_s": t_spmv,
        "dot_s": t_dot,
        "axpy_s": t_axpy,
        "iteration_s": total,
        "power_w": power,
        "energy_j": power * total,
        "gather_segment_bytes": tile_seg,
    }

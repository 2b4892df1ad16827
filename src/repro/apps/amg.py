"""Algebraic multigrid built on the Cubie kernels.

The suite's SpGEMM workload comes from AmgT (Lu et al., SC'24), whose job
is AMG: the Galerkin triple product ``A_coarse = R A P`` is a pair of
SpGEMMs, and the smoothers are SpMVs.  This module implements a compact
smoothed-less (plain) aggregation AMG on the CSR substrate — strength
graph, greedy aggregation, tentative prolongator, Galerkin coarsening via
:meth:`CsrMatrix.spgemm`, weighted-Jacobi smoothing — and costs a V-cycle
on a simulated device through the SpGEMM/SpMV workload models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.device import Device
from ..kernels.base import Variant
from ..kernels.spgemm import SpgemmWorkload, expansion_sizes
from ..kernels.spmv import SpmvWorkload, gather_segment_bytes
from ..sparse.csr import CsrMatrix
from ..sparse.dasp import DaspLayout
from ..sparse.mbsr import block_pattern

__all__ = ["AmgLevel", "AmgHierarchy", "build_hierarchy", "v_cycle",
           "solve", "modeled_setup_cost", "modeled_vcycle_cost"]


@dataclass
class AmgLevel:
    """One level: operator, prolongator to this level, and its diagonal."""

    a: CsrMatrix
    p: CsrMatrix | None        # None on the finest level
    diag: np.ndarray


@dataclass
class AmgHierarchy:
    levels: list[AmgLevel] = field(default_factory=list)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def operator_complexity(self) -> float:
        """Sum of all operators' nnz over the finest nnz."""
        fine = max(self.levels[0].a.nnz, 1)
        return sum(lv.a.nnz for lv in self.levels) / fine


def _diagonal(a: CsrMatrix) -> np.ndarray:
    d = np.zeros(a.n_rows)
    rows = a.row_of_entry()
    on = rows == a.indices
    d[rows[on]] = a.data[on]
    return d


def _strength_aggregates(a: CsrMatrix, theta: float = 0.08) -> np.ndarray:
    """Greedy aggregation over the strength graph.

    Entry (i, j) is strong when |a_ij| >= theta * sqrt(|a_ii a_jj|).
    Returns aggregate ids per row (every row assigned)."""
    d = np.abs(_diagonal(a))
    d = np.where(d <= 0, 1.0, d)
    rows = a.row_of_entry()
    strong = (np.abs(a.data)
              >= theta * np.sqrt(d[rows] * d[a.indices])) \
        & (rows != a.indices)
    agg = np.full(a.n_rows, -1, dtype=np.int64)
    next_agg = 0
    # pass 1: seed aggregates from unassigned rows and their strong nbrs
    for i in range(a.n_rows):
        if agg[i] >= 0:
            continue
        lo, hi = a.indptr[i], a.indptr[i + 1]
        nbrs = a.indices[lo:hi][strong[lo:hi]]
        free = nbrs[agg[nbrs] < 0]
        agg[i] = next_agg
        agg[free] = next_agg
        next_agg += 1
    return agg


def _tentative_prolongator(agg: np.ndarray) -> CsrMatrix:
    n = len(agg)
    n_coarse = int(agg.max()) + 1 if n else 0
    return CsrMatrix.from_coo(np.arange(n), agg, np.ones(n),
                              (n, n_coarse), sum_duplicates=False)


def build_hierarchy(a: CsrMatrix, *, max_levels: int = 10,
                    min_coarse: int = 40,
                    theta: float = 0.08) -> AmgHierarchy:
    """Plain-aggregation AMG setup via Galerkin SpGEMM products."""
    if a.n_rows != a.n_cols:
        raise ValueError("AMG needs a square matrix")
    h = AmgHierarchy()
    h.levels.append(AmgLevel(a=a, p=None, diag=_diagonal(a)))
    current = a
    while len(h.levels) < max_levels and current.n_rows > min_coarse:
        agg = _strength_aggregates(current, theta)
        p = _tentative_prolongator(agg)
        if p.n_cols >= current.n_rows:
            break  # aggregation stalled
        # Galerkin: A_c = P^T (A P) — two SpGEMMs + a transpose
        ap = current.spgemm(p)
        a_coarse = p.transpose().spgemm(ap)
        h.levels.append(AmgLevel(a=a_coarse, p=p,
                                 diag=_diagonal(a_coarse)))
        current = a_coarse
    return h


def _jacobi(a: CsrMatrix, diag: np.ndarray, x: np.ndarray, b: np.ndarray,
            sweeps: int, omega: float) -> np.ndarray:
    d = np.where(np.abs(diag) <= 1e-300, 1.0, diag)
    for _ in range(sweeps):
        x = x + omega * (b - a.spmv_serial(x)) / d
    return x


def v_cycle(h: AmgHierarchy, b: np.ndarray, x: np.ndarray | None = None,
            level: int = 0, *, pre: int = 2, post: int = 2,
            omega: float = 0.67) -> np.ndarray:
    """One V(pre,post)-cycle with weighted-Jacobi smoothing."""
    lv = h.levels[level]
    if x is None:
        x = np.zeros(lv.a.n_rows)
    if level == h.n_levels - 1:
        # coarsest: heavy smoothing stands in for a direct solve
        return _jacobi(lv.a, lv.diag, x, b, sweeps=30, omega=omega)
    x = _jacobi(lv.a, lv.diag, x, b, pre, omega)
    residual = b - lv.a.spmv_serial(x)
    p = h.levels[level + 1].p
    coarse_b = p.transpose().spmv_serial(residual)
    coarse_x = v_cycle(h, coarse_b, None, level + 1,
                       pre=pre, post=post, omega=omega)
    x = x + p.spmv_serial(coarse_x)
    return _jacobi(lv.a, lv.diag, x, b, post, omega)


def solve(a: CsrMatrix, b: np.ndarray, *, tol: float = 1e-8,
          max_cycles: int = 60, **cycle_kwargs
          ) -> tuple[np.ndarray, list[float], AmgHierarchy]:
    """Stationary AMG iteration: repeat V-cycles until the residual drops
    below ``tol`` (relative)."""
    h = build_hierarchy(a)
    x = np.zeros(a.n_rows)
    b_norm = float(np.linalg.norm(b)) or 1.0
    history = [float(np.linalg.norm(b - a.spmv_serial(x))) / b_norm]
    for _ in range(max_cycles):
        x = v_cycle(h, b, x, **cycle_kwargs)
        history.append(
            float(np.linalg.norm(b - a.spmv_serial(x))) / b_norm)
        if history[-1] < tol:
            break
    return x, history, h


# ---------------------------------------------------------------- costing
def modeled_setup_cost(h: AmgHierarchy, device: Device,
                       variant: Variant = Variant.TC) -> float:
    """Modeled time of the Galerkin products across the hierarchy."""
    w = SpgemmWorkload()
    total = 0.0
    for lv in h.levels[:-1]:
        stats = w._stats(variant, lv.a,
                         expansion_sizes(lv.a, block_pattern(lv.a)))
        # two products (A P and P^T (A P)) of comparable size
        total += 2.0 * device.timing.time(stats)
    return total


def modeled_vcycle_cost(h: AmgHierarchy, device: Device,
                        variant: Variant = Variant.TC, *,
                        pre: int = 2, post: int = 2) -> float:
    """Modeled time of one V-cycle (smoother + residual + transfers, all
    SpMV-shaped, costed per level on its own operator)."""
    w = SpmvWorkload()
    total = 0.0
    for i, lv in enumerate(h.levels):
        stats = w._stats(variant, lv.a, DaspLayout.from_csr(lv.a),
                         gather_segment_bytes(lv.a))
        t = device.timing.time(stats)
        if i == h.n_levels - 1:
            total += 30 * t
        else:
            total += (pre + post + 1) * t  # smoothing sweeps + residual
            total += 2 * t                 # restrict + prolong (P-shaped)
    return total

"""SpMV workload (Quadrant IV, sparse linear algebra dwarf).

The TC implementation follows DASP (Lu & Liu, SC'23): rows are length-sorted
into categories and packed into 8x4 value/index tiles
(:class:`repro.sparse.dasp.DaspMatrix`); each tile multiplies a gathered
4x8 x-block with ``mma_m8n8k4`` and the row results accumulate on the 8x8
output diagonal across a group's k-steps — full input, 1/8-useful output.
The counters read only the tile layout (``DaspLayout``: tiles, and 32
value slots per tile), so the analytic path never fills the tiles.

The baseline models cuSPARSE's CSR kernel: warp-per-row lane partials with a
tree combine, per-lane scattered ``x`` gathers, and the memory-level
parallelism loss of row imbalance.  CC-E keeps DASP's layout/gathers but
performs only the essential multiply-adds (lane partials + 4-wide tree),
which the paper finds *faster* than TC — the lone Observation 5 exception.
"""

from __future__ import annotations

import functools

import numpy as np

from ..datasets.suitesparse import SPMV_MATRICES, generate_matrix
from ..datasets.synthetic import Lcg
from ..gpu.counters import KernelStats
from ..gpu.device import Device, KernelResult
from ..gpu.launch import LaunchPlan, execute_plan
from ..sparse.csr import CsrMatrix
from ..sparse.dasp import DaspLayout, DaspMatrix
from .base import (
    CC_EFF,
    CC_EFF_MMA,
    MLP_IRREGULAR,
    MLP_MMA_CC,
    TC_EFF,
    Quadrant,
    Variant,
    Workload,
    WorkloadCase,
)

__all__ = ["SpmvWorkload", "gather_segment_bytes"]

#: the TC tile gathers synchronize 32 lanes per MMA operand build, holding
#: achieved bandwidth slightly below the free-running scalar stream
MLP_TC_TILE = 0.90
#: CC-E's essential-only loop issues loads without the MMA staging barrier
MLP_CCE = 1.0


@functools.lru_cache(maxsize=32)
def _analytic_matrix(name: str, scale: float
                     ) -> tuple[CsrMatrix, DaspLayout, float]:
    """Cache the (deterministic) analytic matrix, its DASP layout and its
    gather segment so the four variants of a case do not recompute them."""
    a = generate_matrix(name, scale=scale)
    return a, DaspLayout.from_csr(a), gather_segment_bytes(a)


def gather_segment_bytes(a: CsrMatrix, sector: int = 32) -> float:
    """Estimate the typical contiguous segment of the x-vector gather from
    the column-index locality of ``a``.

    Consecutive nonzeros of a row whose column indices fall in the same
    32-byte sector coalesce into one transaction; the average run length of
    such entries scales the 8-byte per-element gather up to at most one
    full sector.
    """
    if a.nnz < 2:
        return 8.0
    diffs = np.diff(a.indices)
    # break runs at row boundaries; an empty first or last row starts at
    # entry 0 or nnz, which is no boundary between two entries
    row_starts = a.indptr[1:-1]
    row_starts = row_starts[(row_starts > 0) & (row_starts < a.nnz)]
    same_sector = np.abs(diffs) * 8 < sector
    same_sector[row_starts - 1] = False
    frac = float(same_sector.mean())
    avg_run = 1.0 / max(1.0 - frac, 1.0 / (sector / 8))
    return float(np.clip(8.0 * avg_run, 8.0, sector))


class SpmvWorkload(Workload):
    """Sparse matrix-vector multiplication y = A @ x (DASP vs cuSPARSE)."""

    name = "spmv"
    quadrant = Quadrant.IV
    dwarf = "Sparse linear algebra"
    baseline_name = "cuSPARSE SpMV v12.8"
    has_cce = True
    edp_repeats = 1_000_000

    #: matrix scale used for functional execution and analytic statistics
    scale: float = 1.0

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale

    # ------------------------------------------------------------------
    def cases(self) -> list[WorkloadCase]:
        return [WorkloadCase(label=m.name, params={"matrix": m.name})
                for m in SPMV_MATRICES]

    # ------------------------------------------------------------------
    def prepare(self, case: WorkloadCase, seed: int = 1325) -> dict:
        a = generate_matrix(case["matrix"], scale=self.scale, seed=seed)
        rng = Lcg(seed + 17)
        return {"a": a, "dasp": DaspMatrix.from_csr(a),
                "x": rng.uniform(a.n_cols)}

    def reference(self, data: dict) -> np.ndarray:
        return data["a"].spmv_serial(data["x"])

    # ------------------------------------------------------------------
    def execute(self, variant: Variant, data: dict,
                device: Device) -> KernelResult:
        a: CsrMatrix = data["a"]
        x = data["x"]
        if variant is Variant.BASELINE:
            y = a.spmv_warp_tree(x)
        elif variant in (Variant.TC, Variant.CC):
            y = self._dasp_spmv_mma(data["dasp"], x)
        else:
            y = self._dasp_spmv_essential(data["dasp"], x)
        if "tile_seg" not in data:     # once per prepared case
            data["tile_seg"] = gather_segment_bytes(a)
        stats = self._stats(variant, a, data["dasp"], data["tile_seg"])
        return device.resolve(stats, output=y)

    @staticmethod
    def _dasp_spmv_mma(d: DaspMatrix, x: np.ndarray) -> np.ndarray:
        """TC/CC path: chain MMAs through the 8x8 accumulator per group and
        extract the diagonal at the end (exact register dataflow).  The
        per-group step chains are recorded as one ragged launch plan; the
        engine buckets groups by step count (cached per matrix structure)
        and runs one fused sweep per distinct chain length."""
        b = d.gather_b_tiles(x)
        plan = LaunchPlan()
        h = plan.ragged(d.values, b, d.group_steps, d.group_offsets[:-1])
        acc = execute_plan(plan, label="spmv")[h]
        diag = acc[:, np.arange(8), np.arange(8)].reshape(-1)
        y = np.zeros(d.shape[0])
        valid = d.row_perm
        y[valid] = diag[:len(valid)]
        return y

    @staticmethod
    def _dasp_spmv_essential(d: DaspMatrix, x: np.ndarray) -> np.ndarray:
        """CC-E path: same tiles/gathers, essential products only; per row,
        4 lane partials across k-steps combined by a binary tree — a
        different rounding order than the MMA chain."""
        b = d.gather_b_tiles(x)                       # (steps, 4, 8)
        prods = d.values * np.swapaxes(b, 1, 2)      # (steps, 8, 4)
        partial = np.zeros((d.n_groups, 8, 4))
        starts = d.group_offsets[:-1]
        max_steps = int(d.group_steps.max()) if d.n_groups else 0
        for s in range(max_steps):
            has = d.group_steps > s
            partial[has] += prods[starts[has] + s]
        tree = (partial[..., 0] + partial[..., 2]) \
            + (partial[..., 1] + partial[..., 3])
        y = np.zeros(d.shape[0])
        valid = d.row_perm
        y[valid] = tree.reshape(-1)[:len(valid)]
        return y

    # ------------------------------------------------------------------
    def analytic_stats(self, variant: Variant,
                       case: WorkloadCase) -> KernelStats:
        return self._stats(variant,
                           *_analytic_matrix(case["matrix"], self.scale))

    def _stats(self, variant: Variant, a: CsrMatrix, d: DaspLayout,
               tile_seg: float) -> KernelStats:
        """Counters of ``a`` with DASP layout ``d`` (a filled
        :class:`DaspMatrix` is one too) and x-gather segment ``tile_seg``
        (:func:`gather_segment_bytes`)."""
        st = KernelStats()
        essential = 2.0 * a.nnz
        st.essential_flops = essential
        y_bytes = 8.0 * a.n_rows
        if variant is Variant.BASELINE:
            # CSR arrays stream; x gathers are per-lane scattered doubles
            st.add_fma(essential)
            st.cc_efficiency = CC_EFF
            st.mlp = MLP_IRREGULAR
            st.read_dram(12.0 * a.nnz + 8.0 * a.n_rows,
                         segment_bytes=1 << 12)      # values+int indices+ptr
            # per-lane x gathers coalesce only when a row's columns are
            # strictly consecutive — about half the locality the sorted
            # DASP tile gathers extract
            st.read_dram(8.0 * a.nnz, segment_bytes=max(8.0, tile_seg / 2))
        else:
            slots = d.slots                          # padded value slots
            tiles = d.total_tiles
            if variant is Variant.TC:
                st.add_mma_fp64(tiles, output_useful=8.0 * tiles)
                st.tc_efficiency = TC_EFF
                st.mlp = MLP_TC_TILE
            elif variant is Variant.CC:
                st.add_mma_as_fma(tiles)
                st.cc_efficiency = CC_EFF_MMA
                st.mlp = MLP_MMA_CC
            else:  # CC-E: essential products (one 8x4 sheet per tile,
                   # padding slots included) instead of the full 8x8x4 MMA
                st.add_fma(2.0 * slots)
                st.essential_flops = essential
                st.cc_efficiency = CC_EFF
                st.mlp = MLP_CCE
            st.read_dram(12.0 * slots, segment_bytes=1 << 12)
            st.read_dram(8.0 * slots, segment_bytes=tile_seg)
        st.write_dram(y_bytes, segment_bytes=1 << 12)
        st.add_l1(20.0 * a.nnz + y_bytes)
        return st

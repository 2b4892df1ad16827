"""SpGEMM workload (Quadrant IV, sparse linear algebra dwarf).

The TC implementation follows AmgT (Lu et al., SC'24): both operands are
stored as mBSR 4x4 blocks (:class:`repro.sparse.mbsr.MbsrMatrix`); block
pairs stack into 8x4 MMA operands so one ``mma_m8n8k4`` evaluates four
4x4 block products, and results accumulate into the *diagonal 4x4 tiles*
of the 8x8 output — full input, half-useful output (Quadrant IV, "slightly
higher utilization" per Figure 2).

The baseline models cuSPARSE SpGEMM's expand-sort-compress pipeline on
scalar CSR entries (irregular gathers, pairwise compaction sums).  CC-E
performs the essential scalar block products on the mBSR layout with a
tree-ordered k accumulation.

Functional execution computes C = A @ A on the Table 4 matrices at a
reduced ``scale`` (full-scale block expansion exceeds a Python session's
memory budget; the analytic path runs symbolically at any scale).  The
counters read only the expansion sizes (:func:`expansion_sizes`), taken
once per matrix from the block pattern
(:func:`repro.sparse.mbsr.block_pattern`), never the block payloads, so
the analytic path builds no :class:`MbsrMatrix`.

No output pays a closing sort.  The block variants' output blocks come
sorted by (block row, block col) and expand to scalar CSR row-major
(:func:`repro.sparse.mbsr.blocks_to_csr`), after the sweep's gathered
operands are released.  The baseline (:meth:`CsrMatrix.spgemm`) and the
reference emit row-major chunks that concatenate into the CSR arrays.
"""

from __future__ import annotations

import functools

import numpy as np

from ..datasets.suitesparse import SPMV_MATRICES, generate_matrix
from ..gpu import warp_events
from ..gpu.counters import KernelStats
from ..gpu.device import Device, KernelResult
from ..gpu.launch import LaunchPlan, execute_plan
from ..sparse.csr import CsrMatrix, row_pointers, stable_order
from ..sparse.mbsr import BLOCK, MbsrMatrix, block_pattern, blocks_to_csr
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

__all__ = ["SpgemmWorkload", "expansion_sizes"]

#: default matrix scale for functional execution
EXEC_SCALE = 0.25
#: dense-accumulator slots (rows x n_cols) per reference chunk
SLOT_CAP = 1 << 19
#: fraction of repeated B-block reads that miss L2 (mBSR streams block
#: rows in 128-byte units with good spatial reuse)
TC_REUSE = 0.70
#: fraction of the baseline's scalar B-row re-reads that miss L2 (the
#: expand phase revisits rows hash-scattered, but hot rows stay cached)
BASE_REUSE = 0.15


def expansion_sizes(a: CsrMatrix, pattern: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[float, float, int]:
    """Expansion sizes of ``a @ a``: scalar products (essential
    multiply-adds), block products, and the number of blocks in mBSR
    block pattern ``pattern`` (:func:`block_pattern`)."""
    block_indptr, block_indices = pattern
    blk_len = np.diff(block_indptr)
    return (float(a.row_lengths()[a.indices].sum()),
            float(blk_len[block_indices].sum()), len(block_indices))


@functools.lru_cache(maxsize=32)
def _analytic_matrix(name: str, scale: float
                     ) -> tuple[CsrMatrix, tuple[float, float, int]]:
    """Cache the (deterministic) analytic matrix and its expansion sizes
    so the four variants of a case do not recompute them."""
    a = generate_matrix(name, scale=scale)
    return a, expansion_sizes(a, block_pattern(a))


class SpgemmWorkload(Workload):
    """Sparse matrix-matrix multiplication C = A @ A (AmgT vs cuSPARSE)."""

    name = "spgemm"
    quadrant = Quadrant.IV
    dwarf = "Sparse linear algebra"
    baseline_name = "cuSPARSE SpGEMM v12.8"
    has_cce = True
    edp_repeats = 5_000

    def __init__(self, scale: float = 1.0,
                 exec_scale: float = EXEC_SCALE) -> None:
        self.scale = scale
        self.exec_scale = exec_scale

    # ------------------------------------------------------------------
    def cases(self) -> list[WorkloadCase]:
        return [WorkloadCase(label=m.name, params={"matrix": m.name})
                for m in SPMV_MATRICES]

    # ------------------------------------------------------------------
    def prepare(self, case: WorkloadCase, seed: int = 1325) -> dict:
        a = generate_matrix(case["matrix"], scale=self.exec_scale, seed=seed)
        return {"a": a, "mbsr": MbsrMatrix.from_csr(a)}

    def reference(self, data: dict) -> CsrMatrix:
        """Serial ground truth: scalar expansion in row-k order with
        strictly sequential duplicate accumulation.

        Each row chunk of the expansion sums into a dense accumulator over
        its rows x column window (Gustavson's SPA): ``bincount`` adds every
        product into its slot in argument order, starting from 0.0, so
        each entry is its products' first-to-last sum with no sort.
        Presence comes from a count, so sums that cancel to exactly 0.0
        stay stored entries.  A chunk holds at most ``SLOT_CAP`` slots and
        ~512K products.  Its entries come out row-major, and rows never
        straddle a chunk, so the concatenated chunks are the CSR arrays
        themselves."""
        a: CsrMatrix = data["a"]
        rows: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        cols: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        sums: list[np.ndarray] = [np.empty(0)]
        for r0, r1, slot, col, val in a.expand_chunks(
                a, chunk_rows=max(1, SLOT_CAP // a.n_cols)):
            lo = int(col.min())
            width = int(col.max()) - lo + 1
            n_slots = (r1 - r0) * width
            # slot = row * width + (col - lo), in the row buffer
            slot *= width
            slot += col
            slot -= lo
            present = np.flatnonzero(np.bincount(slot, minlength=n_slots))
            sums.append(np.bincount(slot, weights=val,
                                    minlength=n_slots)[present])
            row = present // width
            rows.append(row + r0)
            cols.append(present - row * width + lo)
        return CsrMatrix(row_pointers(np.concatenate(rows), a.n_rows),
                         np.concatenate(cols), np.concatenate(sums), a.shape)

    # ------------------------------------------------------------------
    def execute(self, variant: Variant, data: dict,
                device: Device) -> KernelResult:
        a: CsrMatrix = data["a"]
        if variant is Variant.BASELINE:
            out = a.spgemm(a)
        elif variant is Variant.CCE or warp_events.TRACER is not None:
            # under the warp sanitizer each variant replays its own traffic
            out = self._block_spgemm(data["mbsr"],
                                     tree=variant is Variant.CCE)
        else:
            # TC and CC run the identical block sweep (bit-identity by
            # construction), so within one prepared case the second of
            # them takes the first's output out of ``data`` and reuses it
            out = data.pop("_block_out", None)
            if out is None:
                out = self._block_spgemm(data["mbsr"], tree=False)
                data["_block_out"] = out
        if "sizes" not in data:     # once per prepared case
            m = data["mbsr"]
            data["sizes"] = expansion_sizes(
                a, (m.block_indptr, m.block_indices))
        stats = self._stats(variant, a, data["sizes"])
        return device.resolve(stats, output=out)

    @staticmethod
    def _block_products(m: MbsrMatrix
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Block-level expansion of C = M @ M: for every pair of blocks
        (i,k) x (k,j) returns (out block row, out block col, A block index,
        B block index)."""
        b_len = np.diff(m.block_indptr)
        expand = b_len[m.block_indices]
        seg = np.cumsum(expand) - expand
        # B position of product j of block entry e is start[e] + j, so one
        # gather through the entry map replaces the double gather
        start = m.block_indptr[m.block_indices] - seg
        ablk = np.repeat(np.arange(m.n_blocks, dtype=np.int64), expand)
        b_pos = start[ablk] + np.arange(len(ablk), dtype=np.int64)
        return (m.block_row_of_block()[ablk], m.block_indices[b_pos],
                ablk, b_pos)

    def _block_spgemm(self, m: MbsrMatrix, tree: bool) -> CsrMatrix:
        """TC/CC (``tree=False``) or CC-E (``tree=True``) block SpGEMM.

        The output blocks come sorted by (block row, block col), so they
        expand to CSR row-major without a sort (:func:`blocks_to_csr`);
        the sweep's gathered operands are released before that."""
        key, acc = self._block_sums(m, tree)
        brow, bcol = np.divmod(key, m.n_block_cols + 1)
        return blocks_to_csr(row_pointers(brow, m.n_block_rows), bcol, acc,
                             m.shape)

    def _block_sums(self, m: MbsrMatrix, tree: bool
                    ) -> tuple[np.ndarray, np.ndarray]:
        """The output blocks of C = M @ M: their ascending keys
        ``block_row * (n_block_cols + 1) + block_col`` and their 4x4 sums."""
        brow, bcol, ablk, bblk = self._block_products(m)
        nbc = m.n_block_cols + 1
        order, key = stable_order(brow * np.int64(nbc) + bcol)
        ablk, bblk = ablk[order], bblk[order]
        uniq_mask = np.r_[True, key[1:] != key[:-1]] if len(key) else \
            np.empty(0, dtype=bool)
        group = np.cumsum(uniq_mask) - 1 if len(key) else key
        n_out = int(group[-1]) + 1 if len(key) else 0
        starts = np.flatnonzero(uniq_mask)
        if not tree:
            # TC/CC: each output block's duplicate run is one chain; the
            # sorted order makes runs contiguous, so the whole product set
            # is one ragged launch plan (bucketed by duplicate count) with
            # the same sequential per-block accumulation order as the
            # round-by-round loop it replaces.
            dup = np.diff(np.r_[starts, len(key)])
            plan = LaunchPlan()
            h = plan.ragged(m.blocks[ablk], m.blocks[bblk], dup, starts)
            acc = execute_plan(plan, label="spgemm")[h]
        else:
            acc = np.zeros((n_out, BLOCK, BLOCK))
            within = (np.arange(len(key), dtype=np.int64)
                      - starts[group]) if len(key) else key
            max_dup = int(within.max()) + 1 if len(key) else 0
            for i in range(max_dup):
                sel = within == i
                if not sel.any():
                    continue
                lhs = m.blocks[ablk[sel]]
                rhs = m.blocks[bblk[sel]]
                # essential path: k pairs combined by a binary tree
                prods = lhs[:, :, :, np.newaxis] * rhs[:, np.newaxis, :, :]
                prods = np.swapaxes(prods, 2, 3)  # (p, i, j, k)
                step = (prods[..., 0] + prods[..., 2]) \
                    + (prods[..., 1] + prods[..., 3])
                acc[group[sel]] += step
        return key[uniq_mask], acc

    # ------------------------------------------------------------------
    def analytic_stats(self, variant: Variant,
                       case: WorkloadCase) -> KernelStats:
        return self._stats(variant,
                           *_analytic_matrix(case["matrix"], self.scale))

    def _stats(self, variant: Variant, a: CsrMatrix,
               sizes: tuple[float, float, int]) -> KernelStats:
        """Counters of ``a`` with expansion sizes ``sizes``
        (:func:`expansion_sizes`)."""
        scalar_products, block_products, blocks = sizes
        st = KernelStats()
        st.essential_flops = 2.0 * scalar_products
        c_bytes_est = 12.0 * min(scalar_products, float(a.n_rows) * 512)
        if variant is Variant.BASELINE:
            st.add_fma(2.0 * scalar_products)
            st.cc_efficiency = CC_EFF
            st.mlp = MLP_IRREGULAR
            # expand: A streams once; every product gathers one B entry
            st.read_dram(12.0 * a.nnz, segment_bytes=1 << 12)
            st.read_dram(12.0 * scalar_products * BASE_REUSE,
                         segment_bytes=12)
        else:
            block_bytes = BLOCK * BLOCK * 8.0 + 12.0   # payload + indices
            # one 8x4 x 4x8 MMA evaluates 4 quadrant products of which the
            # two diagonal tiles are consumed ("half of the 8x8 output")
            mmas = block_products / 2.0
            if variant is Variant.TC:
                st.add_mma_fp64(mmas, output_useful=32.0 * mmas)
                st.tc_efficiency = TC_EFF
            elif variant is Variant.CC:
                st.add_mma_as_fma(mmas)
                st.cc_efficiency = CC_EFF_MMA
                st.mlp = MLP_MMA_CC
            else:  # CC-E: the 4x4x4 block products without the MMA padding
                st.add_fma(2.0 * block_products * BLOCK ** 3)
                st.cc_efficiency = CC_EFF
            st.read_dram(block_bytes * blocks, segment_bytes=128)
            st.read_dram(block_bytes * block_products * TC_REUSE,
                         segment_bytes=128)
        st.write_dram(c_bytes_est, segment_bytes=1 << 10)
        st.add_l1(16.0 * scalar_products)
        return st

"""Modified Block Sparse Row (mBSR) storage, as used by AmgT's SpGEMM.

AmgT (Lu et al., SC'24) partitions sparse matrices into dense 4x4 blocks
(mBSR) and pairs vertically adjacent blocks into 8x4 operands for the FP64
``mma_m8n8k4`` instruction.  An mBSR matrix is structurally a CSR matrix over
*block* coordinates whose values are dense 4x4 tiles (zero padded at the
fringe and inside partially-filled blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CsrMatrix, stable_order

__all__ = ["MbsrMatrix", "BLOCK"]

BLOCK = 4


@dataclass
class MbsrMatrix:
    """4x4-blocked sparse matrix."""

    #: CSR over block coordinates
    block_indptr: np.ndarray
    block_indices: np.ndarray
    #: dense block values, shape (n_blocks, 4, 4)
    blocks: np.ndarray
    #: logical (element) shape
    shape: tuple[int, int]
    #: number of stored scalar nonzeros (pre-blocking)
    nnz: int

    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, a: CsrMatrix) -> "MbsrMatrix":
        n_rows, n_cols = a.shape
        nbr = (n_rows + BLOCK - 1) // BLOCK
        if a.nnz == 0:
            return cls(np.zeros(nbr + 1, dtype=np.int64),
                       np.empty(0, dtype=np.int64),
                       np.empty((0, BLOCK, BLOCK)), a.shape, 0)
        entry_row = a.row_of_entry()
        key_cols = np.int64(n_cols // BLOCK + 1)
        order, key_s = stable_order(
            entry_row // BLOCK * key_cols + a.indices // BLOCK)
        uniq_mask = np.r_[True, key_s[1:] != key_s[:-1]]
        block_of_entry = np.empty(a.nnz, dtype=np.int64)
        block_of_entry[order] = np.cumsum(uniq_mask) - 1
        n_blocks = int(np.count_nonzero(uniq_mask))
        # one flat index into the block payloads performs the
        # (block, row, col) scatter, in entry order
        flat = (block_of_entry * BLOCK + entry_row % BLOCK) * BLOCK \
            + a.indices % BLOCK
        blocks = np.zeros((n_blocks, BLOCK, BLOCK))
        blocks.reshape(-1)[flat] = a.data
        u_brow, u_bcol = np.divmod(key_s[uniq_mask], key_cols)
        indptr = np.zeros(nbr + 1, dtype=np.int64)
        indptr[1:] = np.bincount(u_brow, minlength=nbr)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, u_bcol, blocks, a.shape, a.nnz)

    # ------------------------------------------------------------------
    @property
    def n_block_rows(self) -> int:
        return len(self.block_indptr) - 1

    @property
    def n_block_cols(self) -> int:
        return (self.shape[1] + BLOCK - 1) // BLOCK

    @property
    def n_blocks(self) -> int:
        return self.blocks.shape[0]

    @property
    def fill_ratio(self) -> float:
        """Scalar nonzeros per stored block slot (<= 1; low values mean the
        4x4 blocking carries a lot of explicit zeros)."""
        slots = self.n_blocks * BLOCK * BLOCK
        return self.nnz / slots if slots else 0.0

    def block_row_of_block(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_block_rows, dtype=np.int64),
                         np.diff(self.block_indptr))

    def to_csr(self) -> CsrMatrix:
        """Expand back to element CSR (drops explicit stored zeros)."""
        if self.n_blocks == 0:
            return CsrMatrix(np.zeros(self.shape[0] + 1, dtype=np.int64),
                             np.empty(0, dtype=np.int64), np.empty(0),
                             self.shape)
        brow = self.block_row_of_block()
        rr, cc = np.nonzero(self.blocks.reshape(self.n_blocks, -1))
        local_r, local_c = np.divmod(cc, BLOCK)
        rows = brow[rr] * BLOCK + local_r
        cols = self.block_indices[rr] * BLOCK + local_c
        vals = self.blocks[rr, local_r, local_c]
        keep = (rows < self.shape[0]) & (cols < self.shape[1])
        return CsrMatrix.from_coo(rows[keep], cols[keep], vals[keep],
                                  self.shape, sum_duplicates=False)

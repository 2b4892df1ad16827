"""Modified Block Sparse Row (mBSR) storage, as used by AmgT's SpGEMM.

AmgT (Lu et al., SC'24) partitions sparse matrices into dense 4x4 blocks
(mBSR) and pairs vertically adjacent blocks into 8x4 operands for the FP64
``mma_m8n8k4`` instruction.  An mBSR matrix is structurally a CSR matrix over
*block* coordinates whose values are dense 4x4 tiles (zero padded at the
fringe and inside partially-filled blocks).

Construction is two steps.  The layout step (:func:`block_pattern`) finds
the block pattern, the CSR over block coordinates; block counts and block
products read only that.  The fill step (:meth:`MbsrMatrix.from_csr`)
scatters the entries into the 4x4 payloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CsrMatrix, sorted_distinct

__all__ = ["MbsrMatrix", "BLOCK", "block_pattern"]

BLOCK = 4


def _block_keys(a: CsrMatrix) -> tuple[np.ndarray, np.int64]:
    """Each entry's block key ``block_row * key_cols + block_col``, in
    entry order, and ``key_cols``."""
    nbr = (a.n_rows + BLOCK - 1) // BLOCK
    key_cols = np.int64(a.n_cols // BLOCK + 1)
    row_bounds = a.indptr[np.minimum(
        np.arange(nbr + 1, dtype=np.int64) * BLOCK, a.n_rows)]
    keys = np.repeat(np.arange(nbr, dtype=np.int64) * key_cols,
                     np.diff(row_bounds))
    keys += a.indices // BLOCK
    return keys, key_cols


def block_pattern(a: CsrMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The mBSR layout of ``a``: ``(block_indptr, block_indices)``, the CSR
    over block coordinates of every 4x4 block holding an entry.

    Only the distinct block keys matter, so no stable sort is needed."""
    nbr = (a.n_rows + BLOCK - 1) // BLOCK
    indptr = np.zeros(nbr + 1, dtype=np.int64)
    if a.nnz == 0:
        return indptr, np.empty(0, dtype=np.int64)
    keys, key_cols = _block_keys(a)
    brow, bcol = np.divmod(sorted_distinct(keys), key_cols)
    indptr[1:] = np.bincount(brow, minlength=nbr)
    np.cumsum(indptr, out=indptr)
    return indptr, bcol


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
        """The layout step (:func:`block_pattern`), then the fill step:
        each entry finds its block by binary search of the sorted block
        keys and lands in the payloads through one flat scatter."""
        indptr, indices = block_pattern(a)
        blocks = np.zeros((len(indices), BLOCK, BLOCK))
        if a.nnz:
            keys, key_cols = _block_keys(a)
            pattern_keys = np.repeat(
                np.arange(len(indptr) - 1, dtype=np.int64) * key_cols,
                np.diff(indptr))
            pattern_keys += indices
            block_of_entry = np.searchsorted(pattern_keys, keys)
            # one flat index into the block payloads performs the
            # (block, row, col) scatter, in entry order
            flat = (block_of_entry * BLOCK + a.row_of_entry() % BLOCK) \
                * BLOCK + a.indices % BLOCK
            blocks.reshape(-1)[flat] = a.data
        return cls(indptr, indices, blocks, a.shape, a.nnz)

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

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

from .csr import CsrMatrix, row_pointers, sorted_distinct

__all__ = ["MbsrMatrix", "BLOCK", "block_pattern", "blocks_to_csr"]

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
    if a.nnz == 0:
        return np.zeros(nbr + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    keys, key_cols = _block_keys(a)
    brow, bcol = np.divmod(sorted_distinct(keys), key_cols)
    return row_pointers(brow, nbr), bcol


def blocks_to_csr(block_indptr: np.ndarray, block_indices: np.ndarray,
                  blocks: np.ndarray, shape: tuple[int, int]) -> CsrMatrix:
    """Expand 4x4 ``blocks`` laid out by ``(block_indptr, block_indices)``
    to element CSR, row-major and without a sort.

    Block columns must ascend within each block row, as
    :func:`block_pattern` and the block SpGEMM emit them.  Scalar row
    ``4 R + i`` is then local row ``i`` of block row ``R``'s blocks in
    block order, so every 4-wide block segment's CSR position follows
    from its block row's first block and block count.  Exact zeros (of
    either sign) and the cells past the fringe are dropped."""
    n_rows, n_cols = shape
    n_blocks = len(block_indices)
    first, count = block_indptr[:-1], np.diff(block_indptr)
    brow = np.repeat(np.arange(len(count), dtype=np.int64), count)
    rank = np.arange(n_blocks, dtype=np.int64) - first[brow]
    local = np.arange(BLOCK, dtype=np.int64)
    # the 4-wide segment (block of rank j in block row R, local row i)
    # lands at BLOCK * first[R] + i * count[R] + j in row-major order
    dest = (BLOCK * first[brow] + rank)[:, np.newaxis] \
        + local * count[brow][:, np.newaxis]
    seg = np.empty(n_blocks * BLOCK, dtype=np.int64)
    seg[dest.ravel()] = np.arange(n_blocks * BLOCK, dtype=np.int64)
    # the segment each scalar row starts at; rows past the fringe are last
    row_start = np.r_[(BLOCK * first[:, np.newaxis]
                       + local * count[:, np.newaxis]).ravel(),
                      n_blocks * BLOCK]
    seg = seg[:row_start[n_rows]]
    vals = blocks.reshape(-1, BLOCK)[seg]
    cols = (block_indices[seg // BLOCK] * BLOCK)[:, np.newaxis] + local
    keep = (vals != 0.0) & (cols < n_cols)
    kept = np.r_[0, np.cumsum(keep.sum(axis=1))]
    return CsrMatrix(kept[row_start[:n_rows + 1]], cols[keep], vals[keep],
                     shape)


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
        """Expand back to element CSR (drops explicit stored zeros), row-major
        without a sort (:func:`blocks_to_csr`)."""
        return blocks_to_csr(self.block_indptr, self.block_indices,
                             self.blocks, self.shape)

"""DASP-style storage for MMU-accelerated SpMV (Lu & Liu, SC'23).

DASP groups the rows of a CSR matrix by nonzero count and reorganizes them
into dense 8x4 tiles that feed FP64 ``mma_m8n8k4`` instructions:

* rows are sorted by length and assigned to one of three categories
  (``long`` / ``medium`` / ``short``) — the paper's "three categories";
* eight consecutive rows (after sorting) form a *group*; a group with
  longest row length L spans ``ceil(L / 4)`` k-steps;
* k-step ``s`` of a group is an 8x4 tile of values (zero-padded) plus the
  matching 8x4 tile of column indices.

The SpMV then computes, per group and step, ``C += A_tile @ B_tile`` where
``B_tile[k, j] = x[cols[j, k]]`` — so the row result appears on the
*diagonal* of the 8x8 accumulator (Quadrant IV: full input, partial output).

Construction is two steps.  The layout step (:class:`DaspLayout`) sorts
the row lengths and fixes the permutation, the group step counts and the
tile offsets; the tile and slot counts of the performance model read only
these.  The fill step (:meth:`DaspMatrix.from_csr`) scatters the entries
into the tiles that the functional SpMV multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CsrMatrix

__all__ = ["DaspLayout", "DaspMatrix", "ROW_CATEGORY_BOUNDS"]

#: rows with nnz > 512 are "long", > 32 "medium", else "short"
ROW_CATEGORY_BOUNDS = (32, 512)


@dataclass
class DaspLayout:
    """Where a CSR matrix's rows land in DASP 8x4 tile groups, without the
    tile payloads: everything the op and byte counts read."""

    #: permutation: sorted position -> original row id
    row_perm: np.ndarray
    #: per-group k-step counts, shape (n_groups,)
    group_steps: np.ndarray
    #: start offset of each group's tiles in the tile arrays, (n_groups+1,)
    group_offsets: np.ndarray
    shape: tuple[int, int]
    nnz: int

    @classmethod
    def from_csr(cls, a: CsrMatrix) -> "DaspLayout":
        """The layout step of :meth:`DaspMatrix.from_csr`: one stable sort
        of the row lengths, no per-entry work."""
        lengths = a.row_lengths()
        # sort rows by decreasing length: groups then have homogeneous
        # lengths, minimizing zero padding (DASP's categorization effect)
        perm = np.argsort(-lengths, kind="stable").astype(np.int64)
        n_groups = (a.n_rows + 7) // 8
        # per-group steps from the longest member row, which is the first
        # of its group in the length-descending order
        group_steps = np.maximum((lengths[perm[::8]] + 3) // 4, 1)
        group_offsets = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(group_steps, out=group_offsets[1:])
        return cls(row_perm=perm, group_steps=group_steps,
                   group_offsets=group_offsets, shape=a.shape, nnz=a.nnz)

    @property
    def n_groups(self) -> int:
        return len(self.group_steps)

    @property
    def total_tiles(self) -> int:
        return int(self.group_offsets[-1])

    @property
    def slots(self) -> int:
        """Value slots of all tiles, zero padding included."""
        return 32 * self.total_tiles

    @property
    def padding_fraction(self) -> float:
        """Fraction of tile slots that are zero padding."""
        return 1.0 - self.nnz / self.slots if self.slots else 0.0


@dataclass
class DaspMatrix(DaspLayout):
    """A CSR matrix reorganized into DASP 8x4 tile groups: its
    :class:`DaspLayout` filled with values, columns and the validity
    mask."""

    #: tile values, shape (total_steps, 8, 4), zero padded
    values: np.ndarray
    #: tile column indices, shape (total_steps, 8, 4); padding points at 0
    cols: np.ndarray
    #: validity mask of entries, shape (total_steps, 8, 4)
    mask: np.ndarray
    #: row categories in sorted order ("long"/"medium"/"short" per group row)
    categories: np.ndarray

    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, a: CsrMatrix) -> "DaspMatrix":
        """The layout step, then the fill step: scatter each row's
        nonzeros into its group's tile stack."""
        lay = DaspLayout.from_csr(a)
        n_rows = a.n_rows
        total_steps = lay.total_tiles
        values = np.zeros((total_steps, 8, 4))
        cols = np.zeros((total_steps, 8, 4), dtype=np.int64)
        mask = np.zeros((total_steps, 8, 4), dtype=bool)

        # vectorized across all entries at once through one flat
        # (step, lane, kk) index
        if a.nnz:
            sorted_pos_of_row = np.empty(n_rows, dtype=np.int64)
            sorted_pos_of_row[lay.row_perm] = np.arange(n_rows)
            entry_row = a.row_of_entry()
            pos = sorted_pos_of_row[entry_row]          # sorted row position
            # index of the entry within its row
            within = (np.arange(a.nnz, dtype=np.int64)
                      - a.indptr[entry_row])
            step = lay.group_offsets[pos // 8] + within // 4
            flat = (step * 8 + pos % 8) * 4 + within % 4
            values.reshape(-1)[flat] = a.data
            cols.reshape(-1)[flat] = a.indices
            mask.reshape(-1)[flat] = True

        # row lengths in sorted order; the padding rows count as empty
        sorted_len = np.zeros(lay.n_groups * 8, dtype=np.int64)
        sorted_len[:n_rows] = a.row_lengths()[lay.row_perm]
        cat = np.full(len(sorted_len), "short", dtype=object)
        s_lo, s_hi = ROW_CATEGORY_BOUNDS
        cat[sorted_len > s_lo] = "medium"
        cat[sorted_len > s_hi] = "long"
        return cls(**vars(lay), values=values, cols=cols, mask=mask,
                   categories=np.asarray(cat))

    def gather_b_tiles(self, x: np.ndarray) -> np.ndarray:
        """Build the 4x8 B tiles: ``B[s, k, j] = x[cols[s, j, k]]`` with
        padding forced to zero so padded lanes contribute nothing."""
        b = x[self.cols]                      # (steps, 8, 4) per-row gather
        b = np.where(self.mask, b, 0.0)
        return np.swapaxes(b, 1, 2).copy()    # -> (steps, 4, 8)

    def category_histogram(self) -> dict[str, int]:
        vals, counts = np.unique(self.categories.astype(str),
                                 return_counts=True)
        return dict(zip(vals.tolist(), counts.tolist()))

"""BerryBees-style 8x128 bitmap "slice-set" graph storage (Niu & Casas,
PPoPP'25).

The adjacency matrix is partitioned into *slices* of 8 rows; each slice
stores the 8x128-bit tiles ("blocks") that contain at least one edge,
identified by their 128-column block index.  Tiles are kept bit-packed as
``(8, 2)`` uint64 words, ready for the single-bit ``mma_m8n8k128``
AND+POPC instruction emulated in :mod:`repro.gpu.mma`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CsrMatrix

__all__ = ["BitmapGraph", "SLICE_ROWS", "TILE_COLS"]

SLICE_ROWS = 8
TILE_COLS = 128


@dataclass
class BitmapGraph:
    """Bit-packed 8x128 tiled adjacency structure."""

    #: number of vertices
    n: int
    #: tile slice (8-row group) index of each stored tile, sorted
    tile_slice: np.ndarray
    #: tile column-block index of each stored tile
    tile_cblock: np.ndarray
    #: packed tile payloads, shape (n_tiles, 8, 2) uint64
    tiles: np.ndarray
    #: CSR offsets into the tile arrays per column block (for frontier
    #: gathering): tiles sorted by (cblock, slice)
    cblock_ptr: np.ndarray
    #: number of edges stored
    n_edges: int

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, src: np.ndarray, dst: np.ndarray, n: int
                   ) -> "BitmapGraph":
        """Build from a directed edge list (edge u->v sets bit A[u, v])."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if len(src) != len(dst):
            raise ValueError("src and dst must have equal length")
        if len(src) and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= n):
            raise ValueError("vertex id out of range")
        sl = src // SLICE_ROWS
        cb = dst // TILE_COLS
        # sort by (cblock, slice) so the frontier sweep can binary-search
        # all tiles touching an active column block
        tile_key = cb * ((n + SLICE_ROWS - 1) // SLICE_ROWS + 1) + sl
        order = np.argsort(tile_key, kind="stable")
        tk = tile_key[order]
        uniq = np.r_[True, tk[1:] != tk[:-1]]
        tile_id = np.cumsum(uniq) - 1
        n_tiles = int(tile_id[-1]) + 1 if len(src) else 0
        bits = np.zeros((n_tiles, SLICE_ROWS, TILE_COLS), dtype=bool)
        bits[tile_id, src[order] % SLICE_ROWS, dst[order] % TILE_COLS] = True
        packed_bytes = np.packbits(bits, axis=-1, bitorder="little")
        tiles = packed_bytes.view(np.uint64).reshape(n_tiles, SLICE_ROWS, 2) \
            if n_tiles else np.empty((0, SLICE_ROWS, 2), dtype=np.uint64)
        tile_slice = sl[order][uniq] if n_tiles else np.empty(0, np.int64)
        tile_cblock = cb[order][uniq] if n_tiles else np.empty(0, np.int64)
        n_cblocks = (n + TILE_COLS - 1) // TILE_COLS
        cblock_ptr = np.zeros(n_cblocks + 1, dtype=np.int64)
        cblock_ptr[1:] = np.bincount(tile_cblock, minlength=n_cblocks)
        np.cumsum(cblock_ptr, out=cblock_ptr)
        return cls(n=n, tile_slice=tile_slice, tile_cblock=tile_cblock,
                   tiles=tiles, cblock_ptr=cblock_ptr, n_edges=len(src))

    @classmethod
    def from_csr(cls, a: CsrMatrix) -> "BitmapGraph":
        """Adjacency CSR (row u lists neighbors of u) to bitmap tiles."""
        if a.n_rows != a.n_cols:
            raise ValueError("adjacency matrix must be square")
        return cls.from_edges(a.row_of_entry(), a.indices, a.n_rows)

    # ------------------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        return self.tiles.shape[0]

    @property
    def n_slices(self) -> int:
        return (self.n + SLICE_ROWS - 1) // SLICE_ROWS

    @property
    def n_cblocks(self) -> int:
        return len(self.cblock_ptr) - 1

    @property
    def bits_per_edge(self) -> float:
        """Storage density: stored tile bits per edge (the paper highlights
        BerryBees' low memory footprint)."""
        if self.n_edges == 0:
            return 0.0
        return self.n_tiles * SLICE_ROWS * TILE_COLS / self.n_edges

    def tiles_for_cblocks(self, cblocks: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All stored tiles whose column block is in ``cblocks``.

        Returns (tile_indices, slice_ids, cblock_ids)."""
        cblocks = np.asarray(cblocks, dtype=np.int64)
        starts = self.cblock_ptr[cblocks]
        stops = self.cblock_ptr[cblocks + 1]
        counts = stops - starts
        total = int(counts.sum())
        if total == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, e
        idx = np.repeat(starts, counts)
        within = (np.arange(total, dtype=np.int64)
                  - np.repeat(np.cumsum(counts) - counts, counts))
        tile_idx = idx + within
        return tile_idx, self.tile_slice[tile_idx], self.tile_cblock[tile_idx]

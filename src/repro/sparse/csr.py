"""Compressed Sparse Row matrices, built from scratch.

This is the package's own CSR substrate (scipy.sparse appears only in tests,
as an independent cross-check).  Besides construction and conversion it
provides the *accumulation-order-controlled* SpMV flavours that the accuracy
study (Table 6) depends on:

* :meth:`CsrMatrix.spmv_serial` — strictly left-to-right per-row sums, the
  paper's "naive CPU serial" ground truth;
* :meth:`CsrMatrix.spmv_warp_tree` — cuSPARSE-CSR-vector-style order: 32-wide
  strided partial sums followed by a binary reduction tree.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["CsrMatrix", "row_pointers", "sorted_distinct", "stable_order"]

#: fused sort keys stay below 2**62, clear of the int64 sign bit
_FUSED_KEY_BITS = 62
#: scalar products per SpGEMM expansion chunk
_PRODUCT_CHUNK = 1 << 19


def stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(np.argsort(keys, kind="stable"), keys[order])`` for integer keys.

    Each key is fused with its position, ``key << b | i`` with ``b`` bits
    for the positions, so the fused keys are unique and any sort of them
    yields the stable order; one unstable in-place ``sort`` then replaces
    the stable argsort and the gather of the sorted keys.  The fused key is
    built in place (shift, then OR the positions into the same buffer, whose
    position buffer becomes the permutation).  Negative keys, or keys whose
    bits plus ``b`` exceed 62, fall back to the stable argsort.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    b = (n - 1).bit_length() if n else 0
    if n == 0 or keys.min() < 0 \
            or int(keys.max()).bit_length() + b > _FUSED_KEY_BITS:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    fused = np.left_shift(keys, b)
    order = np.arange(n, dtype=np.int64)
    fused |= order
    fused.sort()
    np.bitwise_and(fused, (1 << b) - 1, out=order)
    fused >>= b
    return order, fused


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of integer ``keys``, ascending.

    Runs of equal keys (neighbouring entries in one block or tile) are
    dropped first, so the one unstable in-place sort sees fewer keys.
    On the paper-scale matrices' mBSR block keys ``np.unique`` (NumPy
    2.4) took about four times as long.  ``keys`` is left as it was."""
    if len(keys) == 0:
        return keys.copy()
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    keys.sort()
    return keys[np.r_[True, keys[1:] != keys[:-1]]]


def row_pointers(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """The CSR ``indptr`` whose row ``r`` holds one entry per occurrence
    of ``r`` in ``rows``."""
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    indptr[1:] = np.bincount(rows, minlength=n_rows)
    np.cumsum(indptr, out=indptr)
    return indptr


def _row_cuts(row_prod: np.ndarray,
              chunk_rows: int) -> list[tuple[int, int]]:
    """Row-aligned chunk boundaries: a cut every ``chunk_rows`` rows,
    refined wherever ~``_PRODUCT_CHUNK`` scalar products have accrued.
    ``row_prod`` maps row boundary -> cumulative product count."""
    n_rows = len(row_prod) - 1
    cuts = set(range(0, n_rows, chunk_rows))
    cuts.add(n_rows)
    total = int(row_prod[-1])
    if total > _PRODUCT_CHUNK:
        targets = np.arange(1, total // _PRODUCT_CHUNK + 1,
                            dtype=np.int64) * _PRODUCT_CHUNK
        cuts.update(np.searchsorted(row_prod, targets).tolist())
    ordered = sorted(cuts)
    return list(zip(ordered[:-1], ordered[1:]))


@dataclass
class CsrMatrix:
    """A CSR matrix with int64 indexing and float64 values."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        n_rows, n_cols = self.shape
        if len(self.indptr) != n_rows + 1:
            raise ValueError(
                f"indptr length {len(self.indptr)} != n_rows+1 ({n_rows + 1})")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data lengths differ")
        if len(self.indices) and (self.indices.min() < 0
                                  or self.indices.max() >= n_cols):
            raise ValueError("column index out of range")

    # ------------------------------------------------------------ builders
    @classmethod
    def from_coo(cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 shape: tuple[int, int], *, sum_duplicates: bool = True
                 ) -> "CsrMatrix":
        """Build from COO triplets; duplicates are summed by default.

        One stable sort (:func:`stable_order`) of the fused
        ``row * n_cols + col`` key orders the entries row-major, duplicates
        keeping their input order.
        ``bincount`` then sums duplicates and counts row lengths; it adds
        in index order from 0.0, exactly as ``np.add.at`` would.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("COO arrays must have equal length")
        n_rows, n_cols = shape
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of range")
        if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column index out of range")
        # the fused keys run up to n_rows * n_cols - 1
        if int(n_rows) * int(n_cols) - 1 > np.iinfo(np.int64).max:
            raise ValueError(f"shape {shape} overflows the int64 entry key")
        order, keys = stable_order(rows * np.int64(n_cols) + cols)
        vals = vals[order]
        if sum_duplicates and len(keys):
            first = np.r_[True, keys[1:] != keys[:-1]]
            vals = np.bincount(np.cumsum(first) - 1, weights=vals)
            keys = keys[first]
        # the sorted keys decode to the sorted coordinates
        rows = keys // n_cols
        return cls(row_pointers(rows, n_rows), keys - rows * n_cols, vals,
                   shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CsrMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("dense input must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape,
                            sum_duplicates=False)

    # ------------------------------------------------------------ basics
    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_of_entry(self) -> np.ndarray:
        """Row id of every stored entry (expanded indptr)."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         self.row_lengths())

    def to_dense(self) -> np.ndarray:
        """Dense copy (a repeated position keeps its last stored value)."""
        dense = np.zeros(self.shape)
        dense[self.row_of_entry(), self.indices] = self.data
        return dense

    def transpose(self) -> "CsrMatrix":
        """CSR of A^T via a counting sort on column indices."""
        return CsrMatrix.from_coo(self.indices, self.row_of_entry(),
                                  self.data, (self.n_cols, self.n_rows),
                                  sum_duplicates=False)

    # -------------------------------------------------------------- SpMV
    def spmv_serial(self, x: np.ndarray) -> np.ndarray:
        """Ground-truth SpMV: per-row strictly left-to-right accumulation.

        The loop is vectorized *across rows* while staying strictly
        sequential *within* each row (``np.add.reduceat`` cannot be used: it
        switches to pairwise summation for long segments).  A unit test
        checks bit-equality against an explicit Python loop.
        """
        x = self._check_x(x)
        out = np.zeros(self.n_rows)
        if self.nnz == 0:
            return out
        products = self.data * x[self.indices]
        lengths = self.row_lengths()
        starts = self.indptr[:-1]
        for i in range(int(lengths.max())):
            valid = i < lengths
            idx = np.minimum(starts + i, self.nnz - 1)
            out = np.where(valid, out + products[idx], out)
        return out

    def spmv_warp_tree(self, x: np.ndarray, width: int = 32) -> np.ndarray:
        """cuSPARSE CSR-vector-style SpMV order.

        Each row's products are first accumulated into ``width`` strided
        partial sums (lane ``l`` sums elements ``l, l+width, ...``
        sequentially), then combined by a binary shuffle-reduction tree —
        the classic warp-per-row GPU kernel.  Same mathematical result as
        :meth:`spmv_serial`, different rounding.
        """
        x = self._check_x(x)
        products = self.data * x[self.indices]
        lengths = self.row_lengths()
        out = np.zeros(self.n_rows)
        if self.nnz == 0:
            return out
        max_len = int(lengths.max())
        steps = (max_len + width - 1) // width
        # lane-partial accumulation: partials[r, l] built sequentially over
        # strided chunks, vectorized across rows
        partials = np.zeros((self.n_rows, width))
        offs = np.arange(width, dtype=np.int64)
        starts = self.indptr[:-1]
        for s in range(steps):
            pos = s * width + offs[np.newaxis, :]          # (rows, width)
            valid = pos < lengths[:, np.newaxis]
            idx = np.minimum(starts[:, np.newaxis] + pos, self.nnz - 1)
            contrib = np.where(valid, products[idx], 0.0)
            partials += contrib
        # binary reduction tree across lanes
        w = width
        while w > 1:
            half = w // 2
            partials[:, :half] = partials[:, :half] + partials[:, half:w]
            w = half
        out[:] = partials[:, 0]
        return out

    # ------------------------------------------------------------ SpGEMM
    def expand_chunks(self, other: "CsrMatrix", chunk_rows: int
                      ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray,
                                          np.ndarray]]:
        """Scalar expansion of ``self @ other`` in row-aligned chunks.

        Yields ``(r0, r1, row, col, val)`` per chunk of rows ``r0 .. r1-1``
        holding at least one product.  Products come in row-k order (A
        entries in CSR order, each against its B row in CSR order):
        product ``p`` is ``val[p] = self[r0 + row[p], k] *
        other[k, col[p]]``.  A cut falls every ``chunk_rows`` rows and
        wherever ~512K products have accrued, so a chunk's working set
        stays cache-resident; rows never straddle a chunk, so no output
        entry does either.  The three arrays are fresh per chunk.
        """
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"dimension mismatch: {self.shape} @ {other.shape}")
        # per-entry expansion counts and cumulative product offsets
        expand_all = other.row_lengths()[self.indices]
        segx = np.r_[0, np.cumsum(expand_all)]
        row_prod = segx[self.indptr]
        for r0, r1 in _row_cuts(row_prod, chunk_rows):
            lo, hi = int(self.indptr[r0]), int(self.indptr[r1])
            n_prod = int(row_prod[r1] - row_prod[r0])
            if n_prod == 0:
                continue
            # per-entry values repeat once per product (sequential writes);
            # only the B side is gathered: product j of entry e reads B
            # position start[e] + j, chunk-local
            expand = expand_all[lo:hi]
            start = other.indptr[self.indices[lo:hi]] \
                - (segx[lo:hi] - segx[lo])
            b_pos = np.repeat(start, expand) \
                + np.arange(n_prod, dtype=np.int64)
            row = np.repeat(np.arange(r1 - r0, dtype=np.int64),
                            np.diff(row_prod[r0:r1 + 1]))
            yield (r0, r1, row, other.indices[b_pos],
                   np.repeat(self.data[lo:hi], expand) * other.data[b_pos])

    def spgemm(self, other: "CsrMatrix", *, chunk_rows: int = 2048
               ) -> "CsrMatrix":
        """Row-merge SpGEMM ``self @ other`` (expansion + sort + compress),
        processed in row chunks to bound memory; any row-aligned chunking
        yields bit-identical results (tested).  Each chunk's compressed
        entries come out row-major with distinct keys, and rows never
        straddle a chunk, so the concatenated chunks are the CSR arrays
        themselves, with no closing sort."""
        rows: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        cols: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        vals: list[np.ndarray] = [np.empty(0)]
        for r0, _, row, col, val in self.expand_chunks(other, chunk_rows):
            # compress duplicates
            order, key = stable_order(row * np.int64(other.n_cols) + col)
            boundaries = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            vals.append(np.add.reduceat(val[order], boundaries))
            key = key[boundaries]
            row = key // other.n_cols
            rows.append(row + r0)
            cols.append(key - row * other.n_cols)
        return CsrMatrix(row_pointers(np.concatenate(rows), self.n_rows),
                         np.concatenate(cols), np.concatenate(vals),
                         (self.n_rows, other.n_cols))

    # ------------------------------------------------------------ helpers
    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValueError(
                f"x must have shape ({self.n_cols},), got {x.shape}")
        return x

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CsrMatrix(shape={self.shape}, nnz={self.nnz})")

"""Structural feature extraction for matrices and graphs (Figure 10).

The paper standardizes 'sparsity, row and column degree statistics, and
block structures' before its PCA of the SuiteSparse collection.  These
extractors compute that feature set from our CSR substrate.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CsrMatrix
from ..sparse.mbsr import BLOCK, block_pattern

__all__ = [
    "MATRIX_FEATURE_NAMES",
    "GRAPH_FEATURE_NAMES",
    "matrix_features",
    "graph_features",
]

MATRIX_FEATURE_NAMES = (
    "log_rows",
    "log_nnz",
    "log_density",
    "row_mean",
    "row_cv",
    "row_max_ratio",
    "col_cv",
    "bandwidth_ratio",
    "block_fill",
    "diag_fraction",
)

GRAPH_FEATURE_NAMES = (
    "log_vertices",
    "log_edges",
    "avg_degree",
    "degree_cv",
    "degree_max_ratio",
    "reciprocity",
    "locality",
    "hub_mass",
)


def matrix_features(a: CsrMatrix) -> np.ndarray:
    """Feature vector of one sparse matrix (MATRIX_FEATURE_NAMES order)."""
    n_rows, n_cols = a.shape
    nnz = max(a.nnz, 1)
    row_lengths = a.row_lengths().astype(np.float64)
    row_mean = nnz / max(n_rows, 1)
    row_std = float(row_lengths.std())
    col_counts = np.bincount(a.indices, minlength=n_cols).astype(np.float64) \
        if a.nnz else np.zeros(n_cols)
    col_mean = nnz / max(n_cols, 1)
    rows_of = a.row_of_entry()
    if a.nnz:
        band = np.abs(rows_of - a.indices)
        bandwidth_ratio = float(band.max()) / max(n_cols - 1, 1)
        diag_fraction = float((band == 0).sum()) / nnz
    else:
        bandwidth_ratio = 0.0
        diag_fraction = 0.0
    # scalar nonzeros per 4x4 block slot (``MbsrMatrix.fill_ratio``)
    block_fill = (a.nnz / (BLOCK * BLOCK * len(block_pattern(a)[1]))
                  if a.nnz else 0.0)
    return np.array([
        np.log10(max(n_rows, 1)),
        np.log10(nnz),
        np.log10(nnz / max(n_rows * n_cols, 1)),
        row_mean,
        row_std / max(row_mean, 1e-12),
        float(row_lengths.max()) / max(row_mean, 1e-12) if a.nnz else 0.0,
        float(col_counts.std()) / max(col_mean, 1e-12),
        bandwidth_ratio,
        block_fill,
        diag_fraction,
    ])


def graph_features(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Feature vector of one directed graph (GRAPH_FEATURE_NAMES order)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    m = max(len(src), 1)
    out_deg = np.bincount(src, minlength=n).astype(np.float64)
    avg = m / max(n, 1)
    # reciprocity: fraction of edges whose reverse also exists
    key = src * np.int64(n) + dst
    rkey = dst * np.int64(n) + src
    recip = float(np.isin(rkey, key).mean()) if len(src) else 0.0
    # locality: fraction of edges staying within a 128-id neighborhood
    locality = float((np.abs(src - dst) < 128).mean()) if len(src) else 0.0
    # hub mass: fraction of edges incident to the top 1% in-degree vertices
    in_deg = np.bincount(dst, minlength=n).astype(np.float64)
    k = max(n // 100, 1)
    hubs = np.argsort(-in_deg)[:k]
    hub_mass = float(np.isin(dst, hubs).mean()) if len(src) else 0.0
    return np.array([
        np.log10(max(n, 1)),
        np.log10(m),
        avg,
        float(out_deg.std()) / max(avg, 1e-12),
        float(out_deg.max()) / max(avg, 1e-12),
        recip,
        locality,
        hub_mass,
    ])

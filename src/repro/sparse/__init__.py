"""Sparse-matrix and graph storage substrates built from scratch.

scipy.sparse is deliberately not used here; it appears only in the test
suite as an independent cross-check of these implementations.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SLICE_ROWS": "bitmap", "TILE_COLS": "bitmap", "BitmapGraph": "bitmap",
    "CsrMatrix": "csr",
    "DaspLayout": "dasp", "DaspMatrix": "dasp",
    "EllMatrix": "ell",
    "read_matrix_market": "io", "write_matrix_market": "io",
    "BLOCK": "mbsr", "MbsrMatrix": "mbsr", "block_pattern": "mbsr",
})

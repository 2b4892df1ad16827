"""Sparse-matrix and graph storage substrates built from scratch.

scipy.sparse is deliberately not used here; it appears only in the test
suite as an independent cross-check of these implementations.
"""

from .bitmap import SLICE_ROWS, TILE_COLS, BitmapGraph
from .csr import CsrMatrix
from .dasp import DaspLayout, DaspMatrix
from .ell import EllMatrix
from .io import read_matrix_market, write_matrix_market
from .mbsr import BLOCK, MbsrMatrix, block_pattern

__all__ = [
    "BitmapGraph",
    "SLICE_ROWS",
    "TILE_COLS",
    "CsrMatrix",
    "DaspLayout",
    "DaspMatrix",
    "EllMatrix",
    "read_matrix_market",
    "write_matrix_market",
    "MbsrMatrix",
    "BLOCK",
    "block_pattern",
]

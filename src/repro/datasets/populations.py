"""Population generators for the benchmark-coverage study (Figure 10).

The paper standardizes structural features of 2893 SuiteSparse matrices and
499 graphs, applies PCA, and shows the five chosen matrices/graphs span the
population.  Without the collection itself, we synthesize populations that
cover the same structural axes — size, density, degree skew, bandedness,
blockiness — from a fixed set of generator families swept over wide
parameter ranges.  The default population sizes match the paper; pass a
smaller ``count`` for quick runs.

Each item is made in two phases: a *draw* consumes the shared LCG stream
and produces raw arrays, and a pure *build* (CSR construction / edge
filtering) turns them into the yielded item, in-process, right after its
draw.  The build consumes no randomness, so the yielded sequence depends
only on the draw order (pinned by digests in the test suite).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..perf.instrument import stage
from ..sparse.csr import CsrMatrix
from .synthetic import Lcg

__all__ = ["matrix_population", "graph_population"]

_FAMILY_COUNT = 6

_CooDraw = tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]


def _random_uniform(n: int, per_row: int, rng: Lcg) -> _CooDraw:
    rows = np.repeat(np.arange(n, dtype=np.int64), per_row)
    cols = rng.integers(n * per_row, 0, n)
    return rows, cols, rng.uniform(n * per_row), (n, n)


def _banded(n: int, per_row: int, rng: Lcg) -> _CooDraw:
    band = max(per_row, 2)
    rows = np.repeat(np.arange(n, dtype=np.int64), per_row)
    cols = np.clip(rows + rng.integers(n * per_row, -band, band + 1), 0, n - 1)
    return rows, cols, rng.uniform(n * per_row), (n, n)


def _block_diag(n: int, per_row: int, rng: Lcg) -> _CooDraw:
    bs = max(per_row, 4)
    rows = np.repeat(np.arange(n, dtype=np.int64), per_row)
    cols = (rows // bs) * bs + rng.integers(n * per_row, 0, bs)
    cols = np.minimum(cols, n - 1)
    return rows, cols, rng.uniform(n * per_row), (n, n)


def _power_law_rows(n: int, per_row: int, rng: Lcg) -> _CooDraw:
    # heavy-tailed row lengths: a few hub rows carry most entries
    u = rng.uniform(n, 0.0, 1.0)
    lengths = np.minimum((per_row * (1.0 / np.maximum(u, 1e-3)) ** 0.7)
                         .astype(np.int64), n - 1)
    total = int(lengths.sum())
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    cols = rng.integers(total, 0, n)
    return rows, cols, rng.uniform(total), (n, n)


def _lower_triangular(n: int, per_row: int, rng: Lcg) -> _CooDraw:
    rows = np.repeat(np.arange(n, dtype=np.int64), per_row)
    cols = rng.integers(n * per_row, 0, n) % np.maximum(rows, 1)
    return rows, cols, rng.uniform(n * per_row), (n, n)


def _grid_stencil(n: int, per_row: int, rng: Lcg) -> _CooDraw:
    side = max(int(np.sqrt(n)), 2)
    n = side * side
    offs = np.array([0, -1, 1, -side, side], dtype=np.int64)[:max(per_row, 3)]
    rows = np.repeat(np.arange(n, dtype=np.int64), len(offs))
    cols = np.clip(rows + np.tile(offs, n), 0, n - 1)
    return rows, cols, rng.uniform(len(rows)), (n, n)


_MATRIX_FAMILIES = (_random_uniform, _banded, _block_diag, _power_law_rows,
                    _lower_triangular, _grid_stencil)


def _build_csr(draw: _CooDraw) -> CsrMatrix:
    """Pure build phase: COO draw -> CSR (no randomness consumed)."""
    rows, cols, vals, shape = draw
    return CsrMatrix.from_coo(rows, cols, vals, shape)


def matrix_population(count: int = 2893, seed: int = 1325,
                      max_rows: int = 2048) -> Iterator[CsrMatrix]:
    """Yield ``count`` small matrices sweeping the structural axes."""
    rng = Lcg(seed)
    for i in range(count):
        family = _MATRIX_FAMILIES[i % len(_MATRIX_FAMILIES)]
        n = int(rng.integers(1, 64, max_rows)[0])
        per_row = int(rng.integers(1, 2, 33)[0])
        draw = family(n, per_row, rng)
        with stage("datasets.matrix_population"):
            built = _build_csr(draw)
        yield built


_GraphDraw = tuple[np.ndarray, np.ndarray, int]


def _finish_graph(draw: _GraphDraw) -> _GraphDraw:
    """Pure build phase: drop self loops (no randomness consumed)."""
    src, dst, n = draw
    keep = src != dst
    return src[keep], dst[keep], n


def _draw_graph(i: int, rng: Lcg, max_vertices: int) -> _GraphDraw:
    n = int(rng.integers(1, 128, max_vertices)[0])
    avg_deg = int(rng.integers(1, 2, 40)[0])
    m = n * avg_deg
    kind = i % 6
    if kind == 0:  # uniform random (Erdos-Renyi flavour)
        src = rng.integers(m, 0, n)
        dst = rng.integers(m, 0, n)
    elif kind == 1:  # power-law out-degree
        u = rng.uniform(n, 0.0, 1.0)
        deg = np.minimum((avg_deg * (1.0 / np.maximum(u, 1e-3)) ** 0.6)
                         .astype(np.int64), n - 1)
        src = np.repeat(np.arange(n, dtype=np.int64), deg)
        dst = rng.integers(len(src), 0, n)
    elif kind == 2:  # ring lattice with shortcuts (small-world)
        base = np.arange(n, dtype=np.int64)
        src = np.tile(base, max(avg_deg, 1))
        hops = np.repeat(np.arange(1, max(avg_deg, 1) + 1,
                                   dtype=np.int64), n)
        dst = (src + hops) % n
        rewire = rng.choice_mask(len(src), 0.1)
        dst = np.where(rewire, rng.integers(len(src), 0, n), dst)
    elif kind == 3:  # two-community structure
        comm = rng.choice_mask(n, 0.5)
        src = rng.integers(m, 0, n)
        same = rng.choice_mask(m, 0.85)
        cand = rng.integers(m, 0, n)
        # resample targets until most stay within the source community
        match = comm[src] == comm[cand]
        dst = np.where(same & ~match,
                       (cand + 1) % n, cand)
    elif kind == 4:  # host-local web-like (id-neighborhood locality)
        host = max(int(rng.integers(1, 32, 256)[0]), 8)
        src = rng.integers(m, 0, n)
        within = rng.integers(m, 0, host)
        local = np.minimum((src // host) * host + within, n - 1)
        far = rng.integers(m, 0, n)
        dst = np.where(rng.choice_mask(m, 0.7), local, far)
    else:  # hub-concentrated (social/star-like in-degree mass)
        hubs = max(n // 32, 2)
        src = rng.integers(m, 0, n)
        hub_dst = rng.integers(m, 0, hubs)
        uni_dst = rng.integers(m, 0, n)
        dst = np.where(rng.choice_mask(m, 0.8), hub_dst, uni_dst)
    return src, dst, n


def graph_population(count: int = 499, seed: int = 1325,
                     max_vertices: int = 4096
                     ) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield ``count`` small graphs as (src, dst, n) triplets, alternating
    uniform, power-law, grid-like, and community-structured families."""
    rng = Lcg(seed)
    for i in range(count):
        draw = _draw_graph(i, rng, max_vertices)
        with stage("datasets.graph_population"):
            built = _finish_graph(draw)
        yield built

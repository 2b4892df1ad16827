"""The layout steps are pinned to the filled-format derivations they
replace.

``DaspLayout.from_csr`` and ``block_pattern`` are what the analytic SpMV
and SpGEMM counters read, and what the functional builders fill.  Each is
checked against the derivation ``DaspMatrix.from_csr`` and
``MbsrMatrix.from_csr`` used before the split, kept here as the reference:
on the grid's matrices and on generated CSRs with empty rows, ragged
shapes, duplicate columns and no entries at all.

``blocks_to_csr`` expands 4x4 blocks back to CSR, for ``MbsrMatrix.to_csr``
and the block SpGEMM, without a sort.  It is checked against the
``np.nonzero`` + ``from_coo`` expansion both used before, on generated
block layouts and on block SpGEMM outputs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets.suitesparse import SPMV_MATRICES, generate_matrix
from repro.kernels.spgemm import SpgemmWorkload
from repro.sparse.csr import CsrMatrix, stable_order
from repro.sparse.dasp import DaspLayout, DaspMatrix
from repro.sparse.mbsr import BLOCK, MbsrMatrix, block_pattern, blocks_to_csr


def _dasp_layout_reference(a):
    """Permutation, group steps and offsets as the filled builder derived
    them: sorted row lengths padded into an (n_groups, 8) grid, each
    group's steps from its row maximum."""
    lengths = a.row_lengths()
    perm = np.argsort(-lengths, kind="stable").astype(np.int64)
    n_groups = (a.n_rows + 7) // 8
    glen = np.zeros(n_groups * 8, dtype=np.int64)
    glen[:a.n_rows] = lengths[perm]
    steps = np.maximum((glen.reshape(n_groups, 8).max(axis=1) + 3) // 4, 1)
    offsets = np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
    return perm, steps, offsets


def _mbsr_reference(a):
    """Block arrays and payloads as the filled builder derived them: one
    stable (fused-position) sort of every entry's block key, then a flat
    scatter in entry order."""
    nbr = (a.n_rows + BLOCK - 1) // BLOCK
    indptr = np.zeros(nbr + 1, dtype=np.int64)
    if a.nnz == 0:
        return (indptr, np.empty(0, dtype=np.int64),
                np.empty((0, BLOCK, BLOCK)))
    entry_row = a.row_of_entry()
    key_cols = np.int64(a.n_cols // BLOCK + 1)
    order, key_s = stable_order(
        entry_row // BLOCK * key_cols + a.indices // BLOCK)
    uniq = np.r_[True, key_s[1:] != key_s[:-1]]
    block_of_entry = np.empty(a.nnz, dtype=np.int64)
    block_of_entry[order] = np.cumsum(uniq) - 1
    blocks = np.zeros((int(np.count_nonzero(uniq)), BLOCK, BLOCK))
    blocks.reshape(-1)[(block_of_entry * BLOCK + entry_row % BLOCK) * BLOCK
                       + a.indices % BLOCK] = a.data
    brow, bcol = np.divmod(key_s[uniq], key_cols)
    indptr[1:] = np.bincount(brow, minlength=nbr)
    return np.cumsum(indptr), bcol, blocks


@st.composite
def ragged_csrs(draw):
    """CSRs whose empty rows fall anywhere (all rows, none, first, last),
    with any row count, and unsorted, repeated column indices."""
    n_rows = draw(st.integers(0, 70))
    n_cols = draw(st.integers(1, 70))
    empty_share = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    # rows up to 40 long reach DASP's "medium" category
    lengths = np.where(rng.random(n_rows) < empty_share, 0,
                       rng.integers(1, 41, n_rows))
    indptr = np.r_[0, np.cumsum(lengths)].astype(np.int64)
    indices = rng.integers(0, n_cols, int(indptr[-1]))
    return CsrMatrix(indptr, indices, rng.uniform(-1, 1, len(indices)),
                     (n_rows, n_cols))


def _hand_csr(rows, n_cols):
    indptr = np.r_[0, np.cumsum([len(r) for r in rows])].astype(np.int64)
    indices = np.array([c for r in rows for c in r], dtype=np.int64)
    return CsrMatrix(indptr, indices, np.ones(len(indices)),
                     (len(rows), n_cols))


def _assert_dasp_layout(a):
    lay = DaspLayout.from_csr(a)
    perm, steps, offsets = _dasp_layout_reference(a)
    np.testing.assert_array_equal(lay.row_perm, perm)
    np.testing.assert_array_equal(lay.group_steps, steps)
    np.testing.assert_array_equal(lay.group_offsets, offsets)
    assert lay.group_steps.dtype == steps.dtype
    # the fill agrees with the counts read off the layout
    d = DaspMatrix.from_csr(a)
    np.testing.assert_array_equal(d.row_perm, perm)
    np.testing.assert_array_equal(d.group_offsets, offsets)
    assert lay.total_tiles == d.values.shape[0]
    assert lay.slots == d.mask.size
    assert lay.padding_fraction == d.padding_fraction


def _assert_block_pattern(a):
    indptr, indices, blocks = _mbsr_reference(a)
    got_indptr, got_indices = block_pattern(a)
    np.testing.assert_array_equal(got_indptr, indptr)
    np.testing.assert_array_equal(got_indices, indices)
    # the searchsorted fill lands every entry where the sort put it
    m = MbsrMatrix.from_csr(a)
    np.testing.assert_array_equal(m.block_indptr, indptr)
    np.testing.assert_array_equal(m.block_indices, indices)
    np.testing.assert_array_equal(m.blocks.view(np.uint64),
                                  blocks.view(np.uint64))


class TestDaspLayout:
    @given(ragged_csrs())
    @settings(max_examples=60, deadline=None)
    @example(_hand_csr([], 5))                       # no rows
    @example(_hand_csr([[], [], []], 5))             # nnz 0
    @example(_hand_csr([[0, 1, 2, 3], []], 4))       # trailing empty row
    @example(_hand_csr([[], [0, 1, 2, 3]], 4))       # leading empty row
    def test_matches_filled_derivation(self, a):
        _assert_dasp_layout(a)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", [m.name for m in SPMV_MATRICES])
    def test_paper_scale_matrices(self, name):
        _assert_dasp_layout(generate_matrix(name, scale=1.0))


class TestBlockPattern:
    @given(ragged_csrs())
    @settings(max_examples=60, deadline=None)
    @example(_hand_csr([], 5))                       # empty matrix
    @example(_hand_csr([[], []], 9))                 # nnz 0, ragged rows
    @example(_hand_csr([[1, 1, 6, 1], [3]], 8))      # duplicates, unsorted
    def test_matches_fused_sort(self, a):
        _assert_block_pattern(a)

    @pytest.mark.slow
    @pytest.mark.parametrize("scale", [1.0, 0.25])
    @pytest.mark.parametrize("name", [m.name for m in SPMV_MATRICES])
    def test_grid_and_audit_matrices(self, name, scale):
        _assert_block_pattern(generate_matrix(name, scale=scale))


def _expand_reference(block_indptr, block_indices, blocks, shape):
    """The ``np.nonzero`` + ``from_coo`` expansion ``blocks_to_csr``
    replaced: nonzero cells in block order, fringe cells dropped, then one
    stable sort into row-major order."""
    n_blocks = len(block_indices)
    brow = np.repeat(np.arange(len(block_indptr) - 1, dtype=np.int64),
                     np.diff(block_indptr))
    blk, cell = np.nonzero(blocks.reshape(n_blocks, BLOCK * BLOCK))
    li, lj = np.divmod(cell, BLOCK)
    rows = brow[blk] * BLOCK + li
    cols = block_indices[blk] * BLOCK + lj
    vals = blocks[blk, li, lj]
    keep = (rows < shape[0]) & (cols < shape[1])
    return CsrMatrix.from_coo(rows[keep], cols[keep], vals[keep], shape,
                              sum_duplicates=False)


def _assert_same_csr(got, want):
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data.view(np.uint64),
                                  want.data.view(np.uint64))
    assert got.shape == want.shape


@st.composite
def block_layouts(draw):
    """Block layouts with ascending block columns over any shape (fringe
    blocks when a side is not a multiple of 4), whose cells are 0.0,
    -0.0, NaN, inf or plain values (fringe cells included), with
    all-zero blocks and with no blocks at all."""
    shape = (draw(st.integers(0, 23)), draw(st.integers(1, 23)))
    nbr, nbc = -(-shape[0] // BLOCK), -(-shape[1] // BLOCK)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    brow, bcol = np.nonzero(rng.random((nbr, nbc)) < density)
    indptr = np.r_[0, np.cumsum(np.bincount(brow, minlength=nbr))]
    palette = np.array([0.0, -0.0, np.nan, np.inf, 1.5, -2.25])
    blocks = rng.choice(palette, (len(bcol), BLOCK, BLOCK))
    blocks[rng.random(len(bcol)) < 0.2] = 0.0
    return indptr.astype(np.int64), bcol, blocks, shape


def _cancelling(n, seed):
    """Small-integer entries, so block sums cancel to exactly 0.0, with
    ``-0.0`` entries and empty rows."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < 0.25
    mask[rng.integers(0, n, max(1, n // 5))] = False
    rows, cols = np.nonzero(mask)
    vals = rng.integers(-2, 3, len(rows)).astype(float)
    vals[vals == 0.0] = -0.0
    return CsrMatrix.from_coo(rows, cols, vals, (n, n), sum_duplicates=False)


class TestBlocksToCsr:
    @given(block_layouts())
    @settings(max_examples=80, deadline=None)
    def test_matches_nonzero_expansion(self, layout):
        _assert_same_csr(blocks_to_csr(*layout), _expand_reference(*layout))

    @given(ragged_csrs())
    @settings(max_examples=40, deadline=None)
    @example(_hand_csr([], 5))
    def test_mbsr_round_trip_matches(self, a):
        m = MbsrMatrix.from_csr(a)
        _assert_same_csr(m.to_csr(), _expand_reference(
            m.block_indptr, m.block_indices, m.blocks, m.shape))

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_block_spgemm_matches(self, seed, tree):
        n = int(np.random.default_rng(seed).integers(1, 30))
        m = MbsrMatrix.from_csr(_cancelling(n, seed))
        w = SpgemmWorkload()
        key, acc = w._block_sums(m, tree)
        # output blocks ascend by key, so block columns ascend within
        # each block row, as blocks_to_csr requires
        assert np.all(np.diff(key) > 0)
        brow, bcol = np.divmod(key, m.n_block_cols + 1)
        indptr = np.r_[0, np.cumsum(np.bincount(brow,
                                                minlength=m.n_block_rows))]
        _assert_same_csr(w._block_spgemm(m, tree), _expand_reference(
            indptr.astype(np.int64), bcol, acc, m.shape))

    @given(ragged_csrs())
    @settings(max_examples=40, deadline=None)
    def test_mbsr_block_columns_ascend(self, a):
        # blocks_to_csr's row-major layout needs ascending block columns
        # within each block row
        m = MbsrMatrix.from_csr(a)
        assert np.all(np.diff(m.block_row_of_block() * (m.n_block_cols + 1)
                              + m.block_indices) > 0)

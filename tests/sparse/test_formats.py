"""Tests for the DASP, mBSR, and bitmap storage formats."""

import numpy as np
import pytest

from repro.gpu import mma
from repro.sparse.bitmap import SLICE_ROWS, TILE_COLS, BitmapGraph
from repro.sparse.csr import CsrMatrix
from repro.sparse.dasp import DaspMatrix
from repro.sparse.mbsr import MbsrMatrix


def random_csr(n_rows=50, n_cols=50, density=0.1, seed=0):
    rng = np.random.default_rng(seed)
    mask = rng.random((n_rows, n_cols)) < density
    dense = np.where(mask, rng.uniform(-2, 2, (n_rows, n_cols)), 0.0)
    return CsrMatrix.from_dense(dense), dense


class TestDasp:
    def test_preserves_all_nonzeros(self):
        a, _ = random_csr(seed=1)
        d = DaspMatrix.from_csr(a)
        assert d.nnz == a.nnz
        assert int(d.mask.sum()) == a.nnz
        np.testing.assert_allclose(np.sort(d.values[d.mask]),
                                   np.sort(a.data))

    def test_spmv_via_mma_diagonal(self):
        # the defining DASP property: per group and k-step,
        # C = A_tile @ B_tile accumulates the row results on the diagonal
        a, dense = random_csr(n_rows=24, n_cols=24, density=0.4, seed=2)
        d = DaspMatrix.from_csr(a)
        x = np.random.default_rng(3).uniform(-2, 2, 24)
        b = d.gather_b_tiles(x)
        c = mma.mma_m8n8k4_batched(d.values, b)
        diag = c[:, np.arange(8), np.arange(8)]
        # sum k-steps within each group
        y_sorted = np.zeros(d.n_groups * 8)
        for g in range(d.n_groups):
            lo, hi = d.group_offsets[g], d.group_offsets[g + 1]
            y_sorted[g * 8:(g + 1) * 8] = diag[lo:hi].sum(axis=0)
        y = np.zeros(24)
        y[d.row_perm] = y_sorted[:24]
        np.testing.assert_allclose(y, dense @ x, atol=1e-12)

    def test_rows_sorted_descending_by_length(self):
        a, _ = random_csr(n_rows=40, density=0.3, seed=4)
        d = DaspMatrix.from_csr(a)
        lengths = a.row_lengths()[d.row_perm]
        assert np.all(np.diff(lengths) <= 0)

    def test_group_steps_cover_longest_row(self):
        a, _ = random_csr(n_rows=17, density=0.5, seed=5)
        d = DaspMatrix.from_csr(a)
        lengths = a.row_lengths()[d.row_perm]
        for g in range(d.n_groups):
            rows = lengths[g * 8:(g + 1) * 8]
            if len(rows):
                assert d.group_steps[g] >= (rows.max() + 3) // 4

    def test_padding_fraction(self):
        # a matrix with exactly 4 nnz in every row has minimal padding
        dense = np.zeros((16, 16))
        dense[:, :4] = 1.0
        d = DaspMatrix.from_csr(CsrMatrix.from_dense(dense))
        assert d.padding_fraction == pytest.approx(0.0)

    def test_empty_matrix(self):
        a = CsrMatrix.from_coo([], [], [], (10, 10))
        d = DaspMatrix.from_csr(a)
        assert d.nnz == 0
        assert d.total_tiles >= 1  # one padded step per group minimum

    def test_category_histogram(self):
        a, _ = random_csr(n_rows=32, density=0.2, seed=6)
        h = DaspMatrix.from_csr(a).category_histogram()
        assert sum(h.values()) == 32  # padded rows counted as short


class TestMbsr:
    def test_roundtrip(self):
        a, dense = random_csr(seed=7)
        m = MbsrMatrix.from_csr(a)
        np.testing.assert_array_equal(m.to_csr().to_dense(), dense)

    def test_block_count_and_fill(self):
        dense = np.zeros((8, 8))
        dense[0:4, 0:4] = 1.0  # one full block
        dense[4, 4] = 1.0      # one nearly empty block
        m = MbsrMatrix.from_csr(CsrMatrix.from_dense(dense))
        assert m.n_blocks == 2
        assert m.fill_ratio == pytest.approx(17 / 32)

    def test_fringe_blocks(self):
        # non-multiple-of-4 dimensions must still round-trip
        a, dense = random_csr(n_rows=13, n_cols=11, density=0.3, seed=8)
        m = MbsrMatrix.from_csr(a)
        np.testing.assert_array_equal(m.to_csr().to_dense(), dense)

    def test_empty(self):
        a = CsrMatrix.from_coo([], [], [], (9, 9))
        m = MbsrMatrix.from_csr(a)
        assert m.n_blocks == 0
        assert m.to_csr().nnz == 0

    def test_block_rows_sorted(self):
        a, _ = random_csr(seed=9)
        m = MbsrMatrix.from_csr(a)
        brow = m.block_row_of_block()
        assert np.all(np.diff(brow) >= 0)
        # within a block row, block columns strictly increase
        for r in range(m.n_block_rows):
            cols = m.block_indices[m.block_indptr[r]:m.block_indptr[r + 1]]
            assert np.all(np.diff(cols) > 0)


class TestBitmapGraph:
    def _graph(self, n=300, m=2000, seed=10):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        # deduplicate: bitmap storage collapses parallel edges to one bit
        uniq = np.unique(src * n + dst)
        return uniq // n, uniq % n, n

    def test_edge_bits_set(self):
        src, dst, n = self._graph()
        g = BitmapGraph.from_edges(src, dst, n)
        assert g.n_edges == len(src)
        # unpack all tiles and confirm each edge bit
        unpacked = np.unpackbits(
            g.tiles.view(np.uint8).reshape(g.n_tiles, SLICE_ROWS, 16),
            axis=-1, bitorder="little")
        tile_lookup = {(int(s), int(c)): i for i, (s, c) in
                       enumerate(zip(g.tile_slice, g.tile_cblock))}
        for u, v in zip(src[:200], dst[:200]):
            t = tile_lookup[(u // SLICE_ROWS, v // TILE_COLS)]
            assert unpacked[t, u % SLICE_ROWS, v % TILE_COLS] == 1

    def test_from_csr_equivalent(self):
        src, dst, n = self._graph(seed=11)
        a = CsrMatrix.from_coo(src, dst, np.ones(len(src)), (n, n))
        g1 = BitmapGraph.from_edges(src, dst, n)
        g2 = BitmapGraph.from_csr(a)
        assert g1.n_tiles == g2.n_tiles
        np.testing.assert_array_equal(g1.tiles, g2.tiles)

    def test_tiles_for_cblocks(self):
        src, dst, n = self._graph(seed=12)
        g = BitmapGraph.from_edges(src, dst, n)
        all_cb = np.arange(g.n_cblocks)
        idx, slices, cbs = g.tiles_for_cblocks(all_cb)
        assert len(idx) == g.n_tiles
        # restricting to one cblock returns exactly its tiles
        one = g.tile_cblock[0]
        idx1, _, cbs1 = g.tiles_for_cblocks(np.array([one]))
        assert np.all(cbs1 == one)
        assert len(idx1) == int((g.tile_cblock == one).sum())

    def test_empty_selection(self):
        src, dst, n = self._graph(seed=13)
        g = BitmapGraph.from_edges(src, dst, n)
        idx, _, _ = g.tiles_for_cblocks(np.empty(0, dtype=np.int64))
        assert len(idx) == 0

    def test_bits_per_edge_positive(self):
        src, dst, n = self._graph(seed=14)
        g = BitmapGraph.from_edges(src, dst, n)
        assert g.bits_per_edge >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BitmapGraph.from_edges([0, 1], [1], 4)
        with pytest.raises(ValueError):
            BitmapGraph.from_edges([0], [9], 4)
        with pytest.raises(ValueError):
            BitmapGraph.from_csr(CsrMatrix.from_coo([0], [1], [1.0], (2, 3)))

    def test_bit_mma_counts_frontier_neighbors(self):
        # integration: tile x frontier via bit-MMA == neighbor counts
        src, dst, n = self._graph(n=128, m=800, seed=15)
        g = BitmapGraph.from_edges(src, dst, n)
        frontier = np.zeros(n, dtype=bool)
        frontier[::3] = True
        # adjacency row u counts neighbors in frontier
        expected = np.zeros(n, dtype=np.int64)
        for u, v in zip(src, dst):
            if frontier[v]:
                expected[u] += 1
        got = np.zeros(n, dtype=np.int64)
        fbits = np.zeros(((n + TILE_COLS - 1) // TILE_COLS, TILE_COLS),
                         dtype=bool)
        fbits.reshape(-1)[:n] = frontier
        for t in range(g.n_tiles):
            chunk = fbits[g.tile_cblock[t]]
            b_tile = np.repeat(chunk[:, np.newaxis], 8, axis=1)  # 128x8
            a_bits = np.unpackbits(
                g.tiles[t].view(np.uint8).reshape(SLICE_ROWS, 16),
                axis=-1, bitorder="little").astype(bool)
            counts = mma.mma_m8n8k128_b1(a_bits, b_tile)
            rows = g.tile_slice[t] * SLICE_ROWS + np.arange(SLICE_ROWS)
            valid = rows < n
            got[rows[valid]] += np.diag(counts)[valid]
        np.testing.assert_array_equal(got, expected)


def _mbsr_reference(a):
    """The three-index-array block scatter and ``np.add.at`` indptr that
    ``MbsrMatrix.from_csr`` replaced."""
    from repro.sparse.mbsr import BLOCK
    entry_row = a.row_of_entry()
    brow = entry_row // BLOCK
    bcol = a.indices // BLOCK
    key = brow * np.int64(a.n_cols // BLOCK + 1) + bcol
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    uniq = np.r_[True, key_s[1:] != key_s[:-1]]
    block_id = np.cumsum(uniq) - 1
    blocks = np.zeros((int(block_id[-1]) + 1, BLOCK, BLOCK))
    blocks[block_id, entry_row[order] % BLOCK,
           a.indices[order] % BLOCK] = a.data[order]
    indptr = np.zeros((a.n_rows + BLOCK - 1) // BLOCK + 1, dtype=np.int64)
    np.add.at(indptr, brow[order][uniq] + 1, 1)
    return np.cumsum(indptr), bcol[order][uniq], blocks


def _dasp_tiles_reference(a, d):
    """The three-index-array tile scatter ``DaspMatrix.from_csr`` replaced,
    into ``d``'s own row permutation and group offsets."""
    values = np.zeros_like(d.values)
    cols = np.zeros_like(d.cols)
    mask = np.zeros_like(d.mask)
    pos_of_row = np.empty(a.n_rows, dtype=np.int64)
    pos_of_row[d.row_perm] = np.arange(a.n_rows)
    entry_row = a.row_of_entry()
    pos = pos_of_row[entry_row]
    within = np.arange(a.nnz, dtype=np.int64) - a.indptr[entry_row]
    step = d.group_offsets[pos // 8] + within // 4
    values[step, pos % 8, within % 4] = a.data
    cols[step, pos % 8, within % 4] = a.indices
    mask[step, pos % 8, within % 4] = True
    return values, cols, mask


class TestFlatScatterMatchesReference:
    CASES = [(50, 50, 0.1), (13, 11, 0.3), (64, 9, 0.5), (3, 200, 0.2)]

    @pytest.mark.parametrize("shape_density", CASES)
    def test_mbsr(self, shape_density):
        a, _ = random_csr(*shape_density, seed=sum(shape_density[:2]))
        m = MbsrMatrix.from_csr(a)
        indptr, indices, blocks = _mbsr_reference(a)
        np.testing.assert_array_equal(m.block_indptr, indptr)
        np.testing.assert_array_equal(m.block_indices, indices)
        np.testing.assert_array_equal(m.blocks.view(np.uint64),
                                      blocks.view(np.uint64))

    def test_mbsr_duplicate_entries_last_wins(self):
        # a hand-built CSR may repeat a column within a row; the flat
        # scatter keeps the last duplicate, as the indexed scatter did
        a = CsrMatrix(np.array([0, 3, 4]), np.array([1, 1, 6, 1]),
                      np.array([1.0, 2.0, 3.0, 4.0]), (2, 8))
        blocks = _mbsr_reference(a)[2]
        np.testing.assert_array_equal(MbsrMatrix.from_csr(a).blocks, blocks)
        assert MbsrMatrix.from_csr(a).blocks[0, 0, 1] == 2.0

    @pytest.mark.parametrize("shape_density", CASES)
    def test_dasp(self, shape_density):
        a, _ = random_csr(*shape_density, seed=sum(shape_density[:2]))
        d = DaspMatrix.from_csr(a)
        values, cols, mask = _dasp_tiles_reference(a, d)
        np.testing.assert_array_equal(d.values.view(np.uint64),
                                      values.view(np.uint64))
        np.testing.assert_array_equal(d.cols, cols)
        np.testing.assert_array_equal(d.mask, mask)

"""Tests for the CSR substrate, cross-checked against scipy.sparse."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import spgemm
from repro.sparse.bitmap import SLICE_ROWS, TILE_COLS, BitmapGraph, tile_pattern
from repro.sparse.csr import CsrMatrix, stable_order


def random_csr(n_rows=50, n_cols=40, density=0.1, seed=0):
    rng = np.random.default_rng(seed)
    mask = rng.random((n_rows, n_cols)) < density
    dense = np.where(mask, rng.uniform(-2, 2, (n_rows, n_cols)), 0.0)
    return CsrMatrix.from_dense(dense), dense


class TestConstruction:
    def test_from_dense_roundtrip(self):
        a, dense = random_csr()
        np.testing.assert_array_equal(a.to_dense(), dense)

    def test_from_coo_sums_duplicates(self):
        a = CsrMatrix.from_coo([0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0], (2, 2))
        assert a.nnz == 2
        assert a.to_dense()[0, 1] == 3.0

    def test_from_coo_matches_scipy(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 30, 200)
        cols = rng.integers(0, 25, 200)
        vals = rng.uniform(-1, 1, 200)
        ours = CsrMatrix.from_coo(rows, cols, vals, (30, 25))
        theirs = sp.coo_matrix((vals, (rows, cols)), shape=(30, 25)).tocsr()
        np.testing.assert_allclose(ours.to_dense(), theirs.toarray(),
                                   atol=1e-15)

    def test_empty_matrix(self):
        a = CsrMatrix.from_coo([], [], [], (5, 5))
        assert a.nnz == 0
        np.testing.assert_array_equal(a.to_dense(), np.zeros((5, 5)))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            CsrMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (5, 5))
        with pytest.raises(ValueError):
            CsrMatrix(np.array([0, 2, 1]), np.array([0, 0]),
                      np.array([1.0, 1.0]), (2, 2))
        with pytest.raises(ValueError):
            CsrMatrix.from_coo([0], [9], [1.0], (3, 3))
        with pytest.raises(ValueError):
            CsrMatrix.from_coo([5], [0], [1.0], (3, 3))
        with pytest.raises(ValueError):
            CsrMatrix.from_coo([0, 1], [0], [1.0], (3, 3))

    def test_row_lengths_and_entry_rows(self):
        a = CsrMatrix.from_coo([0, 0, 2], [0, 1, 2], [1, 1, 1], (3, 3))
        np.testing.assert_array_equal(a.row_lengths(), [2, 0, 1])
        np.testing.assert_array_equal(a.row_of_entry(), [0, 0, 2])


def _from_coo_reference(rows, cols, vals, shape, sum_duplicates=True):
    """The lexsort + unique + ``np.add.at`` construction ``from_coo``
    replaced, kept as the bit-identity reference."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    n_rows, n_cols = shape
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if sum_duplicates and len(rows):
        keys = rows * np.int64(n_cols) + cols
        uniq, inverse = np.unique(keys, return_inverse=True)
        summed = np.zeros(len(uniq))
        np.add.at(summed, inverse, vals)
        rows = (uniq // n_cols).astype(np.int64)
        cols = (uniq % n_cols).astype(np.int64)
        vals = summed
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols, vals


def _assert_same_bits(a, ref):
    indptr, indices, data = ref
    np.testing.assert_array_equal(a.indptr, indptr)
    np.testing.assert_array_equal(a.indices, indices)
    assert a.data.dtype == data.dtype == np.float64
    # compare bit patterns: -0.0 vs 0.0 and summation order both show
    np.testing.assert_array_equal(a.data.view(np.uint64),
                                  data.view(np.uint64))


class TestFromCooMatchesReference:
    CASES = {
        "duplicates": ([0, 0, 1, 0], [1, 1, 0, 1], [1e16, 1.0, 5.0, -1e16],
                       (2, 2)),
        "unsorted": ([3, 0, 2, 0, 3], [1, 2, 0, 0, 0],
                     [1.0, 2.0, 3.0, 4.0, 5.0], (4, 3)),
        "negative zero": ([1, 1, 0], [0, 0, 2], [-0.0, -0.0, -0.0], (2, 3)),
        "empty": ([], [], [], (3, 4)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("sum_duplicates", [True, False])
    def test_bit_identical(self, name, sum_duplicates):
        rows, cols, vals, shape = self.CASES[name]
        a = CsrMatrix.from_coo(rows, cols, vals, shape,
                               sum_duplicates=sum_duplicates)
        _assert_same_bits(a, _from_coo_reference(rows, cols, vals, shape,
                                                 sum_duplicates))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_random_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 300))
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        rows = rng.integers(0, shape[0], n)
        cols = rng.integers(0, shape[1], n)
        vals = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-8, 9, n)
        _assert_same_bits(CsrMatrix.from_coo(rows, cols, vals, shape),
                          _from_coo_reference(rows, cols, vals, shape))

    def test_key_overflow_raises(self):
        with pytest.raises(ValueError, match="overflows"):
            CsrMatrix.from_coo([0], [0], [1.0], (2 ** 32, 2 ** 32))


def accumulate_sequential(keys, vals):
    """Sum ``vals`` grouped by sorted ``keys`` with a strictly sequential
    (first-to-last) accumulation order per group: ``bincount`` adds each
    value into its group in argument order from 0.0."""
    if len(keys) == 0:
        return keys, vals
    uniq_mask = np.r_[True, keys[1:] != keys[:-1]]
    out = np.bincount(np.cumsum(uniq_mask) - 1, weights=vals)
    return keys[uniq_mask], out


def _sorted_spgemm_reference(a):
    """The SpGEMM serial reference the dense accumulator replaced: the
    whole scalar expansion of ``a @ a`` in row-k order, one stable sort of
    its ``row * n_cols + col`` keys, then sequential group sums."""
    expand = a.row_lengths()[a.indices]
    seg = np.cumsum(expand) - expand
    entry = np.repeat(np.arange(a.nnz, dtype=np.int64), expand)
    b_pos = (a.indptr[a.indices] - seg)[entry] \
        + np.arange(len(entry), dtype=np.int64)
    key = a.row_of_entry()[entry] * np.int64(a.n_cols) + a.indices[b_pos]
    vals = a.data[entry] * a.data[b_pos]
    order = np.argsort(key, kind="stable")
    keys_u, sums = accumulate_sequential(key[order], vals[order])
    return CsrMatrix.from_coo(keys_u // a.n_cols, keys_u % a.n_cols, sums,
                              a.shape, sum_duplicates=False)


class TestStableOrder:
    def _check(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        order, sorted_keys = stable_order(keys)
        ref = np.argsort(keys, kind="stable")
        assert order.dtype == ref.dtype
        np.testing.assert_array_equal(order, ref)
        np.testing.assert_array_equal(sorted_keys, keys[ref])
        assert sorted_keys.dtype == np.int64

    @given(st.lists(st.integers(0, 6), max_size=400),
           st.integers(0, 40))
    @settings(max_examples=50, deadline=None)
    def test_property_heavy_duplication(self, keys, shift):
        # few distinct values, spread over a range of key widths
        self._check(np.asarray(keys, dtype=np.int64) << shift)

    @pytest.mark.parametrize("keys", [[], [7], [0], [3, 3], [2, 1]])
    def test_small(self, keys):
        self._check(keys)

    @pytest.mark.parametrize("keys", [
        [5, -1, 5, 0, -1],                        # negative keys
        [1 << 61, 0, 1 << 61, 3],                 # 62 key bits + 2 position
        [(1 << 60) + 1, 1 << 60, 0, 1 << 60, 2],  # 61 + 3 bits
    ])
    def test_fallback(self, keys):
        self._check(keys)

    def test_widest_fused_key(self):
        # 60 key bits + 2 position bits fill the 62-bit budget exactly
        self._check([(1 << 60) - 1, 0, (1 << 60) - 1, 1])


class TestSpgemmReference:
    @staticmethod
    def _assert_same(a):
        got = spgemm.SpgemmWorkload().reference({"a": a})
        ref = _sorted_spgemm_reference(a)
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_array_equal(got.data.view(np.uint64),
                                      ref.data.view(np.uint64))

    @staticmethod
    def _cancelling(n, density, seed):
        """Small-integer values (exact products, sums that cancel to 0.0),
        ``-0.0`` entries, and empty rows."""
        rng = np.random.default_rng(seed)
        mask = rng.random((n, n)) < density
        mask[rng.integers(0, n, max(1, n // 5))] = False
        dense = np.where(mask, rng.integers(-2, 3, (n, n)).astype(float),
                         0.0)
        rows, cols = np.nonzero(mask)
        vals = dense[rows, cols]
        vals[vals == 0.0] = -0.0
        return CsrMatrix.from_coo(rows, cols, vals, (n, n),
                                  sum_duplicates=False)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_cancellation(self, seed):
        a = self._cancelling(int(np.random.default_rng(seed).integers(1, 40)),
                             0.2, seed)
        self._assert_same(a)

    def test_exact_zero_sums_stay_stored(self):
        # row 0: 1*1 + (-1)*1 = 0.0 at (0, 0); row 1 is empty
        a = CsrMatrix.from_coo([0, 0, 2], [0, 2, 0], [1.0, -1.0, 1.0],
                               (3, 3))
        c = spgemm.SpgemmWorkload().reference({"a": a})
        assert c.nnz == 4 and c.to_dense()[0, 0] == 0.0
        self._assert_same(a)

    def test_negative_zero_products(self):
        a = CsrMatrix.from_coo([0, 0, 1], [0, 1, 1], [-0.0, 2.0, -0.0],
                               (2, 2), sum_duplicates=False)
        self._assert_same(a)

    def test_empty(self):
        self._assert_same(CsrMatrix.from_coo([], [], [], (4, 4)))

    def test_rows_times_cols_exceed_one_chunk(self):
        a = self._cancelling(900, 0.004, 3)
        assert a.n_rows * a.n_cols > spgemm.SLOT_CAP
        self._assert_same(a)

    @pytest.mark.parametrize("cap", [1, 50, 333])
    def test_small_slot_caps(self, cap, monkeypatch):
        # a cap below one row still takes one row per chunk
        monkeypatch.setattr(spgemm, "SLOT_CAP", cap)
        self._assert_same(self._cancelling(60, 0.15, cap))


def _from_edges_reference(src, dst, n):
    """The bool-array + ``packbits`` tile build ``from_edges`` replaced."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    sl = src // SLICE_ROWS
    cb = dst // TILE_COLS
    tile_key = cb * ((n + SLICE_ROWS - 1) // SLICE_ROWS + 1) + sl
    order = np.argsort(tile_key, kind="stable")
    tk = tile_key[order]
    uniq = np.r_[True, tk[1:] != tk[:-1]]
    tile_id = np.cumsum(uniq) - 1
    n_tiles = int(tile_id[-1]) + 1 if len(src) else 0
    bits = np.zeros((n_tiles, SLICE_ROWS, TILE_COLS), dtype=bool)
    bits[tile_id, src[order] % SLICE_ROWS, dst[order] % TILE_COLS] = True
    tiles = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64) \
        .reshape(n_tiles, SLICE_ROWS, 2)
    if not n_tiles:
        return tiles, np.empty(0, np.int64), np.empty(0, np.int64)
    return tiles, sl[order][uniq], cb[order][uniq]


class TestBitmapMatchesReference:
    @pytest.mark.parametrize("n,n_edges", [
        (700, 400),     # n not a multiple of 8 or 128
        (131, 2000),    # dense: many duplicate edges
        (1024, 300),    # n a multiple of both
        (5, 0),         # no edges
        (1, 3),         # one vertex, self loops only
    ])
    def test_bit_identical(self, n, n_edges):
        rng = np.random.default_rng(n + n_edges)
        src = rng.integers(0, n, n_edges)
        dst = rng.integers(0, n, n_edges)
        src = np.r_[src, src[:n_edges // 3]]        # explicit duplicates
        dst = np.r_[dst, dst[:n_edges // 3]]
        g = BitmapGraph.from_edges(src, dst, n)
        tiles, tile_slice, tile_cblock = _from_edges_reference(src, dst, n)
        assert g.tiles.dtype == np.uint64
        np.testing.assert_array_equal(g.tiles, tiles)
        np.testing.assert_array_equal(g.tile_slice, tile_slice)
        np.testing.assert_array_equal(g.tile_cblock, tile_cblock)
        assert len(tile_pattern(src, dst, n)) == g.n_tiles

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_count_tiles(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 600))
        m = int(rng.integers(0, 500))
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        g = BitmapGraph.from_edges(src, dst, n)
        np.testing.assert_array_equal(g.tiles,
                                      _from_edges_reference(src, dst, n)[0])
        assert len(tile_pattern(src, dst, n)) == g.n_tiles


class TestOtherScatterAdds:
    def test_accumulate_sequential_matches_add_at(self):
        rng = np.random.default_rng(5)
        keys = np.sort(rng.integers(0, 40, 500))
        vals = rng.uniform(-1, 1, 500) * 10.0 ** rng.integers(-8, 9, 500)
        vals[::7] = -0.0
        uniq, out = accumulate_sequential(keys, vals)
        first = np.r_[True, keys[1:] != keys[:-1]]
        ref = np.zeros(int(first.sum()))
        np.add.at(ref, np.cumsum(first) - 1, vals)
        np.testing.assert_array_equal(uniq, keys[first])
        np.testing.assert_array_equal(out.view(np.uint64),
                                      ref.view(np.uint64))
        empty_keys, empty_vals = accumulate_sequential(
            np.empty(0, np.int64), np.empty(0))
        assert len(empty_keys) == len(empty_vals) == 0

    @pytest.mark.parametrize("n_edges", [0, 1, 400])
    def test_bitmap_cblock_ptr_counts_tiles(self, n_edges):
        rng = np.random.default_rng(n_edges)
        n = 700
        g = BitmapGraph.from_edges(rng.integers(0, n, n_edges),
                                   rng.integers(0, n, n_edges), n)
        ref = np.zeros(g.n_cblocks + 1, dtype=np.int64)
        np.add.at(ref, g.tile_cblock + 1, 1)
        np.testing.assert_array_equal(g.cblock_ptr, np.cumsum(ref))


class TestTranspose:
    def test_transpose_matches_scipy(self):
        a, dense = random_csr(seed=4)
        np.testing.assert_allclose(a.transpose().to_dense(), dense.T,
                                   atol=1e-15)

    def test_double_transpose_identity(self):
        a, dense = random_csr(seed=5)
        np.testing.assert_array_equal(a.transpose().transpose().to_dense(),
                                      dense)


class TestSpmvOrders:
    def test_serial_matches_python_loop(self):
        # np.add.reduceat must reproduce a strict left-to-right sum
        a, dense = random_csr(n_rows=30, n_cols=30, density=0.3, seed=6)
        x = np.random.default_rng(7).uniform(-2, 2, 30)
        expected = np.zeros(30)
        for r in range(30):
            acc = 0.0
            for p in range(a.indptr[r], a.indptr[r + 1]):
                acc = acc + a.data[p] * x[a.indices[p]]
            expected[r] = acc
        np.testing.assert_array_equal(a.spmv_serial(x), expected)

    def test_warp_tree_matches_reference_value(self):
        a, dense = random_csr(n_rows=64, n_cols=64, density=0.4, seed=8)
        x = np.random.default_rng(9).uniform(-2, 2, 64)
        np.testing.assert_allclose(a.spmv_warp_tree(x), dense @ x,
                                   rtol=1e-12)

    def test_warp_tree_order_differs_from_serial(self):
        # with enough elements per row the rounding orders must diverge
        rng = np.random.default_rng(10)
        dense = rng.uniform(-2, 2, (16, 512))
        a = CsrMatrix.from_dense(dense)
        x = rng.uniform(-2, 2, 512)
        serial = a.spmv_serial(x)
        tree = a.spmv_warp_tree(x)
        np.testing.assert_allclose(serial, tree, rtol=1e-10)
        assert not np.array_equal(serial, tree)

    def test_warp_tree_explicit_small_case(self):
        # row of 3 with width 2: lanes get [p0+p2, p1], tree adds them
        a = CsrMatrix.from_coo([0, 0, 0], [0, 1, 2],
                               [1e16, 1.0, -1e16], (1, 3))
        x = np.ones(3)
        assert a.spmv_warp_tree(x, width=2)[0] == (1e16 + (-1e16)) + 1.0
        assert a.spmv_serial(x)[0] == (1e16 + 1.0) + -1e16  # = 0.0

    def test_empty_rows(self):
        a = CsrMatrix.from_coo([1], [1], [3.0], (4, 4))
        x = np.ones(4)
        np.testing.assert_array_equal(a.spmv_serial(x), [0, 3, 0, 0])
        np.testing.assert_array_equal(a.spmv_warp_tree(x), [0, 3, 0, 0])

    def test_x_shape_validated(self):
        a, _ = random_csr()
        with pytest.raises(ValueError):
            a.spmv_serial(np.ones(3))

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_property_spmv_matches_dense(self, seed):
        a, dense = random_csr(n_rows=20, n_cols=20, density=0.25, seed=seed)
        x = np.random.default_rng(seed + 1).uniform(-2, 2, 20)
        np.testing.assert_allclose(a.spmv_serial(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(a.spmv_warp_tree(x), dense @ x, atol=1e-12)


class TestSpgemm:
    def test_matches_scipy(self):
        a, da = random_csr(30, 40, 0.15, seed=11)
        b, db = random_csr(40, 35, 0.15, seed=12)
        c = a.spgemm(b)
        np.testing.assert_allclose(c.to_dense(), da @ db, atol=1e-12)

    def test_chunking_invariant(self):
        a, da = random_csr(100, 100, 0.1, seed=13)
        c1 = a.spgemm(a, chunk_rows=7)
        c2 = a.spgemm(a, chunk_rows=10000)
        np.testing.assert_array_equal(c1.to_dense(), c2.to_dense())

    def test_identity(self):
        a, da = random_csr(20, 20, 0.3, seed=14)
        eye = CsrMatrix.from_dense(np.eye(20))
        np.testing.assert_allclose(a.spgemm(eye).to_dense(), da, atol=1e-15)

    def test_empty_result(self):
        a = CsrMatrix.from_coo([0], [1], [1.0], (2, 2))
        b = CsrMatrix.from_coo([0], [0], [1.0], (2, 2))  # b row 1 empty
        c = a.spgemm(b)
        assert c.nnz == 0

    def test_dimension_mismatch(self):
        a, _ = random_csr(5, 6)
        b, _ = random_csr(5, 6)
        with pytest.raises(ValueError):
            a.spgemm(b)

    @given(st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_property_spgemm_matches_dense(self, seed):
        a, da = random_csr(15, 18, 0.2, seed=seed)
        b, db = random_csr(18, 12, 0.2, seed=seed + 1)
        np.testing.assert_allclose(a.spgemm(b).to_dense(), da @ db,
                                   atol=1e-12)

"""Tests for the functional MMA emulation, including the accumulation-order
contract that underpins the paper's Table 6."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.gpu import mma

RNG = np.random.default_rng(42)


def _tiles(batch=(), m=8, k=4, n=8, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2, 2, batch + (m, k))
    b = rng.uniform(-2, 2, batch + (k, n))
    c = rng.uniform(-2, 2, batch + (m, n))
    return a, b, c


class TestMmaFp64:
    def test_matches_matmul(self):
        a, b, c = _tiles()
        d = mma.mma_m8n8k4(a, b, c)
        np.testing.assert_allclose(d, a @ b + c, rtol=1e-14)

    def test_zero_c_default(self):
        a, b, _ = _tiles()
        np.testing.assert_allclose(mma.mma_m8n8k4(a, b), a @ b, rtol=1e-14)

    def test_batched_matches_single(self):
        a, b, c = _tiles(batch=(5,))
        d = mma.mma_m8n8k4_batched(a, b, c)
        for i in range(5):
            np.testing.assert_array_equal(d[i], mma.mma_m8n8k4(a[i], b[i], c[i]))

    def test_accumulation_order_is_k_sequential(self):
        # reproduce the documented order by hand and demand bit-equality
        a, b, c = _tiles(seed=7)
        d = c.copy()
        for k in range(4):
            d = d + a[:, k:k + 1] * b[k:k + 1, :]
        np.testing.assert_array_equal(mma.mma_m8n8k4(a, b, c), d)

    def test_chained_mma_equals_fused_k(self):
        # accumulating two m8n8k4 MMAs == one fused k=8 call (same order)
        rng = np.random.default_rng(3)
        a = rng.uniform(-2, 2, (8, 8))
        b = rng.uniform(-2, 2, (8, 8))
        step = mma.mma_m8n8k4(a[:, :4], b[:4], None)
        step = mma.mma_m8n8k4(a[:, 4:], b[4:], step)
        fused = mma.mma_fp64_batched(a[np.newaxis], b[np.newaxis])[0]
        np.testing.assert_array_equal(step, fused)

    def test_broadcast_batch_dims(self):
        a = RNG.uniform(-1, 1, (3, 1, 8, 4))
        b = RNG.uniform(-1, 1, (1, 5, 4, 8))
        d = mma.mma_m8n8k4_batched(a, b)
        assert d.shape == (3, 5, 8, 8)
        np.testing.assert_allclose(d, a @ b, atol=1e-14)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            mma.mma_m8n8k4_batched(np.zeros((4, 8)), np.zeros((4, 8)))
        with pytest.raises(ValueError):
            mma.mma_m8n8k4_batched(np.zeros((8, 4)), np.zeros((8, 4)))
        with pytest.raises(ValueError):
            mma.mma_fp64_batched(np.zeros((8, 4)), np.zeros((3, 8)))
        with pytest.raises(ValueError):
            mma.mma_fp64_batched(np.zeros((8, 4)), np.zeros((4, 8)),
                                 np.zeros((7, 8)))

    def test_does_not_mutate_c(self):
        a, b, c = _tiles(seed=11)
        c_before = c.copy()
        mma.mma_m8n8k4(a, b, c)
        np.testing.assert_array_equal(c, c_before)

    @given(hnp.arrays(np.float64, (8, 4),
                      elements=st.floats(-2, 2, allow_nan=False)),
           hnp.arrays(np.float64, (4, 8),
                      elements=st.floats(-2, 2, allow_nan=False)))
    @settings(max_examples=25, deadline=None)
    def test_property_close_to_matmul(self, a, b):
        d = mma.mma_m8n8k4(a, b)
        np.testing.assert_allclose(d, a @ b, atol=1e-13)

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_property_deterministic(self, seed):
        a, b, c = _tiles(seed=seed)
        np.testing.assert_array_equal(mma.mma_m8n8k4(a, b, c),
                                      mma.mma_m8n8k4(a, b, c))


class TestWarpGemm:
    def test_matches_batched_primitive_bitwise(self):
        a, b, _ = _tiles(seed=9)
        np.testing.assert_array_equal(mma.warp_gemm_m8n8k4(a, b),
                                      mma.mma_m8n8k4(a, b))


class TestBitMma:
    def test_matches_integer_matmul(self):
        rng = np.random.default_rng(5)
        a = rng.random((8, 128)) < 0.25
        b = rng.random((128, 8)) < 0.25
        d = mma.mma_m8n8k128_b1(a, b)
        np.testing.assert_array_equal(d, a.astype(np.int64) @ b.astype(np.int64))

    def test_accumulator(self):
        rng = np.random.default_rng(6)
        a = rng.random((8, 128)) < 0.5
        b = rng.random((128, 8)) < 0.5
        c = rng.integers(0, 100, (8, 8))
        d = mma.mma_m8n8k128_b1(a, b, c)
        np.testing.assert_array_equal(
            d, a.astype(np.int64) @ b.astype(np.int64) + c)

    def test_all_ones_gives_k(self):
        a = np.ones((8, 128), dtype=bool)
        b = np.ones((128, 8), dtype=bool)
        np.testing.assert_array_equal(mma.mma_m8n8k128_b1(a, b),
                                      np.full((8, 8), 128))

    def test_pack_bits_roundtrip_popcount(self):
        rng = np.random.default_rng(8)
        bits = rng.random((8, 128)) < 0.37
        words = mma.pack_bits_rows(bits)
        assert words.shape == (8, 2)
        total = int(bits.sum())
        packed_total = sum(bin(int(w)).count("1") for w in words.ravel())
        assert packed_total == total

    def test_pack_bits_rejects_bad_width(self):
        with pytest.raises(ValueError):
            mma.pack_bits_rows(np.zeros((8, 64), dtype=bool))

    def test_batched_bit_mma(self):
        rng = np.random.default_rng(12)
        a = rng.random((10, 8, 128)) < 0.3
        b = rng.random((10, 8, 128)) < 0.3  # packed as columns of B
        aw = mma.pack_bits_rows(a)
        bw = mma.pack_bits_rows(b)
        d = mma.mma_b1_batched(aw, bw)
        assert d.shape == (10, 8, 8)
        for i in range(10):
            ref = a[i].astype(np.int64) @ b[i].T.astype(np.int64)
            np.testing.assert_array_equal(d[i], ref)

    def test_bad_packed_shape_rejected(self):
        with pytest.raises(ValueError):
            mma.mma_b1_batched(np.zeros((8, 3), dtype=np.uint64),
                               np.zeros((8, 2), dtype=np.uint64))


class TestPopcount:
    def test_native_matches_swar_on_random_words(self):
        rng = np.random.default_rng(2024)
        words = rng.integers(0, np.iinfo(np.uint64).max, 4096,
                             dtype=np.uint64, endpoint=True)
        swar = mma._popcount_u64_swar(words)
        np.testing.assert_array_equal(mma._popcount_u64(words), swar)
        assert swar.dtype == np.int64

    def test_edge_words(self):
        words = np.array([0, 1, np.iinfo(np.uint64).max,
                          0xAAAAAAAAAAAAAAAA, 0x8000000000000000],
                         dtype=np.uint64)
        expect = np.array([0, 1, 64, 32, 1], dtype=np.int64)
        np.testing.assert_array_equal(mma._popcount_u64(words), expect)
        np.testing.assert_array_equal(mma._popcount_u64_swar(words), expect)

    def test_preserves_shape(self):
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2 ** 63, (3, 8, 2), dtype=np.uint64)
        assert mma._popcount_u64(words).shape == (3, 8, 2)


class TestScratchAccumulation:
    def test_scratch_bit_identical_to_per_step_temporaries(self):
        # the preallocated-scratch k loop must round exactly like the
        # naive `d = d + a_k * b_k` per-step-temporary loop
        rng = np.random.default_rng(77)
        a = rng.uniform(-2, 2, (5, 8, 4))
        b = rng.uniform(-2, 2, (5, 4, 8))
        c = rng.uniform(-2, 2, (5, 8, 8))
        d = c.copy()
        for kk in range(4):
            d = d + a[:, :, kk:kk + 1] * b[:, kk:kk + 1, :]
        np.testing.assert_array_equal(mma.mma_fp64_batched(a, b, c), d)

    def test_zero_k_returns_accumulator(self):
        c = np.arange(64, dtype=np.float64).reshape(1, 8, 8)
        d = mma.mma_fp64_batched(np.zeros((1, 8, 0)), np.zeros((1, 0, 8)), c)
        np.testing.assert_array_equal(d, c)

    def test_scratch_with_broadcast_batches(self):
        rng = np.random.default_rng(78)
        a = rng.uniform(-2, 2, (3, 1, 8, 4))
        b = rng.uniform(-2, 2, (1, 4, 4, 8))
        got = mma.mma_fp64_batched(a, b)
        ab = np.broadcast_to(a, (3, 4, 8, 4))
        bb = np.broadcast_to(b, (3, 4, 4, 8))
        d = np.zeros((3, 4, 8, 8))
        for kk in range(4):
            d = d + ab[..., :, kk:kk + 1] * bb[..., kk:kk + 1, :]
        np.testing.assert_array_equal(got, d)


def _fp64_one_pass(a, b, c=None):
    """The unblocked sweep the blocked one replaced: every k step runs
    over the whole ``(batch, m, n)`` accumulator."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape[-2:]
    n = b.shape[-1]
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    d = np.zeros(batch + (m, n)) if c is None \
        else np.broadcast_to(c, batch + (m, n)).copy()
    if k:
        scratch = np.empty_like(d)
        for kk in range(k):
            np.multiply(a[..., :, kk:kk + 1], b[..., kk:kk + 1, :],
                        out=scratch)
            d += scratch
    return d


def _b1_one_shot(a_words, b_words, c=None):
    """The unblocked bit sweep: the whole ``(batch, 8, 8, 2)`` AND product,
    popcounts summed over the word axis."""
    anded = a_words[..., :, np.newaxis, :] & b_words[..., np.newaxis, :, :]
    counts = mma._popcount_u64(anded).sum(axis=-1, dtype=np.int64)
    return counts if c is None else counts + np.asarray(c, dtype=np.int64)


BLOCK_SIZES = [mma.SWEEP_BLOCK_BYTES, 1000, 64]


class TestBlockedSweeps:
    """Blocked sweeps against the one-pass references, bit for bit, at the
    shipped block size and at sizes that force row and batch blocking on
    small shapes."""

    @staticmethod
    def _same(got, ref):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        np.testing.assert_array_equal(got.view(np.uint64),
                                      ref.view(np.uint64))

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("batch,m,k,n", [
        ((1300,), 8, 4, 8),       # crosses the block size, does not divide
        ((1024,), 8, 12, 8),      # divides it
        ((2, 3, 70), 8, 8, 8),    # multi-axis batch
        ((1,), 300, 70, 500),     # one matrix: row blocks
        ((), 130, 9, 257),        # no batch axis
        ((0,), 8, 4, 8),          # empty batch
        ((3,), 5, 0, 6),          # k = 0
    ])
    def test_fp64_matches_one_pass(self, block, batch, m, k, n,
                                   monkeypatch):
        monkeypatch.setattr(mma, "SWEEP_BLOCK_BYTES", block)
        a, b, c = _tiles(batch, m, k, n, seed=len(batch) + m + k + n)
        self._same(mma.mma_fp64_batched(a, b), _fp64_one_pass(a, b))
        self._same(mma.mma_fp64_batched(a, b, c), _fp64_one_pass(a, b, c))

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_fp64_broadcast_operands(self, block, monkeypatch):
        monkeypatch.setattr(mma, "SWEEP_BLOCK_BYTES", block)
        rng = np.random.default_rng(21)
        a = rng.uniform(-2, 2, (7, 1, 8, 6))
        b = rng.uniform(-2, 2, (1, 90, 6, 8))
        c = rng.uniform(-2, 2, (90, 8, 8))       # broadcast accumulator
        self._same(mma.mma_fp64_batched(a, b), _fp64_one_pass(a, b))
        self._same(mma.mma_fp64_batched(a, b, c), _fp64_one_pass(a, b, c))
        # a shared single matrix against a batch of B operands
        a1 = rng.uniform(-2, 2, (40, 6))
        self._same(mma.mma_fp64_batched(a1, b), _fp64_one_pass(a1, b))

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("a_batch,b_batch,c_shape", [
        ((1300,), (1300,), None),            # crosses the block size
        ((19, 1), (1, 70), (70, 8, 8)),      # broadcast batch dims
        ((), (), (8, 8)),                    # one tile, given c
        ((0,), (0,), None),                  # empty batch
        ((3,), (3,), (2, 3, 8, 8)),          # c widens the batch
    ])
    def test_b1_matches_one_shot(self, block, a_batch, b_batch, c_shape,
                                 monkeypatch):
        monkeypatch.setattr(mma, "SWEEP_BLOCK_BYTES", block)
        rng = np.random.default_rng(len(a_batch) + len(b_batch))
        hi = np.iinfo(np.uint64).max
        a = rng.integers(0, hi, a_batch + (8, 2), dtype=np.uint64,
                         endpoint=True)
        b = rng.integers(0, hi, b_batch + (8, 2), dtype=np.uint64,
                         endpoint=True)
        c = None if c_shape is None else rng.integers(0, 100, c_shape)
        self._same(mma.mma_b1_batched(a, b, c), _b1_one_shot(a, b, c))

    def test_inputs_untouched(self):
        a, b, c = _tiles((600,), 8, 4, 8, seed=5)
        copies = [x.copy() for x in (a, b, c)]
        mma.mma_fp64_batched(a, b, c)
        for x, before in zip((a, b, c), copies):
            np.testing.assert_array_equal(x, before)

"""Functional emulation of tensor-core MMA instructions.

Two instructions are emulated, matching the ones the Cubie suite uses:

* ``mma_m8n8k4`` — FP64 D = A(8x4) @ B(4x8) + C(8x8), the workhorse of the
  nine floating-point workloads;
* ``mma_m8n8k128`` — single-bit D = popc(A(8x128) & B(128x8)) + C(8x8), the
  bit-MMA BerryBees BFS builds on.

Accumulation-order contract
---------------------------
The FP64 emulation accumulates the k dimension *sequentially*
(``d = ((c + a0*b0) + a1*b1) + a2*b2) + a3*b3`` in index order), matching the
FMA chain an FP64 tensor core performs.  The CC variants of Section 5.2 call
these same functions, so TC and CC outputs are bit-identical by construction
— exactly the paper's Table 6 finding.  One documented deviation from the
hardware: NumPy has no fused multiply-add, so each step rounds twice
(multiply then add) instead of once.  This shifts absolute error magnitudes
by a small constant factor but preserves all ordering-based effects.

All batched entry points accept arbitrary leading batch dimensions so that
kernels can evaluate millions of MMAs in a handful of vectorized sweeps.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from . import fragments, warp_events

__all__ = [
    "mma_m8n8k4",
    "mma_m8n8k4_batched",
    "mma_fp64_batched",
    "warp_gemm_m8n8k4",
    "pack_bits_rows",
    "mma_m8n8k128_b1",
    "mma_b1_batched",
]

#: output bytes per block of a batched sweep: the block and its scratch
#: stay cache-resident across the whole k loop
SWEEP_BLOCK_BYTES = 1 << 18


def mma_m8n8k4(a: np.ndarray, b: np.ndarray,
               c: np.ndarray | None = None) -> np.ndarray:
    """Single FP64 ``mma_m8n8k4``: returns ``A @ B + C`` with k-sequential
    accumulation.  ``a`` is 8x4, ``b`` is 4x8, ``c`` (optional) is 8x8."""
    return mma_fp64_batched(a[np.newaxis], b[np.newaxis],
                            None if c is None else c[np.newaxis])[0]


def mma_m8n8k4_batched(a: np.ndarray, b: np.ndarray,
                       c: np.ndarray | None = None) -> np.ndarray:
    """Batched FP64 ``mma_m8n8k4`` over leading dimensions.

    ``a``: (..., 8, 4); ``b``: (..., 4, 8); ``c``: (..., 8, 8) or None.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-2:] != (8, 4):
        raise ValueError(f"A fragments must be (..., 8, 4), got {a.shape}")
    if b.shape[-2:] != (4, 8):
        raise ValueError(f"B fragments must be (..., 4, 8), got {b.shape}")
    return mma_fp64_batched(a, b, c)


def mma_fp64_batched(a: np.ndarray, b: np.ndarray,
                     c: np.ndarray | None = None) -> np.ndarray:
    """General batched MMA with k-sequential accumulation order.

    ``a``: (..., m, k); ``b``: (..., k, n); ``c``: (..., m, n) or None.
    This generalization lets kernels fuse several hardware MMAs along k
    (e.g. a 64x64 GEMM tile accumulating over K) while keeping the exact
    per-step rounding behaviour of a chain of ``mma_m8n8k4`` instructions.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("operands must have at least 2 dimensions")
    m, k = a.shape[-2:]
    k2, n = b.shape[-2:]
    if k != k2:
        raise ValueError(f"inner dimensions differ: A has k={k}, B has k={k2}")
    if warp_events.TRACER is not None and (m, k, n) == (8, 4, 8):
        # sampled sanitization: one representative warp's fragment traffic
        # per batched call (the racecheck analog of compute-sanitizer's
        # sampling on bulk kernels)
        _emit_sampled_m8n8k4()
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    d = np.empty(batch + (m, n), dtype=np.float64)
    if c is not None:
        c = np.asarray(c, dtype=np.float64)
        if c.shape[-2:] != (m, n):
            raise ValueError(f"C fragments must be (..., {m}, {n}), got {c.shape}")
        c = np.broadcast_to(c, d.shape)
    a = np.broadcast_to(a, batch + (m, k))
    b = np.broadcast_to(b, batch + (k, n))
    if d.size == 0:
        return d
    # Sequential rank-1 updates along k fix the accumulation order.  The
    # sweep walks the output in blocks of ~SWEEP_BLOCK_BYTES (batch
    # blocks, or row blocks of one matrix), running every k step on one
    # block before the next, so the block and its product scratch stay
    # cache-resident; each element still sees the same k-ordered
    # multiply-then-add sequence, so blocking cannot change a bit.  The
    # product lands in the scratch (multiply-into + in-place add),
    # bit-identical to `d += a_k * b_k`, which rounds the product before
    # the add too.
    # a block holds at most SWEEP_BLOCK_BYTES of values, or one row
    scratch = np.empty(min(d.size, max(SWEEP_BLOCK_BYTES // 8, n)))
    nb = len(batch)
    for idx in _blocks(batch + (m,), 8 * n):
        dc = d[idx]
        if c is None:
            dc.fill(0.0)
        else:
            dc[...] = c[idx]
        ac, bc = a[idx], b[idx[:nb]]
        sc = scratch[:dc.size].reshape(dc.shape)
        for kk in range(k):
            np.multiply(ac[..., :, kk:kk + 1], bc[..., kk:kk + 1, :], out=sc)
            dc += sc
    return d


def _blocks(shape: tuple[int, ...], unit: int) -> Iterator[tuple]:
    """Index tuples tiling an array of outer shape ``shape`` (positive
    dims, ``unit`` > 0 bytes per outer position) in row-major order:
    slices of the leading axis spanning at most ``SWEEP_BLOCK_BYTES`` (at
    least one position), descending into the next axis while one leading
    index alone spans more."""
    inner = unit * math.prod(shape[1:])
    if inner > SWEEP_BLOCK_BYTES and len(shape) > 1:
        for i in range(shape[0]):
            for rest in _blocks(shape[1:], unit):
                yield (i,) + rest
    else:
        step = max(1, SWEEP_BLOCK_BYTES // inner)
        for i in range(0, shape[0], step):
            yield (slice(i, i + step),)


def warp_gemm_m8n8k4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Algorithm 1 of the paper, literally: a warp-level GEMM that loads A
    and B into per-lane fragment registers, executes one
    ``FP64_m8n8k4_mma``, and stores C through the accumulator fragment map.

    Exists for fidelity and testing; bulk kernels use the batched paths.
    """
    with warp_events.scope("warp_gemm_m8n8k4"):
        a_regs = fragments.distribute_a(a)          # line 6: load A
        b_regs = fragments.distribute_b(b)          # line 6: load B
        c_regs = np.zeros((fragments.WARP_SIZE, 2))  # lines 4-5: init c[2]
        # line 7: the MMA — reassemble operands from the register file,
        # exactly as the hardware's dot-product network reads across lanes
        # (one scatter per operand through the precomputed fragment index
        # tables); mma.sync is a warp synchronization point
        warp_events.emit_sync("mma.sync")
        a_tile = np.empty((8, 4))
        b_tile = np.empty((4, 8))
        a_tile[fragments.A_FRAGMENT_ROWS, fragments.A_FRAGMENT_COLS] = a_regs
        b_tile[fragments.B_FRAGMENT_ROWS, fragments.B_FRAGMENT_COLS] = b_regs
        d_tile = mma_m8n8k4(a_tile, b_tile)
        c_regs = fragments.distribute_c(d_tile)
        # line 8: store C via the fragment map
        return fragments.collect_c(c_regs)


def _emit_sampled_m8n8k4() -> None:
    """Replay one warp's m8n8k4 fragment traffic through the tracer: A/B
    loads, the implicit ``mma.sync`` barrier, then the two accumulator
    register stores — all through the PTX fragment index tables."""
    lanes = np.arange(fragments.WARP_SIZE)
    with warp_events.scope("mma_m8n8k4.batched[sample]"):
        warp_events.emit_fragment("A", "read", lanes,
                                  fragments.A_FRAGMENT_ROWS,
                                  fragments.A_FRAGMENT_COLS)
        warp_events.emit_fragment("B", "read", lanes,
                                  fragments.B_FRAGMENT_ROWS,
                                  fragments.B_FRAGMENT_COLS)
        warp_events.emit_sync("mma.sync")
        for reg in (0, 1):
            warp_events.emit_fragment("C", "write", lanes,
                                      fragments.C_FRAGMENT_ROWS[:, reg],
                                      fragments.C_FRAGMENT_COLS[:, reg],
                                      reg=reg)


# ----------------------------------------------------------------- bit MMA

def pack_bits_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean matrix (..., r, 128) into uint64 words (..., r, 2).

    BerryBees stores graph adjacency as 8x128 single-bit tiles; packing rows
    into two 64-bit words keeps the popcount evaluation vectorized.
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.shape[-1] != 128:
        raise ValueError(f"bit rows must have 128 columns, got {bits.shape[-1]}")
    packed_bytes = np.packbits(bits, axis=-1, bitorder="little")
    return packed_bytes.view(np.uint64).reshape(bits.shape[:-1] + (2,))


_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def _popcount_u64_swar(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (vectorized SWAR fallback
    for NumPy < 2.0, which lacks ``np.bitwise_count``)."""
    v = words.copy()
    v -= (v >> np.uint64(1)) & _M1
    v = (v & _M2) + ((v >> np.uint64(2)) & _M2)
    v = (v + (v >> np.uint64(4))) & _M4
    with np.errstate(over="ignore"):
        v *= _H01
    return (v >> np.uint64(56)).astype(np.int64)


_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

if _HAS_BITWISE_COUNT:
    def _popcount_u64(words: np.ndarray) -> np.ndarray:
        """Per-element popcount via the native ufunc (one pass, no
        SWAR mask temporaries)."""
        return np.bitwise_count(words).astype(np.int64)
else:  # pragma: no cover - exercised only on NumPy < 2.0
    _popcount_u64 = _popcount_u64_swar


def mma_m8n8k128_b1(a_bits: np.ndarray, b_bits: np.ndarray,
                    c: np.ndarray | None = None) -> np.ndarray:
    """Single-bit ``mma.m8n8k128`` with AND+POPC semantics.

    ``a_bits``: (8, 128) bool — A tile, row-major bits.
    ``b_bits``: (128, 8) bool — B tile.
    ``c``: (8, 8) int32 accumulator or None.
    Returns the 8x8 int32 result ``D[i,j] = C[i,j] + popc(A[i,:] & B[:,j])``.
    """
    out = mma_b1_batched(pack_bits_rows(a_bits[np.newaxis]),
                         pack_bits_rows(np.ascontiguousarray(b_bits.T)[np.newaxis]),
                         None if c is None else c[np.newaxis])
    return out[0]


def mma_b1_batched(a_words: np.ndarray, b_words: np.ndarray,
                   c: np.ndarray | None = None) -> np.ndarray:
    """Batched bit-MMA on packed operands.

    ``a_words``: (..., 8, 2) uint64 — rows of A packed.
    ``b_words``: (..., 8, 2) uint64 — *columns* of B packed (i.e. B^T rows).
    Returns (..., 8, 8) int64 accumulators.
    """
    a_words = np.asarray(a_words, dtype=np.uint64)
    b_words = np.asarray(b_words, dtype=np.uint64)
    if a_words.shape[-2:] != (8, 2) or b_words.shape[-2:] != (8, 2):
        raise ValueError("packed operands must be (..., 8, 2) uint64")
    batch = np.broadcast_shapes(a_words.shape[:-2], b_words.shape[:-2])
    if c is not None:
        c = np.asarray(c, dtype=np.int64)
        batch = np.broadcast_shapes(batch + (8, 8), c.shape)[:-2]
        c = np.broadcast_to(c, batch + (8, 8))
    a_words = np.broadcast_to(a_words, batch + (8, 2))
    b_words = np.broadcast_to(b_words, batch + (8, 2))
    counts = np.empty(batch + (8, 8), dtype=np.int64)
    if counts.size == 0:
        return counts
    # AND every row of A with every packed column of B one word at a time
    # and add the two words' popcounts (each <= 64, so even the uint8 sum
    # is exact), in blocks of ~SWEEP_BLOCK_BYTES of counts (batch blocks,
    # or row blocks of one tile) so the temporaries stay cache-resident
    popc = np.bitwise_count if _HAS_BITWISE_COUNT else _popcount_u64
    nb = len(batch)
    for idx in _blocks(batch + (8,), 8 * 8):
        a_blk = a_words[idx][..., :, np.newaxis, :]
        b_blk = b_words[idx[:nb]][..., np.newaxis, :, :]
        out = counts[idx]
        np.add(popc(a_blk[..., 0] & b_blk[..., 0]),
               popc(a_blk[..., 1] & b_blk[..., 1]), out=out)
        if c is not None:
            out += c[idx]
    return counts

"""Launch-plan execution engine: fused batched MMA sweeps.

Kernels used to walk their tile chains in Python — one interpreter
iteration (and one ``mma_*_batched`` call) per k-tile, per DASP group step,
per SpGEMM duplicate round.  This module splits that work into *recording*
and *execution*: a kernel records its MMA work into a :class:`LaunchPlan`
(fragment tiles, chained k-accumulation, ragged segment boundaries,
exact-zero padding) and :func:`execute_plan` runs the whole plan as a
handful of stacked :func:`~repro.gpu.mma.mma_fp64_batched` /
:func:`~repro.gpu.mma.mma_b1_batched` sweeps.

Accumulation-order contract
---------------------------
Fusing a chain ``acc = mma(A_t, B_t, acc)`` for ``t = 0..T-1`` into one
``mma_fp64_batched(concat_k(A_t), concat_k(B_t), c)`` call is *bit-identical*
to the loop: the primitive applies one rank-1 update per k index in order,
so the fused call performs exactly the same multiply/add sequence per output
element as the chained calls (DESIGN.md §6.1; regression-pinned by
``tests/kernels/test_seed_digests.py``).  Exact-zero padding steps append
``+ 0.0 * x`` terms, which leave finite accumulators bit-unchanged.

Five op kinds are recordable:

* ``chain``   — uniform chained accumulation: ``(..., T, m, k)`` A steps
  against ``(..., T, k, n)`` B steps;
* ``ragged``  — per-item chain lengths over flat tile stacks (DASP SpMV
  groups, AmgT SpGEMM duplicate runs), bucketed by length so no padding is
  ever introduced;
* ``product`` — independent single products; same-shaped products in one
  plan stack into a single sweep (tcFFT's four real products per stage);
* ``bit``     — one AND+POPC sweep over packed bit operands;
* ``mixed``   — quantized-operand products (FP32 accumulate) for the
  Ozaki slice-pair sweeps and low-precision Cholesky updates; same-shaped
  same-precision products stack into one batched sweep (quantization is
  elementwise, so it commutes with stacking).

Ragged bucketing depends only on the segment structure (lengths/offsets),
so it is cached in a small content-addressed LRU: repeated executions over
the same matrix (sweeps, variant pairs, populations) skip re-planning.

Sampled sanitization: fused sweeps have generalized shapes ``(m, T*k, n)``
that the primitive's own ``(8, 4, 8)`` sampling does not match, so the
engine replays one representative warp's fragment traffic per executed
fp64 sweep when a tracer is attached — the warp-hazard battery keeps
auditing launch-plan kernels at the same sampling rate as the per-tile code.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..perf.cache import content_key
from ..perf.instrument import SEP, stage
from ..sparse.csr import sorted_distinct
from . import warp_events
from .isa import Precision
from .mma import _emit_sampled_m8n8k4, mma_b1_batched, mma_fp64_batched
from .mma_mixed import mma_mixed_batched

__all__ = [
    "LaunchPlan",
    "execute_plan",
    "run_chain",
    "run_ragged",
    "plan_cache_stats",
    "clear_plan_cache",
]


class LaunchPlan:
    """Recorded MMA work for one kernel invocation.

    Each ``record_*`` method returns a handle; :func:`execute_plan` returns
    the outputs in handle order.  The plan holds references to the operand
    arrays — recording is O(1) per op.
    """

    __slots__ = ("_ops",)

    def __init__(self) -> None:
        self._ops: list[tuple] = []

    def __len__(self) -> int:
        return len(self._ops)

    # ------------------------------------------------------------------
    def chain(self, a_steps: np.ndarray, b_steps: np.ndarray,
              c: np.ndarray | None = None) -> int:
        """Record a uniform chained accumulation.

        ``a_steps``: ``(..., T, m, k)``; ``b_steps``: ``(..., T, k, n)``
        (batch dims broadcastable against A's); ``c``: ``(..., m, n)`` or
        None for a zero accumulator.  Step ``t`` is the t-th MMA of the
        chain; the fused sweep preserves the per-step k order.
        """
        self._ops.append(("chain", a_steps, b_steps, c))
        return len(self._ops) - 1

    def ragged(self, a_tiles: np.ndarray, b_tiles: np.ndarray,
               lengths: np.ndarray, offsets: np.ndarray,
               c: np.ndarray | None = None) -> int:
        """Record per-item chains of varying length over flat tile stacks.

        Item ``i`` chains tiles ``offsets[i] .. offsets[i]+lengths[i]-1`` of
        ``a_tiles`` ``(S, m, k)`` and ``b_tiles`` ``(S, k, n)`` through its
        accumulator.  Zero-length items keep their initial accumulator.
        """
        self._ops.append(("ragged", a_tiles, b_tiles,
                          np.asarray(lengths), np.asarray(offsets), c))
        return len(self._ops) - 1

    def product(self, a: np.ndarray, b: np.ndarray,
                c: np.ndarray | None = None) -> int:
        """Record one independent product ``(..., m, k) @ (..., k, n)``.

        Products with identical operand shapes and no explicit accumulator
        are stacked into a single batched sweep at execution time.
        """
        self._ops.append(("product", a, b, c))
        return len(self._ops) - 1

    def bit(self, a_words: np.ndarray, b_words: np.ndarray,
            c: np.ndarray | None = None) -> int:
        """Record one packed single-bit AND+POPC sweep."""
        self._ops.append(("bit", a_words, b_words, c))
        return len(self._ops) - 1

    def mixed(self, a: np.ndarray, b: np.ndarray,
              c: np.ndarray | None = None,
              precision: Precision = Precision.FP16) -> int:
        """Record one quantized-operand product (FP32 accumulate).

        Like :meth:`product` but through the mixed-precision MMA path —
        the Ozaki slice-pair sweeps and the low-precision Cholesky
        trailing updates express their MMA work this way.  Same-shaped
        accumulator-less products at the same precision stack into one
        batched sweep; quantization is elementwise, so stacking commutes
        with it and the fused sweep stays bit-identical.
        """
        self._ops.append(("mixed", a, b, c, precision))
        return len(self._ops) - 1


# ------------------------------------------------------------ plan cache

_BUCKET_CACHE: OrderedDict[str, tuple] = OrderedDict()
_BUCKET_CACHE_MAX = 64
_CACHE_STATS = {"hits": 0, "misses": 0}


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the ragged-bucketing plan cache."""
    return dict(_CACHE_STATS)


def clear_plan_cache() -> None:
    _BUCKET_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def _ragged_buckets(lengths: np.ndarray, offsets: np.ndarray) -> tuple:
    """Group items by chain length: ``(L, rows, gather)`` per distinct
    nonzero length, where ``gather[r, t] = offsets[rows[r]] + t``.

    The buckets are pure structure (no values), so they are cached by a
    content hash of the segment layout and shared across executions,
    variants, and sweeps over the same matrix.
    """
    key = content_key("launch-ragged-buckets", lengths, offsets)
    hit = _BUCKET_CACHE.get(key)
    if hit is not None:
        _BUCKET_CACHE.move_to_end(key)
        _CACHE_STATS["hits"] += 1
        return hit
    _CACHE_STATS["misses"] += 1
    buckets = []
    for length in sorted_distinct(lengths):
        n = int(length)
        if n <= 0:
            continue
        rows = np.flatnonzero(lengths == length)
        gather = offsets[rows][:, None] + np.arange(n, dtype=np.int64)
        buckets.append((n, rows, gather))
    result = tuple(buckets)
    _BUCKET_CACHE[key] = result
    while len(_BUCKET_CACHE) > _BUCKET_CACHE_MAX:
        _BUCKET_CACHE.popitem(last=False)
    return result


# ------------------------------------------------------------- execution

def _fuse_steps(a_steps: np.ndarray, b_steps: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate T chain steps along k: ``(..., T, m, k) -> (..., m, T*k)``
    and ``(..., T, k, n) -> (..., T*k, n)``."""
    a_steps = np.asarray(a_steps, dtype=np.float64)
    b_steps = np.asarray(b_steps, dtype=np.float64)
    t, m, k = a_steps.shape[-3:]
    n = b_steps.shape[-1]
    batch = np.broadcast_shapes(a_steps.shape[:-3], b_steps.shape[:-3])
    a_steps = np.broadcast_to(a_steps, batch + (t, m, k))
    b_steps = np.broadcast_to(b_steps, batch + (t, k, n))
    a_fused = np.swapaxes(a_steps, -3, -2).reshape(batch + (m, t * k))
    b_fused = b_steps.reshape(batch + (t * k, n))
    return a_fused, b_fused


def _sweep_fp64(a: np.ndarray, b: np.ndarray,
                c: np.ndarray | None) -> np.ndarray:
    """One fused sweep, with the sampled warp replay the primitive's own
    (8, 4, 8) sampling would miss on generalized fused shapes."""
    if warp_events.TRACER is not None \
            and (a.shape[-2], a.shape[-1], b.shape[-1]) != (8, 4, 8):
        _emit_sampled_m8n8k4()
    return mma_fp64_batched(a, b, c)


def execute_plan(plan: LaunchPlan, label: str = "plan") -> list[np.ndarray]:
    """Execute every recorded op; returns outputs in handle order.

    Wall time is attributed per kernel: operand fusion, ragged bucketing,
    and product stacking under ``plan-build:<label>``; the batched MMA
    sweeps under ``sweep-execute:<label>`` (``repro bench --profile``).
    """
    # the label lands in stage names, where the profiler's path separator
    # is structural: a worker-side record whose *root* name contains SEP
    # would be mistaken for a nested path when the graph scheduler merges
    # worker registries, double-charging the parent frame's self time
    label = label.replace(SEP, ":")
    outputs: list[np.ndarray | None] = [None] * len(plan._ops)

    # stackable single products: same shapes, no accumulator (mixed ops
    # additionally key on their operand precision)
    stackable: dict[tuple, list[int]] = {}
    for i, op in enumerate(plan._ops):
        if op[0] == "product" and op[3] is None:
            stackable.setdefault((op[1].shape, op[2].shape), []).append(i)
        elif op[0] == "mixed" and op[3] is None:
            stackable.setdefault(
                (op[1].shape, op[2].shape, op[4]), []).append(i)

    done: set[int] = set()
    for i, op in enumerate(plan._ops):
        if i in done:
            continue
        kind = op[0]
        if kind == "chain":
            _, a_steps, b_steps, c = op
            with stage(f"plan-build:{label}"):
                a_fused, b_fused = _fuse_steps(a_steps, b_steps)
            with stage(f"sweep-execute:{label}"):
                outputs[i] = _sweep_fp64(a_fused, b_fused, c)
        elif kind == "ragged":
            _, a_tiles, b_tiles, lengths, offsets, c = op
            with stage(f"plan-build:{label}"):
                buckets = _ragged_buckets(lengths, offsets)
                m, k = a_tiles.shape[-2:]
                n = b_tiles.shape[-1]
                out = np.zeros((len(lengths), m, n)) if c is None \
                    else np.array(c, dtype=np.float64)
            for length, rows, gather in buckets:
                with stage(f"plan-build:{label}"):
                    a_fused, b_fused = _fuse_steps(a_tiles[gather],
                                                   b_tiles[gather])
                    c_rows = None if c is None else out[rows]
                with stage(f"sweep-execute:{label}"):
                    out[rows] = _sweep_fp64(a_fused, b_fused, c_rows)
            outputs[i] = out
        elif kind == "product":
            _, a, b, c = op
            group = stackable.get((a.shape, b.shape), [i]) \
                if c is None else [i]
            if len(group) > 1:
                with stage(f"plan-build:{label}"):
                    a_stack = np.stack([plan._ops[j][1] for j in group])
                    b_stack = np.stack([plan._ops[j][2] for j in group])
                with stage(f"sweep-execute:{label}"):
                    results = _sweep_fp64(a_stack, b_stack, None)
                for pos, j in enumerate(group):
                    outputs[j] = results[pos]
                    done.add(j)
            else:
                with stage(f"sweep-execute:{label}"):
                    outputs[i] = _sweep_fp64(np.asarray(a, dtype=np.float64),
                                             np.asarray(b, dtype=np.float64),
                                             c)
        elif kind == "mixed":
            _, a, b, c, precision = op
            group = stackable.get((a.shape, b.shape, precision), [i]) \
                if c is None else [i]
            if len(group) > 1:
                with stage(f"plan-build:{label}"):
                    a_stack = np.stack([plan._ops[j][1] for j in group])
                    b_stack = np.stack([plan._ops[j][2] for j in group])
                with stage(f"sweep-execute:{label}"):
                    results = mma_mixed_batched(a_stack, b_stack,
                                                precision=precision)
                for pos, j in enumerate(group):
                    outputs[j] = results[pos]
                    done.add(j)
            else:
                with stage(f"sweep-execute:{label}"):
                    outputs[i] = mma_mixed_batched(a, b, c,
                                                   precision=precision)
        elif kind == "bit":
            _, a_words, b_words, c = op
            with stage(f"sweep-execute:{label}"):
                outputs[i] = mma_b1_batched(a_words, b_words, c)
        else:  # pragma: no cover - recording API prevents this
            raise ValueError(f"unknown launch op {kind!r}")
        done.add(i)
    return outputs


# ---------------------------------------------------------- conveniences

def run_chain(a_steps: np.ndarray, b_steps: np.ndarray,
              c: np.ndarray | None = None,
              label: str = "chain") -> np.ndarray:
    """Record-and-execute one uniform chain (single-op plan)."""
    plan = LaunchPlan()
    h = plan.chain(a_steps, b_steps, c)
    return execute_plan(plan, label=label)[h]


def run_ragged(a_tiles: np.ndarray, b_tiles: np.ndarray,
               lengths: np.ndarray, offsets: np.ndarray,
               c: np.ndarray | None = None,
               label: str = "ragged") -> np.ndarray:
    """Record-and-execute one ragged chain-set (single-op plan)."""
    plan = LaunchPlan()
    h = plan.ragged(a_tiles, b_tiles, lengths, offsets, c)
    return execute_plan(plan, label=label)[h]

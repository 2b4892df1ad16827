"""Analytic stats read layouts, and equal the filled-format stats they
replace.

SpMV's counters read the DASP layout, SpGEMM's the mBSR block pattern and
BFS's the level trace derived from CSR levels and distinct tile keys.  The
references below read the same counts off the filled formats and the
bit-MMA traversal, as the analytic path did before the split, and every
variant and case must come out equal field by field, ``dram`` included.
"""

from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets.suitesparse import generate_matrix
from repro.gpu.counters import KernelStats
from repro.kernels import get_workload
from repro.kernels.base import MLP_IRREGULAR, Variant
from repro.kernels.bfs import BfsWorkload, graph_layout, with_bitmap
from repro.kernels.spgemm import expansion_sizes
from repro.kernels.spmv import gather_segment_bytes
from repro.sparse.csr import CsrMatrix
from repro.sparse.dasp import DaspMatrix

from ..sparse.test_layouts import _mbsr_reference


def _assert_same_stats(got: KernelStats, ref: KernelStats, what) -> None:
    got_d, ref_d = asdict(got), asdict(ref)
    for name in ref_d:
        assert got_d[name] == ref_d[name], (what, name)


# ---------------------------------------------------------------- references
def _spmv_filled(a):
    """The tile and slot counts read off the filled DASP tiles."""
    d = DaspMatrix.from_csr(a)
    return SimpleNamespace(total_tiles=d.values.shape[0], slots=d.mask.size)


def _gunrock_push_reference(data) -> KernelStats:
    """The push BFS that accounted each level while it expanded the
    frontier's adjacency lists."""
    adj: CsrMatrix = data["adj"]
    st_ = KernelStats()
    st_.cc_efficiency = 0.5
    st_.mlp = MLP_IRREGULAR * 0.75
    levels = np.full(data["n"], -1, dtype=np.int64)
    levels[data["source"]] = 0
    frontier = np.array([data["source"]], dtype=np.int64)
    lengths = adj.row_lengths()
    level, stages = 0, 1
    while len(frontier):
        level += 1
        stages += 2
        inspected = int(lengths[frontier].sum())
        nbrs = np.concatenate(
            [adj.indices[adj.indptr[u]:adj.indptr[u + 1]] for u in frontier])
        nxt = np.unique(nbrs[levels[nbrs] < 0])
        levels[nxt] = level
        avg_run = 4.0 * max(inspected / max(len(frontier), 1), 1.0)
        st_.read_dram(4.0 * inspected, segment_bytes=avg_run)
        st_.read_dram(4.0 * inspected, segment_bytes=4)
        st_.write_dram(4.0 * inspected, segment_bytes=4)
        st_.write_dram(4.0 * len(nxt), segment_bytes=4)
        st_.add_int_ops(3.0 * inspected)
        st_.add_l1(8.0 * inspected)
        frontier = nxt
    st_.serial_stages = stages
    return st_


def _assert_trace_matches_traversal(data) -> None:
    levels, stages, pairs = data["trace"]
    got_levels, got_stages, got_pairs = BfsWorkload()._bitmap_traverse(data)
    np.testing.assert_array_equal(got_levels, levels)
    assert got_stages == stages
    assert got_pairs == pairs


# -------------------------------------------------------------------- tests
class TestAnalyticStatsEqualFilledReference:
    @pytest.mark.slow
    def test_spmv(self):
        w = get_workload("spmv")
        for case in w.cases():
            a = generate_matrix(case["matrix"], scale=w.scale)
            filled, seg = _spmv_filled(a), gather_segment_bytes(a)
            for v in w.variants():
                _assert_same_stats(w.analytic_stats(v, case),
                                   w._stats(v, a, filled, seg),
                                   (case.label, v))

    @pytest.mark.slow
    def test_spgemm(self):
        w = get_workload("spgemm")
        for case in w.cases():
            a = generate_matrix(case["matrix"], scale=w.scale)
            pattern = _mbsr_reference(a)[:2]      # the fused-sort pattern
            sizes = expansion_sizes(a, pattern)
            for v in w.variants():
                _assert_same_stats(w.analytic_stats(v, case),
                                   w._stats(v, a, sizes), (case.label, v))

    @pytest.mark.slow
    def test_bfs(self):
        w = get_workload("bfs")
        for case in w.cases():
            data = w.prepare(case)
            traversed = dict(data, trace=w._bitmap_traverse(data))
            for v in w.variants():
                ref = (_gunrock_push_reference(data)
                       if v is Variant.BASELINE
                       else w._bitmap_stats(traversed, v))
                _assert_same_stats(w.analytic_stats(v, case), ref,
                                   (case.label, v))


class TestBfsLevelTrace:
    @pytest.mark.slow
    def test_traversal_equals_trace_on_the_five_graphs(self):
        w = get_workload("bfs")
        for case in w.cases():
            _assert_trace_matches_traversal(w.prepare(case))

    @given(n=st.integers(1, 700), m=st.integers(0, 900),
           seed=st.integers(0, 2**31), loops=st.booleans())
    @settings(max_examples=60, deadline=None)
    @example(n=1, m=0, seed=0, loops=False)        # one vertex, no edges
    @example(n=300, m=0, seed=0, loops=False)      # no edges
    @example(n=256, m=700, seed=3, loops=True)     # n a multiple of 128
    @example(n=131, m=600, seed=4, loops=True)     # n not a multiple of 8
    def test_traversal_equals_trace(self, n, m, seed, loops):
        rng = np.random.default_rng(seed)
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        if loops:                                  # self-loops
            dst[::5] = src[::5]
        # duplicate edges
        src, dst = np.r_[src, src[:m // 4]], np.r_[dst, dst[:m // 4]]
        _assert_trace_matches_traversal(with_bitmap(graph_layout(src, dst,
                                                                 n)))

    def test_baseline_matches_push_reference_on_random_graphs(self):
        w = BfsWorkload()
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 500))
            src, dst = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
            data = graph_layout(src, dst, n)
            _assert_same_stats(w._push_stats(data),
                               _gunrock_push_reference(data), seed)


class TestGatherSegmentBoundaryRows:
    @staticmethod
    def _csr(rows):
        indptr = np.r_[0, np.cumsum([len(r) for r in rows])]
        indices = np.array([c for r in rows for c in r], dtype=np.int64)
        return CsrMatrix(indptr, indices, np.ones(len(indices)),
                         (len(rows), 4))

    def test_empty_first_or_last_row_breaks_no_run(self):
        one_row = gather_segment_bytes(self._csr([[0, 1, 2, 3]]))
        assert one_row == 32.0
        assert gather_segment_bytes(self._csr([[0, 1, 2, 3], []])) == one_row
        assert gather_segment_bytes(self._csr([[], [0, 1, 2, 3]])) == one_row

    def test_interior_row_start_still_breaks_a_run(self):
        # four entries in two rows: the row start between them breaks the
        # run of same-sector columns, empty boundary rows or not
        for rows in ([[0, 1], [2, 3]], [[], [0, 1], [2, 3], []]):
            assert gather_segment_bytes(self._csr(rows)) == \
                pytest.approx(24.0)

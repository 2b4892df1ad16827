"""The Table 6 compare of sparse outputs is pinned to the dense compare it
replaced.

A CSR output against a CSR reference is compared at their stored positions
only, through one zeroed error vector.  The dense compare (densify both,
subtract, ``abs``) is kept here as the reference, and the two must agree
bit for bit on outputs with repeated and unsorted positions, explicit
zeros, ``-0.0``, infinities, NaNs, empty rows, no entries, disjoint
patterns and non-square shapes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import accuracy
from repro.analysis.accuracy import _Reference, error_metrics
from repro.kernels.spgemm import SpgemmWorkload
from repro.sparse.csr import CsrMatrix
from repro.sparse.mbsr import MbsrMatrix

#: values with an IEEE edge each: both zeros, both infinities, NaN
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _dense_errors(output, reference):
    """The compare that densified both sides, kept as the reference."""
    got = output.to_dense().ravel()
    ref = reference.to_dense().ravel()
    if got.shape != ref.shape:
        raise ValueError(f"output shape {got.shape} != reference shape "
                         f"{ref.shape}")
    err = np.abs(got - ref)
    return float(err.mean()), float(err.max()), int(err.size)


def _assert_same_bits(got, want):
    assert got[2] == want[2]
    np.testing.assert_array_equal(np.array(got[:2]).view(np.uint64),
                                  np.array(want[:2]).view(np.uint64))


def _values(rng, n, special_share):
    vals = rng.uniform(-4.0, 4.0, n)
    special = rng.random(n) < special_share
    vals[special] = rng.choice(SPECIALS, int(special.sum()))
    return vals


def _random_csr(rng, shape, empty_share, special_share):
    """Rows empty with probability ``empty_share``, the rest up to
    ``n_cols + 2`` long with unsorted, repeated columns."""
    n_rows, n_cols = shape
    lengths = np.where(rng.random(n_rows) < empty_share, 0,
                       rng.integers(1, n_cols + 3, n_rows))
    indptr = np.r_[0, np.cumsum(lengths)].astype(np.int64)
    indices = rng.integers(0, n_cols, int(indptr[-1]))
    return CsrMatrix(indptr, indices,
                     _values(rng, len(indices), special_share), shape)


def _disjoint(rng, ref, special_share):
    """An output storing only cells the reference leaves empty."""
    free = np.ones(ref.shape, dtype=bool)
    free[ref.row_of_entry(), ref.indices] = False
    rows, cols = np.nonzero(free & (rng.random(ref.shape) < 0.5))
    return CsrMatrix.from_coo(rows, cols,
                              _values(rng, len(rows), special_share),
                              ref.shape, sum_duplicates=False)


@st.composite
def csr_pairs(draw):
    """(output, reference) pairs of one, often non-square, shape whose
    patterns are independent, identical, disjoint, alike only in row
    lengths, or empty on the output's side."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    special = draw(st.sampled_from([0.0, 0.2, 0.6]))
    empty = draw(st.sampled_from([0.0, 0.4, 1.0]))
    ref = _random_csr(rng, shape, empty, special)
    relation = draw(st.sampled_from(["independent", "same pattern",
                                     "same row lengths", "disjoint",
                                     "output empty"]))
    if relation == "same pattern":
        out = CsrMatrix(ref.indptr, ref.indices,
                        _values(rng, ref.nnz, special), shape)
    elif relation == "same row lengths":
        out = CsrMatrix(ref.indptr, rng.integers(0, shape[1], ref.nnz),
                        _values(rng, ref.nnz, special), shape)
    elif relation == "disjoint":
        out = _disjoint(rng, ref, special)
    elif relation == "output empty":
        out = _random_csr(rng, shape, 1.0, special)
    else:
        out = _random_csr(rng, shape, draw(st.sampled_from([0.0, 0.4])),
                          special)
    return out, ref


def _csr(rows, cols, vals, shape):
    return CsrMatrix.from_coo(rows, cols, vals, shape, sum_duplicates=False)


class TestSparseCompareMatchesDense:
    @given(csr_pairs())
    @settings(max_examples=150, deadline=None)
    @example((_csr([0, 0], [1, 1], [2.0, 5.0], (2, 3)),        # repeated
              _csr([0, 1, 0], [1, 0, 1], [1.0, 3.0, 4.0], (2, 3))))
    @example((_csr([1], [0], [-0.0], (3, 2)),                  # -0.0 only
              _csr([], [], [], (3, 2))))
    @example((_csr([0, 0], [0, 1], [np.inf, np.nan], (1, 4)),  # inf, NaN
              _csr([0, 0], [0, 2], [np.inf, 1.0], (1, 4))))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_property_bit_identical(self, pair):
        out, ref = pair
        _assert_same_bits(error_metrics(out, ref), _dense_errors(out, ref))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_reference_serves_many_outputs(self):
        # each compare zeroes what it wrote, whichever branch it took
        rng = np.random.default_rng(7)
        ref = _random_csr(rng, (9, 7), 0.3, 0.2)
        shared = _Reference(ref)
        outputs = [
            CsrMatrix(ref.indptr, ref.indices, _values(rng, ref.nnz, 0.2),
                      ref.shape),
            _random_csr(rng, (9, 7), 0.2, 0.2),
            _disjoint(rng, ref, 0.2),
            ref,
            _random_csr(rng, (9, 7), 1.0, 0.0),
        ]
        for out in outputs:
            _assert_same_bits(shared.errors(out), _dense_errors(out, ref))
            assert not shared.err.view(np.uint64).any()

    def test_shortcut_only_for_the_reference_pattern(self, monkeypatch):
        # the shortcut pairs entries directly; any other pair locates the
        # output's cells
        located, locate = [], accuracy._cells

        def cells(m):
            located.append(m)
            return locate(m)

        ref = _csr([0, 1, 1], [0, 0, 2], [1.0, 2.0, 3.0], (2, 3))
        shared = _Reference(ref)
        monkeypatch.setattr(accuracy, "_cells", cells)
        same = CsrMatrix(ref.indptr, ref.indices, np.array([1.5, 2.0, 0.0]),
                         ref.shape)
        _assert_same_bits(shared.errors(same), _dense_errors(same, ref))
        assert located == []
        other = _csr([0, 1], [0, 2], [1.5, 3.0], (2, 3))
        _assert_same_bits(shared.errors(other), _dense_errors(other, ref))
        assert located == [other]

    def test_block_sum_cancelling_to_zero_changes_the_pattern(self):
        # TC drops a block cell that sums to exactly 0.0 while the
        # reference keeps it stored: the general branch must see it
        a = _csr([0, 0, 2], [0, 2, 0], [1.0, -1.0, 1.0], (3, 3))
        w = SpgemmWorkload()
        ref = w.reference({"a": a})
        out = w._block_spgemm(MbsrMatrix.from_csr(a), tree=False)
        assert out.nnz < ref.nnz
        _assert_same_bits(error_metrics(out, ref), _dense_errors(out, ref))

    def test_same_size_other_shape_compares_flattened(self):
        # the flattened cells pair up, as the dense compare paired them
        out = _csr([0, 1], [2, 0], [1.0, 2.0], (2, 3))
        ref = _csr([0, 2], [1, 1], [4.0, -1.0], (3, 2))
        _assert_same_bits(error_metrics(out, ref), _dense_errors(out, ref))

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            error_metrics(_csr([], [], [], (2, 3)), _csr([], [], [], (2, 4)))
        with pytest.raises(ValueError, match="shape"):
            error_metrics(np.zeros(3), _csr([], [], [], (2, 2)))

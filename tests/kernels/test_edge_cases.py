"""Edge-case and failure-injection tests for the workloads and device."""

import numpy as np
import pytest

from repro.gpu import Device, KernelStats
from repro.kernels import (
    GemvWorkload,
    ScanWorkload,
    SpgemmWorkload,
    SpmvWorkload,
    Variant,
)
from repro.kernels.base import WorkloadCase
from repro.sparse.csr import CsrMatrix
from repro.sparse.dasp import DaspMatrix

DEV = Device("H200")


class TestDegenerateInputs:
    def test_spmv_on_empty_matrix(self):
        a = CsrMatrix.from_coo([], [], [], (16, 16))
        d = DaspMatrix.from_csr(a)
        w = SpmvWorkload()
        data = {"a": a, "dasp": d, "x": np.ones(16)}
        for v in w.variants():
            out = w.execute(v, data, DEV).output
            np.testing.assert_array_equal(out, np.zeros(16))

    def test_spmv_single_entry(self):
        a = CsrMatrix.from_coo([3], [5], [2.5], (8, 8))
        w = SpmvWorkload()
        data = {"a": a, "dasp": DaspMatrix.from_csr(a),
                "x": np.arange(8.0)}
        for v in w.variants():
            out = w.execute(v, data, DEV).output
            np.testing.assert_array_equal(out[3], 12.5)
            assert np.count_nonzero(out) == 1

    def test_gemv_single_row(self):
        w = GemvWorkload()
        case = WorkloadCase(label="1row", params={"m": 8, "n": 4})
        data = w.prepare(case)
        for v in w.variants():
            out = w.execute(v, data, DEV).output
            np.testing.assert_allclose(out, w.reference(data), atol=1e-14)

    def test_scan_single_segment(self):
        w = ScanWorkload()
        case = WorkloadCase(label="one", params={"segment": 64, "n": 64})
        data = w.prepare(case)
        out = w.execute(Variant.TC, data, DEV).output
        np.testing.assert_allclose(out, w.reference(data), atol=1e-12)


class TestSpgemmBlockOutputReuse:
    """TC and CC share one block output per prepared case, and the case
    does not keep it once CC has taken it."""

    @staticmethod
    def _case():
        w = SpgemmWorkload(scale=0.08, exec_scale=0.08)
        return w, w.prepare(w.exec_case(w.cases()[0]))

    def test_cc_reuses_tc_output_and_data_keeps_none(self):
        w, data = self._case()
        keys = set(data)
        outs = {v: w.execute(v, data, DEV).output for v in w.variants()}
        assert outs[Variant.CC] is outs[Variant.TC]
        assert outs[Variant.CCE] is not outs[Variant.TC]
        assert set(data) - keys == {"sizes"}

    def test_tc_twice_gives_identical_arrays(self):
        w, data = self._case()
        first = w.execute(Variant.TC, data, DEV).output
        second = w.execute(Variant.TC, data, DEV).output
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(first, name),
                                          getattr(second, name))


class TestNanPropagation:
    """NaN inputs must flow to NaN outputs, never crash or vanish."""

    def test_spmv_nan_value(self):
        a = CsrMatrix.from_coo([0, 1], [0, 1], [np.nan, 1.0], (8, 8))
        w = SpmvWorkload()
        data = {"a": a, "dasp": DaspMatrix.from_csr(a), "x": np.ones(8)}
        out = w.execute(Variant.TC, data, DEV).output
        assert np.isnan(out[0])
        assert out[1] == 1.0

    def test_scan_nan_blast_radius_differs_by_variant(self):
        # a real MMU-transformation hazard: the constant-matrix MMA
        # multiplies NaN by its *zero* entries too (NaN x 0 = NaN), so one
        # NaN poisons the entire 8x8 block, while the vector baseline only
        # poisons the mathematical suffix
        w = ScanWorkload()
        case = WorkloadCase(label="nan", params={"segment": 64, "n": 64})
        data = w.prepare(case)
        data["x"][0, 10] = np.nan
        tc = w.execute(Variant.TC, data, DEV).output
        base = w.execute(Variant.BASELINE, data, DEV).output
        assert np.isnan(tc[0]).all()           # whole block blasted
        assert np.isnan(base[0, 10:]).all()    # suffix poisoned
        assert np.isfinite(base[0, :8]).any()  # prefix survives

    def test_gemv_nan_in_x(self):
        w = GemvWorkload()
        case = WorkloadCase(label="nan", params={"m": 16, "n": 8})
        data = w.prepare(case)
        data["x"][3] = np.nan
        out = w.execute(Variant.TC, data, DEV).output
        assert np.isnan(out).all()  # every row touches x[3]


class TestModelGuards:
    def test_zero_work_kernel_costs_launch_only(self):
        r = DEV.resolve(KernelStats())
        assert r.time_s == pytest.approx(DEV.spec.launch_overhead_s)
        assert r.flops == 0.0

    def test_huge_kernel_does_not_overflow(self):
        st = KernelStats()
        st.add_mma_fp64(1e15)
        st.read_dram(1e18, 1 << 20)
        r = DEV.resolve(st)
        assert np.isfinite(r.time_s) and r.time_s > 1.0
        assert np.isfinite(r.edp)

    def test_negative_inputs_rejected_in_counters(self):
        st = KernelStats()
        with pytest.raises(ValueError):
            st.read_dram(-5.0, 8)
        with pytest.raises(ValueError):
            st.read_dram(5.0, 0)

    def test_workload_case_params_immutable_mapping(self):
        case = WorkloadCase(label="x", params={"m": 8})
        assert case["m"] == 8
        with pytest.raises(KeyError):
            case["missing"]

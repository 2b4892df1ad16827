"""Tests for quadrants, accuracy, roofline, EDP, features, and dwarfs —
the analyses behind Figures 2, 7-11 and Tables 6-7."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    FULL_THRESHOLD,
    RODINIA,
    SHOC,
    accuracy_table,
    classify,
    classify_suite,
    coverage_table,
    cubie_coverage,
    edp_study,
    error_metrics,
    graph_features,
    matrix_features,
    power_trace_study,
    quadrant_geomeans,
    suite_roofline,
)
from repro.analysis.accuracy import _accuracy_table_uncached
from repro.analysis.quadrants import _quadrant_of
from repro.gpu import Device
from repro.kernels import (
    GemmWorkload,
    GemvWorkload,
    Quadrant,
    ReductionWorkload,
    ScanWorkload,
    SpgemmWorkload,
    all_workloads,
    get_workload,
)
from repro.sparse.csr import CsrMatrix

DEV = Device("H200")
SRC = Path(__file__).resolve().parents[2] / "src"

#: the audit-scale SpGEMM table in a fresh interpreter: its cell count
#: and the process's peak RSS
_SPGEMM_RSS_SCRIPT = """
import json, resource
from repro.analysis.accuracy import _accuracy_table_uncached
from repro.gpu.device import Device
from repro.kernels.spgemm import SpgemmWorkload
rows = _accuracy_table_uncached(SpgemmWorkload(), Device("H200"))
print(json.dumps({"cells": rows[0].samples, "maxrss_kib":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


class TestQuadrants:
    def test_quadrant_of_truth_table(self):
        assert _quadrant_of(True, True) is Quadrant.I
        assert _quadrant_of(False, True) is Quadrant.II
        assert _quadrant_of(False, False) is Quadrant.III
        assert _quadrant_of(True, False) is Quadrant.IV

    def test_measured_classification_matches_figure2(self):
        # use light-weight instances so classification is fast
        fast = [GemmWorkload(), ScanWorkload(n_total=1 << 16),
                ReductionWorkload(n_total=1 << 16), GemvWorkload()]
        groups = classify_suite(fast)
        assert groups[Quadrant.I] == ["gemm"]
        assert groups[Quadrant.II] == ["scan"]
        assert groups[Quadrant.III] == ["reduction"]
        assert groups[Quadrant.IV] == ["gemv"]

    def test_profile_values(self):
        p = classify(GemvWorkload())
        assert p.input_full
        assert not p.output_full
        assert p.output_utilization == pytest.approx(1 / 8)
        assert 0.9 < FULL_THRESHOLD < 1.0


class TestAccuracy:
    def test_error_metrics_basic(self):
        avg, mx, n = error_metrics(np.array([1.0, 2.0, 3.5]),
                                   np.array([1.0, 2.5, 3.0]))
        assert avg == pytest.approx(1.0 / 3)
        assert mx == pytest.approx(0.5)
        assert n == 3

    def test_error_metrics_complex(self):
        avg, mx, n = error_metrics(np.array([1 + 1j]), np.array([1 + 0j]))
        assert mx == pytest.approx(1.0)
        assert n == 2  # real and imaginary parts counted separately

    def test_error_metrics_csr(self):
        a = CsrMatrix.from_coo([0], [0], [1.0], (2, 2))
        b = CsrMatrix.from_coo([0], [0], [1.5], (2, 2))
        avg, mx, _ = error_metrics(a, b)
        assert mx == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            error_metrics(np.zeros(3), np.zeros(4))

    def test_table6_tc_equals_cc_for_gemv(self):
        entries = {e.variant: e for e in accuracy_table(GemvWorkload(), DEV)}
        assert entries["tc"].avg_error == entries["cc"].avg_error
        assert entries["tc"].max_error == entries["cc"].max_error
        # the paper's GEMV TC error on H200 is exactly zero
        assert entries["tc"].avg_error == 0.0
        assert entries["baseline"].avg_error > 0.0

    def test_bfs_excluded(self):
        with pytest.raises(ValueError, match="no floating-point"):
            accuracy_table(get_workload("bfs"), DEV)

    def test_batched_audit_matches_serial(self):
        from repro.analysis.accuracy import accuracy_tables

        workloads = [GemvWorkload(), get_workload("reduction"),
                     get_workload("bfs")]
        tables = accuracy_tables(workloads, DEV, n_jobs=1)
        # BFS is silently skipped, not an error
        assert set(tables) == {"gemv", "reduction"}
        for w in workloads[:2]:
            assert tables[w.name] == accuracy_table(w, DEV)

    def test_sparse_compares_never_densify(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a CSR output was densified")

        monkeypatch.setattr(CsrMatrix, "to_dense", refuse)
        rows = _accuracy_table_uncached(SpgemmWorkload(exec_scale=0.05), DEV)
        assert [e.variant for e in rows] == ["baseline", "tc", "cc", "cce"]
        assert rows[1].avg_error == rows[2].avg_error
        a = CsrMatrix.from_coo([0, 1], [1, 0], [1.0, 2.0], (2, 2))
        b = CsrMatrix.from_coo([0, 1, 1], [1, 0, 1], [1.5, 2.0, 4.0], (2, 2))
        assert error_metrics(a, b) == (1.125, 4.0, 4)

    @pytest.mark.slow
    def test_audit_scale_spgemm_table_peak_rss(self):
        """The audit-scale SpGEMM table peaks under four dense copies of
        its 5,300 x 5,300 output (899 MB); densifying both sides to
        compare them peaks at ~1.24 GB."""
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE="0")
        proc = subprocess.run([sys.executable, "-c", _SPGEMM_RSS_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        assert got["maxrss_kib"] * 1024 < 4 * 8 * got["cells"], got


class TestRoofline:
    @pytest.fixture(scope="class")
    def roof(self):
        fast = [GemmWorkload(), ScanWorkload(), ReductionWorkload(),
                GemvWorkload()]
        return suite_roofline(fast, DEV)

    def test_ceilings(self, roof):
        assert roof.tc_ceiling == pytest.approx(66.9e12)
        assert roof.cc_ceiling == pytest.approx(33.5e12)
        assert roof.ridge_point("tc") == pytest.approx(66.9 / 4.0, rel=0.01)
        assert roof.l1_roof(1.0) > roof.dram_roof(1.0)

    def test_points_below_attainable(self, roof):
        for p in roof.points:
            assert p.performance <= roof.attainable(p.intensity) * 1.05, p

    def test_gemm_compute_bound_others_memory_bound(self, roof):
        by = {(p.workload, p.variant): p for p in roof.points}
        assert by[("gemm", "tc")].bottleneck == "tensor"
        assert by[("gemv", "tc")].bottleneck == "dram"
        assert by[("gemm", "tc")].intensity > by[("gemv", "tc")].intensity

    def test_bfs_excluded_from_roofline(self):
        roof = suite_roofline([get_workload("bfs")], DEV)
        assert roof.points == []


class TestEdp:
    @pytest.fixture(scope="class")
    def entries(self):
        out = []
        for w in (GemmWorkload(), ScanWorkload(), ReductionWorkload(),
                  GemvWorkload()):
            out.extend(edp_study(w, DEV, repeats=100))
        return out

    def test_edp_definition(self, entries):
        for e in entries:
            assert e.edp == pytest.approx(e.avg_power_w * e.loop_time_s ** 2)
            assert e.energy_j == pytest.approx(
                e.avg_power_w * e.loop_time_s)

    def test_tc_beats_baseline_edp(self, entries):
        by = {(e.workload, e.variant): e for e in entries}
        for name in ("gemm", "scan", "reduction", "gemv"):
            assert by[(name, "tc")].edp < by[(name, "baseline")].edp, name

    def test_quadrant_geomeans_merge_ii_iii(self, entries):
        gm = quadrant_geomeans(entries)
        assert Quadrant.III not in gm
        assert Quadrant.II in gm       # scan and reduction merged
        assert Quadrant.I in gm and Quadrant.IV in gm
        for per_variant in gm.values():
            assert per_variant["tc"] < per_variant["baseline"]

    def test_power_traces(self):
        traces = power_trace_study(ScanWorkload(), DEV, repeats=1000)
        for v, tr in traces.items():
            assert tr.duration_s > 0
            assert DEV.spec.idle_w * 0.5 < tr.average_power_w \
                <= DEV.spec.tdp_w


class TestFeatures:
    def test_matrix_features_shape_and_values(self):
        rng = np.random.default_rng(0)
        dense = np.where(rng.random((64, 64)) < 0.1,
                         rng.uniform(-1, 1, (64, 64)), 0.0)
        np.fill_diagonal(dense, 1.0)
        f = matrix_features(CsrMatrix.from_dense(dense))
        assert f.shape == (10,)
        assert np.all(np.isfinite(f))
        assert f[9] > 0  # diagonal fraction

    def test_banded_vs_random_bandwidth_feature(self):
        n = 128
        banded = np.eye(n) + np.eye(n, k=1)
        rng = np.random.default_rng(1)
        scattered = np.where(rng.random((n, n)) < 0.02, 1.0, 0.0)
        scattered[0, n - 1] = 1.0
        fb = matrix_features(CsrMatrix.from_dense(banded))
        fr = matrix_features(CsrMatrix.from_dense(scattered))
        assert fb[7] < fr[7]  # bandwidth ratio

    def test_graph_features(self):
        src = np.array([0, 1, 2, 3, 0])
        dst = np.array([1, 0, 3, 2, 2])
        f = graph_features(src, dst, 4)
        assert f.shape == (8,)
        assert 0.0 <= f[5] <= 1.0  # reciprocity
        assert f[5] == pytest.approx(4 / 5)  # all but 0->2 reciprocated

    def test_hub_mass_detects_stars(self):
        n = 200
        star_dst = np.zeros(100, dtype=np.int64)
        star_src = np.arange(100, dtype=np.int64) + 1
        f = graph_features(star_src, star_dst, n)
        assert f[7] == pytest.approx(1.0)  # all edges hit the hub


class TestDwarfs:
    def test_cubie_covers_seven_dwarfs(self):
        cov = cubie_coverage(all_workloads())
        assert cov.dwarfs_covered == 7
        assert cov.features_evaluated == 5

    def test_rodinia_shoc_rows_match_table7(self):
        assert RODINIA.dwarfs_covered == 5
        assert SHOC.dwarfs_covered == 5
        assert RODINIA.features_evaluated == 4
        assert SHOC.features_evaluated == 4

    def test_cubie_specific_counts(self):
        cov = cubie_coverage(all_workloads())
        assert cov.dwarf_counts["Dense linear algebra"] == 2
        assert cov.dwarf_counts["Sparse linear algebra"] == 2
        assert cov.dwarf_counts["MapReduce"] == 2
        assert cov.dwarf_counts["Graph traversal"] == 1

    def test_coverage_table_order(self):
        names = [c.name for c in coverage_table(all_workloads())]
        assert names == ["Rodinia", "SHOC", "Cubie"]

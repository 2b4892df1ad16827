"""Serial/parallel equivalence of every fanned-out pipeline: identical
records in identical order for any n_jobs."""

import numpy as np

from repro.analysis.observations import verify_all
from repro.gpu.device import Device
from repro.harness.runner import run_performance
from repro.harness.sweep import sweep_sizes
from repro.datasets.populations import graph_population, matrix_population
from repro.kernels import (
    GemmWorkload,
    GemvWorkload,
    ReductionWorkload,
    ScanWorkload,
    SpmvWorkload,
)

FAST_WL = [GemmWorkload(), ScanWorkload(), ReductionWorkload(),
           GemvWorkload(), SpmvWorkload(scale=0.08)]
DEVICES = [Device("A100"), Device("H200"), Device("B200")]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestRunPerformance:
    def test_parallel_equals_serial_in_order(self):
        serial = run_performance(FAST_WL, DEVICES, n_jobs=1)
        parallel = run_performance(FAST_WL, DEVICES, n_jobs=2)
        assert serial == parallel  # PerfRecord is frozen: exact equality

    def test_device_major_record_order(self):
        records = run_performance(FAST_WL[:2], DEVICES[:2], n_jobs=1)
        gpus = [r.gpu for r in records]
        assert gpus == sorted(gpus, key=gpus.index)  # grouped by device
        wl = [r.workload for r in records if r.gpu == gpus[0]]
        # workloads stay contiguous and in suite order within a device
        assert wl == ["gemm"] * wl.count("gemm") + ["scan"] * wl.count("scan")


class TestVerifyAll:
    def test_parallel_equals_serial(self, isolated_cache):
        serial = verify_all(FAST_WL, DEVICES, n_jobs=1)
        parallel = verify_all(FAST_WL, DEVICES, n_jobs=2)
        assert [r.number for r in serial] == list(range(1, 10))
        assert serial == parallel


class TestSweep:
    def test_parallel_equals_serial(self):
        dev = Device("H200")
        serial = sweep_sizes("gemm", dev, n_jobs=1)
        parallel = sweep_sizes("gemm", dev, n_jobs=2)
        assert serial == parallel
        sizes = [p.size for p in serial]
        assert sizes == sorted(sizes)


class TestPopulations:
    def test_matrix_population_identical_any_jobs(self):
        a = list(matrix_population(count=70, max_rows=128, n_jobs=1))
        b = list(matrix_population(count=70, max_rows=128, n_jobs=2))
        assert len(a) == len(b) == 70
        for x, y in zip(a, b):
            assert (x.indptr == y.indptr).all()
            assert (x.indices == y.indices).all()
            assert (_bits(x.data) == _bits(y.data)).all()

    def test_graph_population_identical_any_jobs(self):
        a = list(graph_population(count=70, max_vertices=256, n_jobs=1))
        b = list(graph_population(count=70, max_vertices=256, n_jobs=2))
        assert len(a) == len(b) == 70
        for (s1, d1, n1), (s2, d2, n2) in zip(a, b):
            assert n1 == n2
            assert (s1 == s2).all() and (d1 == d2).all()

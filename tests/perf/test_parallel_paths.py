"""Serial/parallel equivalence of every fanned-out pipeline: identical
records in identical order for any n_jobs.  The populations build
in-process, so their outputs are pinned by digests instead."""

import hashlib

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


def _digest(arrays) -> str:
    """SHA-256 over each array's dtype, shape and raw bits, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


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
    """Digests recorded from the batched, pooled build these replace;
    the build consumes no randomness, so the sequence is the draws'."""

    def test_matrix_population_matches_recorded_digest(self):
        arrays = []
        for m in matrix_population(count=70, max_rows=128):
            arrays += [m.indptr, m.indices, m.data]
        assert len(arrays) == 3 * 70
        assert _digest(arrays) == ("e3e87ae0c67d521b9809432935af2b4a"
                                   "4bdd919c8a66e86edd79d139f18bcd31")

    def test_graph_population_matches_recorded_digest(self):
        arrays = []
        for src, dst, n in graph_population(count=70, max_vertices=256):
            arrays += [src, dst, np.asarray([n], dtype=np.int64)]
        assert len(arrays) == 3 * 70
        assert _digest(arrays) == ("2e296e079d66ef5b623daa99896afa57"
                                   "c4576f6cd7abf53d351ca844fcdb95c6")

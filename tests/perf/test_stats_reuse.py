"""Analytic stats are computed once per run, at any worker count.

Every ``analytic_stats`` memo miss runs under the ``kernels.analytic_stats``
stage, and pool workers ship their stage registries back to the parent,
so the miss count summed over processes is how often any process
computed a (workload, variant, case) triple.  A parallel run must compute
each triple exactly once — in its stats node — and leave the caller's
memo as warm as a serial run does.
"""

from collections import OrderedDict

import pytest

from repro.analysis.edp import edp_study
from repro.analysis.observations import verify_all
from repro.analysis.roofline import suite_roofline
from repro.gpu import Device
from repro.harness.runner import run_performance
from repro.kernels import (
    GemmWorkload,
    GemvWorkload,
    PicWorkload,
    ReductionWorkload,
    ScanWorkload,
    SpmvWorkload,
)
from repro.kernels import base as kernels_base
from repro.perf.instrument import reset_stage_timings, stage_timings

WORKLOADS = [GemmWorkload(), ScanWorkload(), ReductionWorkload(),
             GemvWorkload(), PicWorkload(), SpmvWorkload(scale=0.08)]
DEVICES = [Device("A100"), Device("H200"), Device("B200")]
#: every (workload, variant, case) triple of the suite above
TRIPLES = sum(len(w.cases()) * len(w.variants()) for w in WORKLOADS)


def _misses() -> int:
    return sum(t.calls for t in stage_timings()
               if t.leaf == "kernels.analytic_stats")


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty memo (pool workers fork from it) and stage registry."""
    monkeypatch.setattr(kernels_base, "_STATS_MEMO", OrderedDict())
    reset_stage_timings()
    yield
    reset_stage_timings()


def _grid_then_readers(n_jobs: int) -> int:
    kernels_base._STATS_MEMO.clear()
    reset_stage_timings()
    run_performance(WORKLOADS, DEVICES, n_jobs=n_jobs)
    for dev in DEVICES:
        suite_roofline(WORKLOADS, dev)
        for w in WORKLOADS:
            edp_study(w, dev)
    return _misses()


def _audit(n_jobs: int) -> int:
    kernels_base._STATS_MEMO.clear()
    reset_stage_timings()
    verify_all(WORKLOADS, DEVICES, n_jobs=n_jobs)
    return _misses()


class TestStatsComputedOnce:
    def test_parallel_grid_leaves_the_caller_memo_warm(self, cold_memo):
        serial = _grid_then_readers(1)
        assert serial == TRIPLES
        # the roofline/EDP readers after a two-worker grid hit the memo
        # the grid's stats nodes filled, exactly as after a serial grid
        assert _grid_then_readers(2) == serial

    def test_parallel_audit_computes_each_triple_once(self, cold_memo,
                                                       isolated_cache):
        serial = _audit(1)
        assert serial == TRIPLES
        assert _audit(2) == serial


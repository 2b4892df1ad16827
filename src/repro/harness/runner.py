"""Evaluation runner: workloads x variants x cases x GPUs.

This is the programmatic equivalent of the artifact's ``run_perf.sh`` —
it evaluates the analytic model at paper scale for every combination and
returns structured records the report layer formats into the paper's
figures.

The grid is embarrassingly parallel: one analytic-stats node per
(workload, case) computes that case's counters for every variant — they
are device-independent — and the caller resolves them against each
device's models (:func:`_grid_records`).  Records are reassembled in the
canonical device-major order, so serial (``n_jobs=1``) and parallel runs
return identical records in identical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..gpu.counters import KernelStats
from ..gpu.device import Device
from ..graph import GraphScheduler, TaskGraph
from ..kernels.base import (Quadrant, Variant, Workload, install_stats,
                            stats_node)
from ..kernels import all_workloads
from ..perf.instrument import stage

__all__ = ["PerfRecord", "build_performance_graph", "run_performance",
           "speedup_summary", "default_devices"]


@dataclass(frozen=True)
class PerfRecord:
    """One point of Figure 3."""

    gpu: str
    workload: str
    quadrant: Quadrant
    variant: str
    case: str
    time_s: float
    #: useful (essential) flops per second; 0 for the bit-only BFS
    flops: float
    power_w: float
    energy_j: float
    bottleneck: str
    dram_bytes: float
    arithmetic_intensity: float


def default_devices() -> list[Device]:
    return [Device("A100"), Device("H200"), Device("B200")]


def _grid_records(cases: list[tuple[Workload, int]],
                  stats: Sequence[Sequence[KernelStats]],
                  devices: list[Device]) -> list[PerfRecord]:
    """Resolve the grid's analytic stats on every device.

    ``stats[j]`` holds one ``KernelStats`` per variant of ``cases[j]`` (a
    ``(workload, case index)`` pair, in ``variants()`` order).  Records
    come back device-major: (device, workload, case, variant).
    """
    records: list[PerfRecord] = []
    for dev in devices:
        for (w, index), per_variant in zip(cases, stats):
            case = w.cases()[index]
            for variant, st in zip(w.variants(), per_variant):
                r = dev.resolve(st)
                records.append(PerfRecord(
                    gpu=dev.spec.name,
                    workload=w.name,
                    quadrant=w.quadrant,
                    variant=variant.value,
                    case=case.label,
                    time_s=r.time_s,
                    flops=r.flops,
                    power_w=r.power_w,
                    energy_j=r.energy_j,
                    bottleneck=r.breakdown.bottleneck,
                    dram_bytes=st.dram_bytes,
                    arithmetic_intensity=st.arithmetic_intensity(),
                ))
    return records


def build_performance_graph(workloads: list[Workload]) -> TaskGraph:
    """The paper-scale grid as a task graph: one independent
    ``stats:<workload>:<case>`` node per (workload, case), inserted in
    (workload, case) order.  No edges — the grid is embarrassingly
    parallel — but as graph nodes they interleave with whatever else
    shares the scheduler (e.g. serve's batched queries)."""
    g = TaskGraph()
    for w in workloads:
        g.extend([stats_node(w, i) for i in range(len(w.cases()))])
    return g


def run_performance(workloads: list[Workload] | None = None,
                    devices: list[Device] | None = None,
                    *, n_jobs: int | None = None) -> list[PerfRecord]:
    """Evaluate every (gpu, workload, variant, case) combination.

    Drains :func:`build_performance_graph` through the
    :class:`~repro.graph.GraphScheduler`.  Stats that pool workers
    computed are installed into this process's memo, so the
    roofline/EDP/what-if readers that follow hit it exactly as after a
    serial run.  Records come back in device-major order (device,
    workload, case, variant) regardless of ``n_jobs``.
    """
    if workloads is None:
        workloads = all_workloads()
    if devices is None:
        devices = default_devices()
    graph = build_performance_graph(workloads)
    cases = [node.args for node in graph]
    with stage("harness.run_performance"):
        scheduler = GraphScheduler(n_jobs)
        results = scheduler.run(graph)
        stats = [results[node.key] for node in graph]
        if scheduler.last_stats.workers > 1:
            for (w, index), per_variant in zip(cases, stats):
                install_stats(w, index, per_variant)
        return _grid_records(cases, stats, devices)


def speedup_summary(records: list[PerfRecord], numerator: Variant,
                    denominator: Variant) -> dict[tuple[str, str], float]:
    """Per (gpu, workload) mean of time(denominator)/time(numerator)
    across the five cases — the bars of Figures 4-6."""
    times: dict[tuple[str, str, str, str], float] = {}
    for r in records:
        times[(r.gpu, r.workload, r.variant, r.case)] = r.time_s
    out: dict[tuple[str, str], float] = {}
    pairs = sorted({(r.gpu, r.workload) for r in records})
    for gpu, wname in pairs:
        ratios = []
        for r in records:
            if r.gpu != gpu or r.workload != wname:
                continue
            if r.variant != numerator.value:
                continue
            denom = times.get((gpu, wname, denominator.value, r.case))
            if denom is None:
                continue
            ratios.append(denom / r.time_s)
        if ratios:
            out[(gpu, wname)] = float(np.mean(ratios))
    return out

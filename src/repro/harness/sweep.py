"""Problem-size sweeps and crossover analysis.

The paper's Figure 3 shows per-case absolute performance; the interesting
derived question — *from what problem size on does the MMU version win?* —
is answered here.  Size-parameterized workloads sweep a geometric size
grid, and :func:`find_crossover` locates the smallest size where the TC
variant beats the baseline (small problems are launch-latency-bound, where
MMUs cannot help).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..gpu.device import Device
from ..graph import GraphScheduler, TaskGraph, TaskNode
from ..kernels.base import Variant, Workload, WorkloadCase
from ..kernels.fft import FftWorkload
from ..kernels.gemm import GemmWorkload
from ..kernels.gemv import GemvWorkload
from ..kernels.reduction import ReductionWorkload
from ..kernels.scan import ScanWorkload
from ..kernels.stencil import StencilWorkload
from ..perf.instrument import stage

__all__ = ["SweepPoint", "SIZE_SWEEPS", "build_sweep_graph", "sweep_sizes",
           "find_crossover"]


@dataclass(frozen=True)
class SweepPoint:
    """One (size, variant) evaluation."""

    workload: str
    size: int
    variant: str
    time_s: float
    flops: float


def _gemm_case(s: int) -> WorkloadCase:
    return WorkloadCase(label=str(s), params={"m": s, "n": s, "k": s})


def _gemv_case(s: int) -> WorkloadCase:
    return WorkloadCase(label=str(s), params={"m": s, "n": 16})


def _fft_case(s: int) -> WorkloadCase:
    return WorkloadCase(label=str(s),
                        params={"n1": 256, "n2": 1, "batch": s})


def _stencil_case(s: int) -> WorkloadCase:
    return WorkloadCase(label=str(s),
                        params={"kind": "star2d1r", "nx": s, "ny": s,
                                "nz": 1})


def _scan_case(s: int) -> WorkloadCase:
    return WorkloadCase(label=str(s), params={"segment": 1024, "n": s})


#: size-parameterized workloads: (workload factory, case builder, sizes)
SIZE_SWEEPS: dict[str, tuple[Callable[[], Workload],
                             Callable[[int], WorkloadCase],
                             tuple[int, ...]]] = {
    "gemm": (GemmWorkload, _gemm_case,
             (32, 64, 128, 256, 512, 1024, 2048, 4096)),
    "gemv": (GemvWorkload, _gemv_case,
             (256, 1024, 4096, 16384, 65536, 262144)),
    "fft": (FftWorkload, _fft_case, (8, 64, 512, 4096, 32768)),
    "stencil": (StencilWorkload, _stencil_case,
                (64, 256, 1024, 4096, 16384)),
    "scan": (ScanWorkload, _scan_case,
             (1 << 12, 1 << 16, 1 << 20, 1 << 24)),
    "reduction": (ReductionWorkload, _scan_case,
                  (1 << 12, 1 << 16, 1 << 20, 1 << 24)),
}


def _sweep_size(task: tuple[str, int, Device, tuple[Variant, ...]]
                ) -> list[SweepPoint]:
    """Evaluate every requested variant at one sweep size (worker task)."""
    name, s, device, variants = task
    factory, case_of, _ = SIZE_SWEEPS[name]
    w = factory()
    case = case_of(s)
    points = []
    for v in variants:
        if v not in w.variants():
            continue
        r = device.resolve(w.analytic_stats(v, case))
        points.append(SweepPoint(workload=name, size=s,
                                 variant=v.value, time_s=r.time_s,
                                 flops=r.flops))
    return points


def build_sweep_graph(name: str, device: Device,
                      variants: tuple[Variant, ...]) -> TaskGraph:
    """One size sweep as a task graph: an independent
    ``sweep:<name>:<size>`` node per grid point (kind ``sweep-point``).
    Sizes are zero-padded to a fixed width so the scheduler's
    smallest-key-first tie-break follows numeric sweep order."""
    g = TaskGraph()
    for s in SIZE_SWEEPS[name][2]:
        g.add(TaskNode(key=f"sweep:{name}:{s:010d}", kind="sweep-point",
                       fn=_sweep_size, args=((name, s, device, variants),),
                       label=f"sweep {name} n={s}"))
    return g


def sweep_sizes(name: str, device: Device,
                variants: tuple[Variant, ...] = (Variant.BASELINE,
                                                 Variant.TC),
                *, n_jobs: int | None = None) -> list[SweepPoint]:
    """Evaluate a workload's analytic model across its size grid.

    Drains :func:`build_sweep_graph` through the
    :class:`~repro.graph.GraphScheduler`.  Points come back in (size,
    variant) order regardless of ``n_jobs``.
    """
    if name not in SIZE_SWEEPS:
        raise ValueError(
            f"no size sweep for {name!r}; available: "
            f"{sorted(SIZE_SWEEPS)}")
    graph = build_sweep_graph(name, device, variants)
    with stage("harness.sweep_sizes"):
        results = GraphScheduler(n_jobs).run(graph)
    return [p for node in graph for p in results[node.key]]


def find_crossover(points: list[SweepPoint],
                   challenger: str = "tc",
                   incumbent: str = "baseline") -> int | None:
    """Smallest sweep size at which the challenger is strictly faster and
    stays faster for all larger sizes.  None if it never settles ahead."""
    by_size: dict[int, dict[str, float]] = {}
    for p in points:
        by_size.setdefault(p.size, {})[p.variant] = p.time_s
    sizes = sorted(by_size)
    crossover: int | None = None
    for s in sizes:
        pair = by_size[s]
        if challenger not in pair or incumbent not in pair:
            continue
        if pair[challenger] < pair[incumbent]:
            if crossover is None:
                crossover = s
        else:
            crossover = None  # fell behind again; keep looking
    return crossover

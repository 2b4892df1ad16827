"""Workload framework: variants, test cases, registry, calibration.

Every Cubie workload implements :class:`Workload` with up to four variants
(Section 5.2 of the paper):

* ``baseline`` — the vendor-library / prior-art algorithm on vector units;
* ``tc``       — the MMU-optimized algorithm on tensor cores;
* ``cc``       — the *same* algorithm/data layout with every MMA replaced by
  equivalent FMA-pipe work (bit-identical outputs to ``tc`` by construction);
* ``cce``      — essential-computation-only CUDA-core code (equals ``cc``
  for Quadrant I workloads, which have no MMA-induced redundancy).

Workloads expose two evaluation paths that one set of internal stat-builders
feeds: ``execute`` runs functionally on the simulated device at a feasible
scale and returns outputs plus measured counters, while ``analytic_stats``
produces the same counters from closed-form size arithmetic at paper scale
(Table 2 cases).  A per-workload test asserts the two agree.

Calibration constants
---------------------
The sustained-efficiency and memory-level-parallelism constants below are
the model's only free parameters.  They are *global across workloads and
GPUs* — set once from the physical arguments in the comments — so every
per-workload, per-GPU effect in Figures 3-6 emerges from op/byte counts and
the spec table, not from per-experiment tuning.
"""

from __future__ import annotations

import abc
import functools
import importlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, ClassVar, Mapping, Sequence

from ..gpu.counters import KernelStats
from ..gpu.device import Device, KernelResult
from ..graph.node import TaskNode
from ..perf.cache import content_key
from ..perf.instrument import fork_safe_lock, stage

__all__ = [
    "Variant",
    "Quadrant",
    "WorkloadCase",
    "Workload",
    "case_stats",
    "install_stats",
    "stats_node",
    "register_workload",
    "get_workload",
    "all_workloads",
    "workload_names",
    # calibration
    "TC_EFF",
    "TC_EFF_CONST",
    "CC_EFF",
    "CC_EFF_MMA",
    "MLP_FULL",
    "MLP_MMA_CC",
    "MLP_IRREGULAR",
]

# --- calibration constants (see module docstring) --------------------------

#: tensor pipe sustained fraction for MMA-dense kernels without the deep
#: software pipelining of cuBLAS/CUTLASS (Cubie excludes those, Section 9)
TC_EFF = 0.55
#: tensor pipe fraction when one operand is a register-resident constant
#: matrix (Scan/Reduction): no operand reload between MMAs boosts issue rate
TC_EFF_CONST = 0.62
#: FMA pipe fraction for natural vector code (baselines, CC-E)
CC_EFF = 0.50
#: FMA pipe fraction for MMA-expanded lane code (CC variants): each MMA
#: becomes 8 dependent scalar FMAs per lane with the MMA's register layout,
#: which starves the schedulers relative to hand-shaped vector code
CC_EFF_MMA = 0.45
#: full memory-level parallelism (enough warps to saturate DRAM)
MLP_FULL = 1.0
#: MLP of CC variants in memory-bound kernels: warp issue slots diverted to
#: the expanded FMA streams keep fewer loads in flight
MLP_MMA_CC = 0.62
#: MLP of irregular baselines (CSR-vector row imbalance, one-thread-per-row
#: GEMV, push-BFS atomics)
MLP_IRREGULAR = 0.60


class Variant(str, Enum):
    """The four algorithmic implementation variants of Section 5.2."""

    BASELINE = "baseline"
    TC = "tc"
    CC = "cc"
    CCE = "cce"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Quadrant(str, Enum):
    """MMU utilization quadrants (Figure 2)."""

    I = "I"     # full input, full output     (GEMM, PiC, FFT, Stencil)
    II = "II"   # partial input, full output  (Scan)
    III = "III"  # partial input, partial output (Reduction)
    IV = "IV"   # full input, partial output  (BFS, GEMV, SpMV, SpGEMM)


@dataclass(frozen=True)
class WorkloadCase:
    """One test case of Table 2."""

    label: str
    params: Mapping[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.params[key]


# ------------------------------------------------------ stats memoization
#
# analytic_stats is a pure function of (workload config, variant, case),
# yet the characterization grid and the nine-observation audit re-evaluate
# the same triples dozens of times (once per device, once per observation).
# Every concrete workload's analytic_stats is therefore memoized behind a
# content-addressed key; hits return a defensive copy so callers that
# mutate/merge stats never corrupt the cache.  Bit-identity of memoized vs
# fresh results is guaranteed by construction (the same object's field
# values) and asserted in the perf tests.
#
# A graph run computes each (workload, case) once, in its analytic-stats
# node (:func:`stats_node`); values that came back from pool workers are
# installed into the caller's memo (:func:`install_stats`), so later
# in-process readers hit it exactly as after a serial run.  Serve's
# thread-mode pool shares the memo across threads: the lock guards the
# dict operations only, never the compute, so nested calls cannot
# deadlock.

_STATS_MEMO: OrderedDict[str, KernelStats] = OrderedDict()
_STATS_MEMO_MAX = 8192
_STATS_LOCK = fork_safe_lock()


def _copy_stats(st: KernelStats) -> KernelStats:
    # AccessStream entries are frozen; a fresh list is isolation enough
    return replace(st, dram=list(st.dram))


def _stats_key(workload: "Workload", variant: "Variant",
               case: "WorkloadCase") -> str | None:
    """The memo key of one triple, or None for unkeyable state."""
    try:
        return content_key(type(workload).__qualname__,
                           dict(workload._memo_state()),
                           variant, case.label, dict(case.params))
    except TypeError:
        return None


def _memo_store(key: str, st: KernelStats) -> None:
    with _STATS_LOCK:
        _STATS_MEMO[key] = st
        _STATS_MEMO.move_to_end(key)
        while len(_STATS_MEMO) > _STATS_MEMO_MAX:
            _STATS_MEMO.popitem(last=False)


def _memoize_stats(impl: Callable[..., KernelStats]
                   ) -> Callable[..., KernelStats]:
    @functools.wraps(impl)
    def wrapper(self: "Workload", variant: "Variant",
                case: "WorkloadCase") -> KernelStats:
        key = _stats_key(self, variant, case)
        with _STATS_LOCK:
            hit = None if key is None else _STATS_MEMO.get(key)
        if hit is None:
            # every miss runs under this stage, so the miss count
            # survives the merge of pool-worker registries
            with stage("kernels.analytic_stats"):
                hit = impl(self, variant, case)
            if key is None:   # unkeyable workload/case state
                return hit
            _memo_store(key, hit)
        return _copy_stats(hit)

    wrapper._stats_memoized = True  # type: ignore[attr-defined]
    return wrapper


def install_stats(workload: "Workload", index: int,
                  stats: Sequence[KernelStats]) -> None:
    """Seed this process's memo with the value of a :func:`stats_node`
    computed elsewhere (``stats[i]`` belongs to ``workload.variants()[i]``
    on case ``index``)."""
    case = workload.cases()[index]
    for variant, st in zip(workload.variants(), stats):
        key = _stats_key(workload, variant, case)
        if key is not None:
            _memo_store(key, st)


def case_stats(workload: "Workload", index: int
               ) -> tuple[KernelStats, ...]:
    """The analytic-stats node callable: case ``index``'s stats for every
    variant, in ``workload.variants()`` order."""
    case = workload.cases()[index]
    return tuple(workload.analytic_stats(v, case)
                 for v in workload.variants())


def stats_node(workload: "Workload", index: int) -> TaskNode:
    """The graph node ``stats:<workload>:<case index>`` — the one place a
    graph run computes a case's analytic stats (:func:`case_stats`)."""
    return TaskNode(key=f"stats:{workload.name}:{index}",
                    kind="analytic-stats", fn=case_stats,
                    args=(workload, index),
                    label=f"stats {workload.name} case {index}")


class Workload(abc.ABC):
    """Base class for the ten Cubie workloads."""

    name: ClassVar[str]
    quadrant: ClassVar[Quadrant]
    #: Berkeley dwarf this workload represents (Table 7)
    dwarf: ClassVar[str]
    #: the baseline library/method of Table 2
    baseline_name: ClassVar[str]
    #: whether a distinct CC-E variant exists (False for Quadrant I)
    has_cce: ClassVar[bool] = True
    #: Figure 7 measurement-loop repeat count for this workload
    edp_repeats: ClassVar[int] = 1000
    #: does the workload perform floating-point math (BFS does not)
    floating_point: ClassVar[bool] = True

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def cases(self) -> list[WorkloadCase]:
        """The five paper-scale test cases (Table 2)."""

    def representative_case(self) -> WorkloadCase:
        """The single case used for power (Figs 7-8) and accuracy (Table 6);
        defaults to the middle case."""
        cs = self.cases()
        return cs[len(cs) // 2]

    def exec_case(self, case: WorkloadCase) -> WorkloadCase:
        """A functionally executable (possibly down-scaled) version of
        ``case``.  Defaults to the case itself."""
        return case

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def prepare(self, case: WorkloadCase, seed: int = 1325) -> dict:
        """Generate the problem inputs for a case (deterministic)."""

    @abc.abstractmethod
    def reference(self, data: dict) -> Any:
        """The CPU-serial ground-truth output (None for BFS-style kernels
        whose output is validated structurally)."""

    @abc.abstractmethod
    def execute(self, variant: Variant, data: dict,
                device: Device) -> KernelResult:
        """Run a variant functionally on the simulated device."""

    @abc.abstractmethod
    def analytic_stats(self, variant: Variant,
                       case: WorkloadCase) -> KernelStats:
        """Closed-form counters for a paper-scale case.

        Concrete implementations are memoized automatically (see
        ``_memoize_stats``); they must stay pure functions of the
        workload's configuration attributes, the variant, and the case.
        """

    def _memo_state(self) -> Mapping[str, Any]:
        """Instance state that keys the ``analytic_stats`` memo.

        Defaults to all instance attributes.  Workloads that lazily attach
        derived caches to ``self`` (which would destabilize the key and
        defeat memoization) override this to return only their
        configuration attributes."""
        return vars(self)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        impl = cls.__dict__.get("analytic_stats")
        if impl is not None and not getattr(impl, "_stats_memoized", False):
            cls.analytic_stats = _memoize_stats(impl)

    # ------------------------------------------------------------------
    def variants(self) -> tuple[Variant, ...]:
        base = (Variant.BASELINE, Variant.TC, Variant.CC)
        return base + ((Variant.CCE,) if self.has_cce else ())

    def resolve_variant(self, variant: Variant) -> Variant:
        """Map CCE to CC for Quadrant I workloads (Section 5.2: 'for GEMM,
        PiC, FFT, and Stencil the CC-E version is equivalent to CC').

        Coerces strings (``"cce"``) to :class:`Variant` so external
        callers (CLI, suites) cannot bypass the equivalence mapping with a
        value the identity-based dispatch below would not recognize."""
        variant = Variant(variant)
        if variant is Variant.CCE and not self.has_cce:
            return Variant.CC
        return variant

    def run_case(self, variant: Variant, case: WorkloadCase, device: Device,
                 seed: int = 1325) -> KernelResult:
        """Convenience: prepare + execute the (down-scaled) case.

        Resolves the variant first: a CC-E request on a Quadrant I
        workload must run the CC path, not fall through ``execute``'s
        variant dispatch into whatever ``else`` branch exists."""
        data = self.prepare(self.exec_case(case), seed=seed)
        return self.execute(self.resolve_variant(variant), data, device)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Workload {self.name} (Quadrant {self.quadrant.value})>"


# --------------------------------------------------------------- registry
#: the ten workloads in suite order (Table 2): (module, class)
_SUITE = (("gemm", "GemmWorkload"), ("pic", "PicWorkload"),
          ("fft", "FftWorkload"), ("stencil", "StencilWorkload"),
          ("scan", "ScanWorkload"), ("reduction", "ReductionWorkload"),
          ("bfs", "BfsWorkload"), ("gemv", "GemvWorkload"),
          ("spmv", "SpmvWorkload"), ("spgemm", "SpgemmWorkload"))

_REGISTRY: dict[str, Workload] = {}
_REGISTRY_LOCK = fork_safe_lock()


def _registry() -> dict[str, Workload]:
    """The registry; its first use imports the suite's modules and
    registers their workloads ahead of any other.

    Serve's threads read it on every request, so a filled registry is
    read without the lock: the suite enters it in one ``dict.update``
    from a dict with ``str`` keys, a single step under the GIL, so a
    reader sees all ten workloads or none."""
    if not _REGISTRY:
        with _REGISTRY_LOCK:
            if not _REGISTRY:
                suite = [getattr(importlib.import_module(
                    f"{__package__}.{module}"), cls)()
                    for module, cls in _SUITE]
                _REGISTRY.update({w.name: w for w in suite})
    return _REGISTRY


def register_workload(workload: Workload) -> Workload:
    """Register a workload instance under its class name."""
    registry = _registry()
    if workload.name in registry:
        raise ValueError(f"workload {workload.name!r} already registered")
    registry[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    registry = _registry()
    try:
        return registry[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {sorted(registry)}"
        ) from None


def all_workloads() -> list[Workload]:
    """All registered workloads in suite order."""
    return list(_registry().values())


def workload_names() -> list[str]:
    return list(_registry())


def gemm_flops(m: int, n: int, k: int) -> float:
    """Essential flops of an m x n x k matrix multiplication."""
    return 2.0 * m * n * k


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)

"""FP64 accuracy study (Section 8, Table 6).

For each floating-point workload, every variant executes functionally at a
feasible scale and its output is compared against the workload's CPU-serial
reference, reporting

    Average_Error = (1/n) sum |result_gpu,i - result_cpu,i|
    Max_Error     = max    |result_gpu,i - result_cpu,i|

exactly as the paper defines them.  BFS is excluded (no floating-point
math).  The structural findings the study must reproduce: TC and CC give
*identical* errors (same data structures, algorithms, and — in this
simulation, by construction — accumulation order), while CC-E and the
baselines round differently.

Hot-path layout: the reference is prepared once per workload (not once
per variant).  Dense outputs subtract into one reused buffer.  A sparse
(CSR) output is compared with the sparse reference only where either one
stores an entry: the errors land in one dense vector of rows x cols
zeros, allocated once per table, and each variant sets back to zero only
the positions it wrote.  The vector holds, cell for cell, what densifying
both sides and subtracting would hold, so its mean and max are the same
bits (pinned by ``tests/kernels/accuracy_digests.json``), while the
SpGEMM audit's 5,300 x 5,300 outputs, 9.3% stored, are never densified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..gpu.device import Device
from ..graph import GraphScheduler, TaskGraph, TaskNode
from ..kernels import all_workloads
from ..kernels.base import Workload
from ..perf.cache import content_key, default_cache, package_source_token
from ..perf.instrument import stage
from ..sparse.csr import CsrMatrix


__all__ = ["AUDIT_SEED", "ErrorEntry", "error_metrics", "accuracy_table",
           "accuracy_nodes", "accuracy_tables"]

#: the fixed dataset seed of the Table 6 audit — shared with the
#: observation graph's dataset-gen nodes so they warm the exact
#: generator cache entries the audit will read
AUDIT_SEED = 1325


@dataclass(frozen=True)
class ErrorEntry:
    """One (workload, variant) cell of Table 6."""

    workload: str
    variant: str
    avg_error: float
    max_error: float
    samples: int


def _flatten(output) -> np.ndarray:
    """Outputs may be arrays, complex arrays, or CSR matrices."""
    if hasattr(output, "to_dense"):
        return output.to_dense().ravel()
    arr = np.asarray(output)
    if np.iscomplexobj(arr):
        return np.concatenate([arr.real.ravel(), arr.imag.ravel()])
    return arr.astype(np.float64, copy=False).ravel()


def _cells(m: CsrMatrix) -> np.ndarray:
    """Each stored entry's index in the row-major flattened matrix."""
    return m.row_of_entry() * np.int64(m.n_cols) + m.indices


class _Reference:
    """A reference output, prepared once to compare outputs against.

    :meth:`errors` gives the absolute elementwise error of an output over
    the flattened cells, as :func:`error_metrics` defines it.  A CSR
    output against a CSR reference is compared at their stored positions
    only, through :attr:`err`, a vector of rows x cols zeros: where either
    side stores a cell it receives ``abs(got - ref)`` from the values
    densifying would leave (the last one stored at a repeated position,
    0.0 where absent), and it is zeroed again after the reduction.  Any
    other pair is flattened and subtracted into a reused buffer.
    """

    def __init__(self, reference) -> None:
        self.reference = reference
        self.sparse = isinstance(reference, CsrMatrix)
        if self.sparse:
            self.err = np.zeros(reference.n_rows * reference.n_cols)
            self.cells = _cells(reference)

    @functools.cached_property
    def _flat(self) -> np.ndarray:
        return _flatten(self.reference)

    @functools.cached_property
    def _buf(self) -> np.ndarray:
        return np.empty_like(self._flat)

    def errors(self, output) -> tuple[float, float, int]:
        """(average, maximum, sample count) of ``|output - reference|``."""
        if not (self.sparse and isinstance(output, CsrMatrix)):
            return _reduce(self._dense_err(output))
        written = self._write_err(output)
        metrics = _reduce(self.err)
        for cells in written:
            self.err[cells] = 0.0
        return metrics

    def _dense_err(self, output) -> np.ndarray:
        got = _flatten(output)
        if got.shape != self._flat.shape:
            raise ValueError(f"output shape {got.shape} != reference shape "
                             f"{self._flat.shape}")
        np.subtract(got, self._flat, out=self._buf)
        return np.abs(self._buf, out=self._buf)

    def _write_err(self, out: CsrMatrix) -> tuple[np.ndarray, ...]:
        """Write ``abs(got - ref)`` into :attr:`err` wherever ``out`` or the
        reference stores a cell; returns the positions written."""
        ref, err = self.reference, self.err
        if out.n_rows * out.n_cols != len(err):
            raise ValueError(f"output shape {(out.n_rows * out.n_cols,)} != "
                             f"reference shape {(len(err),)}")
        if out.shape == ref.shape and np.array_equal(out.indptr, ref.indptr) \
                and np.array_equal(out.indices, ref.indices):
            # one pattern: entries pair up, and a repeated position keeps
            # its last entry on both sides
            err[self.cells] = np.abs(out.data - ref.data)
            return (self.cells,)
        # gathers and scatters only (no fancy ``-=``, which would apply a
        # repeated position once): a repeated position's last write wins,
        # as it does when densifying
        cells = _cells(out)
        err[cells] = out.data
        got = err[self.cells]
        # where the reference reads 0.0; its own cells are overwritten next
        err[cells] = np.abs(err[cells] - 0.0)
        err[self.cells] = np.abs(got - ref.data)
        return cells, self.cells


def _reduce(err: np.ndarray) -> tuple[float, float, int]:
    return float(err.mean()), float(err.max()), int(err.size)


def error_metrics(output, reference) -> tuple[float, float, int]:
    """(average, maximum, sample count) of absolute elementwise error."""
    return _Reference(reference).errors(output)


def _accuracy_table_uncached(workload: Workload, device: Device,
                             seed: int = AUDIT_SEED) -> list[ErrorEntry]:
    if not workload.floating_point:
        raise ValueError(
            f"{workload.name} performs no floating-point computation "
            "(the paper excludes it from Table 6)")
    case = workload.exec_case(workload.representative_case())
    with stage("accuracy.prepare"):
        data = workload.prepare(case, seed=seed)
    with stage("accuracy.reference"):
        reference = _Reference(workload.reference(data))
    entries = []
    for variant in workload.variants():
        with stage(f"accuracy.execute:{variant.value}"):
            result = workload.execute(variant, data, device)
        with stage("accuracy.compare"):
            avg, mx, n = reference.errors(result.output)
        entries.append(ErrorEntry(workload=workload.name,
                                  variant=variant.value, avg_error=avg,
                                  max_error=mx, samples=n))
    return entries


def accuracy_table(workload: Workload, device: Device,
                   seed: int = AUDIT_SEED) -> list[ErrorEntry]:
    """Table 6 rows for one workload on one device.

    TC and CC are evaluated separately (and a caller can verify they
    coincide) rather than assumed equal.

    The functional runs behind this table are the single most expensive
    stage of the observation audit, and their inputs are fully determined
    by the fixed-seed generators, so results are content-address cached.
    The key mixes in a hash of the whole package source, invalidating
    every entry whenever any kernel/simulator code changes.
    """
    try:
        key = content_key("accuracy_table", package_source_token(),
                          type(workload).__qualname__, vars(workload),
                          device.spec, seed, np.__version__)
    except TypeError:
        return _accuracy_table_uncached(workload, device, seed)
    with stage("analysis.accuracy_table"):
        return default_cache().get_or_compute(
            "accuracy", key,
            lambda: _accuracy_table_uncached(workload, device, seed))


def _node_dataset(workload: Workload, seed: int) -> str:
    """Dataset-gen node: warm one workload's generator cache entry.

    Runs the exact ``prepare`` call the audit will issue (same
    representative case, same seed), so the disk-backed generator cache
    is hot by the time the downstream accuracy node — or a sibling
    running concurrently on another workload — needs it.  The node's
    value is just the workload name: the real product is the cache
    entry, which crosses the process boundary on disk."""
    workload.prepare(workload.exec_case(workload.representative_case()),
                     seed=seed)
    return workload.name


def _node_accuracy(workload: Workload, device: Device, seed: int,
                   *_warmed: str) -> list[ErrorEntry]:
    """Accuracy-audit node: one workload's Table 6 rows, its value on
    the graph's edges.  An input (the ``dataset:`` node's value) only
    orders it after the warm-up."""
    return accuracy_table(workload, device, seed)


def accuracy_nodes(workloads: list[Workload] | None = None,
                   device: Device | None = None,
                   seed: int = AUDIT_SEED) -> list[TaskNode]:
    """The Table 6 audit as graph nodes: one ``accuracy:<name>`` node per
    floating-point workload, whose value is that workload's rows.

    ``None`` for both is the default suite on the H200, where each
    accuracy node depends on a ``dataset:<name>`` warm-up node, so
    dataset generation for one workload overlaps the audit of another.
    Explicit lists skip the warm-up (their identity is not reliably
    keyable for the shared caches).  Nodes carry the workload objects,
    settings included; a repeated name keeps its first workload.
    """
    warm = workloads is None and device is None
    device = Device("H200") if device is None else device
    nodes: dict[str, TaskNode] = {}
    for w in all_workloads() if workloads is None else workloads:
        key = f"accuracy:{w.name}"
        if not w.floating_point or key in nodes:
            continue
        deps: tuple[str, ...] = ()
        if warm:
            deps = (f"dataset:{w.name}",)
            nodes[deps[0]] = TaskNode(
                key=deps[0], kind="dataset-gen", fn=_node_dataset,
                args=(w, seed), label=f"dataset {w.name}")
        nodes[key] = TaskNode(key=key, kind="accuracy-audit",
                              fn=_node_accuracy, args=(w, device, seed),
                              deps=deps, label=f"accuracy {w.name}")
    return list(nodes.values())


def accuracy_tables(workloads, device: Device, seed: int = AUDIT_SEED, *,
                    n_jobs: int | None = None
                    ) -> dict[str, list[ErrorEntry]]:
    """The whole Table 6 audit: :func:`accuracy_nodes` run as one graph
    on the :class:`~repro.graph.GraphScheduler`.

    Non-floating-point workloads are skipped (the paper excludes them);
    results are returned keyed by workload name, in suite order.
    """
    workloads = list(workloads)
    graph = TaskGraph()
    graph.extend(accuracy_nodes(workloads, device, seed))
    results = GraphScheduler(n_jobs).run(graph)
    return {w.name: results[f"accuracy:{w.name}"] for w in workloads
            if w.floating_point}

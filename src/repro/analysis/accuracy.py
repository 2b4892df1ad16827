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

Hot-path layout: the reference output is flattened once per workload (not
once per variant), sparse outputs densify into one reused buffer, and the
per-element error reduction runs in-place on a second reused buffer —
first-touch page faults on the ~quarter-GB SpGEMM comparisons dominated
the audit before, and buffer reuse removes them without changing a single
arithmetic operation (bit-identity is pinned by
``tests/kernels/accuracy_digests.json``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.device import Device
from ..graph import GraphScheduler, TaskGraph, TaskNode
from ..kernels import all_workloads
from ..kernels.base import Workload
from ..perf.cache import content_key, default_cache, package_source_token
from ..perf.instrument import stage


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


def _flatten(output, dense_out: np.ndarray | None = None) -> np.ndarray:
    """Outputs may be arrays, complex arrays, or CSR matrices.

    ``dense_out`` is an optional preallocated buffer for sparse
    densification (same values, no fresh allocation).
    """
    if hasattr(output, "to_dense"):
        if dense_out is not None and dense_out.shape == output.shape:
            return output.to_dense(out=dense_out).ravel()
        return output.to_dense().ravel()
    arr = np.asarray(output)
    if np.iscomplexobj(arr):
        return np.concatenate([arr.real.ravel(), arr.imag.ravel()])
    return arr.astype(np.float64, copy=False).ravel()


def error_metrics(output, reference) -> tuple[float, float, int]:
    """(average, maximum, sample count) of absolute elementwise error."""
    got = _flatten(output)
    ref = _flatten(reference)
    if got.shape != ref.shape:
        raise ValueError(
            f"output shape {got.shape} != reference shape {ref.shape}")
    err = np.abs(got - ref)
    return float(err.mean()), float(err.max()), int(err.size)


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
        reference = workload.reference(data)
        ref_flat = _flatten(reference)
    err = np.empty_like(ref_flat)
    dense_buf = None
    entries = []
    for variant in workload.variants():
        with stage(f"accuracy.execute:{variant.value}"):
            result = workload.execute(variant, data, device)
        with stage("accuracy.compare"):
            out = result.output
            if hasattr(out, "to_dense") and \
                    (dense_buf is None or dense_buf.shape != out.shape):
                dense_buf = np.empty(out.shape)
            got = _flatten(out, dense_out=dense_buf)
            if got.shape != ref_flat.shape:
                raise ValueError(
                    f"output shape {got.shape} != reference shape "
                    f"{ref_flat.shape}")
            # same subtract/abs/mean/max value sequence as error_metrics,
            # routed through reused buffers
            np.subtract(got, ref_flat, out=err)
            np.abs(err, out=err)
            entries.append(ErrorEntry(
                workload=workload.name, variant=variant.value,
                avg_error=float(err.mean()), max_error=float(err.max()),
                samples=int(err.size)))
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

"""Dataflow task-graph execution: the pipeline's one execution path.

The pipeline is an explicit task graph: :class:`TaskNode`\\ s keyed by
the pipeline's content-key vocabulary, collected in a
:class:`TaskGraph`, and drained by the :class:`GraphScheduler` — the one
process-pool engine — so dataset generation for one workload overlaps
the accuracy audit of another, and serve's batched perf queries are just
another graph consumer.  Every fan-out is a graph builder (the
observation audit, the Table 6 audit, the grid, size sweeps, per-file
lint) and each command runs one graph; no node fans out inside itself.

Every node callable is a pure function of its arguments — ``repro
check`` proves it (rule R009) before anything runs — and the tie-break
order is deterministic (:meth:`TaskGraph.order`), so a run is
bit-identical at any worker count — asserted against the serial path and
the recorded digests.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "TaskGraph": "node", "TaskNode": "node",
    "GraphScheduler": "scheduler", "GraphStats": "scheduler",
})

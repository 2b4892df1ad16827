"""Dataflow task-graph execution: the pipeline's one execution path.

The pipeline is an explicit task graph: :class:`TaskNode`\\ s keyed by
the pipeline's content-key vocabulary, collected in a
:class:`TaskGraph`, and drained by the :class:`GraphScheduler` — the one
process-pool engine — so dataset generation for one workload overlaps
the accuracy audit of another, and serve's batched perf queries are just
another graph consumer.  Every fan-out is a graph builder (the
observation audit, the Table 6 audit, the grid, size sweeps, per-file
lint) and each command runs one graph; no node fans out inside itself.

Concurrency eligibility comes from the determinism proof engine's
exported facts (:mod:`repro.graph.policy`); the tie-break order is
deterministic (:meth:`TaskGraph.order`), so a run is bit-identical at any
worker count — asserted against the serial path and the recorded
digests.
"""

from .node import TaskGraph, TaskNode
from .policy import ConcurrencyPolicy, default_facts_path, load_facts
from .scheduler import GraphScheduler, GraphStats

__all__ = ["TaskGraph", "TaskNode", "ConcurrencyPolicy", "GraphScheduler",
           "GraphStats", "default_facts_path", "load_facts"]

"""Typed task nodes and the dependency graph they form.

A :class:`TaskNode` is one unit of pipeline work — generate a dataset,
audit one workload's accuracy, evaluate one observation, compute one
case's analytic stats — identified by a ``key`` (the same content-key vocabulary the
result cache uses, so a node and its cached artifact name the same
thing), classified by a ``kind`` (its profiler stage and its bench
attribution group), and computed by a module-level callable.

:class:`TaskGraph` collects nodes and their dependency edges and
produces a *deterministic* topological order: ready nodes are always
drained smallest-key-first, so the order depends only on the node set
and the edges — never on insertion order.  That tie-break, and node
callables that are deterministic functions of their arguments, make a
graph run reproducible at any worker count.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["TaskNode", "TaskGraph"]


@dataclass(frozen=True)
class TaskNode:
    """One schedulable unit of pipeline work.

    ``fn`` must be a module-level (picklable) callable — the scheduler
    ships nodes to pool workers.
    ``deps`` name the keys of nodes that must complete first; the
    scheduler calls ``fn(*args, *inputs)`` with their values as
    ``inputs``, in ``deps`` order.  ``kind`` becomes the node's
    ``graph/<kind>`` profiler stage and its bench attribution group.
    """

    key: str
    kind: str
    fn: Callable[..., Any]
    args: tuple = ()
    deps: tuple[str, ...] = ()
    label: str = ""

    @property
    def display(self) -> str:
        return self.label or self.key


class TaskGraph:
    """An insertion-ordered DAG of :class:`TaskNode`\\ s.

    ``add`` validates each node eagerly (unique key, schedulable kind,
    module-level callable); :meth:`order` validates the edge structure
    (no dangling deps, no cycles) and returns the canonical execution
    order.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, TaskNode] = {}

    # ------------------------------------------------------------ build
    def add(self, node: TaskNode) -> TaskNode:
        if node.key in self._nodes:
            raise ValueError(f"duplicate node key {node.key!r}")
        if not node.kind or "/" in node.kind:
            raise ValueError(
                f"node {node.key!r}: kind {node.kind!r} must be a "
                "non-empty name without '/' (it becomes a stage path "
                "segment)")
        if not callable(node.fn):
            raise ValueError(f"node {node.key!r}: fn is not callable")
        qualname = getattr(node.fn, "__qualname__", "")
        if "<" in qualname or "." in qualname:
            raise ValueError(
                f"node {node.key!r}: fn {qualname!r} is not a "
                "module-level function; graph nodes must pickle to pool "
                "workers")
        self._nodes[node.key] = node
        return node

    def extend(self, nodes: list[TaskNode]) -> None:
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------ query
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, key: str) -> bool:
        return key in self._nodes

    def __iter__(self) -> Iterator[TaskNode]:
        return iter(self._nodes.values())

    def node(self, key: str) -> TaskNode:
        return self._nodes[key]

    def dependents(self) -> dict[str, list[str]]:
        """``{key: [keys that depend on it]}`` in sorted child order."""
        out: dict[str, list[str]] = {k: [] for k in self._nodes}
        for node in self._nodes.values():
            for dep in node.deps:
                out[dep].append(node.key)
        return {k: sorted(children) for k, children in out.items()}

    # --------------------------------------------------------- validate
    def order(self) -> list[str]:
        """Deterministic topological order (Kahn, smallest key first).

        Raises ``ValueError`` on a dangling dependency or a cycle.  The
        returned order depends only on the node set and edges, not on
        insertion order — the serial execution order and the pooled
        scheduler's submission tie-break both follow it.
        """
        for node in self._nodes.values():
            for dep in node.deps:
                if dep not in self._nodes:
                    raise ValueError(
                        f"node {node.key!r} depends on unknown node "
                        f"{dep!r}")
        deps_left = {k: len(set(n.deps)) for k, n in self._nodes.items()}
        dependents = self.dependents()
        ready = [k for k, n in deps_left.items() if n == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            key = heapq.heappop(ready)
            order.append(key)
            for child in dependents[key]:
                deps_left[child] -= 1
                if deps_left[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) != len(self._nodes):
            stuck = sorted(k for k in self._nodes if k not in set(order))
            raise ValueError(f"dependency cycle through {stuck}")
        return order

"""TaskNode/TaskGraph validation and the deterministic topological order.

The graph's contract (docs/PERF.md): ``add`` rejects anything the
scheduler could not ship to a pool worker or file under a stage path,
and ``order`` depends only on the node set and edges — never on
insertion order — because that tie-break is what makes graph execution
bit-identical to the staged loops it replaces.
"""

import random

import pytest

from repro.graph import TaskGraph, TaskNode


def _value(x):
    return x * x


class _CallableNode:
    """Instance callables are allowed: they pickle like executor fns."""

    def __call__(self, x):
        return x + 1


def _node(key, deps=(), kind="unit"):
    return TaskNode(key=key, kind=kind, fn=_value, args=(1,), deps=deps)


def _diamond():
    """a -> {b, c} -> d plus a free-floating e."""
    return [_node("a"), _node("b", deps=("a",)), _node("c", deps=("a",)),
            _node("d", deps=("b", "c")), _node("e")]


class TestAddValidation:
    def test_duplicate_key_rejected(self):
        g = TaskGraph()
        g.add(_node("a"))
        with pytest.raises(ValueError, match="duplicate node key"):
            g.add(_node("a"))

    def test_kind_must_be_stage_safe(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="kind"):
            g.add(TaskNode(key="a", kind="", fn=_value))
        with pytest.raises(ValueError, match="kind"):
            g.add(TaskNode(key="b", kind="perf/grid", fn=_value))

    def test_fn_must_be_callable(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="not callable"):
            g.add(TaskNode(key="a", kind="unit", fn=42))

    def test_lambda_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="module-level"):
            g.add(TaskNode(key="a", kind="unit", fn=lambda x: x))

    def test_nested_function_rejected(self):
        def inner(x):
            return x

        g = TaskGraph()
        with pytest.raises(ValueError, match="module-level"):
            g.add(TaskNode(key="a", kind="unit", fn=inner))

    def test_bound_method_rejected(self):
        """A method bound to an instance is rejected even where the
        instance itself would be accepted as the callable."""
        g = TaskGraph()
        with pytest.raises(ValueError, match="module-level"):
            g.add(TaskNode(key="a", kind="unit",
                           fn=_CallableNode().__call__))

    def test_module_level_and_instance_callables_accepted(self):
        g = TaskGraph()
        g.add(TaskNode(key="a", kind="unit", fn=_value, args=(2,)))
        g.add(TaskNode(key="b", kind="unit", fn=_CallableNode(), args=(2,)))
        assert len(g) == 2
        assert "a" in g and g.node("b").kind == "unit"

    def test_display_prefers_label(self):
        assert TaskNode(key="k", kind="unit", fn=_value).display == "k"
        assert TaskNode(key="k", kind="unit", fn=_value,
                        label="pretty").display == "pretty"


class TestOrder:
    def test_topological_and_smallest_key_first(self):
        g = TaskGraph()
        g.extend(_diamond())
        # a and e are both ready at the start: 'a' wins the tie-break;
        # b/c unlock next, then d outranks e the moment it is ready.
        assert g.order() == ["a", "b", "c", "d", "e"]

    def test_order_independent_of_insertion(self):
        """The property the scheduler's determinism rests on: any
        insertion permutation yields the same execution order."""
        baseline = None
        rng = random.Random(7)
        for _ in range(10):
            nodes = _diamond()
            rng.shuffle(nodes)
            g = TaskGraph()
            g.extend(nodes)
            if baseline is None:
                baseline = g.order()
            assert g.order() == baseline

    def test_dangling_dependency_rejected(self):
        g = TaskGraph()
        g.add(_node("a", deps=("ghost",)))
        with pytest.raises(ValueError, match="unknown node 'ghost'"):
            g.order()

    def test_cycle_rejected(self):
        g = TaskGraph()
        g.add(_node("a", deps=("b",)))
        g.add(_node("b", deps=("a",)))
        g.add(_node("c"))
        with pytest.raises(ValueError, match="cycle"):
            g.order()

    def test_dependents_mapping(self):
        g = TaskGraph()
        g.extend(_diamond())
        deps = g.dependents()
        assert deps["a"] == ["b", "c"]
        assert deps["b"] == ["d"] and deps["c"] == ["d"]
        assert deps["d"] == [] and deps["e"] == []

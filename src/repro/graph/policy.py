"""Concurrency policy: which nodes may run concurrently, per the facts.

The determinism proof engine (``repro check --facts``, docs/CHECK.md)
exports per-function purity facts to ``determinism_facts.json``: whether
a function's value is reachable from a nondeterminism source, and which
unkeyed ambient inputs (environment variables, file contents) it reads.
The scheduler consults those facts through :class:`ConcurrencyPolicy`:

* a node whose callable is **pure** with **no unkeyed ambient reads**
  may run concurrently with anything — its value depends only on its
  arguments, so execution order cannot change it;
* a node whose callable is impure or ambient-reading is **exclusive** —
  the scheduler drains in-flight work and runs it alone, in the parent
  process, in deterministic topological position (and the R009 lint
  rule flags the construction site so the impurity gets fixed rather
  than serialized forever).

The facts file is advisory: when it is missing (a fresh checkout that
has not run ``repro check --facts``) every node is assumed concurrent —
the graph builders only schedule functions the engine already proves
pure, and CI regenerates and compares the artifact on every push.
``REPRO_FACTS`` overrides the default path (the checked-in
``determinism_facts.json`` at the repo root).  Every graph run builds a
policy, so the parsed artifact is kept per process and re-read only when
the file's modification time or size changes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable

from .node import TaskNode

__all__ = ["ConcurrencyPolicy", "default_facts_path", "load_facts"]


def default_facts_path() -> Path:
    """``REPRO_FACTS`` > ``determinism_facts.json`` at the repo root."""
    env = os.environ.get("REPRO_FACTS")
    if env:
        return Path(env)
    # src/repro/graph/policy.py -> repo root is four parents up
    return Path(__file__).resolve().parents[3] / "determinism_facts.json"


#: path -> ((st_mtime_ns, st_size), parsed document) of each facts file
#: read in this process
_PARSED: dict[Path, tuple[tuple[int, int], dict]] = {}


def load_facts(path: str | Path | None = None) -> dict | None:
    """The parsed facts artifact, or None when absent/unreadable.

    Parsed once per file version: a repeat call on an unchanged file
    returns the same dict, which callers must treat as read-only.  A
    missing or unreadable file is never remembered.
    """
    target = Path(path) if path is not None else default_facts_path()
    try:
        st = target.stat()
        stamp = (st.st_mtime_ns, st.st_size)
        hit = _PARSED.get(target)
        if hit is not None and hit[0] == stamp:
            return hit[1]
        # stat before reading: a rewrite in between, or a racing
        # thread's store, leaves a document under an older stamp, which
        # the next call re-reads
        doc = json.loads(target.read_bytes())
    except (OSError, ValueError):  # ValueError: bad JSON or UTF-8
        return None
    if not isinstance(doc, dict):
        return None
    _PARSED[target] = (stamp, doc)
    return doc


def function_fid(fn: Callable) -> str | None:
    """A callable's facts id (``<module relpath>::<qualname>``), or None
    for callables outside the ``repro`` package."""
    module = getattr(fn, "__module__", "") or ""
    qualname = getattr(fn, "__qualname__", "") or ""
    if not qualname:
        return None
    if module == "repro":
        relpath = "__init__.py"
    elif module.startswith("repro."):
        relpath = module[len("repro."):].replace(".", "/") + ".py"
    else:
        return None
    return f"{relpath}::{qualname}"


class ConcurrencyPolicy:
    """Decide per node: concurrent fan-out, or exclusive serial slot."""

    def __init__(self, facts: dict | None = None, *,
                 path: str | Path | None = None) -> None:
        if facts is None:
            facts = load_facts(path)
        self.facts = facts
        purity = (facts or {}).get("purity")
        self._purity: dict = purity if isinstance(purity, dict) else {}

    def concurrent(self, node: TaskNode) -> bool:
        """True when the node's callable is safe to run concurrently.

        Unknown callables (no facts entry — e.g. test doubles, or a
        missing facts file) default to concurrent: the scheduler's
        correctness does not depend on the policy, only the strength of
        the determinism guarantee does, and R009 flags the gaps
        statically.
        """
        fid = function_fid(node.fn)
        if fid is None:
            return True
        entry = self._purity.get(fid)
        if not isinstance(entry, dict):
            return True
        if entry.get("pure") is False:
            return False
        if entry.get("ambient"):
            return False
        return True

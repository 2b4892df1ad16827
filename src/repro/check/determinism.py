"""The determinism proof engine: interprocedural taint analysis (D-rules).

Every subsystem added since the perf cache is constrained to be
bit-identical to the seed digests, but the digest tests are dynamic: they
tell you *that* a run was deterministic, never *why*, nor which edit would
break it.  This engine proves the three structural properties the
bit-identity contract rests on, statically, over the whole ``repro``
package:

**Sources** (nondeterminism entering a function):

========== ==========================================================
``rng``     unseeded ``random``/``numpy.random`` draws (R001's source
            set, now propagated interprocedurally)
``clock``   wall-clock reads (``time.*``, ``datetime.now``) outside the
            sanctioned ``perf.instrument`` wrappers
``fs-order`` unsorted filesystem enumeration (``os.listdir``,
            ``os.scandir``, ``glob.*``, ``Path.iterdir/glob/rglob``)
            whose result is not immediately ``sorted(...)``
``set-order`` iteration over a set-typed expression (set literals,
            ``set(...)``, unions of those) — ordering depends on
            insertion/hash history, not on value
``id-hash`` ``id(...)`` / ``hash(...)`` of objects — per-process values
========== ==========================================================

**Ambient inputs** (deterministic per-process but invisible to content
keys): ``env`` (``os.environ``/``os.getenv``), ``file`` (``open``/
``read_text``/``read_bytes``), ``global`` (reads of module globals
rebound via ``global`` statements).

**Sinks** (where taint breaks a contract):

* ``D001`` cache-value-taint — the compute callable of a
  ``ResultCache.get_or_compute`` reaches a source: the cached value could
  differ from a recomputation, voiding the cache's bit-identity contract.
* ``D002`` serve-payload-taint — a ``serve/queries.py`` resolver reaches
  a source: a served answer could differ from the direct invocation.
* ``D005`` key-env-read — a content-key constructor reads an environment
  variable that is not part of the key: two processes with different
  environments share one cache entry (the exact gap delta-invalidation
  must close).
* ``D006`` key-ambient-read — a content-key constructor reads a file or
  a mutated module global outside the key, same consequence as D005.
* ``R009`` graph-node-impure — a :class:`~repro.graph.TaskNode`
  callable transitively reaches a source (rng/clock/fs-order/set-order/
  id-hash) or reads unkeyed ambient state (env/file/global): its value
  could differ between runs, or between the serial path and a pool
  worker, so the read must be folded into the node's arguments or
  content key.  The graph scheduler runs every node as a pure function
  of its arguments, and this rule is the one place that property is
  enforced.  Every parallel call site is a task graph, so this is also
  the check that a pool worker's fork-time snapshot of a mutated global
  cannot make serial and parallel runs diverge; ``TaskGraph.add``
  rejects lambdas, nested functions and bound methods whenever a graph
  is built.

Propagation is a fixpoint over the :class:`~repro.check.dataflow.
PackageGraph` call graph.  Calls into the measurement/fault/scheduling
infrastructure (``perf/``, ``faults/``, ``graph/``,
``serve/telemetry.py``) are not followed: their clock reads feed
telemetry and bookkeeping, never the values they return — the same
scoping the R001/R002 lint rules encode.
Findings carry a witness chain (``f -> g -> time.perf_counter``) naming
the path by which the taint reaches the sink.

The computed facts — per-function purity, content-key sites and their
ambient reads, cache/serve/graph-node sink verdicts — export as a
machine-readable ``determinism_facts.json`` whose bytes depend only on
package sources, so CI asserts two consecutive exports compare equal.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path

from .dataflow import (
    FunctionInfo,
    ModuleInfo,
    PackageGraph,
    iter_scope,
    resolve_dotted,
)
from .findings import Finding
from .lint import _CLOCK_CALLS, _RNG_ALLOWED_TAILS

__all__ = [
    "FACTS_VERSION",
    "DeterminismReport",
    "TaintSource",
    "analyze_package",
    "determinism_findings",
    "export_facts",
]

FACTS_VERSION = 2

#: measurement/fault infrastructure whose clock/env reads feed telemetry
#: and bookkeeping, not returned values — calls into these are not
#: followed and sources inside them are not collected
_BARRIER_PREFIXES = ("perf/", "faults/", "graph/")
_BARRIER_FILES = frozenset({"serve/telemetry.py"})

#: source kinds that taint a *value* (sink classes D001/D002)
VALUE_KINDS = ("rng", "clock", "fs-order", "set-order", "id-hash")

_FS_CALLS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})
_FS_METHOD_ATTRS = frozenset({"iterdir", "glob", "rglob"})
_FILE_READ_ATTRS = frozenset({"read_text", "read_bytes"})


def _is_barrier(relpath: str) -> bool:
    return relpath.startswith(_BARRIER_PREFIXES) \
        or relpath in _BARRIER_FILES


@dataclass(frozen=True)
class TaintSource:
    """One direct nondeterminism source (or ambient input) in a scope."""

    kind: str
    symbol: str
    line: int


@dataclass
class _Facts:
    """Per-function scan results."""

    info: FunctionInfo
    sources: list[TaintSource] = field(default_factory=list)
    #: ambient inputs with the AST node they were read from (the node is
    #: needed to decide whether the read sits inside content-key args)
    ambient: list[tuple[TaintSource, ast.AST]] = field(
        default_factory=list)
    #: resolved package callees as (fid, call line)
    callees: list[tuple[str, int]] = field(default_factory=list)
    #: get_or_compute sites: (line, compute expr node or None)
    cache_stores: list[tuple[int, ast.expr | None]] = field(
        default_factory=list)
    #: content_key call nodes
    key_calls: list[ast.Call] = field(default_factory=list)
    #: TaskNode construction sites: (line, fn expr node or None)
    graph_nodes: list[tuple[int, ast.expr | None]] = field(
        default_factory=list)


# ----------------------------------------------------------------- scanning

def _sorted_wrapped(nodes: list[ast.AST]) -> set[int]:
    """ids of nodes appearing as the first argument of ``sorted(...)``."""
    out: set[int] = set()
    for n in nodes:
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                and n.func.id == "sorted" and n.args:
            out.add(id(n.args[0]))
    return out


def _set_typed(expr: ast.expr, set_names: set[str]) -> bool:
    """Conservatively: does this expression evaluate to a set?"""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id in ("set", "frozenset"):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in set_names
    if isinstance(expr, ast.BinOp) \
            and isinstance(expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor,
                                     ast.Sub)):
        return _set_typed(expr.left, set_names) \
            or _set_typed(expr.right, set_names)
    return False


def _env_read(node: ast.AST, imports: dict[str, str]) -> str | None:
    """``os.environ[...]`` / ``os.environ.get(...)`` / ``os.getenv(...)``."""
    if isinstance(node, ast.Call):
        full = resolve_dotted(node.func, imports)
        if full in ("os.getenv", "os.environ.get"):
            return full
    if isinstance(node, ast.Subscript):
        full = resolve_dotted(node.value, imports)
        if full == "os.environ":
            return full
    return None


def _scan_function(graph: PackageGraph, minfo: ModuleInfo,
                   finfo: FunctionInfo) -> _Facts:
    facts = _Facts(info=finfo)
    if _is_barrier(minfo.relpath):
        return facts
    imports = minfo.imports
    nodes = list(iter_scope(finfo.node))
    wrapped = _sorted_wrapped(nodes)

    # set-typed local names (forward pass over assigns)
    set_names: set[str] = set()
    for n in nodes:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(n, ast.Assign):
            targets, value = n.targets, n.value
        elif isinstance(n, ast.AnnAssign) and n.value is not None:
            targets, value = [n.target], n.value
        if value is None:
            continue
        for t in targets:
            if not isinstance(t, ast.Name):
                continue
            if _set_typed(value, set_names):
                set_names.add(t.id)

    for n in nodes:
        # --- sources and ambient reads -------------------------------
        if isinstance(n, ast.Call):
            full = resolve_dotted(n.func, imports)
            if full is not None:
                if full.startswith(("numpy.random.", "random.")):
                    tail = full.rsplit(".", 1)[-1]
                    if not (tail in _RNG_ALLOWED_TAILS and n.args):
                        facts.sources.append(
                            TaintSource("rng", full, n.lineno))
                elif full in _CLOCK_CALLS:
                    facts.sources.append(
                        TaintSource("clock", full, n.lineno))
                elif full in _FS_CALLS and id(n) not in wrapped:
                    facts.sources.append(
                        TaintSource("fs-order", full, n.lineno))
            if isinstance(n.func, ast.Attribute) \
                    and n.func.attr in _FS_METHOD_ATTRS \
                    and id(n) not in wrapped \
                    and resolve_dotted(n.func, imports) not in _FS_CALLS:
                facts.sources.append(TaintSource(
                    "fs-order", f".{n.func.attr}()", n.lineno))
            if isinstance(n.func, ast.Name) and n.func.id in ("id", "hash") \
                    and n.func.id not in imports:
                facts.sources.append(
                    TaintSource("id-hash", f"{n.func.id}()", n.lineno))
            env = _env_read(n, imports)
            if env is not None:
                facts.ambient.append(
                    (TaintSource("env", env, n.lineno), n))
            if isinstance(n.func, ast.Name) and n.func.id == "open" \
                    and "open" not in imports:
                facts.ambient.append(
                    (TaintSource("file", "open()", n.lineno), n))
            if isinstance(n.func, ast.Attribute) \
                    and n.func.attr in _FILE_READ_ATTRS:
                facts.ambient.append((TaintSource(
                    "file", f".{n.func.attr}()", n.lineno), n))
        elif isinstance(n, ast.Subscript):
            env = _env_read(n, imports)
            if env is not None:
                facts.ambient.append(
                    (TaintSource("env", env, n.lineno), n))
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) \
                and n.id in minfo.mutated_globals:
            facts.ambient.append(
                (TaintSource("global", n.id, n.lineno), n))

        # set-order: iterating a set-typed expression
        iters: list[ast.expr] = []
        if isinstance(n, (ast.For, ast.AsyncFor)):
            iters.append(n.iter)
        elif isinstance(n, (ast.ListComp, ast.SetComp, ast.DictComp,
                            ast.GeneratorExp)):
            iters.extend(g.iter for g in n.generators)
        for it in iters:
            if _set_typed(it, set_names):
                facts.sources.append(
                    TaintSource("set-order", ast.unparse(it)[:40],
                                n.lineno))

        # --- sinks and edges -----------------------------------------
        if not isinstance(n, ast.Call):
            continue
        func = n.func
        if isinstance(func, ast.Attribute) and func.attr == "get_or_compute":
            compute = n.args[2] if len(n.args) >= 3 else None
            facts.cache_stores.append((n.lineno, compute))
        full = resolve_dotted(func, imports)
        if full is not None and (full == "content_key"
                                 or full.endswith(".content_key")):
            facts.key_calls.append(n)
        if full is not None and (full == "TaskNode"
                                 or full.endswith(".TaskNode")):
            fn_expr: ast.expr | None = None
            for kw in n.keywords:
                if kw.arg == "fn":
                    fn_expr = kw.value
                    break
            if fn_expr is None and len(n.args) >= 3:
                fn_expr = n.args[2]
            facts.graph_nodes.append((n.lineno, fn_expr))

        # call-graph edges (barrier modules are not followed)
        for callee in graph.resolve_call(minfo, n, finfo):
            if _is_barrier(callee.module):
                continue
            facts.callees.append((callee.fid, n.lineno))

    # compute closures and node callables are edges too: the value they
    # produce flows back to the store/node site
    for line, compute in facts.cache_stores:
        if compute is not None:
            target = _resolve_callable(graph, minfo, finfo, compute)
            if target is not None and not _is_barrier(target.module):
                facts.callees.append((target.fid, line))
    for line, node_fn in facts.graph_nodes:
        if node_fn is not None:
            target = _resolve_callable(graph, minfo, finfo, node_fn)
            if target is not None and not _is_barrier(target.module):
                facts.callees.append((target.fid, line))
    return facts


def _resolve_callable(graph: PackageGraph, minfo: ModuleInfo,
                      finfo: FunctionInfo,
                      expr: ast.expr) -> FunctionInfo | None:
    """The function a callable-valued *expression* denotes (not a call)."""
    if isinstance(expr, ast.Lambda):
        for qual, info in minfo.functions.items():
            if info.node is expr:
                return info
        return None
    if isinstance(expr, ast.Call):
        # functools.partial(f, ...): resolve the first argument when the
        # call wraps another callable
        full = resolve_dotted(expr.func, minfo.imports)
        if full is not None and full.endswith("partial") and expr.args:
            return _resolve_callable(graph, minfo, finfo, expr.args[0])
        return None
    fake = ast.Call(func=expr, args=[], keywords=[])
    ast.copy_location(fake, expr)
    hits = graph.resolve_call(minfo, fake, finfo)
    return hits[0] if hits else None


# -------------------------------------------------------------- propagation

def _propagate(all_facts: dict[str, _Facts]
               ) -> dict[str, dict[str, tuple[str | None, str, int]]]:
    """Fixpoint taint closure.

    Returns ``{fid: {kind: (via_fid | None, symbol, line)}}`` — for each
    function, the source kinds reachable from it and one witness step:
    either a direct source (``via_fid`` None) or the callee that carries
    the taint in.

    Ambient inputs propagate alongside the value kinds under
    ``ambient-env`` / ``ambient-file`` / ``ambient-global`` — seeded only
    by *unkeyed* reads (reads inside ``content_key`` arguments are part
    of the key, not hidden state).  They do not flip ``pure`` (the value
    is still deterministic per process) but they do make a function
    unsafe to run as a graph node, which is what rule R009 consumes
    them for.
    """
    taint: dict[str, dict[str, tuple[str | None, str, int]]] = {}
    callers: dict[str, list[tuple[str, int]]] = {}
    for fid in sorted(all_facts):
        f = all_facts[fid]
        mine: dict[str, tuple[str | None, str, int]] = {}
        for src in f.sources:
            mine.setdefault(src.kind, (None, src.symbol, src.line))
        for amb, node in f.ambient:
            if not _inside_key_args(f.key_calls, node):
                mine.setdefault(f"ambient-{amb.kind}",
                                (None, amb.symbol, amb.line))
        taint[fid] = mine
        for callee_fid, line in f.callees:
            callers.setdefault(callee_fid, []).append((fid, line))
    work = [fid for fid in sorted(taint) if taint[fid]]
    while work:
        fid = work.pop()
        kinds = taint.get(fid, {})
        for caller_fid, line in callers.get(fid, ()):
            mine = taint[caller_fid]
            grew = False
            for kind in kinds:
                if kind not in mine:
                    mine[kind] = (fid, fid, line)
                    grew = True
            if grew:
                work.append(caller_fid)
    return taint


def _witness(taint, fid: str, kind: str, limit: int = 12) -> str:
    """Render the taint path ``f -> g -> time.perf_counter (g:42)``."""
    chain: list[str] = []
    cur = fid
    for _ in range(limit):
        entry = taint.get(cur, {}).get(kind)
        if entry is None:
            break
        via, symbol, line = entry
        if via is None:
            chain.append(f"{symbol} ({cur.split('::')[0]}:{line})")
            return " -> ".join(chain)
        chain.append(via)
        cur = via
    chain.append("...")
    return " -> ".join(chain)


# ------------------------------------------------------------------- rules

def _value_taint(taint, fid: str) -> list[str]:
    return sorted(k for k in taint.get(fid, {}) if k in VALUE_KINDS)


def _ambient_taint(taint, fid: str) -> list[str]:
    """Ambient-input kinds (``env``/``file``/``global``) reachable from
    ``fid`` through unkeyed reads."""
    return sorted(k.split("-", 1)[1] for k in taint.get(fid, {})
                  if k.startswith("ambient-"))


def _inside_key_args(key_calls: list[ast.Call], node: ast.AST) -> bool:
    for call in key_calls:
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for sub in ast.walk(arg):
                if sub is node:
                    return True
    return False


@dataclass
class DeterminismReport:
    """Findings plus the exportable facts of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    functions_analyzed: int = 0
    modules_analyzed: int = 0


def analyze_package(root: str | Path | None = None, *,
                    graph: PackageGraph | None = None
                    ) -> DeterminismReport:
    """Run the taint engine over a package tree and produce findings and
    machine-readable facts."""
    if graph is None:
        graph = PackageGraph.build(Path(root))
    all_facts: dict[str, _Facts] = {}
    for finfo in graph.sorted_functions():
        minfo = graph.modules[finfo.module]
        all_facts[finfo.fid] = _scan_function(graph, minfo, finfo)
    taint = _propagate(all_facts)

    report = DeterminismReport(
        functions_analyzed=len(all_facts),
        modules_analyzed=len(graph.modules))
    findings = report.findings
    fact_cache: list[dict] = []
    fact_serve: list[dict] = []
    fact_keys: list[dict] = []
    fact_graph: list[dict] = []

    for fid in sorted(all_facts):
        f = all_facts[fid]
        minfo = graph.modules[f.info.module]

        # D001: tainted value stored under a ResultCache content key
        for line, compute in f.cache_stores:
            target = None if compute is None else \
                _resolve_callable(graph, minfo, f.info, compute)
            tainted_kinds = _value_taint(taint, target.fid) if target \
                else []
            fact_cache.append({
                "module": f.info.module, "function": f.info.qualname,
                "line": line,
                "compute": target.fid if target else None,
                "tainted": sorted(tainted_kinds),
            })
            if target and tainted_kinds:
                kind = tainted_kinds[0]
                findings.append(Finding(
                    rule="D001", severity="error", path=f.info.module,
                    symbol=f.info.qualname, line=line,
                    message=f"value cached under a content key is "
                            f"{kind}-tainted: "
                            f"{_witness(taint, target.fid, kind)}; a "
                            "cached entry and a recomputation could "
                            "differ, voiding the bit-identity contract"))

        # R009: a task-graph node callable must be a pure function of its
        # arguments
        for line, node_fn in f.graph_nodes:
            target = None if node_fn is None else \
                _resolve_callable(graph, minfo, f.info, node_fn)
            ambient = _ambient_taint(taint, target.fid) if target else []
            value_kinds = _value_taint(taint, target.fid) if target else []
            fact_graph.append({
                "module": f.info.module, "function": f.info.qualname,
                "line": line,
                "target": target.fid if target else (
                    None if node_fn is None
                    else ast.unparse(node_fn)[:60]),
                "ambient": ambient,
                "tainted": value_kinds,
            })
            if target and (value_kinds or ambient):
                first = value_kinds[0] if value_kinds \
                    else f"ambient-{ambient[0]}"
                what = f"is {first}-tainted" if value_kinds else \
                    f"reads unkeyed ambient state ({', '.join(ambient)})"
                findings.append(Finding(
                    rule="R009", severity="error", path=f.info.module,
                    symbol=f.info.qualname, line=line,
                    message=f"graph node callable {target.qualname} "
                            f"{what}: {_witness(taint, target.fid, first)}"
                            "; its value could differ between runs or "
                            "worker counts, so fold the read into the "
                            "node's arguments or content key"))

        # D005/D006: content-key completeness
        if f.key_calls:
            for amb, node in f.ambient:
                if _inside_key_args(f.key_calls, node):
                    continue
                rule = "D005" if amb.kind == "env" else "D006"
                what = {"env": "environment variable",
                        "file": "file content",
                        "global": "mutated module global"}[amb.kind]
                findings.append(Finding(
                    rule=rule, severity="error", path=f.info.module,
                    symbol=f.info.qualname, line=amb.line,
                    message=f"content-key constructor reads a {what} "
                            f"({amb.symbol}) that is not part of the "
                            "key; entries computed under different "
                            f"{amb.kind} state would share one cache "
                            "slot — fold the input into the key or hoist "
                            "the read out"))
            fact_keys.append({
                "module": f.info.module, "function": f.info.qualname,
                "lines": sorted(c.lineno for c in f.key_calls),
                "ambient_reads": sorted(
                    {f"{a.kind}:{a.symbol}" for a, _ in f.ambient}),
            })

    # D002: serve resolver payload purity
    queries = graph.modules.get("serve/queries.py")
    if queries is not None:
        for qual in sorted(queries.functions):
            info = queries.functions[qual]
            if "." in qual or not (qual.startswith("resolve_")
                                   or qual.startswith("_resolve")):
                continue
            kinds = _value_taint(taint, info.fid)
            fact_serve.append({"function": info.fid,
                               "tainted": kinds})
            if kinds:
                kind = kinds[0]
                findings.append(Finding(
                    rule="D002", severity="error",
                    path=info.module, symbol=qual, line=info.lineno,
                    message=f"serve resolver payload is {kind}-tainted: "
                            f"{_witness(taint, info.fid, kind)}; a "
                            "served answer could differ from the direct "
                            "invocation it must be bit-identical to"))

    findings.sort(key=lambda fd: (fd.path, fd.line or 0, fd.rule,
                                  fd.symbol))
    report.facts = export_facts(graph, all_facts, taint,
                                cache=fact_cache, serve=fact_serve,
                                keys=fact_keys, graph_nodes=fact_graph)
    return report


# ------------------------------------------------------------------- facts

def export_facts(graph: PackageGraph, all_facts: dict[str, _Facts],
                 taint, *, cache: list[dict], serve: list[dict],
                 keys: list[dict],
                 graph_nodes: list[dict] | None = None) -> dict:
    """The machine-readable artifact (``determinism_facts.json``).

    Derived purely from package sources and emitted in sorted order, so
    byte-identity across runs holds by construction (asserted in CI) —
    the analyzer satisfies its own determinism contract.  It is the
    reviewed record of every verdict: checked in, so a change's diff
    shows which verdicts moved (version 2: each purity entry's
    ``ambient`` list names the unkeyed env/file/global inputs reachable
    from the function).  Every fan-out is a task graph, so
    ``graph_nodes`` lists everything a pool worker runs, with the
    verdicts R009 reads.
    """
    purity: dict[str, dict] = {}
    for fid in sorted(all_facts):
        kinds = _value_taint(taint, fid)
        entry: dict = {"pure": not kinds}
        if kinds:
            entry["taint"] = kinds
            entry["witness"] = _witness(taint, fid, kinds[0])
        ambient = _ambient_taint(taint, fid)
        if ambient:
            entry["ambient"] = ambient
            entry["ambient_witness"] = _witness(
                taint, fid, f"ambient-{ambient[0]}")
        direct = sorted(
            {f"{s.kind}:{s.symbol}" for s in all_facts[fid].sources})
        if direct:
            entry["direct_sources"] = direct
        purity[fid] = entry
    return {
        "version": FACTS_VERSION,
        "modules": sorted(graph.modules),
        "functions_analyzed": len(all_facts),
        "barriers": {"prefixes": sorted(_BARRIER_PREFIXES),
                     "files": sorted(_BARRIER_FILES)},
        "purity": purity,
        "cache_values": sorted(
            cache, key=lambda e: (e["module"], e["line"])),
        "serve_payloads": sorted(serve, key=lambda e: e["function"]),
        "content_keys": sorted(
            keys, key=lambda e: (e["module"], e["function"])),
        "graph_nodes": sorted(
            graph_nodes or [], key=lambda e: (e["module"], e["line"])),
    }


def facts_to_json(facts: dict) -> str:
    """Canonical byte form of the facts artifact."""
    return json.dumps(facts, indent=2, sort_keys=True) + "\n"


def determinism_findings(root: str | Path) -> list[Finding]:
    """Just the findings (the runner uses :func:`analyze_package`)."""
    return analyze_package(root).findings

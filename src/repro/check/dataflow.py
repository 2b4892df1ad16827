"""Whole-package call graph: the structural substrate of the D-rules.

The call-resolution machinery here began life private to the R005
MMA call-graph rule (``contracts.py``); the determinism proof engine
(:mod:`repro.check.determinism`) needs the same resolution *across* module
boundaries, so it is extracted and generalized here:

* :class:`ImportResolver` / :func:`resolve_dotted` — map local names to
  fully qualified dotted paths (shared with ``lint.py``/``contracts.py``).
* :class:`PackageGraph` — parses every ``.py`` under the package root once
  and indexes functions (top-level, methods, nested defs, lambdas),
  classes and their bases, import maps, module-level *dispatch tables*
  (tuples/dicts of function references such as ``OBSERVATIONS`` or
  ``_RESOLVERS``), and module globals rebound through ``global``
  statements.
* :meth:`PackageGraph.resolve_call` — best-effort resolution of one
  ``ast.Call`` to the :class:`FunctionInfo` it invokes, following local
  defs, ``self.method`` (with one level of base-class lookup), imported
  package symbols (including ``__init__`` re-exports, eager or lazy),
  class constructors (to ``__init__``), and ``TABLE[i](...)`` dispatch
  through indexed tables.

A package ``__init__`` that re-exports lazily declares a literal
``{name: submodule}`` map passed to ``lazy_exports``
(:mod:`repro._lazy`); :func:`_collect_lazy_exports` reads each entry as
the ``from .submodule import name`` line it replaces, so a call through
a lazy re-export resolves to the defining function.

Everything is derived from source text alone and iterated in sorted
order, so two runs over identical sources produce identical graphs — a
property the determinism engine inherits and CI asserts byte-for-byte on
its exported facts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ImportResolver",
    "resolve_dotted",
    "FunctionInfo",
    "ModuleInfo",
    "PackageGraph",
    "iter_scope",
]


class ImportResolver(ast.NodeVisitor):
    """Map local names to fully qualified module paths.

    ``import numpy as np`` → ``np: numpy``;
    ``from datetime import datetime`` → ``datetime: datetime.datetime``.
    Relative imports resolve to ``.``-prefixed paths, which never collide
    with the absolute stdlib/numpy prefixes the rules look for:
    ``from .mod import x`` → ``.mod.x`` and ``from . import x`` → ``.x``
    (the dots count package levels, as in the import itself).
    """

    def __init__(self) -> None:
        self.names: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            self.names[local] = alias.name if alias.asname else \
                alias.name.split(".", 1)[0]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        prefix = "." * node.level + (f"{node.module}." if node.module else "")
        for alias in node.names:
            self.names[alias.asname or alias.name] = prefix + alias.name


def resolve_dotted(node: ast.expr, names: dict[str, str]) -> str | None:
    """Best-effort fully qualified name of an attribute chain."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    root = names.get(cur.id, cur.id)
    return ".".join([root] + list(reversed(parts)))


def iter_scope(node: ast.AST):
    """Yield the nodes of one function/lambda/module scope in AST order,
    without descending into nested function or lambda scopes (those are
    indexed as their own :class:`FunctionInfo` and analyzed separately)."""
    todo = list(ast.iter_child_nodes(node))
    i = 0
    while i < len(todo):
        n = todo[i]
        i += 1
        yield n
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.Lambda)):
            continue
        todo.extend(ast.iter_child_nodes(n))


@dataclass(frozen=True, eq=False)
class FunctionInfo:
    """One indexed function-like scope (def, method, nested def, lambda)."""

    fid: str            #: stable id ``<module relpath>::<qualname>``
    module: str         #: package-relative path, forward slashes
    qualname: str       #: ``func`` / ``Cls.method`` / ``outer.inner``
    lineno: int
    class_name: str | None
    node: ast.AST       #: FunctionDef | AsyncFunctionDef | Lambda


@dataclass
class ModuleInfo:
    """Everything the graph knows about one parsed module."""

    relpath: str
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    #: qualname -> info, every function-like scope at any nesting
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    #: class name -> local/imported base names
    class_bases: dict[str, list[str]] = field(default_factory=dict)
    #: per enclosing function qualname: local name -> callee qualname
    local_defs: dict[str, dict[str, str]] = field(default_factory=dict)
    #: module-level names bound to tuples/lists/dicts of local functions
    dispatch_tables: dict[str, list[str]] = field(default_factory=dict)
    #: names assigned at module level
    module_globals: set[str] = field(default_factory=set)
    #: module globals rebound via a ``global`` statement in some function
    mutated_globals: set[str] = field(default_factory=set)


def _base_names(cls: ast.ClassDef) -> list[str]:
    out = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            out.append(base.id)
        elif isinstance(base, ast.Attribute):
            out.append(base.attr)
    return out


class _Indexer:
    """Recursive walk recording every function-like scope of a module."""

    def __init__(self, minfo: ModuleInfo) -> None:
        self.m = minfo

    def _record(self, qualname: str, node: ast.AST,
                class_name: str | None) -> FunctionInfo:
        info = FunctionInfo(fid=f"{self.m.relpath}::{qualname}",
                            module=self.m.relpath, qualname=qualname,
                            lineno=node.lineno, class_name=class_name,
                            node=node)
        self.m.functions[qualname] = info
        return info

    def walk(self, node: ast.AST, prefix: str,
             class_name: str | None, enclosing: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                self._record(qual, child, class_name)
                if enclosing is not None:
                    self.m.local_defs.setdefault(
                        enclosing, {})[child.name] = qual
                self.walk(child, f"{qual}.", None, qual)
            elif isinstance(child, ast.ClassDef):
                if enclosing is None and class_name is None:
                    self.m.classes[child.name] = child
                    self.m.class_bases[child.name] = _base_names(child)
                self.walk(child, f"{prefix}{child.name}.",
                          child.name, enclosing)
            elif isinstance(child, ast.Lambda):
                qual = f"{prefix}<lambda:{child.lineno}>"
                self._record(qual, child, class_name)
                if enclosing is not None:
                    self.m.local_defs.setdefault(enclosing, {})
                self.walk(child, f"{qual}.", None, qual)
            else:
                # name = lambda ... binds a resolvable local callee
                if isinstance(child, ast.Assign) \
                        and isinstance(child.value, ast.Lambda) \
                        and enclosing is not None:
                    for t in child.targets:
                        if isinstance(t, ast.Name):
                            self.m.local_defs.setdefault(
                                enclosing, {})[t.id] = \
                                f"{prefix}<lambda:{child.value.lineno}>"
                self.walk(child, prefix, class_name, enclosing)


def _collect_globals(minfo: ModuleInfo) -> None:
    for node in minfo.tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for t in targets:
            if isinstance(t, ast.Name):
                minfo.module_globals.add(t.id)
    for node in ast.walk(minfo.tree):
        if isinstance(node, ast.Global):
            minfo.mutated_globals.update(node.names)


def _collect_lazy_exports(minfo: ModuleInfo) -> None:
    """Module-level ``... = lazy_exports(__name__, {name: submodule})``:
    each entry binds ``name`` as ``from .submodule import name`` would
    (an entry naming its own submodule binds the submodule)."""
    for node in minfo.tree.body:
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and len(node.value.args) == 2
                and isinstance(node.value.args[1], ast.Dict)):
            continue
        func = resolve_dotted(node.value.func, minfo.imports)
        if func is None or func.rsplit(".", 1)[-1] != "lazy_exports":
            continue
        table = node.value.args[1]
        for key, value in zip(table.keys, table.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str) \
                    and isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                name, sub = key.value, value.value
                minfo.imports.setdefault(
                    name, f".{sub}" if sub == name else f".{sub}.{name}")


def _collect_dispatch_tables(minfo: ModuleInfo) -> None:
    """Module-level ``NAME = (f, g, ...)`` / ``{...: f}`` tables whose
    members are local module-level functions."""
    for node in minfo.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name, value = node.targets[0].id, node.value
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and node.value is not None:
            name, value = node.target.id, node.value
        else:
            continue
        if not isinstance(value, (ast.Tuple, ast.List, ast.Dict)):
            continue
        members = []
        for sub in ast.walk(value):
            if isinstance(sub, ast.Name) and sub.id in minfo.functions:
                members.append(sub.id)
        if members:
            minfo.dispatch_tables[name] = sorted(set(members))


class PackageGraph:
    """Parsed modules of one package plus cross-module call resolution."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.modules: dict[str, ModuleInfo] = {}

    # ------------------------------------------------------------- build
    @classmethod
    def build(cls, root: str | Path) -> "PackageGraph":
        graph = cls(Path(root))
        for path in sorted(graph.root.rglob("*.py")):
            relpath = path.relative_to(graph.root).as_posix()
            try:
                tree = ast.parse(path.read_text(), filename=relpath)
            except SyntaxError:
                continue  # R000 reports it; nothing to index
            graph._index_module(relpath, tree)
        return graph

    @classmethod
    def from_sources(cls, sources: dict[str, str],
                     root: str | Path = ".") -> "PackageGraph":
        """Build from in-memory ``{relpath: source}`` (tests)."""
        graph = cls(Path(root))
        for relpath in sorted(sources):
            try:
                tree = ast.parse(sources[relpath], filename=relpath)
            except SyntaxError:
                continue
            graph._index_module(relpath, tree)
        return graph

    def _index_module(self, relpath: str, tree: ast.Module) -> None:
        resolver = ImportResolver()
        resolver.visit(tree)
        minfo = ModuleInfo(relpath=relpath, tree=tree,
                           imports=resolver.names)
        _collect_lazy_exports(minfo)
        _Indexer(minfo).walk(tree, "", None, None)
        _collect_globals(minfo)
        _collect_dispatch_tables(minfo)
        self.modules[relpath] = minfo

    # --------------------------------------------------------- resolution
    def _normalize(self, dotted: str, module_relpath: str
                   ) -> list[str] | None:
        """Dotted import path -> package-relative parts, or None if the
        target lives outside this package."""
        if dotted.startswith("."):
            level = len(dotted) - len(dotted.lstrip("."))
            rest = [p for p in dotted.lstrip(".").split(".") if p]
            pkg_parts = module_relpath.split("/")[:-1]
            up = level - 1
            if up > len(pkg_parts):
                return None
            return pkg_parts[:len(pkg_parts) - up] + rest
        parts = dotted.split(".")
        if parts[0] == "repro":
            return parts[1:]
        return None

    def _find_module(self, parts: list[str]
                     ) -> tuple[str, list[str]] | None:
        """Longest prefix of ``parts`` naming a module; rest is a symbol
        path within it."""
        for cut in range(len(parts), 0, -1):
            stem = "/".join(parts[:cut])
            for candidate in (f"{stem}.py", f"{stem}/__init__.py"):
                if candidate in self.modules:
                    return candidate, parts[cut:]
        if parts:  # symbols of the package root __init__
            if "__init__.py" in self.modules:
                return "__init__.py", parts
        return None

    def _symbol_in(self, relpath: str, sym_parts: list[str],
                   depth: int = 0) -> FunctionInfo | None:
        """A function/class-constructor named by ``sym_parts`` inside the
        module at ``relpath``, following one re-export hop per level."""
        if not sym_parts or depth > 8:
            return None
        minfo = self.modules.get(relpath)
        if minfo is None:
            return None
        qual = ".".join(sym_parts)
        hit = minfo.functions.get(qual)
        if hit is not None:
            return hit
        head = sym_parts[0]
        if head in minfo.classes:
            init = minfo.functions.get(f"{head}.__init__")
            if len(sym_parts) == 1:
                return init
            meth = minfo.functions.get(qual)
            return meth
        # re-export: the module imported the symbol from elsewhere
        if head in minfo.imports:
            dotted = minfo.imports[head]
            parts = self._normalize(dotted, relpath)
            if parts is None:
                return None
            found = self._find_module(parts + sym_parts[1:])
            if found is None:
                return None
            target, rest = found
            if not rest:
                return None
            return self._symbol_in(target, rest, depth + 1)
        return None

    def resolve_symbol(self, module_relpath: str,
                       dotted: str) -> FunctionInfo | None:
        """Resolve a fully qualified dotted name (as produced by
        :func:`resolve_dotted` against a module's import map) to a package
        function, or None for external/unresolvable names."""
        parts = self._normalize(dotted, module_relpath)
        if parts is None:
            return None
        found = self._find_module(parts)
        if found is None:
            return None
        relpath, sym = found
        if not sym:
            return None
        return self._symbol_in(relpath, sym)

    def _method_on(self, minfo: ModuleInfo, class_name: str,
                   attr: str, depth: int = 0) -> FunctionInfo | None:
        """``self.attr`` lookup on a class, with base-class fallback."""
        if depth > 4:
            return None
        hit = minfo.functions.get(f"{class_name}.{attr}")
        if hit is not None:
            return hit
        for base in minfo.class_bases.get(class_name, ()):
            if base in minfo.classes:
                hit = self._method_on(minfo, base, attr, depth + 1)
                if hit is not None:
                    return hit
            elif base in minfo.imports:
                parts = self._normalize(minfo.imports[base], minfo.relpath)
                if parts is None:
                    continue
                found = self._find_module(parts)
                if found is None or not found[1]:
                    continue
                target = self.modules.get(found[0])
                if target is not None:
                    hit = self._method_on(target, found[1][0], attr,
                                          depth + 1)
                    if hit is not None:
                        return hit
        return None

    def resolve_call(self, minfo: ModuleInfo, call: ast.Call,
                     enclosing: FunctionInfo | None
                     ) -> list[FunctionInfo]:
        """The package functions one call may invoke (empty if external or
        unresolvable).  ``TABLE[i](...)`` dispatch returns every member."""
        func = call.func
        # dispatch through a module-level table of functions
        if isinstance(func, ast.Subscript) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in minfo.dispatch_tables:
            out = []
            for qual in minfo.dispatch_tables[func.value.id]:
                info = minfo.functions.get(qual)
                if info is not None:
                    out.append(info)
            return out
        if isinstance(func, ast.Name):
            name = func.id
            if enclosing is not None:
                local = minfo.local_defs.get(enclosing.qualname, {})
                if name in local:
                    hit = minfo.functions.get(local[name])
                    return [hit] if hit else []
            if name in minfo.functions:
                return [minfo.functions[name]]
            if name in minfo.classes:
                hit = minfo.functions.get(f"{name}.__init__")
                return [hit] if hit else []
            if name in minfo.imports:
                hit = self.resolve_symbol(minfo.relpath,
                                          minfo.imports[name])
                return [hit] if hit else []
            return []
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) \
                    and func.value.id in ("self", "cls") \
                    and enclosing is not None \
                    and enclosing.class_name is not None:
                hit = self._method_on(minfo, enclosing.class_name,
                                      func.attr)
                return [hit] if hit else []
            dotted = resolve_dotted(func, minfo.imports)
            if dotted is not None:
                hit = self.resolve_symbol(minfo.relpath, dotted)
                return [hit] if hit else []
        return []

    # --------------------------------------------------------- iteration
    def sorted_functions(self) -> list[FunctionInfo]:
        """Every indexed function, ordered by (module, qualname) — the
        canonical iteration order that keeps derived artifacts stable."""
        out: list[FunctionInfo] = []
        for relpath in sorted(self.modules):
            minfo = self.modules[relpath]
            for qual in sorted(minfo.functions):
                out.append(minfo.functions[qual])
        return out

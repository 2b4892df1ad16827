"""Orchestrates all three analysis layers and applies the baseline.

:func:`run_check` is the engine behind ``repro check`` and the CI ``check``
job: it lints the ``repro`` package (R00x rules), verifies the Workload
contracts and the TC/CC MMA call graph (R004-R006), optionally runs the
interprocedural determinism proof engine (D001/D002, D005/D006 and R009,
plus the ``determinism_facts.json`` artifact), runs the dynamic
warp-hazard battery (H00x rules), folds the checked-in baseline in, and
returns a :class:`CheckReport` that renders to text or JSON.

Per-file lint parses independently, so each module is one ``lint:<path>``
node of a task graph (``repro check --jobs N`` runs it on N processes).
This process reads every file and passes its text in, so a node reads no
file itself.  Results merge in (path, line, rule, symbol) order and
dedupe on (rule, path, line, symbol), so check output is bit-stable
regardless of job count — the same serial==parallel contract the graph
scheduler gives every other subsystem.

Exit-code contract: the check *fails* (``report.ok is False``) iff any
error-severity finding is not covered by the baseline.  Warnings are
reported but do not gate.  Stale baseline entries do not flip ``ok`` (the
report stays a faithful description of findings) but the CLI exits
nonzero on them unless ``--prune-baseline`` rewrites the baseline —
see :func:`repro.cli.cmd_check`.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..graph import GraphScheduler, TaskGraph, TaskNode
from .contracts import contract_findings
from .determinism import analyze_package
from .dynamic import run_dynamic
from .findings import (
    Baseline,
    Finding,
    Suppression,
    apply_baseline,
    dedupe_findings,
)
from .lint import lint_source

__all__ = ["CheckReport", "run_check", "default_baseline_path",
           "package_root"]


def package_root() -> Path:
    """The installed ``repro`` package directory (lint root)."""
    import repro
    return Path(repro.__file__).resolve().parent


def default_baseline_path() -> Path:
    """``check_baseline.json`` at the repository root (``src/../..``)."""
    return package_root().parents[1] / "check_baseline.json"


def _check_file(relpath: str, source: str) -> list[Finding]:
    """Static findings of one module's ``source``: lint rules plus (for
    kernels/) the contract rules.  The ``lint:<relpath>`` node
    callable."""
    findings = lint_source(source, relpath)
    if relpath.startswith("kernels/") and relpath != "kernels/base.py" \
            and "/" not in relpath[len("kernels/"):]:
        try:
            tree = ast.parse(source, filename=relpath)
        except SyntaxError:
            pass  # lint_source already reported R000
        else:
            findings.extend(contract_findings(tree, relpath))
    return findings


def _static_findings(root: Path, n_jobs: int | None) -> list[Finding]:
    """Lint + contracts over every module, one graph node per module.

    Findings merge in deterministic (path, line, rule, symbol) order and
    are deduped, so output is identical for any job count.
    """
    graph = TaskGraph()
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        graph.add(TaskNode(key=f"lint:{relpath}", kind="lint",
                           fn=_check_file,
                           args=(relpath, path.read_text(encoding="utf-8")),
                           label=relpath))
    per_file = GraphScheduler(n_jobs or 1).run(graph)
    findings = [f for node in graph for f in per_file[node.key]]
    findings.sort(key=lambda f: (f.path, f.line or 0, f.rule, f.symbol))
    return dedupe_findings(findings)


@dataclass
class CheckReport:
    """Everything one ``repro check`` run produced."""

    active: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    unused_suppressions: list[Suppression] = field(default_factory=list)
    #: dynamic-battery coverage counters (0 when the battery was skipped)
    sanitized_accesses: int = 0
    sanitized_syncs: int = 0
    #: ``determinism_facts.json`` payload (None when the layer was skipped)
    facts: dict | None = None
    determinism_functions: int = 0
    determinism_modules: int = 0

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.active)

    @property
    def all_findings(self) -> list[Finding]:
        return self.active + self.suppressed

    def to_dict(self) -> dict:
        out = {
            "ok": self.ok,
            "active": [f.to_dict() for f in self.active],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "unused_suppressions": [
                {"rule": s.rule, "path": s.path, "symbol": s.symbol,
                 "justification": s.justification}
                for s in self.unused_suppressions],
            "sanitized_accesses": self.sanitized_accesses,
            "sanitized_syncs": self.sanitized_syncs,
        }
        if self.facts is not None:
            out["determinism"] = {
                "modules_analyzed": self.determinism_modules,
                "functions_analyzed": self.determinism_functions,
                "impure_functions": sorted(
                    fid for fid, e in self.facts["purity"].items()
                    if not e["pure"]),
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines: list[str] = []
        for f in self.active:
            lines.append(f.format())
        for f in self.suppressed:
            lines.append(f.format(prefix="[baselined] "))
        for s in self.unused_suppressions:
            lines.append(f"{s.path}: {s.rule} [info] {s.symbol}: stale "
                         "baseline entry matched no finding; prune it")
        n_err = sum(f.severity == "error" for f in self.active)
        n_warn = sum(f.severity == "warning" for f in self.active)
        lines.append(
            f"{'OK' if self.ok else 'FAIL'}: {n_err} error(s), "
            f"{n_warn} warning(s), {len(self.suppressed)} baselined, "
            f"{len(self.unused_suppressions)} stale suppression(s); "
            f"sanitized {self.sanitized_accesses} warp accesses across "
            f"{self.sanitized_syncs} sync epochs")
        if self.facts is not None:
            impure = sum(1 for e in self.facts["purity"].values()
                         if not e["pure"])
            lines.append(
                f"determinism: {self.determinism_functions} functions "
                f"across {self.determinism_modules} modules analyzed, "
                f"{impure} impure (facts exportable via --facts)")
        return "\n".join(lines)


def run_check(root: str | Path | None = None,
              baseline: Baseline | str | Path | None = None,
              lint: bool = True,
              dynamic: bool = True,
              workloads: list[str] | None = None,
              determinism: bool = False,
              n_jobs: int | None = None) -> CheckReport:
    """Run the full analysis.

    ``root`` is the ``repro`` package directory (defaults to the installed
    one); ``baseline`` is a :class:`Baseline`, a path, or None for the
    checked-in default.  ``workloads`` restricts the dynamic battery.
    ``determinism`` adds the interprocedural D-rule layer and populates
    ``report.facts``.  ``n_jobs`` runs the per-file static analysis
    graph on that many processes (None/1 = serial in-process).
    """
    root = package_root() if root is None else Path(root)
    if baseline is None:
        baseline = Baseline.load(default_baseline_path())
    elif not isinstance(baseline, Baseline):
        baseline = Baseline.load(baseline)

    findings: list[Finding] = []
    report = CheckReport()
    if lint:
        findings.extend(_static_findings(root, n_jobs))
    if determinism:
        det = analyze_package(root)
        findings.extend(det.findings)
        report.facts = det.facts
        report.determinism_functions = det.functions_analyzed
        report.determinism_modules = det.modules_analyzed
    if dynamic:
        sanitizer = run_dynamic(workloads)
        findings.extend(sanitizer.findings())
        report.sanitized_accesses = sanitizer.accesses
        report.sanitized_syncs = sanitizer.syncs

    findings = dedupe_findings(findings)
    active, suppressed, unused = apply_baseline(findings, baseline)
    report.active = active
    report.suppressed = suppressed
    report.unused_suppressions = unused
    return report

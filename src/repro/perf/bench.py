"""Cold/warm pipeline benchmarking — the ``BENCH_perf.json`` emitter.

Each named bench is one CLI invocation (a fresh interpreter, so in-memory
memoization never leaks between measurements).  *Cold* runs against an
empty cache directory; *warm* repeats the identical invocation against the
directory the cold run populated.  The resulting JSON records absolute
wall-clock plus the warm/cold ratio so future PRs can track the perf
trajectory of the evaluation engine.

With ``profile=True`` the cold invocation additionally dumps its per-stage
wall-clock registry (via the ``REPRO_STAGE_JSON`` hook in the CLI) and the
result carries a ``profile`` block: the raw nested stages, per-group sums
of *self* seconds (``plan-build`` / ``sweep-execute`` / ``dataset-gen`` /
``accuracy-audit`` / ``observation-audit`` / ...), and a ``coverage``
ratio — attributed self-seconds over the subprocess's whole wall-clock.
Self seconds partition time exactly (children are excluded from their
parents), so ``other = wall - attributed`` is genuinely unattributed work:
interpreter startup not captured by ``cli.startup``, CLI glue, and any
code path still missing a ``stage(...)`` scope.  :func:`check_regression`
compares cold times against a checked-in baseline with a tolerance and
enforces the baseline's absolute ``budgets`` (max cold/warm seconds,
minimum coverage) — the CI perf gate.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

__all__ = ["BENCHES", "PROFILE_GROUPS", "run_bench", "write_bench_json",
           "check_regression", "profile_coverage"]

#: bench name -> ``python -m repro`` argument list.  ``observations`` is
#: the nine-observation audit, ``perf`` the Figures 3-6 grid
#: (``run_performance``), ``power`` the Figure 7 EDP figure bench.
BENCHES: dict[str, tuple[str, ...]] = {
    "observations": ("observations",),
    "run_performance": ("perf",),
    "fig7_edp": ("power", "--gpu", "H200"),
}


def _invoke(args: tuple[str, ...], cache_dir: str,
            stage_json: str | None = None,
            jobs: int | None = None) -> float:
    """Run one CLI invocation in a fresh interpreter; returns wall-clock."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = cache_dir
    if jobs is not None:
        env["REPRO_JOBS"] = str(jobs)
    if stage_json is not None:
        env["REPRO_STAGE_JSON"] = stage_json
    else:
        env.pop("REPRO_STAGE_JSON", None)
    src = str(Path(__file__).resolve().parent.parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # spawn timestamp: the CLI charges spawn -> main() as ``cli.startup``
    # (time.time(), not perf_counter — it must compare across processes)
    env["REPRO_BENCH_T0"] = repr(time.time())
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "repro", *args],
                         env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench command {' '.join(args)!r} failed "
            f"(rc={proc.returncode}):\n{proc.stderr[-2000:]}")
    return wall


#: profile group -> leaf-stage-name prefixes whose *self* seconds it sums.
#: First match wins; stage paths are matched on their leaf name, so a
#: ``datasets.generate_matrix`` nested anywhere still lands in
#: ``dataset-gen``.  Anything unmatched is attributed under ``attributed``
#: but grouped as ``misc``; ``other`` is wall minus all attributed time.
PROFILE_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("plan-build", ("plan-build",)),
    ("sweep-execute", ("sweep-execute", "sweep-point")),
    ("model-resolve", ("model-resolve",)),
    ("dataset-gen", ("datasets.", "dataset-gen")),
    ("accuracy-audit", ("accuracy.", "analysis.accuracy_table",
                        "accuracy-audit")),
    ("observation-audit", ("verify.", "analysis.verify_all",
                           "observation-audit")),
    ("analytic-stats", ("analytic-stats", "kernels.analytic_stats")),
    ("refinement", ("refine.",)),
    ("ozaki", ("ozaki.",)),
    ("analysis", ("analysis.",)),
    ("harness", ("harness.",)),
    ("graph", ("graph",)),
    ("startup", ("cli.startup",)),
)


def _group_of(leaf: str) -> str:
    for group, prefixes in PROFILE_GROUPS:
        if any(leaf.startswith(p) for p in prefixes):
            return group
    return "misc"


def _group_stages(stages: dict[str, dict],
                  wall: float | None = None) -> dict[str, float]:
    """Sum per-stage *self* seconds into the attribution groups.

    Self seconds partition wall-clock, so the groups are additive and
    ``other`` (``wall`` minus everything attributed) is real unattributed
    time, not double-counted nesting.
    """
    groups = dict.fromkeys([g for g, _ in PROFILE_GROUPS] + ["misc"], 0.0)
    for name, rec in stages.items():
        leaf = name.rsplit("/", 1)[-1]
        own = float(rec.get("self_seconds", rec.get("seconds", 0.0)))
        groups[_group_of(leaf)] += own
    attributed = sum(groups.values())
    if wall is not None:
        groups["other"] = max(wall - attributed, 0.0)
    return {k: round(v, 3) for k, v in groups.items() if v > 0.0
            or k == "other"}


def profile_coverage(stages: dict[str, dict], wall: float) -> float:
    """Attributed self-seconds over subprocess wall-clock, in [0, 1]."""
    attributed = sum(
        float(rec.get("self_seconds", rec.get("seconds", 0.0)))
        for rec in stages.values())
    return min(attributed / wall, 1.0) if wall > 0 else 0.0


def run_bench(names: list[str] | None = None,
              cache_dir: str | Path | None = None,
              profile: bool = False,
              jobs: int | None = None) -> dict[str, dict]:
    """Measure cold and warm wall-clock for the selected benches.

    With no ``cache_dir`` a fresh temporary directory is used (true cold
    start) and removed afterwards.  ``profile=True`` attaches the cold
    run's per-stage wall-clock to each result.  ``jobs`` pins the bench
    subprocesses' worker count (exported as ``REPRO_JOBS``), and when the
    invocation executed a task graph, the graph meta — including the
    ``overlap_ratio`` figure of merit — is lifted to the result's top
    level for the ``--check`` gate.
    """
    names = list(BENCHES) if names is None else names
    for name in names:
        if name not in BENCHES:
            raise ValueError(
                f"unknown bench {name!r}; available: {sorted(BENCHES)}")
    results: dict[str, dict] = {}
    ctx = tempfile.TemporaryDirectory(prefix="repro-bench-") \
        if cache_dir is None else None
    root = Path(ctx.name) if ctx else Path(cache_dir)
    try:
        for name in names:
            bench_cache = root / name
            bench_cache.mkdir(parents=True, exist_ok=True)
            stage_json = bench_cache / "stages_cold.json" if profile \
                else None
            cold = _invoke(BENCHES[name], str(bench_cache),
                           stage_json=str(stage_json) if stage_json
                           else None, jobs=jobs)
            warm = _invoke(BENCHES[name], str(bench_cache), jobs=jobs)
            results[name] = {
                "args": list(BENCHES[name]),
                "cold_s": round(cold, 3),
                "warm_s": round(warm, 3),
                "warm_speedup": round(cold / warm, 2) if warm > 0 else None,
            }
            if stage_json is not None and stage_json.exists():
                dump = json.loads(stage_json.read_text(encoding="utf-8"))
                stages = dump.get("stages", dump)
                results[name]["profile"] = {
                    "coverage": round(profile_coverage(stages, cold), 3),
                    "groups": _group_stages(stages, wall=cold),
                    "stages": {
                        n: {"seconds": round(float(r["seconds"]), 3),
                            "self_seconds": round(
                                float(r.get("self_seconds",
                                            r["seconds"])), 3),
                            "calls": r["calls"]}
                        for n, r in sorted(stages.items())},
                }
                meta = dump.get("meta")
                if meta:
                    results[name]["profile"]["meta"] = meta
                    graph = meta.get("graph")
                    if isinstance(graph, dict):
                        results[name]["overlap_ratio"] = \
                            graph.get("overlap_ratio")
                        results[name]["graph_workers"] = \
                            graph.get("workers")
    finally:
        if ctx:
            ctx.cleanup()
    return results


def check_regression(results: dict[str, dict],
                     baseline_path: str | Path,
                     tolerance: float = 0.25,
                     require_budgets: bool = False) -> list[str]:
    """Compare cold times against a checked-in bench baseline.

    Returns one message per bench whose cold wall-clock exceeds the
    baseline by more than ``tolerance`` (fractional).  Benches absent from
    the baseline pass (new benches cannot regress); a missing baseline
    file is itself an issue so CI cannot silently skip the gate.

    The baseline's optional ``budgets`` block adds absolute bounds per
    bench: ``cold_max_s`` / ``warm_max_s`` caps, ``min_coverage``
    (enforced only when the run carries a profile — coverage needs
    ``--profile``'s stage dump to exist), and ``min_overlap_ratio`` (the
    task-graph figure of merit; enforced only when the run recorded an
    overlap *and* the graph actually had multiple workers — a serial
    schedule cannot overlap).  Every budget violation reports the budget,
    the measured value, and the delta, so a red gate reads without
    cross-referencing the baseline.

    ``require_budgets=True`` (the ``repro bench --check`` default) adds a
    diagnostic for every measured bench with no budgets entry — a gate
    that silently bounds nothing is itself a regression.
    """
    path = Path(baseline_path)
    if not path.exists():
        return [f"bench baseline {path} not found"]
    doc = json.loads(path.read_text(encoding="utf-8"))
    base = doc.get("benches", {})
    budgets = doc.get("budgets", {})
    issues: list[str] = []
    for name in sorted(results):
        ref = base.get(name, {}).get("cold_s")
        cold = float(results[name]["cold_s"])
        if ref is not None:
            limit = float(ref) * (1.0 + tolerance)
            if cold > limit:
                issues.append(
                    f"{name}: cold {cold:.1f}s exceeds baseline {ref:.1f}s "
                    f"by more than {tolerance:.0%} (limit {limit:.1f}s, "
                    f"delta {cold - limit:+.1f}s)")
        budget = budgets.get(name, {})
        if require_budgets and not budget:
            issues.append(
                f"{name}: no budgets defined in {path} — the gate bounds "
                f"nothing for this bench (add a budgets.{name} block)")
        cold_max = budget.get("cold_max_s")
        if cold_max is not None and cold > float(cold_max):
            issues.append(
                f"{name}: cold {cold:.1f}s over the {float(cold_max):.1f}s "
                f"budget (delta {cold - float(cold_max):+.1f}s)")
        warm_max = budget.get("warm_max_s")
        warm = results[name].get("warm_s")
        if warm_max is not None and warm is not None \
                and float(warm) > float(warm_max):
            issues.append(
                f"{name}: warm {float(warm):.1f}s over the "
                f"{float(warm_max):.1f}s budget "
                f"(delta {float(warm) - float(warm_max):+.1f}s)")
        min_cov = budget.get("min_coverage")
        coverage = results[name].get("profile", {}).get("coverage")
        if min_cov is not None and coverage is not None \
                and float(coverage) < float(min_cov):
            issues.append(
                f"{name}: profile coverage {float(coverage):.2f} below "
                f"the {float(min_cov):.2f} floor "
                f"(delta {float(coverage) - float(min_cov):+.2f}) — stage "
                f"attribution regressed")
        min_overlap = budget.get("min_overlap_ratio")
        overlap = results[name].get("overlap_ratio")
        workers = results[name].get("graph_workers")
        if min_overlap is not None and overlap is not None \
                and workers is not None and int(workers) > 1 \
                and float(overlap) < float(min_overlap):
            issues.append(
                f"{name}: graph overlap {float(overlap):.2f}x below the "
                f"{float(min_overlap):.2f}x floor "
                f"(delta {float(overlap) - float(min_overlap):+.2f}) with "
                f"{int(workers)} workers — pipeline stages stopped "
                f"overlapping")
    return issues


def write_bench_json(path: str | Path, results: dict[str, dict],
                     baseline: dict | None = None,
                     budgets: dict | None = None) -> Path:
    """Write ``BENCH_perf.json``: host metadata + bench results.

    The checked-in file doubles as the ``--check`` baseline, so the
    hand-maintained ``budgets`` block survives a rewrite: when the target
    already exists, its budgets carry over unless new ones are passed.
    """
    out = Path(path)
    if budgets is None and out.exists():
        try:
            budgets = json.loads(
                out.read_text(encoding="utf-8")).get("budgets")
        except (OSError, json.JSONDecodeError):
            budgets = None
    payload = {
        "schema": 2,
        "suite": "repro evaluation engine",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "benches": results,
    }
    if budgets:
        payload["budgets"] = budgets
    if baseline:
        payload["seed_baseline"] = baseline
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return out

"""One workload pass in a fresh interpreter.

``python -m perfbench.child MODE [--jobs N] [--seed S] [--trace-dir D]``
with ``REPRO_CACHE_DIR`` set by the caller.  Modes:

* ``setup`` — start-up only: imports, then report (extra ``setup_s``
  samples for ``audit_cold``, whose set-up is exactly that);
* ``datasets`` — the ``grid_warm`` set-up: generate every dataset the
  analytic pipelines read, through the public generators only;
* ``audit_cold`` — ``verify_all`` and its output checks;
* ``grid_warm`` — the Figures 3-9 analytic pipelines and their checks;
* ``record`` — write ``grid_digests.json`` from a serial grid pass (run
  once when the expected answers legitimately change).

The last stdout line is a JSON report: timestamps (``time.time``, so the
caller can compare them with its spawn time), CPU seconds, peak RSS,
check counts and, with ``--trace-dir``, the tracer's record.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from perfbench.common import ROOT, digest, dir_bytes
from perfbench.streams import whatif_batch, whatif_catalogue

GRID_DIGESTS = Path(__file__).with_name("grid_digests.json")
ACCURACY_DIGESTS = ROOT / "tests" / "kernels" / "accuracy_digests.json"


def _cpu_s(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


class Checks:
    """Output checks: every one is attempted, none is skipped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(what)


# ------------------------------------------------------------- datasets

def make_datasets() -> int:
    """Generate every matrix and graph the analytic grid reads."""
    from repro.datasets import (BFS_GRAPHS, SPMV_MATRICES, generate_graph,
                                generate_matrix)
    for info in SPMV_MATRICES:
        generate_matrix(info.name)
    for info in BFS_GRAPHS:
        generate_graph(info.name)
    return len(SPMV_MATRICES) + len(BFS_GRAPHS)


# ---------------------------------------------------------------- audit

def table6_digest(entries) -> str:
    """The ``accuracy/<workload>`` digest of tests/kernels."""
    import hashlib

    import numpy as np
    h = hashlib.sha256()
    for e in entries:
        h.update(f"{e.workload}/{e.variant}/{e.samples}".encode())
        h.update(np.asarray((e.avg_error, e.max_error),
                            dtype=np.float64).tobytes())
    return h.hexdigest()


def audit(n_jobs: int, checks: Checks) -> int:
    """The nine-observation audit; returns the number of answers."""
    from repro.analysis.accuracy import accuracy_table
    from repro.analysis.observations import verify_all
    from repro.gpu import Device
    from repro.kernels import all_workloads

    results = verify_all(n_jobs=n_jobs)
    for r in results:
        checks.expect(bool(r.holds), f"observation {r.number} fails")
    checks.expect(len(results) == 9, f"{len(results)} observations, not 9")
    expected = json.loads(ACCURACY_DIGESTS.read_text())
    h200 = Device("H200")
    for w in all_workloads():
        if w.floating_point:
            got = table6_digest(accuracy_table(w, h200))
            checks.expect(got == expected[f"accuracy/{w.name}"],
                          f"Table 6 digest of {w.name} differs")
    return len(results)


# ----------------------------------------------------------------- grid

def grid_answers(whatif_indices: list[int], n_jobs: int) -> tuple[dict, int]:
    """The analytic pipelines; returns (digest per answer, answer count)."""
    from repro.analysis.edp import edp_study
    from repro.analysis.roofline import suite_roofline
    from repro.gpu import Device
    from repro.harness.runner import run_performance
    from repro.harness.whatif import evaluate_whatif, hypothetical
    from repro.kernels import Variant, all_workloads
    from repro.serve.queries import jsonable

    workloads = all_workloads()
    records = run_performance(n_jobs=n_jobs)
    out = {"perf": digest(jsonable(records))}
    count = len(records)
    for gpu in ("A100", "H200", "B200"):
        dev = Device(gpu)
        roof = suite_roofline(workloads, dev)
        out[f"roofline/{gpu}"] = digest(jsonable(roof))
        entries = [e for w in workloads for e in edp_study(w, dev)]
        out[f"edp/{gpu}"] = digest(jsonable(entries))
        count += len(roof.points) + len(entries)
    catalogue = whatif_catalogue()
    for i in whatif_indices:
        spec = catalogue[i]
        rows = evaluate_whatif(workloads, spec["base"],
                               hypothetical(spec["base"], **spec["scales"]),
                               Variant(spec["variant"]))
        out[f"whatif/{i}"] = digest(jsonable(rows))
        count += len(rows)
    return out, count


def grid(seed: int, n_jobs: int, checks: Checks) -> int:
    expected = json.loads(GRID_DIGESTS.read_text())
    got, count = grid_answers(whatif_batch(seed), n_jobs)
    for name, value in got.items():
        checks.expect(value == expected.get(name),
                      f"grid answer {name} differs from the recorded digest")
    return count


# ----------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.child")
    ap.add_argument("mode", choices=("setup", "datasets", "audit_cold",
                                     "grid_warm", "record"))
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace-dir", default=None)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace_dir:
        from perfbench.tracer import Tracer, install
        tracer = Tracer(Path(args.trace_dir))
    t0 = time.perf_counter()
    import repro.analysis.observations  # noqa: F401
    import repro.harness.runner  # noqa: F401
    import repro.serve.queries  # noqa: F401
    import_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.record("startup.import", "cli", import_s, import_s, True)
        t0 = time.perf_counter()
        install(tracer)
        install_s = time.perf_counter() - t0
        tracer.record("trace.install", "benchmark", install_s, install_s,
                      True)
    cache_dir = Path(os.environ["REPRO_CACHE_DIR"])
    bytes_before = dir_bytes(cache_dir) if tracer else 0

    checks = Checks()
    cpu_setup = _cpu_s(resource.RUSAGE_SELF)
    t_first = time.time()
    if args.mode == "setup":
        answers = 0
    elif args.mode == "datasets":
        answers = make_datasets()
    elif args.mode == "audit_cold":
        answers = audit(args.jobs, checks)
    elif args.mode == "grid_warm":
        answers = grid(args.seed, args.jobs, checks)
    else:
        got, answers = grid_answers(list(range(len(whatif_catalogue()))), 1)
        GRID_DIGESTS.write_text(json.dumps(got, indent=1, sort_keys=True)
                                + "\n")
    t_done = time.time()
    report = {
        "mode": args.mode, "import_s": import_s, "t_first": t_first,
        "t_done": t_done, "cpu_setup_s": cpu_setup,
        "cpu_self_s": _cpu_s(resource.RUSAGE_SELF),
        "cpu_children_s": _cpu_s(resource.RUSAGE_CHILDREN),
        "peak_rss_kb": _peak_rss_kb(), "answers": answers,
        "attempted": checks.attempted, "errors": checks.errors,
    }
    if tracer is not None:
        report["bytes_written"] = dir_bytes(cache_dir) - bytes_before
        tracer.flush()
        report["t_end"] = time.time()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

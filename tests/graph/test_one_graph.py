"""Every fan-out is one graph, run by the command that builds it.

No node starts a fan-out of its own: every ``GraphScheduler.run`` of the
parallel commands happens in the calling process, and O7 takes the
Table 6 rows on its graph edges, so a cold audit computes each table
exactly once whether or not the result cache can share them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis.accuracy import accuracy_tables
from repro.analysis.observations import verify_all
from repro.check.runner import run_check
from repro.graph import GraphScheduler
from repro.gpu import Device
from repro.harness.checkpoint import SweepJournal, resumable_sweep
from repro.kernels import all_workloads
from repro.perf.cache import ResultCache, set_default_cache


def _logging_run(run, log: Path):
    """``GraphScheduler.run`` that appends ``<pid> <workers>`` per run;
    pool workers are forked after the patch, so they log too."""

    def logged(self, graph):
        try:
            return run(self, graph)
        finally:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {self.last_stats.workers}\n")

    return logged


def test_no_graph_runs_inside_a_node(tmp_path, monkeypatch):
    log = tmp_path / "runs.log"
    monkeypatch.setattr(GraphScheduler, "run",
                        _logging_run(GraphScheduler.run, log))
    previous = set_default_cache(ResultCache(tmp_path / "cache"))
    try:
        verify_all(n_jobs=2)  # cold: the cache directory is empty
        accuracy_tables(all_workloads(), Device("H200"), n_jobs=2)
        resumable_sweep("gemm", Device("H200"),
                        journal=SweepJournal(tmp_path / "sweep.jsonl"),
                        n_jobs=2)
        run_check(dynamic=False, n_jobs=2)
    finally:
        set_default_cache(previous)
    runs = [tuple(int(v) for v in line.split())
            for line in log.read_text().splitlines()]
    assert runs == [(os.getpid(), 2)] * 4


def test_cold_audit_runs_each_accuracy_table_once(tmp_path):
    """With the disk cache off, no worker can read another's tables:
    ``accuracy.reference`` runs once per floating-point workload."""
    stages_json = tmp_path / "stages.json"
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "observations", "--jobs", "2"],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": src, "REPRO_CACHE": "0",
             "REPRO_CACHE_DIR": str(tmp_path / "cache"),
             "REPRO_STAGE_JSON": str(stages_json)})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    stages = json.loads(stages_json.read_text())["stages"]
    references = sum(s["calls"] for name, s in stages.items()
                     if name.rsplit("/", 1)[-1] == "accuracy.reference")
    fp = sum(w.floating_point for w in all_workloads())
    assert fp == 9
    assert references == fp

"""The repository benchmark: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload audit_cold --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` makes the traced run and prints the per-layer metrics.
Human-readable lines come first, then one JSON record with the host
fingerprint (``--out FILE`` also writes it), and last the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any output check fails and 2 when the benchmark cannot run.
``--compare A B`` prints the metric ratios of two saved records and
refuses records taken on different hosts.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (N_JOBS, ROOT, SRC, child_env,  # noqa: E402
                              comparable, digest, highest_percentile,
                              host_fingerprint, host_matmul_gflops, median,
                              percentile, run_child)
from perfbench import serve_load, streams, tracer as tracing  # noqa: E402

WORKLOADS = ("audit_cold", "grid_warm", "serve_zipf")

#: (name, unit) of every end-to-end metric
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
    ("throughput_qps", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"))

#: (name, unit) of every per-layer metric of the traced run
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("startup.import_s", "s"),
    ("datasets.matrix_calls", "count"), ("datasets.graph_calls", "count"),
    ("datasets.busy_s", "s"),
    ("gpu.plans", "count"), ("gpu.sweep_busy_s", "s"),
    ("gpu.sweep_gflop", "GFLOP"), ("gpu.sweep_gflops", "GFLOP/s"),
    ("gpu.plan_cache_hit_ratio", "ratio"), ("host.matmul_gflops", "GFLOP/s"),
    ("kernels.prepare_busy_s", "s"), ("kernels.reference_busy_s", "s"),
    ("kernels.execute_busy_s", "s"), ("kernels.analytic_stats_calls", "count"),
    ("kernels.analytic_stats_busy_s", "s"),
    ("accuracy.table_busy_s", "s"), ("accuracy.compare_s", "s"),
    ("harness.run_performance_busy_s", "s"), ("analysis.roofline_busy_s", "s"),
    ("analysis.edp_busy_s", "s"), ("harness.whatif_busy_s", "s"),
    ("graph.nodes", "count"), ("graph.run_s", "s"),
    ("graph.node_busy_s", "s"), ("graph.overhead_ms_per_node", "ms"),
    ("graph.retried_nodes", "count"), ("graph.speedup_vs_serial", "x"),
    ("cache.memory_hits", "count"), ("cache.disk_hits", "count"),
    ("cache.misses", "count"), ("cache.hit_ratio", "ratio"),
    ("cache.get_busy_s", "s"), ("cache.bytes_written", "B"),
    ("serve.served_by_model", "count"), ("serve.served_by_cache", "count"),
    ("serve.served_by_coalesced", "count"), ("serve.reuse_ratio", "ratio"),
    ("serve.hit_ms_p50", "ms"), ("serve.model_ms_p50", "ms"),
    ("fabric.hop_ms_p50", "ms"), ("fabric.failover_replays", "count"),
    ("loadgen.late_p99_ms", "ms"), ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)

#: extra start-up-only samples of ``audit_cold``'s ``setup_s`` per run
SETUP_PROBES = 12

# ------------------------------------------------------------ serve_zipf
#: requests per phase: warm-up (part of set-up), open loop, closed loop
WARMUP_N = 400
OPEN_N = 500
CLOSED_N = 3000
#: passes per run at least; latency percentiles pool the open-loop
#: samples of every pass, so a run keeps more than 10 beyond p99
SERVE_PASSES = 3
#: offered rate of the open loop, a constant never derived per run:
#: below half of the lowest closed-loop rate the parent commit sustained
#: on this stream under host contention (see README.md)
OPEN_RATE_QPS = 75.0
#: distinct cached queries timed through the router and direct
HOP_PROBE_N = 200


class Run:
    """One benchmark invocation: scratch space, counters, samples."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = ROOT / ".perfbench-work" / f"{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._dirs = 0
        self.attempted = 0
        self.errors: list[str] = []

    def fresh_dir(self, tag: str) -> Path:
        self._dirs += 1
        path = self.work / f"{tag}-{self._dirs}"
        path.mkdir()
        return path

    def count(self, attempted: int, errors: list[str]) -> None:
        self.attempted += attempted
        self.errors.extend(errors)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


# ------------------------------------------------------- child workloads

def _child_pass(run: Run, mode: str, jobs: int = N_JOBS,
                trace_dir: Path | None = None) -> dict[str, float]:
    """One cold audit or one warm grid pass in fresh interpreters."""
    cache = run.fresh_dir("cache")
    env = child_env(cache)
    extra = ["--trace-dir", str(trace_dir)] if trace_dir is not None else []
    reports = []
    if mode == "grid_warm":
        reports.append(run_child(["datasets", *extra], env))
    report, t_spawn = run_child(
        [mode, "--jobs", str(jobs), "--seed", str(run.seed), *extra], env)
    reports.append((report, t_spawn))
    run.count(report["attempted"], report["errors"])
    first_spawn = reports[0][1]
    wall = report["t_done"] - report["t_first"]
    sample = {
        "setup_s": report["t_first"] - first_spawn,
        "wall_s": wall,
        "cpu_s": report["cpu_self_s"] + report["cpu_children_s"]
        - report["cpu_setup_s"],
        "peak_rss_mb": max(r["peak_rss_kb"] for r, _ in reports) / 1024.0,
        "answers_per_s": report["answers"] / wall,
        "import_s": report["import_s"],
    }
    if trace_dir is not None:
        sample["traced_wall_s"] = sum(r["t_end"] - t for r, t in reports)
        sample["bytes_written"] = sum(r["bytes_written"] for r, _ in reports)
    shutil.rmtree(cache, ignore_errors=True)
    return sample


def _setup_probe(run: Run) -> float:
    """Spawn to the first call of a child that only starts up."""
    report, t_spawn = run_child(["setup"], child_env(run.fresh_dir("cache")))
    return report["t_first"] - t_spawn


def _child_metrics(samples: list[dict[str, float]],
                   setups: list[float]) -> dict[str, float]:
    walls = [s["wall_s"] for s in samples]
    return {
        "setup_s": median([s["setup_s"] for s in samples] + setups),
        "wall_s": median(walls),
        "cpu_s": median([s["cpu_s"] for s in samples]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
        "throughput_qps": median([s["answers_per_s"] for s in samples]),
        # one pass is one operation: its latency is its time to a verified
        # result; too few passes for a tail percentile, so the p99 slot
        # holds the slowest pass
        "latency_p50_ms": median(walls) * 1e3,
        "latency_p99_ms": max(walls) * 1e3,
    }


# ------------------------------------------------------------ serve_zipf

class ServeSetup:
    """The seed's stream and its in-process reference answers."""

    def __init__(self, run: Run) -> None:
        self.cache = run.fresh_dir("cache")
        os.environ["REPRO_CACHE_DIR"] = str(self.cache)
        sys.path.insert(0, str(SRC))
        from repro.serve.protocol import normalize_params
        from repro.serve.queries import resolve_query

        self.keys = streams.key_space(run.seed)
        self.stream = streams.zipf_stream(WARMUP_N + OPEN_N + CLOSED_N)

        def answer(kind: str, params: dict) -> str:
            return digest(resolve_query(kind, normalize_params(kind, params)))

        # the warm-up opens with the whole suite, so every seed's measured
        # phases start with all datasets loaded and every analytic counter
        # computed: first-touch cost stays in set-up
        self.suite = list(streams.SUITE_QUERIES)
        self.suite_expected = [answer(*q) for q in self.suite]
        answers: dict[int, str] = {}
        for idx in self.stream:
            if idx not in answers:
                answers[idx] = answer(*self.keys[idx])
        self.queries = [self.keys[i] for i in self.stream]
        self.expected = [answers[i] for i in self.stream]

    def phase(self, lo: int, hi: int) -> tuple[list, list]:
        return self.queries[lo:hi], self.expected[lo:hi]


def _serve_pass(run: Run, setup: ServeSetup,
                trace_dir: Path | None = None) -> dict[str, Any]:
    """Boot the fabric, warm it, run both loops, stop it."""
    service = serve_load.Service(setup.cache, run.work / "service.log",
                                 trace_dir)
    try:
        suite = serve_load.closed_loop(service.router, setup.suite,
                                       setup.suite_expected)
        warm = serve_load.closed_loop(service.router,
                                      *setup.phase(0, WARMUP_N))
        t_setup = time.time()
        cpu0 = service.mark()
        phase1 = serve_load.open_loop(
            service.router, *setup.phase(WARMUP_N, WARMUP_N + OPEN_N),
            OPEN_RATE_QPS)
        phase2 = serve_load.closed_loop(
            service.router, *setup.phase(WARMUP_N + OPEN_N, len(setup.queries)))
        cpu1 = service.mark()
        sample: dict[str, Any] = {}
        if trace_dir is not None:
            hop_idx = sorted(set(setup.stream[:WARMUP_N]))[:HOP_PROBE_N]
            via, direct, errors = serve_load.hop_probe(
                service, [setup.keys[i] for i in hop_idx],
                [setup.expected[setup.stream.index(i)] for i in hop_idx])
            run.count(2 * len(hop_idx), errors)
            sample["hop_ms"] = (via - direct) * 1e3
            sample["failover_replays"] = serve_load.router_counters(
                service).get("failover_replays_total", 0)
        final = service.stop()
    finally:
        service.close()
    for loop in (suite, warm, phase1, phase2):
        run.count(loop.attempted, loop.errors)
    sample.update({
        "setup_s": t_setup - service.t_spawn,
        "wall_s": phase2.wall_s,
        "cpu_s": cpu1["cpu_s"] - cpu0["cpu_s"],
        "peak_rss_mb": final["peak_rss_kb"] / 1024.0,
        "throughput_qps": phase2.attempted / phase2.wall_s,
        "latency_s": phase1.latency_s,
        "late_s": phase1.late_s,
        "phases": (phase1, phase2),
        "import_s": service.ready["import_s"],
    })
    return sample


def _pooled(samples: list[dict[str, Any]], key: str) -> list[float]:
    """Open-loop samples of every pass, checked to leave at least ten
    beyond p99."""
    pooled = [x for s in samples for x in s[key]]
    if (highest_percentile(len(pooled)) or 0.0) < 99.0:
        raise RuntimeError(f"{len(pooled)} open-loop samples leave fewer "
                           f"than 10 beyond p99")
    return pooled


def _serve_metrics(samples: list[dict[str, Any]]) -> dict[str, float]:
    latency = _pooled(samples, "latency_s")
    return {
        "setup_s": median([s["setup_s"] for s in samples]),
        "wall_s": median([s["wall_s"] for s in samples]),
        "cpu_s": median([s["cpu_s"] for s in samples]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
        "throughput_qps": median([s["throughput_qps"] for s in samples]),
        "latency_p50_ms": percentile(latency, 50.0) * 1e3,
        "latency_p99_ms": percentile(latency, 99.0) * 1e3,
    }


# ---------------------------------------------------------- measurement

def _repeat(run: Run, one_pass: Callable[[], dict],
            min_passes: int = 1) -> list[dict]:
    """Passes until ``--seconds`` have elapsed and ``min_passes`` ran."""
    samples: list[dict] = []
    t0 = time.perf_counter()
    while len(samples) < min_passes \
            or time.perf_counter() - t0 < run.seconds:
        samples.append(one_pass())
    return samples


def _shares(labels: list[str]) -> dict[str, float]:
    return {label: n / len(labels)
            for label, n in sorted(Counter(labels).items())}


def measure(run: Run) -> tuple[dict[str, float], dict[str, Any]]:
    """Untraced passes; returns (end-to-end metrics, detail)."""
    if run.workload == "serve_zipf":
        setup = ServeSetup(run)
        samples = _repeat(run, lambda: _serve_pass(run, setup),
                          SERVE_PASSES)
        detail = {"passes": [
            {k: s[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                               "throughput_qps")}
            | {"p50_ms": percentile(s["latency_s"], 50.0) * 1e3,
               "p90_ms": percentile(s["latency_s"], 90.0) * 1e3}
            for s in samples],
            "open_loop_samples": [len(s["latency_s"]) for s in samples],
            "repeat_share": streams.repeat_share(setup.stream),
            "served_by_share": _shares([by for s in samples
                                        for loop in s["phases"]
                                        for by in loop.served_by])}
        return _serve_metrics(samples), detail
    samples = _repeat(run, lambda: _child_pass(run, run.workload))
    setups = [_setup_probe(run) for _ in range(SETUP_PROBES)] \
        if run.workload == "audit_cold" else []
    return _child_metrics(samples, setups), {"passes": samples,
                                             "setup_probes_s": setups}


def traced(run: Run, matmul: float) -> tuple[dict[str, float], dict]:
    """The traced run: an untraced pass for reference, a traced pass,
    and (for the graph-driven workloads) an untraced one-worker pass."""
    trace_dir = run.fresh_dir("trace")
    ctx: dict[str, float] = {"host.matmul_gflops": matmul}
    if run.workload == "serve_zipf":
        setup = ServeSetup(run)
        plain = _serve_pass(run, setup)
        sample = _serve_pass(run, setup, trace_dir)
        ctx["trace.overhead_frac"] = sample["wall_s"] / plain["wall_s"] - 1
        ctx.update(_serve_layer(sample))
        ctx["loadgen.late_p99_ms"] = percentile(
            _pooled([plain, sample], "late_s"), 99.0) * 1e3
        layers, wall = _client_attribution(sample["phases"][1])
    else:
        plain = _child_pass(run, run.workload)
        sample = _child_pass(run, run.workload, trace_dir=trace_dir)
        serial = _child_pass(run, run.workload, jobs=1)
        ctx["trace.overhead_frac"] = sample["wall_s"] / plain["wall_s"] - 1
        ctx["graph.speedup_vs_serial"] = serial["wall_s"] / plain["wall_s"]
        ctx["cache.bytes_written"] = sample["bytes_written"]
        layers, wall = None, sample["traced_wall_s"]
    record = tracing.load(trace_dir)
    if layers is None:
        layers = record["main_self"]
    unattributed = 1.0 - sum(layers.values()) / wall
    negative = sorted(name for name, s in layers.items() if s < 0)
    if unattributed < -1e-3 or negative:
        run.count(1, [f"attribution does not add up: unattributed "
                      f"{unattributed:.1%}, negative layers {negative}"])
    ctx["trace.unattributed_frac"] = unattributed
    ctx["startup.import_s"] = sample["import_s"]
    missing = [name for name in tracing.EXPECTED[run.workload]
               if record["spans"].get(name, [0])[0] == 0]
    run.count(1, [f"wrapper {name} never fired" for name in missing])
    detail = {"processes": record["processes"],
              "attribution_s": {"wall": wall, **layers},
              "wall_s": {"untraced": plain["wall_s"],
                         "traced": sample["wall_s"]}}
    return _layer_metrics(record, ctx), detail


def _client_attribution(loop: serve_load.Outcome
                        ) -> tuple[dict[str, float], float]:
    """Partition the closed loop's client-thread time (``CLIENTS`` x its
    wall) by layer.  Each request's latency splits, by its reply's
    trace, into the shard's model wait (``model``), the rest of the
    shard's time (``serve``: key, cache lookup, admission) and the
    remainder (``fabric``: router hop, wire, reply encoding); client
    glue between requests is left unattributed."""
    total = loop.phase_s.get("total", 0.0)
    model = loop.phase_s.get("model", 0.0)
    layers = {"model": model, "serve": total - model,
              "fabric": sum(loop.latency_s) - total}
    return layers, serve_load.CLIENTS * loop.wall_s


def _serve_layer(sample: dict[str, Any]) -> dict[str, float]:
    served: dict[str, list[float]] = {}
    for loop in sample["phases"]:
        for by, server_s in zip(loop.served_by, loop.server_s):
            served.setdefault(by, []).append(server_s)
    total = sum(len(v) for v in served.values())
    count = {k: len(served.get(k, ())) for k in ("model", "cache",
                                                   "coalesced")}

    def p50_ms(by: str) -> float:
        return median(served[by]) * 1e3 if served.get(by) else 0.0

    return {
        "serve.served_by_model": count["model"],
        "serve.served_by_cache": count["cache"],
        "serve.served_by_coalesced": count["coalesced"],
        "serve.reuse_ratio": (count["cache"] + count["coalesced"]) / total,
        "serve.hit_ms_p50": p50_ms("cache"),
        "serve.model_ms_p50": p50_ms("model"),
        "fabric.hop_ms_p50": sample["hop_ms"],
        "fabric.failover_replays": sample["failover_replays"],
    }


def _layer_metrics(record: dict[str, Any],
                   ctx: dict[str, float]) -> dict[str, float]:
    spans, extra = record["spans"], record["extra"]

    def calls(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def busy(*names: str) -> float:
        return sum(spans.get(n, [0, 0.0, 0.0])[1] for n in names)

    def own(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits = extra.get("cache.memory_hits", 0) + extra.get("cache.disk_hits", 0)
    plan_hits = extra.get("gpu.plan_cache_hits", 0)
    nodes = extra.get("graph.nodes", 0)
    node_busy = extra.get("graph.node_wall_s", 0.0)
    out = {
        "datasets.matrix_calls": calls("datasets.generate_matrix"),
        "datasets.graph_calls": calls("datasets.generate_graph"),
        "datasets.busy_s": busy("datasets.generate_matrix",
                                "datasets.generate_graph"),
        "gpu.plans": calls("gpu.execute_plan"),
        "gpu.sweep_busy_s": busy("gpu.sweep_fp64", "gpu.sweep_b1",
                                 "gpu.sweep_mixed"),
        "gpu.sweep_gflop": extra.get("gpu.fp_flop", 0.0) / 1e9,
        "gpu.sweep_gflops": ratio(extra.get("gpu.fp_flop", 0.0) / 1e9,
                                  extra.get("gpu.fp_sweep_s", 0.0)),
        "gpu.plan_cache_hit_ratio": ratio(
            plan_hits, plan_hits + extra.get("gpu.plan_cache_misses", 0)),
        "kernels.prepare_busy_s": busy("kernels.prepare"),
        "kernels.reference_busy_s": busy("kernels.reference"),
        "kernels.execute_busy_s": busy("kernels.execute"),
        "kernels.analytic_stats_calls": calls("kernels.analytic_stats"),
        "kernels.analytic_stats_busy_s": busy("kernels.analytic_stats"),
        "accuracy.table_busy_s": busy("accuracy.table"),
        "accuracy.compare_s": own("accuracy.table"),
        "harness.run_performance_busy_s": busy("harness.run_performance"),
        "analysis.roofline_busy_s": busy("analysis.roofline"),
        "analysis.edp_busy_s": busy("analysis.edp"),
        "harness.whatif_busy_s": busy("harness.whatif"),
        "graph.nodes": nodes,
        "graph.run_s": busy("graph.run"),
        "graph.node_busy_s": node_busy,
        "graph.overhead_ms_per_node": ratio(
            extra.get("graph.capacity_s", 0.0) - node_busy, nodes) * 1e3,
        "graph.retried_nodes": extra.get("graph.retried_nodes", 0),
        "cache.memory_hits": extra.get("cache.memory_hits", 0),
        "cache.disk_hits": extra.get("cache.disk_hits", 0),
        "cache.misses": extra.get("cache.misses", 0),
        "cache.hit_ratio": ratio(hits, hits + extra.get("cache.misses", 0)),
        "cache.get_busy_s": own("cache.get"),
    }
    out.update(ctx)
    return {name: float(out.get(name, 0.0)) for name, _ in PER_LAYER}


# --------------------------------------------------------------- output

def _compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    reasons = comparable(a, b)
    if reasons:
        print("refusing to compare: " + "; ".join(reasons))
        return 2
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va = a["metrics"][name]["value"]
        vb = b["metrics"][name]["value"]
        change = f"{vb / va - 1:+.1%}" if va else "n/a"
        print(f"{name:34s} {va:14.6g} {vb:14.6g} {change:>8s}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the record here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return _compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    run = Run(args.workload, args.seed, args.seconds)
    try:
        host = host_fingerprint()
        host["matmul_gflops"] = host_matmul_gflops()
        if args.trace:
            values, detail = traced(run, host["matmul_gflops"])
            units = dict(PER_LAYER)
        else:
            values, detail = measure(run)
            units = dict(END_TO_END)
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    finally:
        run.close()

    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for name, m in metrics.items():
        print(f"{run.workload:10s} {name:34s} {m['value']:14.6g} {m['unit']}")
    failed = len(run.errors)
    attempted = max(run.attempted, 1)
    print(f"{run.workload:10s} failed_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for error in run.errors[:10]:
        print(f"  check failed: {error}")
    record = {"workload": run.workload, "seed": run.seed,
              "trace": args.trace, "seconds": run.seconds, "host": host,
              "detail": detail, "metrics": metrics}
    print(json.dumps(record, default=str))
    if args.out:
        Path(args.out).write_text(json.dumps(record, default=str, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

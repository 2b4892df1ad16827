"""Command-line interface: ``python -m repro <command>``.

Mirrors the artifact's shell scripts:

* ``quicktest``  — the four-workload quick test (Appendix A.1.2)
* ``full``       — the full ten-workload evaluation (Appendix A.3)
* ``perf``       — Figures 3-6 for chosen workloads/GPUs
* ``power``      — Figures 7-8
* ``accuracy``   — Table 6
* ``quadrants``  — Figure 2 classification
* ``roofline``   — Figure 9 points
* ``observations`` — the nine-observation audit
* ``suitability``— the algorithm-level MMU predictor on a sketch
* ``check``      — kernel lint, contract verifier, warp-hazard sanitizer

Beyond the artifact, the serving stack (docs/SERVE.md):

* ``serve``      — the async TCP characterization-query service
* ``query``      — one-shot client (``--local`` runs in-process)
* ``loadgen``    — closed-loop load generator + CI gate (``--chaos``
  drives it under an installed fault plan)
* ``cache``      — result-cache footprint: ``stats`` and LRU ``prune``
* ``sweep``      — size sweep with a per-point checkpoint journal;
  ``--resume`` continues a killed run bit-identically
* ``fabric``     — the sharded tier: ``start`` spawns N shard processes
  behind a consistent-hash router, ``status`` renders shard health
  (``loadgen --router N`` self-hosts the same fabric for drills)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .analysis.accuracy import accuracy_tables
from .analysis.quadrants import classify
from .analysis.roofline import suite_roofline
from .analysis.suitability import KernelSketch, predict
from .gpu.device import Device
from .gpu.specs import get_gpu
from .harness.artifact import full_evaluation, quick_test
from .harness.report import (
    format_seconds,
    format_si,
    format_speedups,
    format_stage_timings,
    format_table,
)
from .harness.runner import run_performance, speedup_summary
from .kernels import Variant, all_workloads, get_workload
from .perf.instrument import record_stage, stage, stage_meta, stage_timings

__all__ = ["main", "build_parser"]


def _select_workloads(names: list[str] | None):
    if not names:
        return all_workloads()
    return [get_workload(n) for n in names]


def cmd_perf(args: argparse.Namespace) -> int:
    workloads = _select_workloads(args.workload)
    devices = [Device(g) for g in args.gpu]
    records = run_performance(workloads=workloads, devices=devices,
                              n_jobs=args.jobs)
    print(format_speedups(
        speedup_summary(records, Variant.TC, Variant.BASELINE),
        "TC speedup over baseline (Figure 4)"))
    print()
    print(format_speedups(
        speedup_summary(records, Variant.CC, Variant.TC),
        "CC speedup over TC (Figure 5)"))
    cce = speedup_summary(records, Variant.CCE, Variant.TC)
    if cce:
        print()
        print(format_speedups(cce, "CC-E speedup over TC (Figure 6)"))
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    from .analysis.edp import edp_study
    device = Device(args.gpu[0])
    rows = []
    for w in _select_workloads(args.workload):
        for e in edp_study(w, device):
            rows.append([e.workload, e.variant, f"{e.avg_power_w:.0f} W",
                         f"{e.loop_time_s:.3f} s", f"{e.edp:.4g} J*s"])
    print(format_table(
        ["Workload", "Variant", "Avg power", "Loop", "EDP"], rows,
        title=f"EDP on {device.spec.name} (Figure 7)"))
    return 0


def cmd_accuracy(args: argparse.Namespace) -> int:
    device = Device(args.gpu[0])
    workloads = _select_workloads(args.workload)
    tables = accuracy_tables(workloads, device,
                             n_jobs=getattr(args, "jobs", None))
    rows = []
    for w in workloads:
        for e in tables.get(w.name, ()):
            rows.append([e.workload, e.variant, f"{e.avg_error:.3E}",
                         f"{e.max_error:.3E}"])
    print(format_table(["Workload", "Variant", "Avg error", "Max error"],
                       rows, title="FP64 errors vs CPU serial (Table 6)"))
    return 0


def cmd_quadrants(args: argparse.Namespace) -> int:
    rows = []
    for w in _select_workloads(args.workload):
        p = classify(w)
        rows.append([w.name, f"{p.input_utilization:.2f}",
                     f"{p.output_utilization:.2f}", p.quadrant.value])
    print(format_table(["Workload", "Input util", "Output util",
                        "Quadrant"], rows,
                       title="MMU utilization quadrants (Figure 2)"))
    return 0


def cmd_roofline(args: argparse.Namespace) -> int:
    device = Device(args.gpu[0])
    roof = suite_roofline(_select_workloads(args.workload), device)
    rows = [[p.workload, p.variant, f"{p.intensity:.3g}",
             f"{p.performance / 1e12:.4g}", p.bottleneck]
            for p in roof.points]
    print(format_table(
        ["Workload", "Variant", "AI", "TFLOP/s", "Bound by"], rows,
        title=f"Roofline points on {device.spec.name} (Figure 9)"))
    return 0


def cmd_quicktest(args: argparse.Namespace) -> int:
    written = quick_test(args.out, gpu=args.gpu[0])
    for name, path in written.items():
        print(f"{name}: {path}")
    return 0


def cmd_full(args: argparse.Namespace) -> int:
    written = full_evaluation(args.out, gpu=args.gpu[0])
    for name, path in written.items():
        print(f"{name}: {path}")
    return 0


def cmd_observations(args: argparse.Namespace) -> int:
    from .analysis.observations import verify_all
    rows = []
    for r in verify_all(n_jobs=args.jobs):
        rows.append([f"O{r.number}", "holds" if r.holds else "FAILS",
                     r.statement])
    print(format_table(["Obs", "Verdict", "Statement"], rows,
                       title="The nine key observations, verified live"))
    return 0 if all("holds" in row[1] for row in rows) else 1


def cmd_suitability(args: argparse.Namespace) -> int:
    sketch = KernelSketch(
        name=args.name,
        essential_flops=args.flops,
        bytes_moved=args.bytes,
        mma_redundancy=args.redundancy,
        constant_operand=args.constant_operand,
        layout_traffic_factor=args.layout_factor,
        scattered_byte_fraction=args.scattered_fraction,
        serial_fraction=args.serial_fraction,
    )
    rows = []
    for g in args.gpu:
        p = predict(sketch, get_gpu(g))
        rows.append([g, format_seconds(p.tc_time_s),
                     format_seconds(p.baseline_time_s),
                     f"{p.speedup:.2f}x", p.tc_bottleneck,
                     p.verdict.value])
    print(format_table(
        ["GPU", "TC time", "Vector time", "Speedup", "TC bound by",
         "Verdict"], rows,
        title=f"MMU suitability of {sketch.name!r} "
              f"(AI {sketch.arithmetic_intensity:.2f} flop/B)"))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .check import Baseline, default_baseline_path, run_check
    from .check.determinism import facts_to_json
    baseline_path = args.baseline or default_baseline_path()
    determinism = args.determinism or args.facts is not None
    if args.write_baseline:
        report = run_check(baseline=Baseline(), lint=not args.no_lint,
                           dynamic=not args.no_dynamic,
                           workloads=args.workload,
                           determinism=determinism, n_jobs=args.jobs)
        Baseline.from_findings(
            report.active,
            justification="TODO: justify this accepted deviation",
        ).save(baseline_path)
        print(f"wrote {len(report.active)} suppression(s) to "
              f"{baseline_path}; fill in the justifications")
        return 0
    report = run_check(baseline=baseline_path, lint=not args.no_lint,
                       dynamic=not args.no_dynamic, workloads=args.workload,
                       determinism=determinism, n_jobs=args.jobs)
    if args.facts is not None and report.facts is not None:
        Path(args.facts).write_text(facts_to_json(report.facts))
    print(report.to_json() if args.format == "json" else report.to_text())
    if not report.ok:
        return 1
    if report.unused_suppressions:
        if args.prune_baseline:
            baseline = Baseline.load(baseline_path)
            stale = {(s.rule, s.path, s.symbol)
                     for s in report.unused_suppressions}
            baseline.suppressions = [
                s for s in baseline.suppressions
                if (s.rule, s.path, s.symbol) not in stale]
            baseline.save(baseline_path)
            print(f"pruned {len(stale)} stale suppression(s) from "
                  f"{baseline_path}")
            return 0
        print("stale suppressions gate the check; rerun with "
              "--prune-baseline to drop them", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .perf.bench import check_regression, run_bench, write_bench_json
    results = run_bench(args.bench or None, cache_dir=args.cache_dir,
                        profile=args.profile, jobs=args.jobs)
    for name, r in sorted(results.items()):
        print(f"{name}: cold {r['cold_s']:.1f}s, warm {r['warm_s']:.1f}s "
              f"({r['warm_speedup']}x)")
        prof = r.get("profile", {})
        groups = prof.get("groups")
        if groups:
            print("  cold profile: "
                  + ", ".join(f"{k} {v:.1f}s"
                              for k, v in sorted(groups.items(),
                                                 key=lambda kv: -kv[1])))
        if prof.get("coverage") is not None:
            print(f"  coverage: {prof['coverage']:.1%} of cold wall "
                  f"attributed to named stages")
        if r.get("overlap_ratio") is not None:
            print(f"  graph overlap: {r['overlap_ratio']:.2f}x "
                  f"(node wall / makespan, "
                  f"{r.get('graph_workers', 1)} workers)")
        stages = prof.get("stages")
        if stages and args.profile:
            top = sorted(stages.items(),
                         key=lambda kv: -kv[1]["self_seconds"])
            shown = [s for s in top[:12] if s[1]["self_seconds"] >= 0.01]
            for sname, rec in shown:
                print(f"    {rec['self_seconds']:7.3f}s self "
                      f"({rec['seconds']:7.3f}s incl, "
                      f"{rec['calls']:3d} calls)  {sname}")
            if len(top) > len(shown):
                print(f"    ... {len(top) - len(shown)} more stages")
    out = write_bench_json(args.out, results)
    print(f"wrote {out}")
    if args.check:
        issues = check_regression(results, args.baseline,
                                  tolerance=args.tolerance,
                                  require_budgets=True)
        if issues:
            for msg in issues:
                print(f"PERF REGRESSION: {msg}")
            return 1
        print(f"perf gate: ok (within {args.tolerance:.0%} of "
              f"{args.baseline})")
    return 0


def _parse_query_params(pairs: list[str]) -> dict:
    """``k=v`` pairs; values are JSON when parseable, strings otherwise."""
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param wants key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _resolve_token(value: str | None) -> str | None:
    """An explicit --token wins; REPRO_SERVE_TOKEN is the env fallback
    (the fabric launcher hands shards their secret this way — argv is
    world-readable in a process listing, the environment is not)."""
    return value or os.environ.get("REPRO_SERVE_TOKEN") or None


def _serve_config(args: argparse.Namespace):
    from .serve import ServeConfig
    return ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        pool_mode=args.pool, inner_jobs=args.inner_jobs,
        max_queue_depth=args.queue_depth, rate=args.rate, burst=args.burst,
        default_deadline_s=args.deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        shard_id=args.shard_id, token=_resolve_token(args.token),
        auth_rate=args.auth_rate, auth_burst=args.auth_burst,
        persist=args.persist, store_dir=args.store_dir)


def _run_foreground(prog: str, server, details: str) -> None:
    """Serve ``server`` (a :class:`~repro.serve.frontend.FrontEnd`) in
    the foreground until Ctrl-C or SIGTERM; either stops it gracefully.

    Prints the ``listening on host:port`` banner, flushed at once:
    ``spawn_local_shards`` reads it from a pipe to learn a shard's port.
    On exit prints the server's final counters.
    """
    import asyncio
    import signal

    async def _main() -> None:
        try:
            host, port = await server.start_tcp()
        except ValueError as exc:
            # e.g. a non-loopback bind without a token: a config error,
            # not a crash — no traceback
            raise SystemExit(f"{prog}: {exc}") from None
        print(f"{prog}: listening on {host}:{port} ({details}); "
              f"Ctrl-C stops, SIGTERM drains", flush=True)
        forever = asyncio.ensure_future(server.serve_forever())

        def _drain() -> None:
            # serve_forever's finally runs stop(): stop accepting, let
            # in-flight queries finish, close connections
            print(f"{prog}: SIGTERM — draining in-flight queries",
                  file=sys.stderr)
            forever.cancel()

        try:
            asyncio.get_running_loop().add_signal_handler(signal.SIGTERM,
                                                          _drain)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without signal handlers (e.g. Windows loop)
        try:
            await forever
        finally:
            counters = server.telemetry.snapshot().get("counters", {})
            print(f"{prog}: drained; "
                  + json.dumps(counters, sort_keys=True), file=sys.stderr)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import CharacterizationService

    config = _serve_config(args)
    service = CharacterizationService(config)
    shard = f", shard {config.shard_id}" if config.shard_id else ""
    auth = ", token auth" if config.token else ""
    store = ", persistent store" if config.persist else ""
    _run_foreground("repro serve", service,
                    f"{service.pool.mode} pool, {config.workers} workers"
                    f"{shard}{auth}{store}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .serve import ProtocolError, ServeClient, ServeConnectionError
    from .serve.server import run_query_locally

    params = _parse_query_params(args.param)
    try:
        if args.local:
            resp = run_query_locally(args.kind, params,
                                     deadline_s=args.deadline,
                                     fresh=args.fresh)
        else:
            with ServeClient(args.host, args.port,
                             token=_resolve_token(args.token)) as client:
                resp = client.query(args.kind, params,
                                    deadline_s=args.deadline,
                                    fresh=args.fresh)
    except ServeConnectionError as exc:
        # typed connection failure: name the endpoint, shard, and retry
        # budget burned — machine-readable, no traceback
        print(json.dumps({"ok": False,
                          "error": {"code": exc.code,
                                    "message": exc.message,
                                    "host": exc.host, "port": exc.port,
                                    "shard_id": exc.shard_id,
                                    "retry_count": exc.retry_count}},
                         indent=2))
        return 1
    except ProtocolError as exc:
        print(json.dumps({"ok": False,
                          "error": {"code": exc.code,
                                    "message": exc.message}}, indent=2))
        return 1
    payload = {"ok": resp.ok, "served_by": resp.served_by,
               "stale": resp.stale,
               ("result" if resp.ok else "error"):
                   resp.result if resp.ok else resp.error}
    if resp.shard_id is not None:
        payload["shard_id"] = resp.shard_id
    if args.trace and resp.trace:
        payload["trace"] = resp.trace
    print(json.dumps(payload, indent=None if args.compact else 2))
    return 0 if resp.ok else 1


def cmd_loadgen(args: argparse.Namespace) -> int:
    import threading

    from . import faults
    from .serve import (
        DEFAULT_MIX,
        HostedService,
        format_loadgen_report,
        loadgen_failures,
        run_loadgen,
    )

    if args.kill_shard_after is not None and not args.router:
        raise SystemExit("--kill-shard-after needs --router: the drill "
                         "kills one shard of a self-hosted fabric")
    verify = args.verify
    client_retries = 2
    if args.chaos is not None:
        if not (args.self_host or args.router):
            raise SystemExit("--chaos needs --self-host or --router: the "
                             "fault plan must be installed in the server "
                             "process")
        rate = args.chaos
        if args.router:
            # fabric shards run thread pools (no worker_crash site) but
            # add the router's own failover and stale-routing drills
            plan = (f"serve.conn_drop={rate:g},"
                    f"cache.read_corrupt={rate:g},"
                    f"cache.write_fail={rate:g},"
                    f"fabric.shard_down={rate:g},"
                    f"fabric.route_stale={rate:g}")
        else:
            plan = (f"serve.conn_drop={rate:g},"
                    f"executor.worker_crash={rate:g},"
                    f"cache.read_corrupt={rate:g},"
                    f"cache.write_fail={rate:g}")
        faults.install_plan(f"{plan},seed={args.chaos_seed}")
        verify = True       # chaos without answer checking proves nothing
        client_retries = 8  # sustained drops need headroom to converge

    token = _resolve_token(args.token)

    def _run(host: str, port: int) -> dict:
        return run_loadgen(host, port, clients=args.clients,
                           duration_s=args.duration,
                           deadline_s=args.deadline, fresh=args.fresh,
                           verify=verify, client_retries=client_retries,
                           token=token)

    try:
        if args.router:
            from .fabric.cluster import HostedFabric

            fabric = HostedFabric(args.router, token=token,
                                  persist=args.persist,
                                  store_dir=args.store_dir,
                                  shard_workers=args.workers)
            with fabric:
                assert fabric.address is not None
                host, port = fabric.address
                timer = None
                if args.kill_shard_after is not None:
                    # kill the shard owning the mix's first query key:
                    # deterministic victim, guaranteed mid-drill traffic
                    kind, params = DEFAULT_MIX[0]
                    victim = fabric.owner_of(kind, params)
                    print(f"loadgen: killing shard {victim} "
                          f"{args.kill_shard_after:g}s into the run",
                          file=sys.stderr)
                    timer = threading.Timer(args.kill_shard_after,
                                            fabric.kill_shard, (victim,))
                    timer.daemon = True
                    timer.start()
                try:
                    summary = _run(host, port)
                finally:
                    if timer is not None:
                        timer.cancel()
        elif args.self_host:
            config = _serve_config(args)
            config = type(config)(**{**config.__dict__,
                                     "host": "127.0.0.1", "port": 0})
            with HostedService(config) as hosted:
                host, port = hosted.address
                summary = _run(host, port)
        else:
            summary = _run(args.host, args.port)
    finally:
        if args.chaos is not None:
            faults.clear_plan()
    print(format_loadgen_report(summary))
    failures = loadgen_failures(summary, p99_max_s=args.p99_max,
                                min_reuse_rate=args.min_reuse,
                                max_retry_rate=args.max_retry_rate)
    for failure in failures:
        print(f"LOADGEN GATE: {failure}")
    if not failures:
        print("loadgen gate: ok")
    return 1 if failures else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    import hashlib

    from .harness.checkpoint import (
        SweepJournal,
        resumable_sweep,
        serialize_payload,
    )

    if args.resume and not args.journal:
        raise SystemExit("--resume needs --journal pointing at the "
                         "checkpoint file of the interrupted run")
    try:
        variants = tuple(Variant(v) for v in args.variant)
    except ValueError as exc:
        raise SystemExit(f"unknown variant: {exc}") from None
    journal = SweepJournal(args.journal) if args.journal else None
    reused = 0
    if journal is not None and args.resume:
        reused = len(journal.load())
    payload = resumable_sweep(args.workload, Device(args.gpu[0]), variants,
                              journal=journal, resume=args.resume,
                              n_jobs=args.jobs)
    text = serialize_payload(payload)
    digest = hashlib.sha256(text.encode()).hexdigest()
    n_points = len(payload["points"])
    print(f"sweep {args.workload}: {n_points} points "
          f"({reused} grid points resumed from journal), "
          f"crossover={payload['crossover']}, payload sha256={digest}",
          file=sys.stderr)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .perf.cache import ResultCache

    cache = ResultCache(args.cache_dir, max_disk_bytes=args.max_bytes)
    if args.cache_command == "stats":
        stats = cache.disk_stats()
        rows = [[kind, n, format_si(float(b), "B")]
                for kind, (n, b) in stats.kinds.items()]
        rows.append(["total", stats.total_entries,
                     format_si(float(stats.total_bytes), "B")])
        if stats.quarantined_entries:
            rows.append(["quarantined", stats.quarantined_entries,
                         format_si(float(stats.quarantined_bytes), "B")])
        cap = "unbounded" if stats.max_disk_bytes is None \
            else format_si(float(stats.max_disk_bytes), "B")
        print(format_table(["kind", "entries", "bytes"], rows,
                           title=f"result cache at {stats.directory} "
                                 f"(cap: {cap})"))
        return 0
    # prune
    if cache.max_disk_bytes is None:
        print("no cap: pass --max-bytes or set REPRO_CACHE_MAX_BYTES")
        return 1
    result = cache.prune()
    print(f"pruned {result.removed_entries} entries "
          f"({format_si(float(result.removed_bytes), 'B')}); "
          f"{result.remaining_entries} entries "
          f"({format_si(float(result.remaining_bytes), 'B')}) remain")
    return 0


def cmd_fabric(args: argparse.Namespace) -> int:
    token = _resolve_token(args.token)
    if args.fabric_command == "status":
        from .serve import ProtocolError, ServeClient

        try:
            with ServeClient(args.host, args.port, token=token) as client:
                resp = client.query("metrics")
        except ProtocolError as exc:
            print(json.dumps({"ok": False,
                              "error": {"code": exc.code,
                                        "message": exc.message}},
                             indent=2))
            return 1
        result = resp.result if resp.ok and isinstance(resp.result, dict) \
            else {}
        shards = result.get("shards")
        if not shards:
            # a plain serve process (or an error): dump what came back
            print(json.dumps(
                {"ok": resp.ok,
                 ("result" if resp.ok else "error"):
                     resp.result if resp.ok else resp.error}, indent=2))
            return 0 if resp.ok else 1
        rows = [[sid, info.get("host", "?"), info.get("port", "?"),
                 "up" if info.get("healthy") else "DOWN"]
                for sid, info in sorted(shards.items())]
        ring = result.get("ring", {})
        print(format_table(
            ["shard", "host", "port", "health"], rows,
            title=f"fabric at {args.host}:{args.port} "
                  f"({ring.get('replicas', '?')} ring replicas/shard)"))
        counters = (result.get("router") or {}).get("counters")
        if counters:
            print("router: " + json.dumps(counters, sort_keys=True))
        return 0

    # start: N shard processes + the router, foreground
    from .fabric.cluster import spawn_local_shards, terminate_shards
    from .fabric.router import FabricRouter, RouterConfig

    try:
        procs, specs = spawn_local_shards(
            args.shards, token=token, store_dir=args.store_dir,
            pool=args.pool, workers=args.workers)
    except (RuntimeError, ValueError) as exc:
        raise SystemExit(f"repro fabric: {exc}") from None
    try:
        router = FabricRouter(specs, RouterConfig(
            host=args.host, port=args.port, token=token,
            auth_rate=args.auth_rate, auth_burst=args.auth_burst,
            probe_interval_s=args.probe_interval))
        names = ", ".join(s.shard_id for s in specs)
        auth = "token auth" if token else "loopback only"
        _run_foreground("repro fabric", router,
                        f"router over {len(specs)} shard(s) [{names}], "
                        f"{auth}")
    finally:
        terminate_shards(procs)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cubie reproduction: MMU characterization suite")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_perf_opts(p):
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for the evaluation grid "
                            "(default: REPRO_JOBS or the CPU count)")
        p.add_argument("--timings", action="store_true",
                       help="print per-stage wall-clock after the run")

    def add_common(p):
        p.add_argument("--gpu", nargs="+", default=["A100", "H200", "B200"],
                       help="devices to evaluate (default: all three)")
        p.add_argument("--workload", nargs="*", default=None,
                       help="workloads (default: the whole suite)")

    for name, fn, desc in (
            ("perf", cmd_perf, "Figures 3-6 speedup summaries"),
            ("power", cmd_power, "Figure 7 EDP study"),
            ("accuracy", cmd_accuracy, "Table 6 FP64 errors"),
            ("quadrants", cmd_quadrants, "Figure 2 classification"),
            ("roofline", cmd_roofline, "Figure 9 points")):
        p = sub.add_parser(name, help=desc)
        add_common(p)
        if name in ("perf", "accuracy"):
            add_perf_opts(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("observations",
                       help="verify the paper's nine observations")
    add_perf_opts(p)
    p.set_defaults(fn=cmd_observations)

    p = sub.add_parser("check",
                       help="kernel lint + workload contracts + "
                            "determinism proof engine + warp-hazard "
                            "sanitizer (docs/CHECK.md)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--baseline", default=None,
                   help="suppression baseline path "
                        "(default: check_baseline.json at the repo root)")
    p.add_argument("--write-baseline", action="store_true",
                   help="write current active findings as a new baseline "
                        "instead of reporting them")
    p.add_argument("--no-lint", action="store_true",
                   help="skip the static layer (lint + contracts)")
    p.add_argument("--no-dynamic", action="store_true",
                   help="skip the warp-hazard battery")
    p.add_argument("--determinism", action="store_true",
                   help="run the interprocedural taint engine "
                        "(D001/D002: cache/serve value purity, "
                        "D005/D006: content-key completeness, R009: "
                        "graph node ambient reads)")
    p.add_argument("--facts", default=None, metavar="PATH",
                   help="write determinism_facts.json here "
                        "(implies --determinism)")
    p.add_argument("--jobs", type=int, default=None,
                   help="fan per-file static analysis out over N "
                        "processes (output is bit-identical to serial)")
    p.add_argument("--prune-baseline", action="store_true",
                   help="drop stale baseline suppressions instead of "
                        "failing on them")
    p.add_argument("--workload", nargs="*", default=None,
                   help="restrict the dynamic battery to these workloads")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bench",
                       help="cold/warm pipeline benchmarks "
                            "(emits BENCH_perf.json)")
    p.add_argument("--out", default="BENCH_perf.json",
                   help="output JSON path")
    p.add_argument("--bench", nargs="*", default=None,
                   help="bench names (default: all)")
    p.add_argument("--cache-dir", default=None,
                   help="cache root to benchmark against "
                        "(default: a fresh temporary directory)")
    p.add_argument("--profile", action="store_true",
                   help="attach the cold run's per-stage wall-clock "
                        "(plan-build / sweep-execute / model-resolve) to "
                        "each bench result")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes inside each bench subprocess "
                        "(exported as REPRO_JOBS; default: inherit)")
    p.add_argument("--check", action="store_true",
                   help="compare cold times against a checked-in baseline "
                        "and fail on regression")
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="allowed fractional cold-time regression for "
                        "--check (default: 0.25)")
    p.add_argument("--baseline", default="BENCH_perf.json",
                   help="baseline JSON for --check "
                        "(default: BENCH_perf.json)")
    p.set_defaults(fn=cmd_bench)

    for name, fn, desc in (
            ("quicktest", cmd_quicktest,
             "artifact quick test (SpMV, Reduction, Scan, FFT)"),
            ("full", cmd_full, "artifact full evaluation")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--out", default=f"artifact_{name}",
                       help="output directory")
        p.add_argument("--gpu", nargs="+", default=["H200"])
        p.set_defaults(fn=fn)

    def add_serve_opts(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=7341)
        p.add_argument("--workers", type=int, default=2,
                       help="model pool size (default: 2)")
        p.add_argument("--pool", choices=("process", "thread"),
                       default="process",
                       help="model pool kind (a crashed process pool is "
                            "rebuilt; a call out of retries runs in-process)")
        p.add_argument("--inner-jobs", type=int, default=1,
                       help="graph-scheduler jobs inside one (batched) "
                            "perf grid evaluation")
        p.add_argument("--queue-depth", type=int, default=64,
                       help="max distinct in-flight model jobs")
        p.add_argument("--rate", type=float, default=None,
                       help="global queries/second (default: unlimited)")
        p.add_argument("--burst", type=float, default=None,
                       help="token-bucket burst (default: max(rate, 1))")
        p.add_argument("--deadline", type=float, default=30.0,
                       help="default per-query deadline, seconds")
        p.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive failures that trip a kind's "
                            "circuit breaker")
        p.add_argument("--breaker-cooldown", type=float, default=10.0,
                       help="seconds an open breaker waits before its "
                            "half-open probe")
        p.add_argument("--shard-id", default=None,
                       help="shard identity stamped into responses and "
                            "telemetry (fabric deployments)")
        p.add_argument("--token", default=None,
                       help="shared fabric secret; clients must open "
                            "with a handshake line (default: "
                            "REPRO_SERVE_TOKEN; required to bind "
                            "non-loopback hosts)")
        p.add_argument("--auth-rate", type=float, default=None,
                       help="per-token queries/second after the "
                            "handshake (default: unlimited)")
        p.add_argument("--auth-burst", type=float, default=None,
                       help="per-token bucket burst "
                            "(default: max(rate, 1))")
        p.add_argument("--persist", action="store_true",
                       help="spill the served-result LRU through the "
                            "result cache so a restarted shard warms "
                            "from disk")
        p.add_argument("--store-dir", default=None,
                       help="persistent store root for --persist "
                            "(default: the result-cache directory)")

    p = sub.add_parser("serve",
                       help="TCP characterization-query service "
                            "(docs/SERVE.md)")
    add_serve_opts(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("query",
                       help="one query against a server (or --local)")
    p.add_argument("kind",
                   help="query kind: perf, quadrant, accuracy, edp, "
                        "roofline, whatif, observations, metrics, ping")
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="query parameter (value parsed as JSON when "
                        "possible), e.g. --param workload=gemv or "
                        "--param 'workloads=[\"gemv\",\"spmv\"]'")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7341)
    p.add_argument("--token", default=None,
                   help="shared fabric secret for authenticated servers "
                        "(default: REPRO_SERVE_TOKEN)")
    p.add_argument("--local", action="store_true",
                   help="serve in-process instead of over TCP")
    p.add_argument("--deadline", type=float, default=None)
    p.add_argument("--fresh", action="store_true",
                   help="bypass the served-result cache")
    p.add_argument("--trace", action="store_true",
                   help="include the pipeline trace spans")
    p.add_argument("--compact", action="store_true",
                   help="single-line JSON output")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("loadgen",
                       help="closed-loop load generator "
                            "(non-zero exit on any protocol error)")
    add_serve_opts(p)
    p.add_argument("--self-host", action="store_true",
                   help="boot a server in-process on an ephemeral port "
                        "and drive that")
    p.add_argument("--router", type=int, default=None, metavar="N",
                   help="self-host N shards behind an in-process "
                        "consistent-hash router and drive that "
                        "(the fabric shape of --self-host)")
    p.add_argument("--kill-shard-after", type=float, default=None,
                   metavar="S",
                   help="kill the shard owning the mix's first query "
                        "key S seconds into the run (needs --router; "
                        "the failover drill)")
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--duration", type=float, default=10.0,
                   help="seconds of closed-loop load")
    p.add_argument("--fresh", action="store_true",
                   help="bypass the served-result cache (saturation mode)")
    p.add_argument("--p99-max", type=float, default=None,
                   help="fail when p99 latency exceeds this bound, "
                        "seconds")
    p.add_argument("--min-reuse", type=float, default=None,
                   help="fail when the coalesce-or-cache rate is below "
                        "this fraction")
    p.add_argument("--chaos", type=float, default=None, metavar="RATE",
                   help="install a fault plan firing conn drops, worker "
                        "crashes, and cache corruption at RATE — plus "
                        "shard-down and stale-route injections under "
                        "--router (implies --verify; needs --self-host "
                        "or --router)")
    p.add_argument("--chaos-seed", type=int, default=7,
                   help="fault-plan seed for --chaos (default: 7)")
    p.add_argument("--verify", action="store_true",
                   help="digest every OK answer against the in-process "
                        "deterministic reference; any mismatch fails")
    p.add_argument("--max-retry-rate", type=float, default=None,
                   help="fail when connection retries exceed this "
                        "fraction of completed requests")
    p.set_defaults(fn=cmd_loadgen)

    p = sub.add_parser("sweep",
                       help="size sweep with per-point checkpoint journal "
                            "(kill-safe; --resume continues)")
    p.add_argument("workload",
                   help="size-parameterized workload: gemm, gemv, fft, "
                        "stencil, scan, reduction")
    p.add_argument("--gpu", nargs="+", default=["H200"])
    p.add_argument("--variant", nargs="*", default=["baseline", "tc"],
                   help="variants to evaluate (default: baseline tc)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: REPRO_JOBS or CPUs)")
    p.add_argument("--journal", default=None,
                   help="JSON-lines checkpoint file; each completed grid "
                        "point is journaled durably")
    p.add_argument("--resume", action="store_true",
                   help="reuse points already in --journal instead of "
                        "recomputing them")
    p.add_argument("--out", default=None,
                   help="write the canonical payload here instead of "
                        "stdout")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("cache",
                       help="result-cache footprint: stats and LRU prune")
    p.add_argument("cache_command", choices=("stats", "prune"))
    p.add_argument("--cache-dir", default=None,
                   help="cache root (default: REPRO_CACHE_DIR or "
                        "~/.cache/repro)")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="size cap for prune (default: "
                        "REPRO_CACHE_MAX_BYTES)")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("fabric",
                       help="sharded serve tier: consistent-hash router "
                            "over N shard processes (docs/SERVE.md)")
    fabric_sub = p.add_subparsers(dest="fabric_command", required=True)
    pf = fabric_sub.add_parser(
        "start", help="spawn N shard processes on ephemeral ports and "
                      "run the router in the foreground")
    pf.add_argument("--shards", type=int, default=3,
                    help="shard process count (default: 3)")
    pf.add_argument("--host", default="127.0.0.1",
                    help="router bind host (non-loopback needs --token)")
    pf.add_argument("--port", type=int, default=7440,
                    help="router port (default: 7440)")
    pf.add_argument("--token", default=None,
                    help="shared fabric secret for client and shard "
                         "handshakes (default: REPRO_SERVE_TOKEN)")
    pf.add_argument("--auth-rate", type=float, default=None,
                    help="per-token queries/second at the router")
    pf.add_argument("--auth-burst", type=float, default=None,
                    help="per-token bucket burst (default: max(rate, 1))")
    pf.add_argument("--store-dir", default=None,
                    help="shared persistent-store root the shards spill "
                         "served results into (default: the result-cache "
                         "directory)")
    pf.add_argument("--pool", choices=("process", "thread"),
                    default="process", help="shard model-pool kind")
    pf.add_argument("--workers", type=int, default=2,
                    help="model workers per shard (default: 2)")
    pf.add_argument("--probe-interval", type=float, default=1.0,
                    help="seconds between shard health probes")
    pf.set_defaults(fn=cmd_fabric)
    pf = fabric_sub.add_parser(
        "status", help="render a router's shard-health snapshot")
    pf.add_argument("--host", default="127.0.0.1")
    pf.add_argument("--port", type=int, default=7440)
    pf.add_argument("--token", default=None,
                    help="shared fabric secret "
                         "(default: REPRO_SERVE_TOKEN)")
    pf.set_defaults(fn=cmd_fabric)

    p = sub.add_parser("suitability",
                       help="predict MMU benefit from an algorithm sketch")
    p.add_argument("--name", default="custom-kernel")
    p.add_argument("--flops", type=float, required=True,
                   help="essential flops per execution")
    p.add_argument("--bytes", type=float, required=True,
                   help="bytes moved per execution")
    p.add_argument("--redundancy", type=float, default=1.0,
                   help="executed/essential flops when MMA-shaped")
    p.add_argument("--constant-operand", action="store_true")
    p.add_argument("--layout-factor", type=float, default=1.0)
    p.add_argument("--scattered-fraction", type=float, default=0.0,
                   help="fraction of vector traffic that is scattered "
                        "sub-sector gathers")
    p.add_argument("--serial-fraction", type=float, default=0.0)
    p.add_argument("--gpu", nargs="+", default=["A100", "H200", "B200"])
    p.set_defaults(fn=cmd_suitability)
    return parser


def main(argv: list[str] | None = None) -> int:
    # the bench harness stamps the spawn time so interpreter startup
    # (imports dominate it) is attributed instead of landing in ``other``
    bench_t0 = os.environ.get("REPRO_BENCH_T0")
    if bench_t0:
        try:
            import time
            record_stage("cli.startup", max(time.time() - float(bench_t0),
                                            0.0))
        except ValueError:
            pass
    args = build_parser().parse_args(argv)
    # an explicit --jobs wins everywhere: exporting it as REPRO_JOBS makes
    # every scheduler constructed deeper in the call stack (graph
    # scheduler, bench subprocesses) resolve to the same width instead of
    # falling back to the CPU count
    if getattr(args, "jobs", None) is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    try:
        with stage(f"cli.{args.command}"):
            rc = args.fn(args)
    except KeyboardInterrupt:
        # worker pools re-raise a clean KeyboardInterrupt after
        # cancelling pending nodes (graph.scheduler); no tracebacks
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout went away (e.g. `repro query ... | head`); exit quietly
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141  # 128 + SIGPIPE
    if getattr(args, "timings", False):
        print()
        print(format_stage_timings(stage_timings()))
        workers = stage_meta().get("max_workers")
        if workers:
            print(f"effective worker processes: {workers}")
    # machine-readable stage dump for the bench profiler (subprocess runs
    # cannot share the in-process registry)
    stage_json = os.environ.get("REPRO_STAGE_JSON")
    if stage_json:
        payload = {
            "stages": {t.name: {"seconds": t.seconds, "calls": t.calls,
                                "self_seconds": t.self_seconds}
                       for t in stage_timings()},
            "meta": stage_meta(),
        }
        Path(stage_json).write_text(json.dumps(payload, indent=2) + "\n",
                                    encoding="utf-8")
    return rc


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

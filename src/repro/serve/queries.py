"""Query resolvers: normalized protocol params -> JSON-able answers.

Every resolver is a module-level function of plain data, so the scheduler
can run it in a worker process (picklable) or a thread interchangeably.
Resolvers route through the same harness/analysis entry points the CLI
uses — ``run_performance``, ``classify``, ``accuracy_table``,
``edp_study``, ``suite_roofline``, ``evaluate_whatif``, ``verify_all`` —
so a served answer and the equivalent direct invocation are computed by
the same code on the same deterministic inputs and are therefore
bit-identical (floats cross the JSON wire via repr-shortest round-trip).

:func:`resolve_perf_batch` is the batching entry: several compatible
(same device list) perf queries merge into one task-graph execution
(:func:`~repro.harness.runner.run_performance` in graph mode — serve is
just another graph consumer) over the union of their workloads, then
split back per query in the exact order a direct call would have
produced.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Any, Mapping, Sequence

import numpy as np

from ..analysis.accuracy import accuracy_table
from ..analysis.edp import edp_study
from ..analysis.observations import verify_all
from ..analysis.quadrants import classify
from ..analysis.roofline import suite_roofline
from ..gpu.device import Device
from ..harness.runner import PerfRecord, run_performance
from ..harness.whatif import evaluate_whatif, hypothetical
from ..kernels.base import Variant, all_workloads, get_workload

__all__ = ["jsonable", "perf_payload", "resolve_perf_batch",
           "resolve_query"]


def jsonable(obj: Any) -> Any:
    """Recursively convert model output into JSON-encodable plain data."""
    # Enum first: Variant/Quadrant subclass str, which must not win
    if isinstance(obj, Enum):
        return jsonable(obj.value)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) \
            else obj
        return [jsonable(x) for x in items]
    raise TypeError(f"cannot serve a {type(obj).__name__!r} value")


# ------------------------------------------------------------------ perf

def perf_payload(records: Sequence[PerfRecord]) -> list[dict[str, Any]]:
    """The wire form of a record list (Quadrant enums become values)."""
    return [jsonable(r) for r in records]


def _resolve_perf(params: Mapping[str, Any], *,
                  n_jobs: int = 1) -> list[dict[str, Any]]:
    names = params["workloads"]
    workloads = None if names is None else [get_workload(n) for n in names]
    devices = [Device(g) for g in params["gpus"]]
    records = run_performance(workloads=workloads, devices=devices,
                              n_jobs=n_jobs)
    return perf_payload(records)


def resolve_perf_batch(param_sets: Sequence[Mapping[str, Any]],
                       n_jobs: int = 1) -> list[list[dict[str, Any]]]:
    """Answer several same-device perf queries from one grid evaluation.

    The union of the queries' workloads (suite order; ``None`` means the
    whole suite) is evaluated once as a single task graph (one
    ``analytic-stats`` node per workload and case, drained by the
    :class:`~repro.graph.GraphScheduler`), then each query's records are
    re-sliced in the device-major, requested-workload order a direct
    :func:`run_performance` call returns — the splitting is pure
    bookkeeping, so batched answers stay bit-identical to unbatched ones.
    """
    if not param_sets:
        return []
    gpus = list(param_sets[0]["gpus"])
    if any(list(p["gpus"]) != gpus for p in param_sets):
        raise ValueError("perf batch mixes device lists")
    suite = [w.name for w in all_workloads()]
    wanted: list[str] = []
    for p in param_sets:
        for name in (p["workloads"] if p["workloads"] is not None else suite):
            if name not in wanted:
                wanted.append(name)
    # canonical suite order keeps the union run identical to a direct
    # whole-suite call when every workload is requested
    union = [n for n in suite if n in wanted] \
        + [n for n in wanted if n not in suite]
    devices = [Device(g) for g in gpus]
    records = run_performance(
        workloads=[get_workload(n) for n in union], devices=devices,
        n_jobs=n_jobs)
    by_key: dict[tuple[str, str], list[PerfRecord]] = {}
    for r in records:
        by_key.setdefault((r.gpu, r.workload), []).append(r)
    out = []
    for p in param_sets:
        names = p["workloads"] if p["workloads"] is not None else suite
        sliced: list[PerfRecord] = []
        for dev in devices:
            for name in names:
                sliced.extend(by_key.get((dev.spec.name, name), ()))
        out.append(perf_payload(sliced))
    return out


# ------------------------------------------------------------- the rest

def _resolve_quadrant(params: Mapping[str, Any]) -> dict[str, Any]:
    profile = classify(get_workload(params["workload"]))
    payload = jsonable(profile)
    payload["input_full"] = profile.input_full
    payload["output_full"] = profile.output_full
    return payload


def _resolve_accuracy(params: Mapping[str, Any]) -> Any:
    w = get_workload(params["workload"])
    if not w.floating_point:
        raise ValueError(
            f"{w.name} performs no floating-point computation")
    return jsonable(accuracy_table(w, Device(params["gpu"])))


def _resolve_edp(params: Mapping[str, Any]) -> Any:
    return jsonable(edp_study(get_workload(params["workload"]),
                              Device(params["gpu"]),
                              repeats=params.get("repeats")))


def _resolve_roofline(params: Mapping[str, Any]) -> dict[str, Any]:
    names = params["workloads"]
    workloads = all_workloads() if names is None \
        else [get_workload(n) for n in names]
    roof = suite_roofline(workloads, Device(params["gpu"]))
    return {
        "gpu": roof.spec.name,
        "tc_ceiling": roof.tc_ceiling,
        "cc_ceiling": roof.cc_ceiling,
        "ridge_point_tc": roof.ridge_point("tc"),
        "ridge_point_cc": roof.ridge_point("cc"),
        "points": jsonable(roof.points),
    }


def _resolve_whatif(params: Mapping[str, Any]) -> dict[str, Any]:
    spec = hypothetical(params["base"], **params["scales"])
    names = params["workloads"]
    workloads = all_workloads() if names is None \
        else [get_workload(n) for n in names]
    results = evaluate_whatif(workloads, params["base"], spec,
                              Variant(params["variant"]))
    rows = []
    for r in results:
        row = jsonable(r)
        row["speedup"] = r.speedup
        rows.append(row)
    return {"spec": spec.name, "results": rows}


def _resolve_observations(params: Mapping[str, Any]) -> Any:
    return jsonable(verify_all(n_jobs=1))


_RESOLVERS = {
    "perf": _resolve_perf,
    "quadrant": _resolve_quadrant,
    "accuracy": _resolve_accuracy,
    "edp": _resolve_edp,
    "roofline": _resolve_roofline,
    "whatif": _resolve_whatif,
    "observations": _resolve_observations,
}


def resolve_query(kind: str, params: Mapping[str, Any]) -> Any:
    """Resolve one normalized query to its JSON-able answer."""
    try:
        resolver = _RESOLVERS[kind]
    except KeyError:
        raise ValueError(f"kind {kind!r} has no model resolver") from None
    return resolver(params)

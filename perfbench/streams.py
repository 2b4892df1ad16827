"""Seeded inputs: the ``serve_zipf`` query stream and what-if specs.

Everything is drawn from :class:`random.Random`, so one seed always
gives the same inputs and the program under test receives only the
generated queries.  The seed picks the queries; the popularity pattern
(which rank is asked when, and the kind at each rank) is the same for
every seed.
"""

from __future__ import annotations

import bisect
import json
import random
from typing import Any

#: the suite in registry order (checked against ``repro`` by the tests)
WORKLOADS = ("gemm", "pic", "fft", "stencil", "scan", "reduction", "bfs",
             "gemv", "spmv", "spgemm")
GPUS = ("A100", "H200", "B200")
SCALABLE = ("tc_fp64", "cc_fp64", "dram_bw", "l1_bw", "launch_overhead_s")

#: distinct queries in the ``serve_zipf`` key space; more than the
#: served-result LRU of both shards together (2 x ``results_cap``)
KEY_SPACE = 4096
#: Zipf exponent of key popularity: the default request-distribution
#: constant of YCSB (Cooper et al., "Benchmarking Cloud Serving Systems
#: with YCSB", SoCC 2010)
ZIPF_S = 0.99
#: kind -> weight: how often each kind appears in the serve loadgen's
#: ``DEFAULT_MIX`` (checked against ``repro`` by the tests). accuracy
#: and observations are left out: a miss on either costs seconds of the
#: audit path
KIND_WEIGHTS = (("quadrant", 2), ("perf", 2), ("roofline", 1), ("edp", 1),
                ("whatif", 1))

#: the queries that open every ``serve_zipf`` warm-up: the whole suite,
#: one workload per query (a whole-suite answer exceeds the router's
#: 64 KiB reply line and the router drops the connection)
SUITE_QUERIES = tuple(("perf", {"workloads": [w], "gpus": list(GPUS)})
                      for w in WORKLOADS)

#: fixed catalogue of what-if specs; ``grid_warm`` draws its batch from it
WHATIF_CATALOGUE_SIZE = 64
WHATIF_BATCH = 24


def _scales(rng: random.Random, n: int | None = None) -> dict[str, float]:
    keys = rng.sample(SCALABLE, rng.randint(1, 2) if n is None else n)
    return {k: rng.uniform(0.25, 4.0) for k in keys}


def domain(kind: str) -> list[dict[str, Any]] | None:
    """Every query of ``kind`` shaped like ``DEFAULT_MIX``'s (one
    workload, one GPU); ``None`` for ``whatif``, whose scale is
    continuous."""
    pairs = [(w, g) for w in WORKLOADS for g in GPUS]
    if kind == "quadrant":
        return [{"workload": w} for w in WORKLOADS]
    if kind == "perf":
        return [{"workloads": [w], "gpus": [g]} for w, g in pairs]
    if kind == "roofline":
        return [{"workloads": [w], "gpu": g} for w, g in pairs]
    if kind == "edp":
        return [{"workload": w, "gpu": g} for w, g in pairs]
    return None


def _whatif(rng: random.Random) -> dict[str, Any]:
    return {"base": rng.choice(GPUS), "scales": _scales(rng, 1),
            "workloads": [rng.choice(WORKLOADS)]}


def query_id(kind: str, params: dict[str, Any]) -> str:
    return kind + json.dumps(params, sort_keys=True)


def layout() -> list[str]:
    """The kind at each popularity rank, drawn with ``KIND_WEIGHTS`` until
    a kind's domain is used up — the same for every seed, so the traffic
    mix does not change with the seed; only the members of each query
    (workload, GPU, scale) do."""
    rng = random.Random("layout")
    left = {kind: len(domain(kind) or range(KEY_SPACE))
            for kind, _ in KIND_WEIGHTS}
    out = []
    for _ in range(KEY_SPACE):
        kinds = [(k, w) for k, w in KIND_WEIGHTS if left[k] > 0]
        kind = rng.choices([k for k, _ in kinds], [w for _, w in kinds])[0]
        left[kind] -= 1
        out.append(kind)
    return out


def key_space(seed: int) -> list[tuple[str, dict[str, Any]]]:
    """``KEY_SPACE`` distinct queries; index = popularity rank - 1."""
    rng = random.Random(f"keys:{seed}")
    pools: dict[str, list[dict[str, Any]]] = {}
    for kind, _ in KIND_WEIGHTS:
        pool = domain(kind)
        if pool is not None:
            rng.shuffle(pool)
            pools[kind] = pool
    seen: set[str] = set()
    out: list[tuple[str, dict[str, Any]]] = []
    for kind in layout():
        if kind in pools:
            params = pools[kind].pop()
        else:
            params = _whatif(rng)
            while query_id(kind, params) in seen:
                params = _whatif(rng)
        seen.add(query_id(kind, params))
        out.append((kind, params))
    return out


def zipf_stream(n: int) -> list[int]:
    """``n`` key indices drawn with Zipf(``ZIPF_S``) popularity over the
    key space — the same for every seed, so every seed first asks for
    the same number of keys of each kind in each phase.  Drawn per seed,
    the ``perf`` misses in the open loop ranged from 2 to 9, and p99
    jumped between about 5 ms and 19 ms with that count."""
    rng = random.Random("stream")
    cdf, total = [], 0.0
    for rank in range(1, KEY_SPACE + 1):
        total += rank ** -ZIPF_S
        cdf.append(total)
    return [min(bisect.bisect_left(cdf, rng.random() * total), KEY_SPACE - 1)
            for _ in range(n)]


def repeat_share(stream: list[int]) -> float:
    """Share of requests whose key appeared earlier in the stream."""
    return 1.0 - len(set(stream)) / len(stream) if stream else 0.0


def whatif_catalogue() -> list[dict[str, Any]]:
    """The fixed what-if spec catalogue (seed-independent)."""
    rng = random.Random("whatif-catalogue")
    return [{"base": rng.choice(GPUS), "scales": _scales(rng),
             "variant": rng.choice(("tc", "cc", "cce", "baseline"))}
            for _ in range(WHATIF_CATALOGUE_SIZE)]


def whatif_batch(seed: int) -> list[int]:
    """Catalogue indices of the seed's what-if batch."""
    return random.Random(f"whatif:{seed}").sample(
        range(WHATIF_CATALOGUE_SIZE), WHATIF_BATCH)

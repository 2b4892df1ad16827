"""Central registry of every injectable fault site.

A *fault site* is a named point in the stack where the deterministic
fault-injection layer (:mod:`repro.faults.plan`) may fire: a pool worker
crashing, a cache entry corrupting on read, a serve connection dropping.
Every ``faults.site(...)`` call in the codebase must name a site declared
here — lint rule ``R008`` enforces that statically, and
:func:`repro.faults.parse_plan` rejects plans naming unknown sites — so
the registry is the single documented inventory of what a chaos run can
inject.

Declaring a site here is deliberately cheap (a name, the layer it lives
in, and one sentence on what firing does); keeping the set closed is what
makes ``REPRO_FAULTS`` specs auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FAULT_SITES", "FaultSite", "SITE_NAMES", "is_registered"]


@dataclass(frozen=True)
class FaultSite:
    """One declared injection point."""

    name: str
    #: subsystem the site lives in (executor / cache / serve / sweep /
    #: fabric)
    layer: str
    #: what firing this site does, one sentence
    description: str


FAULT_SITES: tuple[FaultSite, ...] = (
    FaultSite(
        "executor.worker_crash", "executor",
        "a pool worker dies abruptly (os._exit) as it starts a graph node "
        "or a served model call, breaking the whole process pool"),
    FaultSite(
        "executor.worker_hang", "executor",
        "a pool worker stalls before a graph node or a served model call "
        "for twice REPRO_CHUNK_TIMEOUT_S (2 s when unset)"),
    FaultSite(
        "cache.read_corrupt", "cache",
        "bytes read from an on-disk cache entry are flipped, so the "
        "checksum trailer fails and the entry is quarantined"),
    FaultSite(
        "cache.write_fail", "cache",
        "an on-disk cache write is dropped, as if the disk were full or "
        "failing (caching stays best-effort)"),
    FaultSite(
        "serve.conn_drop", "serve",
        "the server closes a client connection after reading a request "
        "instead of replying, forcing a client reconnect-and-retry"),
    FaultSite(
        "sweep.kill", "sweep",
        "the sweeping process dies abruptly (os._exit, a stand-in for "
        "SIGKILL) right after journaling a completed grid point"),
    FaultSite(
        "fabric.shard_down", "fabric",
        "the router's health probe treats a shard as unreachable for one "
        "probe round, re-owning its hash ranges until the next probe"),
    FaultSite(
        "fabric.route_stale", "fabric",
        "the router routes one query on the membership view from before "
        "the last shard change, exercising failover replay when the "
        "stale owner is gone"),
)


def _validated_names() -> frozenset[str]:
    names: set[str] = set()
    for site in FAULT_SITES:
        if not site.name or "." not in site.name:
            raise ValueError(
                f"fault site {site.name!r} must be '<layer>.<event>'")
        if site.name in names:
            raise ValueError(f"duplicate fault site {site.name!r}")
        if not site.description.strip():
            raise ValueError(f"fault site {site.name!r} is undocumented")
        names.add(site.name)
    return frozenset(names)


SITE_NAMES: frozenset[str] = _validated_names()


def is_registered(name: str) -> bool:
    """Whether ``name`` is a declared fault site."""
    return name in SITE_NAMES

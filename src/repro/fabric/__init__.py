"""``repro.fabric`` — the sharded, authenticated serve tier.

The distributed layer over :mod:`repro.serve`: a router process
consistent-hashes query content-keys across N shard processes (each a
full serve pipeline, so coalescing, perf batching, and the served-result
LRU keep working *per shard*), authenticated by a shared-token handshake
line with per-token rate buckets, health-probed with failover that
re-owns a dead shard's hash ranges and replays its in-flight queries,
and backed by a persistent served-result store spilled through
:class:`~repro.perf.cache.ResultCache` so restarted shards warm from
disk.

Entry points: ``repro fabric start`` (shards + router), ``repro fabric
status``, ``repro serve --token/--shard-id/--persist``, ``repro loadgen
--router N``.  Wire and failure semantics: docs/SERVE.md
("The distributed tier").

Import discipline: this package eagerly re-exports only the leaf modules
(:mod:`~repro.fabric.auth`, :mod:`~repro.fabric.ring`,
:mod:`~repro.fabric.store`), which :mod:`repro.serve` itself imports
lazily at runtime.  The router and cluster layers import serve
*submodules* and must be imported directly
(``from repro.fabric.router import FabricRouter``) to keep the
serve <-> fabric import graph acyclic.
"""

from .auth import Authenticator
from .ring import HashRing
from .store import ServedResultStore

__all__ = [
    "Authenticator",
    "HashRing",
    "ServedResultStore",
]

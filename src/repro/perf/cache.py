"""Content-addressed two-tier result cache.

Keys are SHA-256 digests of a canonical byte encoding of (qualname,
params, library version, relevant source code), so they are stable across
processes and machines — Python's salted ``hash()`` is never used.  Values
live in an in-memory LRU (same-object returns within a process) backed by
an on-disk pickle store under :func:`default_cache_dir` (``REPRO_CACHE_DIR``
or ``~/.cache/repro``).

The determinism guarantee that makes this sound: every expensive artifact
in the pipeline flows from the fixed-seed LCG (DESIGN.md decision 4), so a
cache entry and a fresh recomputation are required to be *bit-identical* —
a property the test suite asserts for matrices, graphs, and functional
kernel executions.

Invalidation is automatic where it matters: generator keys mix in a hash
of the generating modules' source (:func:`source_token`), and functional
execution keys mix in a hash of the whole package
(:func:`package_source_token`), so editing code never serves stale
results.  ``REPRO_CACHE=0`` disables the disk tier entirely.

Integrity (docs/ROBUSTNESS.md): every disk entry carries a checksum
trailer (magic + SHA-256 of the pickled payload) written with the entry.
A load whose trailer does not verify — bit rot, torn write, or an
injected ``cache.read_corrupt`` fault — is *quarantined*: the file moves
to ``_quarantine/`` (outside the size ledger and the ``*.pkl`` glob, so
it can never be served or counted again) and the value is recomputed from
seeds, which by the determinism guarantee reproduces it bit-identically.
``cache.write_fail`` exercises the other contract: a dropped write is
silently absorbed because caching is best-effort — correctness never
depends on a write landing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, TypeVar

import numpy as np

try:  # POSIX advisory locking for the cross-process size ledger
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from .. import faults
from .instrument import fork_safe_lock

__all__ = [
    "CacheStats",
    "DiskStats",
    "PruneResult",
    "ResultCache",
    "cache_enabled",
    "content_key",
    "default_cache",
    "default_cache_dir",
    "default_max_disk_bytes",
    "package_source_token",
    "set_default_cache",
    "source_token",
]

T = TypeVar("T")

#: bump when the on-disk entry format changes (invalidates every entry)
CACHE_SCHEMA = 2

#: trailer = magic + first 16 bytes of SHA-256 over the pickled payload
_TRAILER_MAGIC = b"RPRC\x02"
_TRAILER_DIGEST_LEN = 16
_TRAILER_LEN = len(_TRAILER_MAGIC) + _TRAILER_DIGEST_LEN

#: quarantined entries kept for post-mortem before rotation drops the oldest
_QUARANTINE_KEEP = 32

#: orphaned ``*.tmp`` files (a writer died mid-write) older than this are
#: swept during pruning; young ones may still be racing toward os.replace
_STALE_TMP_S = 3600.0

#: guards the memory tiers' dict operations (serve's thread-mode pool
#: shares caches across threads) — never a compute, so a compute that
#: reads the cache again cannot deadlock
_MEMORY_LOCK = fork_safe_lock()


def _seal(payload: bytes) -> bytes:
    """Append the integrity trailer to a pickled payload."""
    digest = hashlib.sha256(payload).digest()[:_TRAILER_DIGEST_LEN]
    return payload + _TRAILER_MAGIC + digest


def _unseal(blob: bytes) -> bytes:
    """Verify and strip the trailer; raises ``ValueError`` on any mismatch."""
    if len(blob) <= _TRAILER_LEN:
        raise ValueError("cache entry shorter than its integrity trailer")
    payload, trailer = blob[:-_TRAILER_LEN], blob[-_TRAILER_LEN:]
    if trailer[:len(_TRAILER_MAGIC)] != _TRAILER_MAGIC:
        raise ValueError("cache entry missing integrity trailer magic")
    digest = hashlib.sha256(payload).digest()[:_TRAILER_DIGEST_LEN]
    if trailer[len(_TRAILER_MAGIC):] != digest:
        raise ValueError("cache entry failed checksum verification")
    return payload


def cache_enabled() -> bool:
    """Whether the on-disk tier is enabled (``REPRO_CACHE=0`` turns it off)."""
    return os.environ.get("REPRO_CACHE", "1").lower() not in ("0", "off", "no")


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` > ``$XDG_CACHE_HOME/repro`` > ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def default_max_disk_bytes() -> int | None:
    """On-disk size cap from ``REPRO_CACHE_MAX_BYTES`` (None = unbounded).

    Accepts a plain byte count or a ``K``/``M``/``G`` suffix; ``0`` and
    unparseable values mean unbounded.
    """
    env = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip().lower()
    if not env:
        return None
    scale = 1
    for suffix, s in (("k", 1 << 10), ("m", 1 << 20), ("g", 1 << 30)):
        if env.endswith(suffix):
            env, scale = env[:-1], s
            break
    try:
        cap = int(float(env) * scale)
    except ValueError:
        return None
    return cap if cap > 0 else None


# ------------------------------------------------------------------ hashing

def _encode(obj: Any, h) -> None:
    """Feed a canonical byte encoding of ``obj`` into hasher ``h``.

    Only value-like inputs are accepted; arbitrary objects raise TypeError
    so cache keys never silently depend on object identity.
    """
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i" + repr(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + repr(float(obj)).encode())
    elif isinstance(obj, str):
        raw = obj.encode()
        h.update(b"s" + repr(len(raw)).encode() + b":" + raw)
    elif isinstance(obj, bytes):
        h.update(b"y" + repr(len(obj)).encode() + b":" + obj)
    elif isinstance(obj, Enum):
        h.update(b"e")
        _encode(type(obj).__name__, h)
        _encode(obj.value, h)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"a" + arr.dtype.str.encode() + repr(arr.shape).encode())
        h.update(arr.tobytes())
    elif is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"d" + type(obj).__qualname__.encode())
        for f in fields(obj):
            _encode(f.name, h)
            _encode(getattr(obj, f.name), h)
    elif isinstance(obj, Mapping):
        h.update(b"m")
        for k in sorted(obj, key=repr):
            _encode(k, h)
            _encode(obj[k], h)
    elif isinstance(obj, (Sequence, frozenset, set)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) \
            else obj
        h.update(b"l" + repr(len(items)).encode())
        for item in items:
            _encode(item, h)
    else:
        raise TypeError(
            f"cannot derive a stable cache key from {type(obj).__name__!r}")


def content_key(*parts: Any) -> str:
    """Stable hex digest of the canonical encoding of ``parts``.

    Identical inputs give identical keys in every process (asserted by a
    cross-process test) — the content address of a cached artifact.
    """
    h = hashlib.sha256()
    h.update(b"repro-cache" + repr(CACHE_SCHEMA).encode())
    for part in parts:
        h.update(b"|")
        _encode(part, h)
    return h.hexdigest()


_SOURCE_TOKENS: dict[str, str] = {}


def source_token(*modules: ModuleType) -> str:
    """Digest of the given modules' source files.

    Mixing this into a generator's cache key makes invalidation automatic:
    editing the generator changes the key, so stale artifacts are never
    served across code changes.
    """
    h = hashlib.sha256()
    for mod in modules:
        name = mod.__name__
        tok = _SOURCE_TOKENS.get(name)
        if tok is None:
            path = getattr(mod, "__file__", None)
            try:
                data = Path(path).read_bytes() if path else name.encode()
            except OSError:  # pragma: no cover - sourceless module
                data = name.encode()
            tok = hashlib.sha256(data).hexdigest()
            _SOURCE_TOKENS[name] = tok
        h.update(tok.encode())
    return h.hexdigest()


_PACKAGE_TOKEN: str | None = None


def package_source_token() -> str:
    """Digest of every ``.py`` file in the ``repro`` package.

    Functional kernel executions depend on code spread across the whole
    package, so their cache keys use this: any code change invalidates
    them (computed once per process; ~milliseconds).
    """
    global _PACKAGE_TOKEN
    if _PACKAGE_TOKEN is None:
        root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            try:
                h.update(hashlib.sha256(path.read_bytes()).digest())
            except OSError:  # pragma: no cover - unreadable file
                pass
        _PACKAGE_TOKEN = h.hexdigest()
    return _PACKAGE_TOKEN


# ------------------------------------------------------------------ store

@dataclass(frozen=True)
class DiskStats:
    """On-disk footprint of one cache directory."""

    directory: str
    total_entries: int
    total_bytes: int
    #: per-kind (subdirectory) entry and byte counts
    kinds: dict[str, tuple[int, int]]
    max_disk_bytes: int | None
    #: corrupt entries parked in ``_quarantine/`` — outside the ledger above
    quarantined_entries: int = 0
    quarantined_bytes: int = 0


@dataclass(frozen=True)
class PruneResult:
    """Outcome of one LRU pruning pass."""

    removed_entries: int
    removed_bytes: int
    remaining_entries: int
    remaining_bytes: int


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    #: entries whose pickled payload failed to decode (=> recompute)
    load_errors: int = 0
    #: entries whose checksum trailer failed to verify (=> recompute)
    integrity_failures: int = 0
    #: corrupt entries moved aside to ``_quarantine/``
    quarantined: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


#: schema of the ``_ledger.json`` size ledger (bump on format change)
_LEDGER_SCHEMA = 1


class _SizeLedger:
    """Lock-guarded ``_ledger.json``: relative path -> [bytes, mtime].

    The ledger lets concurrent pruners (serve-fabric shards sharing one
    store directory) evict by size without each re-statting every entry
    on every pass.  The hot path never touches it — loads and stores
    record into an in-memory pending set that :meth:`ResultCache.prune`
    merges under the lock.  A missing or corrupt ledger degrades to a
    full directory scan (the pre-ledger behavior), never to an error.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.path = directory / "_ledger.json"
        self._lock_path = directory / "_ledger.lock"

    @contextlib.contextmanager
    def locked(self):
        """Cross-process exclusive section (flock on ``_ledger.lock``)."""
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(self._lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:  # pragma: no cover - unwritable store
            yield
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            with contextlib.suppress(OSError):
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def read(self) -> dict[str, list[float]] | None:
        """The ledger contents, or None when absent/corrupt (=> rescan)."""
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) \
                or payload.get("schema") != _LEDGER_SCHEMA:
            return None
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return None
        out: dict[str, list[float]] = {}
        for rel, rec in entries.items():
            if not (isinstance(rel, str) and isinstance(rec, list)
                    and len(rec) == 2
                    and all(isinstance(x, (int, float))
                            and not isinstance(x, bool) for x in rec)):
                return None
            out[rel] = [int(rec[0]), float(rec[1])]
        return out

    def write(self, entries: dict[str, list[float]]) -> None:
        """Atomically replace the ledger (best-effort, like the store)."""
        blob = json.dumps(
            {"schema": _LEDGER_SCHEMA,
             "entries": {rel: entries[rel] for rel in sorted(entries)}},
            separators=(",", ":"))
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp, self.path)
        except OSError:  # pragma: no cover - unwritable store
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)


class ResultCache:
    """Two-tier (memory LRU + on-disk pickle) content-addressed store.

    The memory tier returns the *same object* on repeated lookups within a
    process; the disk tier survives processes and returns bit-identical
    values (pickle round-trips of numpy arrays are exact).  A truncated or
    otherwise corrupt disk entry is treated as a miss: the value is
    recomputed and the entry rewritten.  Writes are atomic (temp file +
    ``os.replace``) so concurrent processes never observe partial entries.
    """

    #: prune at most once per this many disk writes (keeps the directory
    #: scan off the per-entry hot path)
    PRUNE_EVERY = 16

    def __init__(self, directory: str | Path | None = None, *,
                 memory_items: int = 512, disk: bool | None = None,
                 max_disk_bytes: int | None = None) -> None:
        self.directory = Path(directory) if directory is not None \
            else default_cache_dir()
        self.disk = cache_enabled() if disk is None else disk
        self.memory_items = memory_items
        self.max_disk_bytes = max_disk_bytes if max_disk_bytes is not None \
            else default_max_disk_bytes()
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self._writes_since_prune = 0
        self._ledger = _SizeLedger(self.directory)
        #: entries this process wrote/touched since the last prune,
        #: rel path -> [size, mtime]; merged into the ledger under lock
        self._pending_ledger: dict[str, list[float]] = {}
        #: entries this process removed (quarantine) since the last prune
        self._pending_drops: set[str] = set()
        self.stats = CacheStats()

    # -------------------------------------------------------------- tiers
    def _entry_path(self, kind: str, key: str) -> Path:
        return self.directory / kind / f"{key}.pkl"

    def _rel(self, path: Path) -> str:
        return f"{path.parent.name}/{path.name}"

    def _note_entry(self, path: Path, size: int) -> None:
        rel = self._rel(path)
        self._pending_drops.discard(rel)
        self._pending_ledger[rel] = [int(size), time.time()]

    def _note_drop(self, path: Path) -> None:
        rel = self._rel(path)
        self._pending_ledger.pop(rel, None)
        self._pending_drops.add(rel)

    def _memory_get(self, key: str) -> tuple[bool, Any]:
        with _MEMORY_LOCK:
            if key not in self._memory:
                return False, None
            self.stats.memory_hits += 1
            self._memory.move_to_end(key)
            return True, self._memory[key]

    def _memory_put(self, key: str, value: Any) -> None:
        with _MEMORY_LOCK:
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_items:
                self._memory.popitem(last=False)

    def _quarantine(self, path: Path) -> None:
        """Park a corrupt entry under ``_quarantine/`` for post-mortem.

        The ``.quar`` suffix and the reserved directory keep quarantined
        files out of the ``*/*.pkl`` entry glob — they are never served
        again and never count toward the size ledger.  Best-effort: if the
        move fails the file is deleted instead (a corrupt entry must not
        survive in place, or every future lookup re-fails on it).
        """
        dest_dir = self.directory / "_quarantine"
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest_dir / f"{path.parent.name}__{path.stem}.quar")
            self.stats.quarantined += 1
        except OSError:  # pragma: no cover - raced deletion / odd fs
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        self._note_drop(path)

    def _disk_load(self, path: Path) -> tuple[bool, Any]:
        if not self.disk:
            return False, None
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return False, None
        except OSError:  # pragma: no cover - unreadable store
            self.stats.load_errors += 1
            return False, None
        if faults.site("cache.read_corrupt", key=path.stem) and blob:
            mid = len(blob) // 2  # injected bit rot: flip one payload byte
            blob = blob[:mid] + bytes([blob[mid] ^ 0xFF]) + blob[mid + 1:]
        try:
            payload = _unseal(blob)
        except ValueError:  # failed checksum: quarantine and recompute
            self.stats.integrity_failures += 1
            self._quarantine(path)
            return False, None
        try:
            value = pickle.loads(payload)
        except Exception:  # verified bytes that won't decode: stale schema
            self.stats.load_errors += 1
            self._quarantine(path)
            return False, None
        try:
            os.utime(path)  # refresh mtime: the LRU recency for pruning
        except OSError:  # pragma: no cover - read-only store
            pass
        self._note_entry(path, len(blob))
        return True, value

    def _disk_store(self, path: Path, value: Any) -> None:
        if not self.disk:
            return
        if faults.site("cache.write_fail", key=path.stem):
            return  # injected full/failing disk: drop the write
        try:
            blob = _seal(pickle.dumps(value,
                                      protocol=pickle.HIGHEST_PROTOCOL))
        except (pickle.PicklingError, TypeError, AttributeError):
            return  # unpicklable: caching is best-effort
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return  # unwritable: caching is best-effort
        self._note_entry(path, len(blob))
        if self.max_disk_bytes is not None:
            self._writes_since_prune += 1
            if self._writes_since_prune >= self.PRUNE_EVERY:
                self._writes_since_prune = 0
                self.prune()

    # ---------------------------------------------------------------- API
    def get_or_compute(self, kind: str, key: str,
                       compute: Callable[[], T]) -> T:
        """Return the cached value for ``(kind, key)``, computing on miss."""
        mem_key = f"{kind}/{key}"
        found, value = self._memory_get(mem_key)
        if found:
            return value
        path = self._entry_path(kind, key)
        found, value = self._disk_load(path)
        if found:
            self.stats.disk_hits += 1
            self._memory_put(mem_key, value)
            return value
        self.stats.misses += 1
        value = compute()
        self._disk_store(path, value)
        self._memory_put(mem_key, value)
        return value

    def peek(self, kind: str, key: str) -> tuple[bool, Any]:
        """Lookup without computing: (found, value).

        Promotes a disk hit into the memory tier like
        :meth:`get_or_compute`, but a miss stays a miss — the primitive
        the serve fabric's persistent served-result store needs (the
        answer may not be worth computing synchronously here).
        """
        mem_key = f"{kind}/{key}"
        found, value = self._memory_get(mem_key)
        if found:
            return True, value
        found, value = self._disk_load(self._entry_path(kind, key))
        if found:
            self.stats.disk_hits += 1
            self._memory_put(mem_key, value)
            return True, value
        self.stats.misses += 1
        return False, None

    def put(self, kind: str, key: str, value: Any) -> None:
        """Store a value computed elsewhere under ``(kind, key)``.

        Write-through to both tiers, same best-effort contract as
        :meth:`get_or_compute` (an injected or real disk failure drops
        the write silently).
        """
        self._disk_store(self._entry_path(kind, key), value)
        self._memory_put(f"{kind}/{key}", value)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier is untouched)."""
        with _MEMORY_LOCK:
            self._memory.clear()

    # ------------------------------------------------------------- pruning
    def _disk_entries(self) -> list[tuple[Path, int, float]]:
        """Every on-disk entry as (path, size, mtime); best-effort."""
        entries = []
        if not self.directory.is_dir():
            return entries
        for path in self.directory.glob("*/*.pkl"):
            try:
                st = path.stat()
            except OSError:  # pragma: no cover - raced deletion
                continue
            entries.append((path, st.st_size, st.st_mtime))
        return entries

    def _quarantine_entries(self) -> list[tuple[Path, int, float]]:
        entries = []
        for path in (self.directory / "_quarantine").glob("*.quar"):
            try:
                st = path.stat()
            except OSError:  # pragma: no cover - raced deletion
                continue
            entries.append((path, st.st_size, st.st_mtime))
        return entries

    def disk_stats(self) -> DiskStats:
        """Size and entry counts of the on-disk tier, per kind.

        Quarantined files are reported separately and excluded from the
        entry/byte ledger: they are dead weight awaiting post-mortem, not
        servable cache contents.
        """
        kinds: dict[str, tuple[int, int]] = {}
        total_entries = total_bytes = 0
        for path, size, _ in self._disk_entries():
            kind = path.parent.name
            n, b = kinds.get(kind, (0, 0))
            kinds[kind] = (n + 1, b + size)
            total_entries += 1
            total_bytes += size
        quarantined = self._quarantine_entries()
        return DiskStats(directory=str(self.directory),
                         total_entries=total_entries,
                         total_bytes=total_bytes,
                         kinds=dict(sorted(kinds.items())),
                         max_disk_bytes=self.max_disk_bytes,
                         quarantined_entries=len(quarantined),
                         quarantined_bytes=sum(s for _, s, _ in quarantined))

    def prune(self, max_bytes: int | None = None, *,
              rebuild_ledger: bool = False) -> PruneResult:
        """Evict least-recently-used entries until the store fits.

        Recency is the entry's mtime, refreshed on every disk hit, so
        eviction order approximates true LRU across processes.  With no
        cap configured and no ``max_bytes`` given, eviction is a no-op —
        but every pass still sweeps crash debris: orphaned ``*.tmp``
        files from writers that died mid-write (older than an hour, so
        in-flight writes are never raced), and quarantined entries beyond
        the newest :data:`_QUARANTINE_KEEP`.

        Sizes come from the cross-process ``_ledger.json`` when present:
        each pruner merges its own pending writes/touches under the
        ledger lock instead of re-statting the whole disk tier, so N
        concurrent shard pruners cost one directory scan total, not N per
        pass.  ``rebuild_ledger=True`` forces a full rescan (resyncing
        after out-of-band deletions); a missing or corrupt ledger
        rebuilds the same way automatically.
        """
        self._sweep_debris()
        cap = self.max_disk_bytes if max_bytes is None else max_bytes
        with self._ledger.locked():
            entries = None if rebuild_ledger else self._ledger.read()
            if entries is None:
                # scan and start fresh: the scan's mtimes are newer truth
                # than any pending touch recorded before it ran
                entries = {self._rel(p): [size, mtime]
                           for p, size, mtime in self._disk_entries()}
                self._pending_ledger.clear()
            else:
                for rel in self._pending_drops:
                    entries.pop(rel, None)
                for rel, rec in self._pending_ledger.items():
                    old = entries.get(rel)
                    mtime = rec[1] if old is None else max(rec[1], old[1])
                    entries[rel] = [rec[0], mtime]
                self._pending_ledger.clear()
            self._pending_drops.clear()
            total = int(sum(rec[0] for rec in entries.values()))
            removed_entries = removed_bytes = 0
            if cap is not None:
                for rel in sorted(entries, key=lambda r: entries[r][1]):
                    if total <= cap:
                        break
                    size = int(entries[rel][0])
                    try:
                        (self.directory / rel).unlink()
                    except FileNotFoundError:
                        # removed out-of-band (another pruner, a manual
                        # rm): drop the ghost without counting it
                        entries.pop(rel)
                        total -= size
                        continue
                    except OSError:  # pragma: no cover - raced deletion
                        continue
                    entries.pop(rel)
                    total -= size
                    removed_entries += 1
                    removed_bytes += size
            self._ledger.write(entries)
        return PruneResult(
            removed_entries=removed_entries,
            removed_bytes=removed_bytes,
            remaining_entries=len(entries),
            remaining_bytes=total,
        )

    def _sweep_debris(self) -> None:
        """Crash-safe cleanup: stale temp files and excess quarantine."""
        if not self.directory.is_dir():
            return
        cutoff = time.time() - _STALE_TMP_S
        for tmp in self.directory.glob("*/*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:  # pragma: no cover - raced deletion
                continue
        quarantined = sorted(self._quarantine_entries(),
                             key=lambda e: e[2], reverse=True)
        for path, _, _ in quarantined[_QUARANTINE_KEEP:]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced deletion
                continue

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ResultCache({str(self.directory)!r}, disk={self.disk}, "
                f"stats={self.stats})")


_DEFAULT: ResultCache | None = None


def default_cache() -> ResultCache:
    """The process-wide cache (created lazily from the environment)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ResultCache()
    return _DEFAULT


def set_default_cache(cache: ResultCache | None) -> ResultCache | None:
    """Replace the process-wide cache (tests); returns the previous one."""
    global _DEFAULT
    previous, _DEFAULT = _DEFAULT, cache
    return previous

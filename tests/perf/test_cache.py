"""Content-addressed cache: keys, tiers, accounting, corruption, and the
bit-identity contract between cached and fresh artifacts."""

import hashlib
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum, IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import Device
from repro.analysis.accuracy import _accuracy_table_uncached, accuracy_table
from repro.datasets.graphs import _generate_graph_uncached, generate_graph
from repro.datasets.suitesparse import (
    _generate_matrix_uncached,
    generate_matrix,
)
from repro.kernels.base import Variant
from repro.kernels.scan import ScanWorkload
from repro.perf.cache import (
    _TRAILER_LEN,
    CACHE_SCHEMA,
    ResultCache,
    _seal,
    _unseal,
    content_key,
    package_source_token,
    source_token,
)
from repro.serve.protocol import normalize_params
from repro.serve.scheduler import query_key


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)) \
        .view(np.uint64)


def _key_in_subprocess(_: int) -> str:
    return content_key("probe", {"n": 17, "scale": 0.25},
                       np.arange(5, dtype=np.float64), ("a", 2.5))


class TestContentKey:
    def test_stable_across_processes(self):
        here = _key_in_subprocess(0)
        with ProcessPoolExecutor(max_workers=1) as pool:
            there = pool.submit(_key_in_subprocess, 0).result()
        assert here == there

    def test_value_sensitivity(self):
        base = content_key("k", 1.0, [1, 2])
        assert content_key("k", 1.0, [1, 2]) == base
        assert content_key("k", 1.0, [2, 1]) != base
        assert content_key("k", 2.0, [1, 2]) != base

    def test_dict_order_does_not_matter(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_array_dtype_and_shape_matter(self):
        a = np.arange(6)
        assert content_key(a) != content_key(a.astype(np.float64))
        assert content_key(a) != content_key(a.reshape(2, 3))

    def test_unkeyable_object_raises(self):
        with pytest.raises(TypeError):
            content_key(object())

    def test_source_tokens_are_hex_digests(self):
        from repro.datasets import synthetic
        tok = source_token(synthetic)
        assert len(tok) == 64 and int(tok, 16) >= 0
        assert len(package_source_token()) == 64


def _encode_reference(obj, h) -> None:
    """The isinstance-chain encoder, before exact builtins went first."""
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
        _encode_reference(type(obj).__name__, h)
        _encode_reference(obj.value, h)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"a" + arr.dtype.str.encode() + repr(arr.shape).encode())
        h.update(arr.tobytes())
    elif is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"d" + type(obj).__qualname__.encode())
        for f in fields(obj):
            _encode_reference(f.name, h)
            _encode_reference(getattr(obj, f.name), h)
    elif isinstance(obj, Mapping):
        h.update(b"m")
        for k in sorted(obj, key=repr):
            _encode_reference(k, h)
            _encode_reference(obj[k], h)
    elif isinstance(obj, (Sequence, frozenset, set)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) \
            else obj
        h.update(b"l" + repr(len(items)).encode())
        for item in items:
            _encode_reference(item, h)
    else:
        raise TypeError(
            f"cannot derive a stable cache key from {type(obj).__name__!r}")


def _reference_key(*parts) -> str:
    h = hashlib.sha256()
    h.update(b"repro-cache" + repr(CACHE_SCHEMA).encode())
    for part in parts:
        h.update(b"|")
        _encode_reference(part, h)
    return h.hexdigest()


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


@dataclass(frozen=True)
class _Point:
    x: float
    tags: tuple


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(allow_nan=False), st.binary(max_size=4),
    st.sampled_from(list(Variant)), st.sampled_from(list(_Level)),
    st.integers(-2**31, 2**31 - 1).map(np.int64),
    st.floats(width=32).map(np.float32))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner,
                        max_size=4).map(OrderedDict),
        st.frozensets(st.integers(), max_size=4),
        st.builds(_Point, st.floats(allow_nan=False),
                  st.lists(inner, max_size=2).map(tuple))),
    max_leaves=16)


class TestEncodeMatchesReference:
    """Exact builtins are tested first; every key stays what it was."""

    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_nested_values(self, value):
        assert content_key("v", value) == _reference_key("v", value)

    @pytest.mark.parametrize("value", [
        Variant.TC, _Level.HIGH, True, False, np.float64(0.1),
        np.int32(-7), -0.0, float("inf"), float("nan"),
        2**70, "", b"", (), [], {}, {1: "a", "1": "b"},
        _Point(1.5, ("a", Variant.CC)), np.arange(4.0)])
    def test_named_cases(self, value):
        assert content_key(value) == _reference_key(value)

    def test_serve_query_keys(self):
        queries = [("quadrant", {"workload": "gemv"}),
                   ("perf", {"workloads": ["scan"], "gpus": ["H200"]}),
                   ("whatif", {"base": "B200", "scales": {"tc_fp64": 2.0},
                               "workloads": ["gemm"]}),
                   ("edp", {"workload": "reduction", "gpu": "H200"})]
        for kind, params in queries:
            params = normalize_params(kind, params)
            assert query_key(kind, params) == _reference_key(
                "serve.query", kind, dict(params))

    def test_unkeyable_object_still_raises(self):
        with pytest.raises(TypeError):
            content_key([{"a": object()}])


class TestResultCacheTiers:
    def test_hit_miss_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return np.arange(4.0)

        key = content_key("x", 1)
        cache.get_or_compute("t", key, compute)
        assert (cache.stats.misses, cache.stats.hits) == (1, 0)
        cache.get_or_compute("t", key, compute)
        assert cache.stats.memory_hits == 1
        cache.clear_memory()
        cache.get_or_compute("t", key, compute)
        assert cache.stats.disk_hits == 1
        assert len(calls) == 1

    def test_memory_tier_returns_same_object(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key("same")
        first = cache.get_or_compute("t", key, lambda: np.arange(3.0))
        assert cache.get_or_compute("t", key, lambda: None) is first

    def test_disk_round_trip_is_bit_identical(self, tmp_path):
        value = np.linspace(0.0, 1.0, 97) * np.pi
        key = content_key("rt")
        ResultCache(tmp_path).get_or_compute("t", key, lambda: value)
        fresh = ResultCache(tmp_path)  # new memory tier: disk must serve
        loaded = fresh.get_or_compute("t", key, lambda: pytest.fail("miss"))
        assert (_bits(loaded) == _bits(value)).all()
        assert fresh.stats.disk_hits == 1

    def test_truncated_entry_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key("corrupt")
        cache.get_or_compute("t", key, lambda: np.arange(64.0))
        path = cache._entry_path("t", key)
        path.write_bytes(path.read_bytes()[:10])
        fresh = ResultCache(tmp_path)
        got = fresh.get_or_compute("t", key, lambda: np.arange(64.0))
        assert (got == np.arange(64.0)).all()
        # truncation breaks the checksum trailer => integrity failure
        assert fresh.stats.integrity_failures == 1
        assert fresh.stats.quarantined == 1
        assert fresh.stats.misses == 1
        # the rewritten entry loads cleanly again
        again = ResultCache(tmp_path)
        again.get_or_compute("t", key, lambda: pytest.fail("miss"))
        assert again.stats.disk_hits == 1

    def test_disk_tier_disabled(self, tmp_path):
        cache = ResultCache(tmp_path, disk=False)
        key = content_key("nodisk")
        cache.get_or_compute("t", key, lambda: 1)
        assert not list(tmp_path.rglob("*.pkl"))

    def test_memory_lru_evicts_oldest(self, tmp_path):
        cache = ResultCache(tmp_path, memory_items=2, disk=False)
        for i in range(3):
            cache.get_or_compute("t", content_key(i), lambda i=i: i)
        cache.get_or_compute("t", content_key(0), lambda: 0)
        assert cache.stats.misses == 4  # entry 0 was evicted


class TestDiskCapAndPruning:
    def fill(self, cache, n, size=1000, kind="blob"):
        for i in range(n):
            cache.get_or_compute(kind, content_key(kind, i),
                                 lambda i=i: bytes(size))

    def test_disk_stats_counts_per_kind(self, tmp_path):
        cache = ResultCache(tmp_path, disk=True, max_disk_bytes=None)
        self.fill(cache, 2, kind="a")
        self.fill(cache, 3, kind="b")
        stats = cache.disk_stats()
        assert stats.total_entries == 5
        assert set(stats.kinds) == {"a", "b"}
        assert stats.kinds["a"][0] == 2 and stats.kinds["b"][0] == 3
        assert stats.total_bytes == sum(b for _, b in stats.kinds.values())
        assert stats.max_disk_bytes is None

    def test_prune_is_noop_without_cap(self, tmp_path):
        cache = ResultCache(tmp_path, disk=True, max_disk_bytes=None)
        self.fill(cache, 4)
        result = cache.prune()
        assert result.removed_entries == 0
        assert result.remaining_entries == 4

    def test_prune_evicts_least_recently_used_first(self, tmp_path):
        import os
        cache = ResultCache(tmp_path, disk=True, max_disk_bytes=None)
        self.fill(cache, 3)
        # age the entries explicitly, newest-to-oldest = 2, 1, 0
        for i, age in ((0, 300), (1, 200), (2, 100)):
            path = cache._entry_path("blob", content_key("blob", i))
            st = path.stat()
            os.utime(path, (st.st_atime - age, st.st_mtime - age))
        entry = cache.disk_stats().total_bytes // 3
        result = cache.prune(max_bytes=2 * entry)
        assert result.removed_entries == 1
        assert result.remaining_entries == 2
        # the oldest (entry 0) went; 1 and 2 survive on disk
        cache.clear_memory()
        assert CacheStats_probe(cache, 3) == {"kept": [1, 2],
                                              "evicted": [0]}

    def test_disk_hit_refreshes_recency(self, tmp_path):
        import os
        cache = ResultCache(tmp_path, disk=True, max_disk_bytes=None)
        self.fill(cache, 2)
        # make entry 0 older, then touch it via a disk hit
        for i, age in ((0, 300), (1, 100)):
            path = cache._entry_path("blob", content_key("blob", i))
            st = path.stat()
            os.utime(path, (st.st_atime - age, st.st_mtime - age))
        cache.clear_memory()
        cache.get_or_compute("blob", content_key("blob", 0),
                             lambda: pytest.fail("should hit disk"))
        entry = cache.disk_stats().total_bytes // 2
        cache.prune(max_bytes=entry)
        cache.clear_memory()
        assert CacheStats_probe(cache, 2) == {"kept": [0], "evicted": [1]}

    def test_writes_trigger_periodic_prune(self, tmp_path):
        cache = ResultCache(tmp_path, disk=True, max_disk_bytes=1)
        self.fill(cache, ResultCache.PRUNE_EVERY)
        # the PRUNE_EVERY-th write pruned down toward the 1-byte cap;
        # only the newest entry (just written, never scanned) may remain
        assert cache.disk_stats().total_entries <= 1

    def test_env_cap_parsing(self, monkeypatch):
        from repro.perf.cache import default_max_disk_bytes
        cases = {"": None, "0": None, "weird": None, "1024": 1024,
                 "4k": 4096, "2M": 2 * (1 << 20), "1.5G": int(1.5 * (1 << 30))}
        for raw, want in cases.items():
            monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", raw)
            assert default_max_disk_bytes() == want, raw
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
        assert default_max_disk_bytes() is None

    def test_cap_picked_up_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "8k")
        cache = ResultCache(tmp_path, disk=True)
        assert cache.max_disk_bytes == 8192
        assert cache.disk_stats().max_disk_bytes == 8192


class TestIntegrityAndFaults:
    @pytest.fixture(autouse=True)
    def _clean_plan(self, monkeypatch):
        from repro import faults
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.reset_fault_state()
        yield
        faults.clear_plan()

    def test_flipped_byte_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key("bitrot")
        cache.get_or_compute("t", key, lambda: np.arange(32.0))
        path = cache._entry_path("t", key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        fresh = ResultCache(tmp_path)
        got = fresh.get_or_compute("t", key, lambda: np.arange(32.0))
        assert (got == np.arange(32.0)).all()
        assert fresh.stats.integrity_failures == 1
        quarantined = list((tmp_path / "_quarantine").glob("*.quar"))
        assert len(quarantined) == 1
        assert quarantined[0].name == f"t__{key}.quar"

    def test_unseal_returns_the_payload_and_rejects_corruption(self):
        payload = bytes(range(256)) * 5
        blob = _seal(payload)
        assert bytes(_unseal(blob)) == payload
        n = len(payload)
        corrupt = [
            blob[:7] + bytes([blob[7] ^ 0x80]) + blob[8:],     # payload bit
            blob[:n] + b"XXXX" + blob[n + 4:],                 # trailer magic
            blob[:-1] + bytes([blob[-1] ^ 0x01]),              # digest bit
            blob[-_TRAILER_LEN:],                              # no payload
        ]
        for bad in corrupt:
            with pytest.raises(ValueError):
                _unseal(bad)

    def test_quarantine_is_outside_the_size_ledger(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.get_or_compute("t", content_key("q", i),
                                 lambda: np.arange(16.0))
        victim = cache._entry_path("t", content_key("q", 0))
        victim.write_bytes(victim.read_bytes()[:8])
        cache.clear_memory()
        cache.get_or_compute("t", content_key("q", 0),
                             lambda: np.arange(16.0))
        stats = cache.disk_stats()
        assert stats.total_entries == 3  # the rewritten entry counts again
        assert stats.quarantined_entries == 1
        assert stats.quarantined_bytes > 0
        # and the quarantined bytes are NOT in the entry ledger
        on_disk = sum(p.stat().st_size
                      for p in tmp_path.glob("*/*.pkl"))
        assert stats.total_bytes == on_disk

    def test_read_corrupt_fault_recomputes_correctly(self, tmp_path):
        from repro import faults
        cache = ResultCache(tmp_path)
        key = content_key("inject-read")
        value = np.linspace(0.0, 1.0, 33)
        cache.get_or_compute("t", key, lambda: value)
        faults.install_plan("cache.read_corrupt=1.0,seed=2")
        fresh = ResultCache(tmp_path)
        got = fresh.get_or_compute("t", key, lambda: value)
        assert (got == value).all()
        assert fresh.stats.integrity_failures == 1
        assert fresh.stats.quarantined == 1
        assert fresh.stats.misses == 1

    def test_write_fail_fault_drops_entry_silently(self, tmp_path):
        from repro import faults
        faults.install_plan("cache.write_fail=1.0,seed=2")
        cache = ResultCache(tmp_path)
        key = content_key("inject-write")
        calls = []

        def compute():
            calls.append(1)
            return np.arange(8.0)

        got = cache.get_or_compute("t", key, compute)
        assert (got == np.arange(8.0)).all()
        assert not list(tmp_path.glob("*/*.pkl"))  # write was dropped
        cache.clear_memory()
        again = cache.get_or_compute("t", key, compute)
        assert (again == np.arange(8.0)).all()
        assert len(calls) == 2  # recompute, still correct

    def test_prune_sweeps_stale_tmp_files(self, tmp_path):
        import os
        import time
        cache = ResultCache(tmp_path)
        cache.get_or_compute("t", content_key("tmp"), lambda: 1)
        old = tmp_path / "t" / "dead-writer.tmp"
        old.write_bytes(b"partial")
        past = time.time() - 7200
        os.utime(old, (past, past))
        young = tmp_path / "t" / "live-writer.tmp"
        young.write_bytes(b"racing")
        cache.prune()
        assert not old.exists()  # crash debris swept
        assert young.exists()  # in-flight write never raced

    def test_quarantine_rotation_keeps_newest(self, tmp_path):
        import os
        from repro.perf.cache import _QUARANTINE_KEEP
        cache = ResultCache(tmp_path)
        qdir = tmp_path / "_quarantine"
        qdir.mkdir()
        n = _QUARANTINE_KEEP + 5
        for i in range(n):
            p = qdir / f"t__{i:03d}.quar"
            p.write_bytes(b"x")
            past = p.stat().st_mtime - (n - i) * 10.0
            os.utime(p, (past, past))
        cache.prune()
        left = sorted(p.name for p in qdir.glob("*.quar"))
        assert len(left) == _QUARANTINE_KEEP
        assert left[0] == "t__005.quar"  # the 5 oldest rotated out


def CacheStats_probe(cache, n: int) -> dict:
    """Which of the first ``n`` 'blob' entries survive on disk."""
    kept, evicted = [], []
    for i in range(n):
        path = cache._entry_path("blob", content_key("blob", i))
        (kept if path.exists() else evicted).append(i)
    return {"kept": kept, "evicted": evicted}


class TestCachedArtifactsBitIdentical:
    def test_matrix(self, isolated_cache):
        cached = generate_matrix("spmsrtls", scale=0.05)
        fresh = _generate_matrix_uncached("spmsrtls", 0.05, 1325)
        assert (cached.indptr == fresh.indptr).all()
        assert (cached.indices == fresh.indices).all()
        assert (_bits(cached.data) == _bits(fresh.data)).all()
        # and through the disk tier (fresh memory tier)
        isolated_cache.clear_memory()
        disk = generate_matrix("spmsrtls", scale=0.05)
        assert disk is not cached
        assert (_bits(disk.data) == _bits(cached.data)).all()
        assert isolated_cache.stats.disk_hits == 1

    def test_graph(self, isolated_cache):
        src, dst, n = generate_graph("mycielskian17")
        fsrc, fdst, fn = _generate_graph_uncached("mycielskian17", 1325)
        assert n == fn
        assert (src == fsrc).all() and (dst == fdst).all()
        isolated_cache.clear_memory()
        dsrc, ddst, dn = generate_graph("mycielskian17")
        assert (dsrc == src).all() and (ddst == dst).all() and dn == n

    def test_functional_execution(self, isolated_cache):
        w, dev = ScanWorkload(), Device("H200")
        cached = accuracy_table(w, dev)
        fresh = _accuracy_table_uncached(w, dev)
        assert cached == fresh  # ErrorEntry equality is exact float equality
        isolated_cache.clear_memory()
        assert accuracy_table(w, dev) == fresh
        assert isolated_cache.stats.disk_hits == 1

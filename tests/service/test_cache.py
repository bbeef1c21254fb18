"""Unit tests for the result caches and how the service keys them."""

from __future__ import annotations

import json
import threading
import warnings

import pytest

from repro.circuits import library
from repro.circuits.random import random_circuit
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.exceptions import ServiceError
from repro.service.cache import (
    DiskCache,
    LRUCache,
    TieredCache,
    build_cache,
    migrate_cache,
)
from repro.service.fingerprint import pair_key, registry_for_config
from repro.service.pipeline import MatchingService


def _record(tag: str) -> dict:
    return {"matcher": tag, "result": {"queries": 1}}


class TestLRUCache:
    def test_roundtrip_and_stats(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("missing") is None
        cache.put("key", _record("a"))
        assert cache.get("key") == _record("a")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_evicts_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", _record("a"))
        cache.put("b", _record("b"))
        cache.get("a")  # refresh a; b is now the LRU entry
        cache.put("c", _record("c"))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert len(cache) == 2


class TestDiskCache:
    def test_persists_across_instances(self, tmp_path):
        directory = tmp_path / "cache"
        DiskCache(directory).put("key", _record("a"))
        reopened = DiskCache(directory)
        assert reopened.get("key") == _record("a")
        assert len(reopened) == 1

    def test_corrupt_file_reads_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("key", _record("a"))
        for path in tmp_path.glob("*.json"):
            path.write_text("{ torn", encoding="utf-8")
        assert cache.get("key") is None

    def test_envelope_key_mismatch_reads_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("key", _record("a"))
        path = next(tmp_path.glob("*.json"))
        envelope = json.loads(path.read_text())
        envelope["key"] = "some-other-key"
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert cache.get("key") is None

    def test_torn_entry_warns_misses_and_is_repaired_by_writeback(
        self, tmp_path
    ):
        cache = DiskCache(tmp_path)
        cache.put("key", _record("a"))
        path = next(tmp_path.glob("*.json"))
        # A reader on NFS-style shared storage can see a half-synced
        # file even though our own writers publish atomically.
        path.write_text('{"key": "key", "rec', encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="torn shared-disk write"):
            assert cache.get("key") is None
        cache.put("key", _record("a"))  # the recomputation's write-back
        assert cache.get("key") == _record("a")

    def test_invalid_utf8_warns_and_misses(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("key", _record("a"))
        path = next(tmp_path.glob("*.json"))
        path.write_bytes(b"\xff\xfe not a utf-8 json file")
        with pytest.warns(RuntimeWarning, match="undecodable cache entry"):
            assert cache.get("key") is None

    def test_non_object_envelope_warns_and_misses(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("key", _record("a"))
        path = next(tmp_path.glob("*.json"))
        path.write_text('["not", "an", "envelope"]', encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="not an envelope object"):
            assert cache.get("key") is None

    def test_unreadable_file_is_a_silent_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("key", _record("a"))
        path = next(tmp_path.glob("*.json"))
        path.unlink()
        path.mkdir()  # open() now refuses with an OSError, not a parse error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get("key") is None


class TestTieredCache:
    def test_put_writes_both_and_slow_hit_promotes(self, tmp_path):
        fast, slow = LRUCache(maxsize=8), DiskCache(tmp_path)
        tiered = TieredCache(fast, slow)
        tiered.put("key", _record("a"))
        assert len(fast) == 1 and len(slow) == 1

        cold_fast = LRUCache(maxsize=8)
        tiered = TieredCache(cold_fast, slow)
        assert tiered.get("key") == _record("a")  # served by the slow tier
        assert len(cold_fast) == 1  # ...and promoted

    def test_build_cache_shapes(self, tmp_path):
        assert isinstance(build_cache(), LRUCache)
        tiered = build_cache(disk_dir=tmp_path)
        assert isinstance(tiered, TieredCache)
        assert isinstance(tiered.slow, DiskCache)

    def test_concurrent_lookups_promote_exactly_once(self, tmp_path):
        """Two threads race a cold fast tier onto the same slow-tier hit:
        the wrapper's lock serialises them, so the entry is promoted into
        L1 exactly once and the books still balance."""
        slow = DiskCache(tmp_path)
        slow.put("key", _record("a"))
        fast = LRUCache(maxsize=8)
        tiered = TieredCache(fast, slow)

        barrier = threading.Barrier(2)
        results: list[dict | None] = []

        def lookup() -> None:
            barrier.wait()
            results.append(tiered.get("key"))

        threads = [threading.Thread(target=lookup) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert results == [_record("a"), _record("a")]
        assert fast.stats.stores == 1  # exactly one L1 promotion
        assert len(fast) == 1
        stats = tiered.stats
        assert stats.hits == 2 and stats.misses == 0
        assert stats.hits + stats.misses == stats.lookups == 2


def _key(circuit1, circuit2, equivalence) -> str:
    """The cache key a default :class:`MatchingService` forms for a pair."""
    config = MatchingConfig()
    registry = registry_for_config(config)
    return pair_key(
        registry.fingerprint(circuit1, with_inverse=config.with_inverse),
        registry.fingerprint(circuit2, with_inverse=config.with_inverse),
        equivalence,
        config,
    )


class TestServiceCacheKeys:
    """Keying behaviour of the one batch layer that caches.

    Covered in ``tests/service/test_pipeline.py`` instead: cold-then-warm
    replay (``TestWarmCache::test_warm_rerun_executes_nothing``) and an
    injected fingerprint registry
    (``TestWideWarmCache::test_injected_registry_overrides_config``).
    """

    def test_mutated_circuit_is_not_served_a_stale_result(self, rng):
        circuit = random_circuit(4, 8, rng)
        twin = circuit.copy()
        service = MatchingService(cache=LRUCache())
        cold = service.match_pairs([(circuit, twin, "I-I")], seed=1)
        assert cold.executed == 1

        gate = random_circuit(4, 1, rng).gates[0]
        circuit.append(gate)
        twin.append(gate)
        mutated = service.match_pairs([(circuit, twin, "I-I")], seed=1)
        assert mutated.executed == 1 and mutated.cache_hits == 0
        assert mutated.records[0]["cache_key"] != cold.records[0]["cache_key"]

    def test_failure_records_replay_as_cached_failures(self, rng):
        circuit = random_circuit(4, 8, rng)
        cache = LRUCache()
        cache.put(
            _key(circuit, circuit, EquivalenceType.I_P),
            {"matcher": "x", "error": "boom", "result": None},
        )
        report = MatchingService(cache=cache).match_pairs(
            [(circuit, circuit, "I-P")], seed=1
        )
        assert report.executed == 0 and report.cache_hits == 1
        assert report.failed == 1
        record = report.records[0]
        assert record["status"] == "cached"
        assert record["error"] == "boom" and record["result"] is None

    def test_wide_pair_is_cacheable_via_probe_fingerprints(self, rng):
        """Wide pairs key on probe digests, so a structurally different
        but functionally equal representation hits."""
        circuit = library.increment(16)
        twin = circuit.copy()
        gate = random_circuit(16, 1, rng).gates[0]
        twin.append(gate)
        twin.append(gate)  # self-inverse: applied twice == identity
        assert ":probe:" in _key(circuit, circuit, EquivalenceType.I_I)
        service = MatchingService(cache=LRUCache())
        cold = service.match_pairs([(circuit, circuit, "I-I")], seed=1)
        warm = service.match_pairs([(twin, twin, "I-I")], seed=1)
        assert cold.executed == 1
        assert warm.executed == 0 and warm.cache_hits == 1
        assert warm.records[0]["cache_key"] == cold.records[0]["cache_key"]


class TestSchemeHitCounters:
    def test_hits_are_attributed_per_scheme(self, rng):
        cache = LRUCache()
        narrow = random_circuit(4, 8, rng)
        wide = library.increment(16)
        exact_key = _key(narrow, narrow, EquivalenceType.I_I)
        probe_key = _key(wide, wide, EquivalenceType.I_I)
        for key in (exact_key, probe_key):
            cache.put(key, _record("x"))
            cache.get(key)
            cache.get(key)
        cache.get("not a versioned key")  # miss: no scheme attribution
        assert cache.stats.scheme_hits == {"exact": 2, "probe": 2}
        assert cache.stats.hits == 4 and cache.stats.misses == 1

    def test_foreign_keys_count_as_unversioned(self):
        cache = LRUCache()
        cache.put("v1-style-key", _record("x"))
        cache.get("v1-style-key")
        assert cache.stats.scheme_hits == {"unversioned": 1}


class TestMigrateCache:
    def _plant_v1(self, directory, name="00aa.json"):
        path = directory / name
        path.write_text(
            json.dumps(
                {
                    "key": "I-P|4:function:fwd:ab|4:function:fwd:ab|0123",
                    "record": _record("v1"),
                }
            )
        )
        return path

    def test_v1_entries_are_clean_misses_for_v2_lookups(self, tmp_path, rng):
        disk = DiskCache(tmp_path)
        self._plant_v1(tmp_path)
        circuit = random_circuit(4, 8, rng)
        report = MatchingService(cache=disk).match_pairs(
            [(circuit, circuit, "I-P")], seed=1
        )
        assert report.cache_hits == 0 and report.executed == 1
        assert disk.stats.hits == 0

    def test_migrate_counts_by_version(self, tmp_path, rng):
        disk = DiskCache(tmp_path)
        circuit = random_circuit(4, 8, rng)
        key = _key(circuit, circuit, EquivalenceType.I_P)
        disk.put(key, _record("v2"))
        self._plant_v1(tmp_path)
        (tmp_path / "junk.json").write_text("{not json")
        counts = migrate_cache(tmp_path)
        assert counts == {"v2": 1, "v1": 1, "unreadable": 1, "dropped": 0}
        assert len(disk) == 3  # a dry run deletes nothing

    def test_drop_v1_deletes_only_stale_entries(self, tmp_path, rng):
        disk = DiskCache(tmp_path)
        circuit = random_circuit(4, 8, rng)
        key = _key(circuit, circuit, EquivalenceType.I_P)
        disk.put(key, _record("v2"))
        self._plant_v1(tmp_path)
        (tmp_path / "junk.json").write_text("{not json")
        counts = migrate_cache(tmp_path, drop_v1=True)
        assert counts["dropped"] == 2
        assert len(disk) == 1
        assert disk.get(key) == _record("v2")  # current entries survive

    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(ServiceError):
            migrate_cache(tmp_path / "nope")

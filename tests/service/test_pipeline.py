"""Integration tests for the MatchingService pipeline.

Covers the service-level acceptance criteria: a warm cache re-run of a
manifest performs zero oracle queries, the union of a manifest's shard
runs writes the same records as one unsharded run, and an interrupted
run resumes from its JSONL store without re-executing finished pairs.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.circuits.random import random_circuit
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.core.verify import make_instance
from repro.exceptions import ServiceError
from repro.oracles.oracle import ReversibleOracle
from repro.quantum.oracle import QuantumCircuitOracle
from repro.service.cache import LRUCache, build_cache
from repro.service.events import RunCompleted
from repro.service.pipeline import (
    MatchingService,
    ResultStore,
    merge_stores,
    parse_shard,
    shard_index,
)
from repro.service.workload import generate_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One small corpus shared by the pipeline tests (read-only)."""
    root = tmp_path_factory.mktemp("corpus")
    generate_corpus(root, num_lines=4, pairs_per_class=1, seed=42)
    return root


class TestResultStore:
    def test_append_load_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        assert store.load() == {}
        store.append({"pair_id": "a", "status": "ok"})
        store.append({"pair_id": "b", "status": "failed"})
        loaded = store.load()
        assert set(loaded) == {"a", "b"}

    def test_torn_final_line_is_skipped_with_a_warning(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.append({"pair_id": "a", "status": "ok"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"pair_id": "b", "stat')  # crash mid-append
        with pytest.warns(UserWarning, match="truncated or malformed"):
            loaded = store.load()
        assert set(loaded) == {"a"}

    def test_clean_store_loads_without_warnings(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append({"pair_id": "a", "status": "ok"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert set(store.load()) == {"a"}

    def test_resume_survives_a_torn_trailing_record(self, corpus, tmp_path):
        """A crash mid-append must not poison --resume (the satellite bug)."""
        store_path = tmp_path / "results.jsonl"
        MatchingService().run_manifest(corpus, store_path=store_path, seed=5)
        full = ResultStore(store_path).load()
        # Re-create the store with the last record torn mid-write.
        lines = store_path.read_text().splitlines()
        store_path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2],
            encoding="utf-8",
        )
        with pytest.warns(UserWarning, match="re-run on resume"):
            report = MatchingService().run_manifest(
                corpus, store_path=store_path, resume=True, seed=5
            )
        assert report.resumed == report.total - 1 and report.executed == 1
        with pytest.warns(UserWarning):  # the torn line stays in the file
            assert ResultStore(store_path).load() == full

    def test_touch_materialises_an_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        assert not store.exists
        store.touch()
        assert store.exists and store.load() == {}

    def test_newest_record_wins(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append({"pair_id": "a", "status": "failed"})
        store.append({"pair_id": "a", "status": "ok"})
        assert store.load()["a"]["status"] == "ok"


class TestStreamingRuns:
    """The streaming contract: streaming == batch."""

    def test_stream_is_the_primitive_behind_run_manifest(self, corpus, tmp_path):
        service = MatchingService()
        streamed_store = tmp_path / "streamed.jsonl"
        report = None
        for event in service.stream(corpus, store_path=streamed_store, seed=5):
            if isinstance(event, RunCompleted):
                report = event.report
        consumed_store = tmp_path / "consumed.jsonl"
        consumed = service.run_manifest(
            corpus, store_path=consumed_store, seed=5
        )
        assert report is not None and report.records == consumed.records
        assert streamed_store.read_bytes() == consumed_store.read_bytes()

    def test_stopping_the_stream_keeps_streamed_records(self, corpus, tmp_path):
        """Records persist before their event is yielded, so breaking out
        of the stream never loses a pair the consumer already saw."""
        from repro.service.events import TaskCompleted, TaskFailed

        store_path = tmp_path / "partial.jsonl"
        seen = []
        stream = MatchingService().stream(corpus, store_path=store_path, seed=5)
        for event in stream:
            if isinstance(event, (TaskCompleted, TaskFailed)):
                seen.append(event.record["pair_id"])
                if len(seen) == 3:
                    break
        stream.close()
        stored = ResultStore(store_path).load()
        assert set(seen) <= set(stored)


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("0/3") == (0, 3)
        assert parse_shard("2/3") == (2, 3)
        for bad in ("3/3", "-1/3", "0/0", "a/b", "1", "1/2/3"):
            with pytest.raises(ServiceError):
                parse_shard(bad)

    def test_shard_index_is_a_stable_partition(self):
        ids = [f"pair-{i:03d}" for i in range(64)]
        buckets = [shard_index(pair_id, 4) for pair_id in ids]
        assert set(buckets) <= set(range(4))
        # Stable across calls (it is a pure hash, not salted).
        assert buckets == [shard_index(pair_id, 4) for pair_id in ids]
        # Every pair lands in exactly one shard.
        for pair_id in ids:
            owners = [
                shard for shard in range(4) if shard_index(pair_id, 4) == shard
            ]
            assert len(owners) == 1

    def test_shard_union_is_record_identical_to_unsharded(self, corpus, tmp_path):
        """Satellite: shards 0/3..2/3 union == the unsharded run, exactly.

        Record-for-record including per-pair seeds and query counts —
        because shard runs keep manifest positions when deriving seeds.
        """
        full_store = tmp_path / "full.jsonl"
        full = MatchingService().run_manifest(
            corpus, store_path=full_store, seed=5
        )
        shard_reports = []
        shard_stores = []
        for index in range(3):
            store = tmp_path / f"shard{index}.jsonl"
            shard_stores.append(store)
            shard_reports.append(
                MatchingService().run_manifest(
                    corpus, store_path=store, seed=5, shard=(index, 3)
                )
            )
        assert sum(report.total for report in shard_reports) == full.total
        merged = tmp_path / "merged.jsonl"
        count = merge_stores(merged, shard_stores)
        assert count == full.total
        assert merged.read_bytes() == full_store.read_bytes()

    def test_shard_accepts_spec_strings(self, corpus):
        by_tuple = MatchingService().run_manifest(corpus, seed=5, shard=(1, 3))
        by_spec = MatchingService().run_manifest(corpus, seed=5, shard="1/3")
        assert by_tuple.records == by_spec.records
        assert by_spec.shard == (1, 3)
        assert "shard 1/3" in by_spec.summary()

    def test_invalid_shard_tuple_is_rejected(self, corpus):
        with pytest.raises(ServiceError, match="invalid shard"):
            MatchingService().run_manifest(corpus, shard=(3, 3))


class TestMergeStores:
    def test_merge_missing_store_fails(self, tmp_path):
        with pytest.raises(ServiceError, match="does not exist"):
            merge_stores(tmp_path / "out.jsonl", [tmp_path / "nope.jsonl"])

    def test_merge_tolerates_empty_shards(self, tmp_path):
        empty = ResultStore(tmp_path / "empty.jsonl")
        empty.touch()
        full = ResultStore(tmp_path / "full.jsonl")
        full.append({"pair_id": "a", "index": 1, "status": "ok"})
        full.append({"pair_id": "b", "index": 0, "status": "ok"})
        out = tmp_path / "out.jsonl"
        assert merge_stores(out, [empty.path, full.path]) == 2
        ordered = [json.loads(line) for line in out.read_text().splitlines()]
        assert [record["pair_id"] for record in ordered] == ["b", "a"]

    def test_merge_rejects_conflicting_records(self, tmp_path):
        one = ResultStore(tmp_path / "one.jsonl")
        one.append({"pair_id": "a", "index": 0, "status": "ok"})
        two = ResultStore(tmp_path / "two.jsonl")
        two.append({"pair_id": "a", "index": 0, "status": "failed"})
        with pytest.raises(ServiceError, match="conflicting records"):
            merge_stores(tmp_path / "out.jsonl", [one.path, two.path])

    def test_merge_deduplicates_identical_records(self, tmp_path):
        one = ResultStore(tmp_path / "one.jsonl")
        one.append({"pair_id": "a", "index": 0, "status": "ok"})
        two = ResultStore(tmp_path / "two.jsonl")
        two.append({"pair_id": "a", "index": 0, "status": "ok"})
        out = tmp_path / "out.jsonl"
        assert merge_stores(out, [one.path, two.path]) == 1


class TestRunManifest:
    def test_serial_run_matches_equivalent_families(self, corpus):
        report = MatchingService().run_manifest(corpus, seed=5)
        assert report.total == 24
        assert report.executed == 24
        for record in report.records:
            if record["family"] != "adversarial":
                assert record["status"] == "ok", record
        assert report.pairs_per_second > 0
        assert "pairs/s" in report.summary()
        assert "status" in report.to_table()

    def test_verify_flags_adversarial_matches(self, corpus):
        report = MatchingService(verify=True).run_manifest(corpus, seed=5)
        verdicts = {
            record["family"]: record.get("verified")
            for record in report.records
            if record["status"] == "ok"
        }
        assert verdicts["random"] is True and verdicts["library"] is True
        adversarial_ok = [
            record
            for record in report.records
            if record["family"] == "adversarial" and record["status"] == "ok"
        ]
        # Near-misses that "match" under the promise must fail verification
        # (the trivial I-I matcher, and any randomised matcher that got
        # lucky) — that is exactly what the family exists to expose.
        assert adversarial_ok and all(
            record["verified"] is False for record in adversarial_ok
        )

    def test_store_records_stream_in_manifest_order(self, corpus, tmp_path):
        store_path = tmp_path / "results.jsonl"
        report = MatchingService().run_manifest(
            corpus, store_path=store_path, seed=5
        )
        lines = [
            json.loads(line)
            for line in store_path.read_text().splitlines()
            if line
        ]
        assert [record["pair_id"] for record in lines] == [
            record["pair_id"] for record in report.records
        ]


class TestWarmCache:
    def test_warm_rerun_executes_nothing(self, corpus):
        service = MatchingService(cache=build_cache())
        cold = service.run_manifest(corpus, seed=5)
        warm = service.run_manifest(corpus, seed=5)
        assert cold.executed == 24 and cold.cache_hits == 0
        assert warm.executed == 0 and warm.cache_hits == 24
        assert warm.matched == cold.matched and warm.failed == cold.failed

    def test_warm_rerun_performs_zero_oracle_queries(self, corpus, monkeypatch):
        service = MatchingService(cache=build_cache())
        service.run_manifest(corpus, seed=5)

        def forbidden(self, *args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("warm cache run touched an oracle")

        monkeypatch.setattr(ReversibleOracle, "query", forbidden)
        monkeypatch.setattr(ReversibleOracle, "query_inverse", forbidden)
        monkeypatch.setattr(QuantumCircuitOracle, "query_state", forbidden)
        monkeypatch.setattr(QuantumCircuitOracle, "query_basis", forbidden)
        warm = service.run_manifest(corpus, seed=5)
        assert warm.cache_hits == 24
        assert warm.classical_queries == 0 and warm.quantum_queries == 0

    def test_disk_cache_survives_service_restart(self, corpus, tmp_path):
        cache_dir = tmp_path / "cache"
        MatchingService(cache=build_cache(disk_dir=cache_dir)).run_manifest(
            corpus, seed=5
        )
        fresh = MatchingService(cache=build_cache(disk_dir=cache_dir))
        warm = fresh.run_manifest(corpus, seed=5)
        assert warm.executed == 0 and warm.cache_hits == 24


class TestResume:
    def test_resume_skips_done_pairs(self, corpus, tmp_path):
        store_path = tmp_path / "results.jsonl"
        MatchingService().run_manifest(corpus, store_path=store_path, seed=5)
        # Simulate a crash: keep only the first 10 records.
        lines = store_path.read_text().splitlines()
        store_path.write_text("\n".join(lines[:10]) + "\n", encoding="utf-8")

        report = MatchingService().run_manifest(
            corpus, store_path=store_path, resume=True, seed=5
        )
        assert report.resumed == 10
        assert report.executed == report.total - 10
        assert {
            record["status"] for record in report.records[:10]
        } == {"resumed"}
        # The store is now complete again.
        assert len(ResultStore(store_path).load()) == report.total

    def test_resumed_pairs_reuse_their_original_seed_slot(self, corpus, tmp_path):
        # A full run and a crash+resume run must produce identical stores
        # (modulo record order), because per-pair seeds derive from the
        # manifest position, not from the executed batch.
        full_store = tmp_path / "full.jsonl"
        MatchingService().run_manifest(corpus, store_path=full_store, seed=5)
        crash_store = tmp_path / "crash.jsonl"
        MatchingService().run_manifest(corpus, store_path=crash_store, seed=5)
        lines = crash_store.read_text().splitlines()
        crash_store.write_text("\n".join(lines[:7]) + "\n", encoding="utf-8")
        MatchingService().run_manifest(
            corpus, store_path=crash_store, resume=True, seed=5
        )
        full = ResultStore(full_store).load()
        resumed = ResultStore(crash_store).load()
        assert full == resumed

    def test_resume_requires_store(self, corpus):
        with pytest.raises(ServiceError, match="resume requires"):
            MatchingService().run_manifest(corpus, resume=True)


class TestMatchPairs:
    def test_in_memory_pairs_with_default_class(self, rng):
        base = random_circuit(4, 12, rng)
        pairs = [make_instance(base, EquivalenceType.I_P, rng)[:2] for _ in range(3)]
        service = MatchingService(cache=LRUCache())
        report = service.match_pairs(pairs, equivalence="I-P", seed=2)
        assert report.matched == 3
        # The three pairs share the base circuit but differ in C1, so no
        # intra-run hits are guaranteed; a re-run hits for all of them.
        warm = service.match_pairs(pairs, equivalence=EquivalenceType.I_P, seed=2)
        assert warm.cache_hits == 3 and warm.executed == 0

    def test_bad_tuples_are_rejected(self, rng):
        circuit = random_circuit(3, 6, rng)
        service = MatchingService()
        with pytest.raises(ServiceError, match="elements"):
            service.match_pairs([(circuit,)])
        with pytest.raises(ServiceError, match="no equivalence class"):
            service.match_pairs([(circuit, circuit)])

    def test_budget_is_respected_per_pair(self, rng):
        base = random_circuit(4, 12, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.P_I, rng)
        service = MatchingService(MatchingConfig(max_queries=1))
        report = service.match_pairs([(c1, c2, "P-I")], seed=2)
        assert report.failed == 1
        assert "QueryBudgetExceededError" in report.records[0]["error"]


class TestStreamPairs:
    def test_pairs_get_deterministic_ids_and_a_store(self, rng, tmp_path):
        base = random_circuit(4, 12, rng)
        pairs = [make_instance(base, EquivalenceType.I_P, rng)[:2] for _ in range(3)]
        store_path = tmp_path / "pairs.jsonl"
        service = MatchingService()
        events = list(
            service.stream_pairs(
                pairs, equivalence="I-P", seed=2, store_path=store_path
            )
        )
        report = [e for e in events if isinstance(e, RunCompleted)][0].report
        assert [r["pair_id"] for r in report.records] == [
            "pair-0000", "pair-0001", "pair-0002",
        ]
        assert set(ResultStore(store_path).load()) == {
            "pair-0000", "pair-0001", "pair-0002",
        }

    def test_resume_skips_stored_pairs(self, rng, tmp_path):
        base = random_circuit(4, 12, rng)
        pairs = [make_instance(base, EquivalenceType.I_P, rng)[:2] for _ in range(3)]
        store_path = tmp_path / "pairs.jsonl"
        service = MatchingService()
        list(service.stream_pairs(pairs, equivalence="I-P", seed=2,
                                  store_path=store_path))
        events = list(
            service.stream_pairs(
                pairs, equivalence="I-P", seed=2,
                store_path=store_path, resume=True,
            )
        )
        report = [e for e in events if isinstance(e, RunCompleted)][0].report
        assert report.resumed == 3 and report.executed == 0

    def test_resume_requires_store(self, rng):
        circuit = random_circuit(3, 6, rng)
        with pytest.raises(ServiceError, match="resume requires"):
            MatchingService().stream_pairs([(circuit, circuit, "I-I")], resume=True)


class TestWideWarmCache:
    """The PR-5 acceptance criterion: warm matching past 14 lines.

    The wide corpus pairs are 16-24 lines — beyond the exact-fingerprint
    limit, where v1 identity went structural and a fresh process could
    never warm-hit.  Sampled-probe fingerprints key them functionally.
    """

    @pytest.fixture(scope="class")
    def wide_corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("wide_corpus")
        generate_corpus(root, families=("wide",), pairs_per_class=1, seed=21)
        return root

    def test_fresh_service_warm_rerun_spends_zero_queries(
        self, wide_corpus, monkeypatch
    ):
        cache = build_cache()
        cold = MatchingService(cache=cache).run_manifest(wide_corpus, seed=5)
        assert cold.executed == cold.total > 0

        def forbidden(self, *args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("warm wide run touched an oracle")

        monkeypatch.setattr(ReversibleOracle, "query", forbidden)
        monkeypatch.setattr(ReversibleOracle, "query_inverse", forbidden)
        monkeypatch.setattr(QuantumCircuitOracle, "query_state", forbidden)
        monkeypatch.setattr(QuantumCircuitOracle, "query_basis", forbidden)
        # A *fresh* service: every circuit is a different Python object,
        # so the hits are earned by probe identity, not object identity.
        warm = MatchingService(cache=cache).run_manifest(wide_corpus, seed=5)
        assert warm.executed == 0 and warm.cache_hits == warm.total
        assert warm.classical_queries == 0 and warm.quantum_queries == 0
        assert set(cache.stats.scheme_hits) == {"probe"}

    def test_wide_records_key_on_probe_scheme(self, wide_corpus):
        service = MatchingService(cache=build_cache())
        report = service.run_manifest(wide_corpus, seed=5)
        for record in report.records:
            assert ":probe:" in record["cache_key"]

    def test_injected_registry_overrides_config(self, corpus):
        from repro.service.fingerprint import build_registry

        cache = build_cache()
        service = MatchingService(
            cache=cache, fingerprint_registry=build_registry("probe")
        )
        report = service.run_manifest(corpus, seed=5)
        # Even 4-line pairs key on probe digests under the injected registry.
        for record in report.records:
            assert ":probe:" in record["cache_key"]
        assert service.fingerprint_registry.fingerprinters[0].scheme == "probe"


class TestKeyVersioning:
    """v1 cache/store entries must read as clean misses, never v2 hits."""

    def test_records_carry_the_key_version(self, corpus, tmp_path):
        store_path = tmp_path / "results.jsonl"
        MatchingService().run_manifest(corpus, store_path=store_path, seed=5)
        records = ResultStore(store_path).load()
        assert records
        for record in records.values():
            assert record["key_version"] == "v2"

    @staticmethod
    def _strip_versions(store_path):
        """Rewrite a store as a v1 process would have written it."""
        lines = []
        for line in store_path.read_text().splitlines():
            record = json.loads(line)
            record.pop("key_version", None)
            lines.append(json.dumps(record))
        store_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_v1_store_records_are_not_resumed(self, corpus, tmp_path):
        store_path = tmp_path / "results.jsonl"
        MatchingService().run_manifest(corpus, store_path=store_path, seed=5)
        self._strip_versions(store_path)
        report = MatchingService().run_manifest(
            corpus, store_path=store_path, resume=True, seed=5
        )
        # Every pair re-ran: a version bump means the stored results may
        # have been produced under a different identity contract.
        assert report.resumed == 0
        assert report.executed == report.total

    def test_v1_pair_store_records_are_not_resumed(self, rng, tmp_path):
        base = random_circuit(4, 12, rng)
        pairs = [make_instance(base, EquivalenceType.I_P, rng)[:2] for _ in range(2)]
        store_path = tmp_path / "pairs.jsonl"
        service = MatchingService()
        list(
            service.stream_pairs(
                pairs, equivalence="I-P", seed=2, store_path=store_path
            )
        )
        self._strip_versions(store_path)
        events = list(
            service.stream_pairs(
                pairs, equivalence="I-P", seed=2,
                store_path=store_path, resume=True,
            )
        )
        report = [e for e in events if isinstance(e, RunCompleted)][0].report
        assert report.resumed == 0 and report.executed == 2


class TestMergeStoresUnderRetry:
    """Merging the stores a fleet reassignment leaves behind.

    A dead worker's partial shard store overlaps the retry's store
    record-for-record — the retry is pre-seeded with the mirrored
    records — so identical duplicates must merge cleanly, while a
    record that *differs* across stores means they do not belong to
    the same run and the merge must refuse.
    """

    @staticmethod
    def record(pair_id, index, queries):
        return {
            "pair_id": pair_id,
            "index": index,
            "status": "matched",
            "result": {"queries": queries},
        }

    def test_partial_and_retry_stores_merge_cleanly(self, tmp_path):
        partial = ResultStore(tmp_path / "dead-worker.jsonl")
        partial.append(self.record("a", 0, 3))
        partial.append(self.record("c", 2, 5))
        retry = ResultStore(tmp_path / "retry.jsonl")
        retry.append(self.record("a", 0, 3))  # pre-seeded mirror
        retry.append(self.record("c", 2, 5))  # pre-seeded mirror
        retry.append(self.record("b", 1, 7))  # freshly executed
        other = ResultStore(tmp_path / "other-shard.jsonl")
        other.append(self.record("d", 3, 2))
        out = tmp_path / "merged.jsonl"
        assert merge_stores(out, [partial.path, retry.path, other.path]) == 4
        ordered = [json.loads(line) for line in out.read_text().splitlines()]
        assert [record["pair_id"] for record in ordered] == ["a", "b", "c", "d"]
        # The dead worker's leftovers change nothing: dropping them
        # yields byte-identical output.
        without = tmp_path / "without-partial.jsonl"
        assert merge_stores(without, [retry.path, other.path]) == 4
        assert without.read_bytes() == out.read_bytes()

    def test_conflicting_retry_record_raises(self, tmp_path):
        partial = ResultStore(tmp_path / "dead-worker.jsonl")
        partial.append(self.record("a", 0, 3))
        retry = ResultStore(tmp_path / "retry.jsonl")
        retry.append(self.record("a", 0, 99))  # same pair, different answer
        with pytest.raises(ServiceError, match="conflicting records"):
            merge_stores(tmp_path / "out.jsonl", [partial.path, retry.path])

    def test_duplicates_within_one_store_still_resolve_newest_wins(
        self, tmp_path
    ):
        # A store that was resumed twice holds the same pair twice; the
        # load step resolves that before the cross-store conflict check.
        twice = ResultStore(tmp_path / "resumed.jsonl")
        twice.append(self.record("a", 0, 3))
        twice.append(self.record("a", 0, 3))
        out = tmp_path / "out.jsonl"
        assert merge_stores(out, [twice.path]) == 1

"""Service throughput: pairs/sec serial vs. parallel vs. cached vs. streamed.

Unlike the other benchmark modules, which reproduce per-pair *query
counts* from the paper, this one measures the quantity the service layer
exists for: batch throughput over a generated corpus.  Backends run the
same manifest —

* serial execution (the baseline the per-pair numbers imply),
* a 2-worker process pool (must produce identical records; wall-clock
  gain depends on corpus size vs. pool startup cost),
* a warm result cache (the repeated-workload regime: zero oracle queries),

and the execution *APIs* run the same fixed task batch —

* batch (``Executor.stream`` drained into a list sorted by task index),
* streaming (``Executor.stream``, the as-completed contract),
* overlap (:class:`OverlapExecutor`, execution pipelined with the
  consumer on a background thread).

Four tests are CI gates:

* ``test_streaming_not_slower_than_batch`` — the streaming API exists to
  *remove* buffering, so it must not cost throughput; the job fails if
  streaming is more than 25% slower than a drain-and-sort batch on the
  fixed corpus.
* ``test_wide_probe_digest_batched_speedup`` — bitsliced probe digests
  of the wide corpus must be at least 8x a scalar ``simulate`` loop.
* ``test_exhaustive_equality_speedup`` — exhaustive
  ``functionally_equal`` on 8-line verification pairs must be at least
  10x a scalar ``simulate`` loop.
* ``test_wide_probe_cached_vs_cold`` — a warm rerun of a **wide**
  (16–24-line) corpus, keyed by sampled-probe fingerprints, must perform
  **zero oracle queries**; it also writes the per-scheme cache hit-rate
  JSON (``SCHEME_HIT_RATES``, default ``scheme-hit-rates.json``) and the
  ``repro-metrics/v1`` snapshot (``METRICS_SNAPSHOT``, default
  ``metrics-snapshot.json``) that CI uploads as artifacts, and leaves its
  cold/warm JSONL stores under ``BENCH_STORES`` (default: a tmp dir) so
  CI can gate ``repro report`` over real benchmark output.

The per-backend pairs/sec figures are printed (``pytest -s``) and the
wall-clock numbers land in the pytest-benchmark JSON, which CI uploads
as an artifact so the trajectory tracks throughput over time.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core.engine import MatchingConfig
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import build_cache
from repro.service.executor import (
    OverlapExecutor,
    PairTask,
    ParallelExecutor,
    SerialExecutor,
    derive_seed,
)
from repro.service.pipeline import MatchingService
from repro.service.workload import (
    CorpusManifest,
    generate_corpus,
    load_entry_circuits,
)

#: Corpus shape: 8 tractable classes x 2 families x 2 pairs = 32 pairs.
CORPUS_SEED = 20240601
PAIRS_PER_CLASS = 2
RUN_SEED = 7


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("throughput_corpus")
    generate_corpus(
        root,
        num_lines=4,
        families=("random", "library"),
        pairs_per_class=PAIRS_PER_CLASS,
        seed=CORPUS_SEED,
    )
    return root


def _report_throughput(title: str, reports) -> None:
    rows = [
        (
            label,
            report.total,
            report.matched,
            report.cache_hits,
            f"{report.pairs_per_second:.1f}",
        )
        for label, report in reports
    ]
    emit(
        title,
        format_table(
            ["backend", "pairs", "matched", "cached", "pairs/s"], rows
        ),
    )


def test_serial_throughput(benchmark, corpus):
    service = MatchingService(executor=SerialExecutor())
    report = benchmark.pedantic(
        lambda: service.run_manifest(corpus, seed=RUN_SEED), rounds=3, iterations=1
    )
    assert report.matched == report.total
    _report_throughput("service throughput: serial", [("serial", report)])


def test_parallel_throughput_matches_serial(benchmark, corpus):
    serial = MatchingService(executor=SerialExecutor()).run_manifest(
        corpus, seed=RUN_SEED
    )
    service = MatchingService(executor=ParallelExecutor(workers=2))
    report = benchmark.pedantic(
        lambda: service.run_manifest(corpus, seed=RUN_SEED), rounds=3, iterations=1
    )
    # Throughput must never come at the cost of reproducibility.
    assert json.dumps(report.records, sort_keys=True) == json.dumps(
        serial.records, sort_keys=True
    )
    _report_throughput(
        "service throughput: parallel (2 workers)",
        [("serial", serial), ("parallel", report)],
    )


def _fixed_tasks(corpus) -> list[PairTask]:
    """The corpus as a ready-made task batch (loading excluded from timing)."""
    manifest = CorpusManifest.load(corpus / "manifest.json")
    tasks = []
    for position, entry in enumerate(manifest.entries):
        circuit1, circuit2 = load_entry_circuits(entry, corpus)
        tasks.append(
            PairTask(
                index=position,
                circuit1=circuit1,
                circuit2=circuit2,
                equivalence=entry.equivalence,
                seed=derive_seed(RUN_SEED, position),
                pair_id=entry.pair_id,
            )
        )
    return tasks


def _best_of(runs: int, call) -> float:
    """Best wall-clock of ``runs`` calls — the least-noise point estimate."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def test_streaming_not_slower_than_batch(benchmark, corpus):
    """CI gate: `stream` must stay within 25% of a drain-and-sort batch."""
    config = MatchingConfig()
    tasks = _fixed_tasks(corpus)
    executor = SerialExecutor()
    batch_outcomes: list = []

    def batch():
        batch_outcomes[:] = sorted(
            executor.stream(tasks, config), key=lambda outcome: outcome.index
        )

    def streaming():
        return list(executor.stream(tasks, config))

    def overlap():
        return list(OverlapExecutor(buffer_size=8).stream(tasks, config))

    # Same-shaped point estimates for the gate; the benchmark fixture
    # additionally records the streaming path in the JSON artifact.
    batch_time = _best_of(3, batch)
    streaming_time = _best_of(3, streaming)
    overlap_time = _best_of(3, overlap)
    outcomes = benchmark.pedantic(streaming, rounds=3, iterations=1)
    assert len(outcomes) == len(tasks)
    assert batch_outcomes == outcomes  # identical outcomes, API for API

    pairs = len(tasks)
    emit(
        "execution API throughput: batch vs streaming vs overlap",
        format_table(
            ["api", "pairs", "seconds", "pairs/s"],
            [
                (label, pairs, f"{seconds:.4f}", f"{pairs / seconds:.1f}")
                for label, seconds in (
                    ("batch", batch_time),
                    ("streaming", streaming_time),
                    ("overlap", overlap_time),
                )
            ],
        ),
    )
    assert streaming_time <= 1.25 * batch_time, (
        f"streaming ({streaming_time:.4f}s) is more than 25% slower than "
        f"batch ({batch_time:.4f}s) on the fixed {pairs}-pair corpus"
    )


def test_cached_throughput(benchmark, corpus):
    service = MatchingService(cache=build_cache())
    cold = service.run_manifest(corpus, seed=RUN_SEED)
    report = benchmark.pedantic(
        lambda: service.run_manifest(corpus, seed=RUN_SEED), rounds=3, iterations=1
    )
    assert report.cache_hits == report.total and report.executed == 0
    assert report.classical_queries == 0 and report.quantum_queries == 0
    _report_throughput(
        "service throughput: warm cache",
        [("cold", cold), ("cached", report)],
    )


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    """A 16–24-line corpus: past the exact-fingerprint limit, so only
    sampled-probe identities can key the cache."""
    root = tmp_path_factory.mktemp("wide_corpus")
    generate_corpus(root, families=("wide",), pairs_per_class=2, seed=CORPUS_SEED)
    return root


def _counter_value(snapshot: dict, name: str, **labels) -> int:
    """One labelled sample's value from a ``repro-metrics/v1`` snapshot."""
    for sample in snapshot["metrics"].get(name, {}).get("samples", ()):
        if sample["labels"] == labels:
            return sample["value"]
    return 0


def test_wide_probe_cached_vs_cold(benchmark, wide_corpus, tmp_path_factory):
    """CI gate: a warm wide-corpus rerun performs zero oracle queries.

    The warm run uses a *fresh* service over the shared cache, so every
    circuit is a different Python object than the cold run loaded —
    the hits are earned by probe fingerprints, not object identity.
    Also writes the per-scheme cache hit-rate JSON and the metrics
    snapshot CI uploads, plus the cold/warm stores `repro report` gates
    over.
    """
    manifest = CorpusManifest.load(wide_corpus / "manifest.json")
    assert all(entry.num_lines >= 16 for entry in manifest.entries)

    bench_stores = os.environ.get("BENCH_STORES")
    store_dir = (
        Path(bench_stores) if bench_stores
        else tmp_path_factory.mktemp("wide_stores")
    )
    store_dir.mkdir(parents=True, exist_ok=True)

    metrics = MetricsRegistry()
    cache = build_cache()
    cache.bind_metrics(metrics)
    cold = MatchingService(cache=cache, metrics=metrics).run_manifest(
        wide_corpus, seed=RUN_SEED,
        store_path=store_dir / "wide-cold.jsonl",
    )
    assert cold.executed == cold.total > 0

    service = MatchingService(cache=cache, metrics=metrics)
    report = benchmark.pedantic(
        lambda: service.run_manifest(
            wide_corpus, seed=RUN_SEED,
            store_path=store_dir / "wide-warm.jsonl",
        ),
        rounds=3,
        iterations=1,
    )
    assert report.cache_hits == report.total and report.executed == 0
    assert report.classical_queries == 0 and report.quantum_queries == 0
    # Every warm hit was keyed by a sampled-probe fingerprint.
    assert set(cache.stats.scheme_hits) == {"probe"}

    # The metrics snapshot is bookkept inside the same lock as
    # CacheStats, so the two views must reconcile exactly.
    snapshot = metrics.snapshot()
    tier = cache.metrics_tier
    assert _counter_value(
        snapshot, "repro_cache_hits_total", tier=tier
    ) == cache.stats.hits
    assert _counter_value(
        snapshot, "repro_cache_misses_total", tier=tier
    ) == cache.stats.misses
    assert _counter_value(
        snapshot, "repro_cache_stores_total", tier=tier
    ) == cache.stats.stores
    metrics.write_json(
        os.environ.get("METRICS_SNAPSHOT", "metrics-snapshot.json")
    )

    stats = cache.stats
    payload = {
        "corpus": "wide",
        "pairs": report.total,
        "lookups": stats.lookups,
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": stats.hit_rate,
        "scheme_hits": dict(stats.scheme_hits),
        "scheme_hit_rate": {
            scheme: hits / stats.lookups
            for scheme, hits in stats.scheme_hits.items()
        },
    }
    out_path = os.environ.get("SCHEME_HIT_RATES", "scheme-hit-rates.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    emit(
        "per-scheme cache hit rates (wide corpus)",
        json.dumps(payload["scheme_hit_rate"], sort_keys=True),
    )
    _report_throughput(
        "service throughput: wide corpus, probe-keyed cache",
        [("cold", cold), ("cached", report)],
    )


#: CI gate: bitsliced probe digests must be at least this much faster
#: than the scalar reference path on the wide corpus.
PROBE_BATCH_MIN_SPEEDUP = 8.0


def test_wide_probe_digest_batched_speedup(benchmark, wide_corpus):
    """CI gate: bit-parallel probe digests are >= 8x the scalar path.

    Fingerprints every wide-corpus circuit through the bitsliced
    ``simulate_many`` hot path, checks each digest against the digest of
    the same probe outputs from a scalar ``simulate`` list comprehension
    (batching is an evaluation strategy, never an identity change), and
    gates on the wall-clock ratio of the two.  The measured figures land
    in the pytest-benchmark JSON (``extra_info``) that CI uploads, so the
    speedup trajectory is tracked over time alongside pairs/sec.
    """
    from repro.oracles.oracle import FunctionOracle
    from repro.service.fingerprint import (
        FingerprintContext,
        SampledProbeFingerprinter,
        probe_inputs,
    )

    manifest = CorpusManifest.load(wide_corpus / "manifest.json")
    targets = []
    for entry in manifest.entries:
        targets.extend(load_entry_circuits(entry, wide_corpus))
    assert all(target.num_lines >= 16 for target in targets)

    ctx = FingerprintContext()
    batched = SampledProbeFingerprinter()
    probe_sets = [
        probe_inputs(target.num_lines, batched.probe_count, batched.salt)
        for target in targets
    ]

    def run_scalar():
        return [
            [target.simulate(value) for value in probes]
            for target, probes in zip(targets, probe_sets)
        ]

    def run_batched():
        for target in targets:
            batched.fingerprint(target, ctx)

    # Identity first: the digests must agree on every circuit before any
    # throughput claim about the batched path means anything.
    for target, probes, outputs in zip(targets, probe_sets, run_scalar()):
        reference = FunctionOracle(
            dict(zip(probes, outputs)).__getitem__, target.num_lines
        )
        assert (
            batched.fingerprint(target, ctx).digest
            == batched.fingerprint(reference, ctx).digest
        )

    # Interleaved best-of sampling: a transient machine slowdown (CPU
    # scaling, a background task) then degrades scalar and batched
    # samples alike instead of one side of the ratio.
    scalar_time = batched_time = float("inf")
    for _ in range(5):
        scalar_time = min(scalar_time, _best_of(1, run_scalar))
        batched_time = min(batched_time, _best_of(1, run_batched))
    benchmark.pedantic(run_batched, rounds=3, iterations=1)
    speedup = scalar_time / batched_time
    benchmark.extra_info["circuits"] = len(targets)
    benchmark.extra_info["scalar_seconds"] = round(scalar_time, 6)
    benchmark.extra_info["batched_seconds"] = round(batched_time, 6)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["min_speedup"] = PROBE_BATCH_MIN_SPEEDUP

    count = len(targets)
    emit(
        "probe digest throughput: scalar vs bitsliced (wide corpus)",
        format_table(
            ["path", "circuits", "seconds", "digests/s"],
            [
                (label, count, f"{seconds:.4f}", f"{count / seconds:.1f}")
                for label, seconds in (
                    ("scalar", scalar_time),
                    ("bitsliced", batched_time),
                )
            ],
        )
        + f"\nspeedup: {speedup:.1f}x (gate: >= {PROBE_BATCH_MIN_SPEEDUP}x)",
    )
    assert speedup >= PROBE_BATCH_MIN_SPEEDUP, (
        f"bitsliced probe digests are only {speedup:.1f}x the scalar path "
        f"on the wide corpus (gate: {PROBE_BATCH_MIN_SPEEDUP}x); "
        f"scalar {scalar_time:.4f}s vs batched {batched_time:.4f}s"
    )


#: CI gate: exhaustive ``functionally_equal`` through the bitsliced
#: equality check must be at least this much faster than a scalar
#: ``simulate`` loop on the 8-line verification pairs.
EQUALITY_MIN_SPEEDUP = 10.0


@pytest.fixture(scope="module")
def verification_pairs(tmp_path_factory):
    """``(reconstruction, C1)`` for every matched pair of an 8-line corpus.

    Each pair is matched once with a fixed seed and its witnesses applied
    to ``C2`` — exactly the comparison ``verify_match`` makes; pairs the
    matchers reject (adversarial near-misses) are skipped.
    """
    from repro.core.dispatcher import match
    from repro.core.verify import reconstructed_circuit
    from repro.exceptions import MatchingError

    root = tmp_path_factory.mktemp("corpus8")
    manifest = generate_corpus(
        root, num_lines=8, pairs_per_class=PAIRS_PER_CLASS, seed=CORPUS_SEED
    )
    pairs = []
    for entry in manifest.entries:
        c1, c2 = load_entry_circuits(entry, root)
        try:
            result = match(c1, c2, entry.equivalence, rng=RUN_SEED)
        except MatchingError:
            continue
        pairs.append((reconstructed_circuit(c2, result), c1))
    return pairs


def test_exhaustive_equality_speedup(benchmark, verification_pairs):
    """CI gate: bitsliced ``functionally_equal`` is >= 10x a scalar loop.

    Compares every verification pair on all ``2**8`` inputs twice — once
    through ``functionally_equal`` (range-input lanes, no unpack, early
    exit at the first differing 64-input chunk), once through a local
    scalar ``simulate`` loop — asserts identical verdicts, and gates on
    the interleaved best-of wall-clock ratio (recorded in
    ``extra_info``).
    """
    pairs = verification_pairs
    assert pairs and all(c1.num_lines == 8 for _, c1 in pairs)

    def run_scalar():
        return [
            all(
                mine.simulate(value) == theirs.simulate(value)
                for value in range(1 << mine.num_lines)
            )
            for mine, theirs in pairs
        ]

    def run_kernel():
        return [mine.functionally_equal(theirs) for mine, theirs in pairs]

    verdicts = run_kernel()
    assert verdicts == run_scalar()
    assert any(verdicts) and not all(verdicts)

    scalar_time = kernel_time = float("inf")
    for _ in range(5):
        scalar_time = min(scalar_time, _best_of(1, run_scalar))
        kernel_time = min(kernel_time, _best_of(1, run_kernel))
    benchmark.pedantic(run_kernel, rounds=3, iterations=1)
    speedup = scalar_time / kernel_time
    benchmark.extra_info["pairs"] = len(pairs)
    benchmark.extra_info["equal_pairs"] = sum(verdicts)
    benchmark.extra_info["scalar_seconds"] = round(scalar_time, 6)
    benchmark.extra_info["kernel_seconds"] = round(kernel_time, 6)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["min_speedup"] = EQUALITY_MIN_SPEEDUP

    emit(
        "exhaustive equality: scalar loop vs bitsliced (8-line pairs)",
        format_table(
            ["path", "pairs", "seconds", "pairs/s"],
            [
                (label, len(pairs), f"{seconds:.4f}", f"{len(pairs) / seconds:.1f}")
                for label, seconds in (
                    ("scalar", scalar_time),
                    ("bitsliced", kernel_time),
                )
            ],
        )
        + f"\nspeedup: {speedup:.1f}x (gate: >= {EQUALITY_MIN_SPEEDUP}x)",
    )
    assert speedup >= EQUALITY_MIN_SPEEDUP, (
        f"bitsliced functionally_equal is only {speedup:.1f}x the scalar "
        f"loop on the 8-line verification pairs (gate: "
        f"{EQUALITY_MIN_SPEEDUP}x); scalar {scalar_time:.4f}s vs kernel "
        f"{kernel_time:.4f}s"
    )

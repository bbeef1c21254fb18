#!/usr/bin/env python3
"""The streaming service API: events, observers, and sharded runs.

``MatchingService.stream`` turns a corpus run into a generator of typed
lifecycle events — the primitive everything else consumes.  This example
walks the surface:

1. iterate the raw event stream of a run and react per event (the
   ``RunCompleted`` event carries the final ``ServiceReport``),
2. run the same manifest through ``run_manifest`` with stock observers
   attached — a progress line every 4 pairs, a JSONL event log and an
   in-memory stats counter,
3. split the corpus into 3 shards (a deterministic SHA-256 partition by
   pair id), run each shard separately, then ``merge_stores`` the shard
   stores — and check the merged store is byte-identical to the
   unsharded run's, seeds and query counts included,
4. stream in-memory pairs (no manifest) with ``stream_pairs``.

Run with:  python examples/streaming_events.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.circuits.random import random_circuit
from repro.core import EquivalenceType
from repro.core.verify import make_instance
from repro.service import (
    EventLogObserver,
    MatchingService,
    ProgressObserver,
    RunCompleted,
    StatsObserver,
    TaskCompleted,
    TaskFailed,
    generate_corpus,
    merge_stores,
)


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="repro-streaming-"))
    corpus = root / "corpus"
    manifest = generate_corpus(corpus, num_lines=4, pairs_per_class=1, seed=42)
    print(f"corpus: {len(manifest.entries)} pairs under {corpus}")

    # 1. The raw event stream: react per pair, as each one completes.
    print("\n-- raw event stream --")
    report = None
    for event in MatchingService().stream(corpus, seed=7):
        if isinstance(event, TaskCompleted):
            queries = event.record["result"]["queries"]
            print(f"  {event.record['pair_id']}: ok ({queries} queries)")
        elif isinstance(event, TaskFailed):
            print(f"  {event.record['pair_id']}: FAILED ({event.error})")
        elif isinstance(event, RunCompleted):
            report = event.report
    print(f"stream done: {report.summary()}")

    # 2. Observers: progress + JSONL event log + counters, no loop needed.
    print("\n-- observers --")
    stats = StatsObserver()
    with EventLogObserver(root / "events.jsonl") as event_log:
        MatchingService(
            observers=[ProgressObserver(every=4), event_log, stats]
        ).run_manifest(corpus, seed=7)
    print(f"stats: {stats.as_dict()}")
    print(f"event log: {(root / 'events.jsonl').stat().st_size} bytes")

    # 3. Sharded runs merge byte-identically to the unsharded store.
    full_store = root / "full.jsonl"
    MatchingService().run_manifest(corpus, store_path=full_store, seed=7)
    shard_stores = []
    for index in range(3):
        store = root / f"shard{index}.jsonl"
        shard_stores.append(store)
        shard = MatchingService().run_manifest(
            corpus, store_path=store, seed=7, shard=(index, 3)
        )
        print(f"shard {index}/3: {shard.total} pairs")
    merged = root / "merged.jsonl"
    count = merge_stores(merged, shard_stores)
    identical = merged.read_bytes() == full_store.read_bytes()
    print(f"merged {count} records; byte-identical to unsharded run: {identical}")
    assert identical

    # 4. In-memory pairs stream the same events, ids pair-0000 onwards.
    print("\n-- in-memory pairs --")
    import random

    rng = random.Random(3)
    base = random_circuit(4, 12, rng)
    pairs = [
        make_instance(base, EquivalenceType.I_N, rng)[:2] for _ in range(3)
    ]
    for event in MatchingService().stream_pairs(pairs, equivalence="I-N", seed=5):
        if isinstance(event, TaskCompleted):
            record = event.record
            print(
                f"  {record['pair_id']}: {record['matcher']} "
                f"({record['result']['queries']} queries)"
            )


if __name__ == "__main__":
    main()

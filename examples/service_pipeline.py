#!/usr/bin/env python3
"""The matching service: corpus -> cached, resumable pipeline.

The engine answers one batch at a time in one process with no memory of
past batches; the service layer turns it into a pipeline for corpus-scale
workloads.  This example walks the full loop:

1. generate a corpus with :func:`repro.service.generate_corpus` — random
   cascades, library benchmark functions and adversarial non-equivalent
   near-misses across the tractable equivalence classes, plus a
   ``manifest.json`` describing every pair,
2. run the manifest through a :class:`~repro.service.MatchingService`
   with a result cache and a JSONL result store, with witness
   verification on (the near-misses that "match" under the broken promise
   are flagged ``verified: false``),
3. re-run the same manifest warm — every pair is answered from the cache
   without building a single oracle,
4. simulate a crash by truncating the store, then resume — only the
   missing pairs execute, with the exact per-pair seeds the interrupted
   run would have used.

Run with:  python examples/service_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.service import (
    MatchingService,
    ResultStore,
    build_cache,
    generate_corpus,
)


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="repro-service-"))
    corpus = root / "corpus"
    store_path = root / "results.jsonl"

    # 1. Generate the corpus.
    manifest = generate_corpus(corpus, num_lines=4, pairs_per_class=2, seed=42)
    print(
        f"corpus: {len(manifest.entries)} pairs "
        f"({len(manifest.classes)} classes x {len(manifest.families)} families) "
        f"under {corpus}"
    )

    # 2. Cold run: cache + store + verification.
    service = MatchingService(cache=build_cache(), verify=True)
    cold = service.run_manifest(corpus, store_path=store_path, seed=7)
    print()
    print(cold.to_table(title="cold run"))
    print(cold.summary())
    flagged = [
        record["pair_id"]
        for record in cold.records
        if record.get("verified") is False
    ]
    print(f"near-misses caught by verification: {', '.join(flagged) or 'none'}")

    # 3. Warm run: zero oracle queries.
    warm = service.run_manifest(corpus, seed=7)
    print()
    print("warm:", warm.summary())

    # 4. Crash + resume.
    lines = store_path.read_text().splitlines()
    store_path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    resumed = MatchingService().run_manifest(
        corpus, store_path=store_path, resume=True, seed=7
    )
    print()
    print("resumed:", resumed.summary())
    print(f"store holds {len(ResultStore(store_path).load())} records again")


if __name__ == "__main__":
    main()

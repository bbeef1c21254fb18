"""The matching service layer: throughput on top of the matching engine.

:mod:`repro.core` answers "are these two circuits X-Y equivalent?" for one
pair; this package turns that into a streaming pipeline that answers it
for corpora:

* :mod:`repro.service.fingerprint` — oracle identity as a versioned
  strategy registry (:class:`FingerprintRegistry`): exact truth-table
  digests up to a width limit, width-independent sampled-probe digests
  beyond, gate-structure digests as the last resort.
* :mod:`repro.service.cache` — LRU in-memory, on-disk and tiered result
  caches, keyed only by :class:`MatchingService` (``pair_key``).
* :mod:`repro.service.executor` — :class:`SerialExecutor`, whose
  :meth:`~SerialExecutor.stream` runs pair tasks in order with
  deterministic per-pair seeding, so a pair's outcome does not depend on
  the batch, shard or host it runs in.
* :mod:`repro.service.events` — the typed lifecycle events a run streams
  (``RunStarted`` ... ``RunCompleted``) and the pluggable ``Observer``
  protocol with progress / JSONL-log / stats implementations.
* :mod:`repro.service.workload` — corpus generation across the 16
  equivalence classes (random, library and adversarial near-miss
  families) with a JSON manifest format.
* :mod:`repro.service.pipeline` — :class:`MatchingService`, the one
  batch layer that caches, streams and stores: its
  :meth:`~MatchingService.stream` generator is the primitive (cache +
  executor + engine + JSONL store as an event stream), with
  ``run_manifest``/``match_pairs`` as thin consumers; shard-aware runs
  (:func:`shard_index`) and :func:`merge_stores` to union shard stores.
* :mod:`repro.service.serialize` — the JSON form of matching results
  shared by cache, store, executor and daemon wire.
* :mod:`repro.service.daemon` — the long-lived front end:
  :class:`MatchingDaemon` keeps one process and one shared cache
  alive across many submissions behind a newline-delimited JSON socket
  protocol (``repro-daemon/v1``), with :class:`DaemonClient` as the
  Python/CLI counterpart; every submission streams into its own JSONL
  result store, so daemon runs resume and merge like CLI runs.

The CLI surfaces this as ``repro corpus`` (generate), ``repro run``
(execute, with ``--cache-dir``, ``--resume``, ``--shard i/n``,
``--progress`` and ``--events``),
``repro merge`` (union shard stores), and the daemon quartet ``repro
serve`` / ``repro submit`` / ``repro watch`` / ``repro daemon``
(admin: status, stats, cancel, shutdown).

The layer's contracts — the versioned ``v2|label|fp1|fp2|config_digest``
cache-key contract, the event ordering and persist-before-yield
guarantees, the shard/merge byte-identity guarantee, and the daemon wire
protocol — are specified in ``docs/`` (``cache-keys.md``, ``events.md``,
``architecture.md``, ``protocol.md``).
"""

from __future__ import annotations

from repro.service.daemon import (
    PROTOCOL_VERSION,
    DaemonClient,
    DaemonJob,
    MatchingDaemon,
    RunState,
)
from repro.service.cache import (
    CacheStats,
    DiskCache,
    LRUCache,
    ResultCache,
    TieredCache,
    build_cache,
    migrate_cache,
)
from repro.service.events import (
    CacheHit,
    EventLogObserver,
    Observer,
    ProgressObserver,
    ReportSummary,
    RunCompleted,
    RunStarted,
    ServiceEvent,
    StatsObserver,
    StoreFlushed,
    TaskCompleted,
    TaskFailed,
    TaskStarted,
    event_from_dict,
)
from repro.service.executor import (
    PairTask,
    SerialExecutor,
    TaskOutcome,
    derive_seed,
)
from repro.service.fingerprint import (
    DEFAULT_PROBE_COUNT,
    FINGERPRINT_SCHEMES,
    FUNCTIONAL_WIDTH_LIMIT,
    KEY_VERSION,
    FingerprintContext,
    Fingerprinter,
    FingerprintRegistry,
    OracleFingerprint,
    SampledProbeFingerprinter,
    StructureFingerprinter,
    TruthTableFingerprinter,
    build_registry,
    config_digest,
    default_registry,
    fingerprint,
    pair_key,
    pair_key_schemes,
    probe_inputs,
    registry_for_config,
    scheme_label,
)
from repro.service.pipeline import (
    MatchingService,
    ResultStore,
    ServiceReport,
    merge_stores,
    parse_shard,
    shard_index,
)
from repro.service.serialize import result_from_dict, result_to_dict
from repro.service.workload import (
    DEFAULT_FAMILIES,
    KNOWN_FAMILIES,
    CorpusEntry,
    CorpusManifest,
    generate_corpus,
    load_entry_circuits,
    tractable_classes,
    wide_classes,
)

__all__ = [
    # fingerprint
    "FUNCTIONAL_WIDTH_LIMIT",
    "DEFAULT_PROBE_COUNT",
    "FINGERPRINT_SCHEMES",
    "KEY_VERSION",
    "OracleFingerprint",
    "FingerprintContext",
    "Fingerprinter",
    "FingerprintRegistry",
    "TruthTableFingerprinter",
    "SampledProbeFingerprinter",
    "StructureFingerprinter",
    "build_registry",
    "registry_for_config",
    "default_registry",
    "probe_inputs",
    "fingerprint",
    "config_digest",
    "pair_key",
    "pair_key_schemes",
    "scheme_label",
    # cache
    "CacheStats",
    "ResultCache",
    "LRUCache",
    "DiskCache",
    "TieredCache",
    "build_cache",
    "migrate_cache",
    # events
    "ServiceEvent",
    "RunStarted",
    "TaskStarted",
    "CacheHit",
    "TaskCompleted",
    "TaskFailed",
    "StoreFlushed",
    "RunCompleted",
    "ReportSummary",
    "event_from_dict",
    "Observer",
    "ProgressObserver",
    "EventLogObserver",
    "StatsObserver",
    # daemon
    "PROTOCOL_VERSION",
    "RunState",
    "DaemonJob",
    "MatchingDaemon",
    "DaemonClient",
    # executor
    "SerialExecutor",
    "PairTask",
    "TaskOutcome",
    "derive_seed",
    # workload
    "DEFAULT_FAMILIES",
    "KNOWN_FAMILIES",
    "CorpusEntry",
    "CorpusManifest",
    "generate_corpus",
    "load_entry_circuits",
    "tractable_classes",
    "wide_classes",
    # pipeline
    "MatchingService",
    "ResultStore",
    "ServiceReport",
    "parse_shard",
    "shard_index",
    "merge_stores",
    # serialize
    "result_to_dict",
    "result_from_dict",
]

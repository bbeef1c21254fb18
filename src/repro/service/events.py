"""Typed lifecycle events and the observer protocol of the service layer.

:meth:`repro.service.pipeline.MatchingService.stream` is a generator of
the events defined here — one :class:`RunStarted` first, then one
:class:`TaskStarted`/:class:`CacheHit` per pair followed by its
:class:`TaskCompleted` or :class:`TaskFailed` (plus a
:class:`StoreFlushed` after every record that reaches the JSONL store),
and exactly one :class:`RunCompleted` last.  Events are frozen dataclasses
with a :meth:`~ServiceEvent.to_dict` JSON form, so an event stream can be
logged, shipped or replayed without the service layer knowing who listens.

Consumers either iterate the generator directly or register
:class:`Observer` objects with the service; three stock observers cover
the common cases:

* :class:`ProgressObserver` — a progress line every N finished pairs
  (quiet between lines; what ``repro run --progress`` wires up),
* :class:`EventLogObserver` — append-only JSONL event log,
* :class:`StatsObserver` — in-memory counters for tests and dashboards.

Observer failures are deliberately *not* swallowed: a broken observer is
a bug in the caller's wiring, and silently dropping its exception would
hide it.

Because events are JSON both ways — :meth:`~ServiceEvent.to_dict` out,
:func:`event_from_dict` back in — an event stream crosses process and
socket boundaries losslessly enough for observers: the matching daemon
serialises events onto its wire protocol and ``repro watch`` rebuilds
typed events on the client, so the same ``ProgressObserver`` works
against an in-process run and a remote one.  The one asymmetry is
:class:`RunCompleted`, whose wire form carries only the report's
aggregate counters; :func:`event_from_dict` rebuilds it around a
:class:`ReportSummary` rather than a full
:class:`~repro.service.pipeline.ServiceReport`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline -> events)
    from repro.service.pipeline import ServiceReport

__all__ = [
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
]


@dataclass(frozen=True)
class ServiceEvent:
    """Base class of every service lifecycle event."""

    @property
    def kind(self) -> str:
        """The event's type name (``"TaskCompleted"`` etc.)."""
        return type(self).__name__

    def to_dict(self) -> dict:
        """A JSON-ready dict of the event (``{"event": kind, ...}``)."""
        return {"event": self.kind}


@dataclass(frozen=True)
class RunStarted(ServiceEvent):
    """A run began; emitted once, before any pair is touched.

    Attributes:
        total: pairs this run will account for (after shard filtering).
        executor: the execution backend's name.
        store_path: the JSONL result store, if one is attached.
        seed: the run seed (per-pair seeds derive from it).
        shard: ``(index, count)`` when this is one shard of a larger run.
    """

    total: int
    executor: str
    store_path: str | None = None
    seed: int | None = None
    shard: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        return {
            "event": self.kind,
            "total": self.total,
            "executor": self.executor,
            "store_path": self.store_path,
            "seed": self.seed,
            "shard": list(self.shard) if self.shard is not None else None,
        }


@dataclass(frozen=True)
class TaskStarted(ServiceEvent):
    """A pair was handed to the executor (not served by store or cache)."""

    index: int
    pair_id: str | None
    equivalence: str

    def to_dict(self) -> dict:
        return {
            "event": self.kind,
            "index": self.index,
            "pair_id": self.pair_id,
            "equivalence": self.equivalence,
        }


@dataclass(frozen=True)
class CacheHit(ServiceEvent):
    """A pair was answered without executing anything.

    Attributes:
        source: ``"store"`` when resume found the pair in the result
            store, ``"cache"`` when the result cache had it.
        record: the run record the hit produced.
        duration_s: wall-clock seconds the settle took (fingerprint +
            cache probe + store append); ``None`` for store hits, which
            re-use a prior run's record without doing any work.
    """

    index: int
    pair_id: str | None
    source: str
    record: dict
    duration_s: float | None = None

    def to_dict(self) -> dict:
        return {
            "event": self.kind,
            "index": self.index,
            "pair_id": self.pair_id,
            "source": self.source,
            "record": self.record,
            "duration_s": self.duration_s,
        }


@dataclass(frozen=True)
class TaskCompleted(ServiceEvent):
    """A freshly executed pair produced witnesses.

    ``duration_s`` is the matcher-dispatch wall clock measured by the
    executor.  It never enters the persisted record — stores stay
    byte-identical across whole-manifest, sharded and fleet runs — so it
    rides on the event only.
    """

    index: int
    pair_id: str | None
    record: dict
    duration_s: float | None = None

    def to_dict(self) -> dict:
        return {
            "event": self.kind,
            "index": self.index,
            "pair_id": self.pair_id,
            "record": self.record,
            "duration_s": self.duration_s,
        }


@dataclass(frozen=True)
class TaskFailed(ServiceEvent):
    """A freshly executed pair's matcher raised instead of matching.

    ``duration_s`` mirrors :class:`TaskCompleted`: the executor-measured
    dispatch wall clock, carried on the event and never in the record.
    """

    index: int
    pair_id: str | None
    record: dict
    duration_s: float | None = None

    @property
    def error(self) -> str | None:
        """The recorded ``"ExceptionName: message"`` failure."""
        return self.record.get("error")

    def to_dict(self) -> dict:
        return {
            "event": self.kind,
            "index": self.index,
            "pair_id": self.pair_id,
            "record": self.record,
            "duration_s": self.duration_s,
        }


@dataclass(frozen=True)
class StoreFlushed(ServiceEvent):
    """One record reached the JSONL result store (append + flush).

    Attributes:
        path: the store file.
        records_written: cumulative records this run has flushed.
    """

    path: str
    records_written: int

    def to_dict(self) -> dict:
        return {
            "event": self.kind,
            "path": self.path,
            "records_written": self.records_written,
        }


@dataclass(frozen=True)
class RunCompleted(ServiceEvent):
    """The run finished; carries the full :class:`ServiceReport`."""

    report: "ServiceReport"

    def to_dict(self) -> dict:
        report = self.report
        return {
            "event": self.kind,
            "total": report.total,
            "matched": report.matched,
            "failed": report.failed,
            "resumed": report.resumed,
            "cache_hits": report.cache_hits,
            "executed": report.executed,
            "elapsed": report.elapsed,
            "executor": report.executor,
        }


@dataclass(frozen=True)
class ReportSummary:
    """The aggregate counters of a :class:`~repro.service.pipeline.ServiceReport`.

    What survives a :class:`RunCompleted` round trip through
    :meth:`~ServiceEvent.to_dict` / :func:`event_from_dict` — per-pair
    records stay on the producing side (they were already streamed as
    individual events and persisted to the run's result store), the
    counters cross the wire.
    """

    total: int = 0
    matched: int = 0
    failed: int = 0
    resumed: int = 0
    cache_hits: int = 0
    executed: int = 0
    elapsed: float = 0.0
    executor: str = "?"

    def summary(self) -> str:
        """One-line aggregate, mirroring :meth:`ServiceReport.summary`."""
        return (
            f"{self.matched}/{self.total} matched ({self.failed} failed), "
            f"{self.cache_hits} cached, {self.resumed} resumed, "
            f"{self.executed} executed via {self.executor} in "
            f"{self.elapsed:.2f}s"
        )


def event_from_dict(data: dict) -> ServiceEvent:
    """Rebuild a typed event from :meth:`ServiceEvent.to_dict` output.

    The inverse that lets observers watch a run they did not produce —
    an event log replay, or a daemon's wire frames.  ``RunCompleted``
    comes back with a :class:`ReportSummary` as its report (the wire form
    only carries aggregates).  Raises :class:`ValueError` on an unknown
    or missing ``"event"`` kind.
    """
    kind = data.get("event")
    if kind == "RunStarted":
        shard = data.get("shard")
        return RunStarted(
            total=data.get("total", 0),
            executor=data.get("executor", "?"),
            store_path=data.get("store_path"),
            seed=data.get("seed"),
            shard=tuple(shard) if shard is not None else None,
        )
    if kind == "TaskStarted":
        return TaskStarted(
            index=data.get("index", 0),
            pair_id=data.get("pair_id"),
            equivalence=data.get("equivalence", "?"),
        )
    if kind == "CacheHit":
        return CacheHit(
            index=data.get("index", 0),
            pair_id=data.get("pair_id"),
            source=data.get("source", "cache"),
            record=data.get("record") or {},
            duration_s=data.get("duration_s"),
        )
    if kind in ("TaskCompleted", "TaskFailed"):
        event_type = TaskCompleted if kind == "TaskCompleted" else TaskFailed
        return event_type(
            index=data.get("index", 0),
            pair_id=data.get("pair_id"),
            record=data.get("record") or {},
            duration_s=data.get("duration_s"),
        )
    if kind == "StoreFlushed":
        return StoreFlushed(
            path=data.get("path"),
            records_written=data.get("records_written", 0),
        )
    if kind == "RunCompleted":
        return RunCompleted(
            report=ReportSummary(
                total=data.get("total", 0),
                matched=data.get("matched", 0),
                failed=data.get("failed", 0),
                resumed=data.get("resumed", 0),
                cache_hits=data.get("cache_hits", 0),
                executed=data.get("executed", 0),
                elapsed=data.get("elapsed", 0.0),
                executor=data.get("executor", "?"),
            )
        )
    raise ValueError(f"not a service event dict (event kind {kind!r})")


@runtime_checkable
class Observer(Protocol):
    """Anything with a ``notify(event)`` method can watch a run."""

    def notify(self, event: ServiceEvent) -> None:
        """Receive one lifecycle event."""


class ProgressObserver:
    """Print a progress line every ``every`` finished pairs.

    A pair counts as finished when its :class:`TaskCompleted`,
    :class:`TaskFailed` or :class:`CacheHit` arrives; the final tally is
    always printed at :class:`RunCompleted`, so short runs are never
    silent.

    Args:
        stream: output text stream; defaults to ``sys.stderr`` so progress
            never mixes with a report printed on stdout.
        every: line cadence in pairs.
    """

    def __init__(self, stream: IO[str] | None = None, every: int = 1) -> None:
        if every <= 0:
            raise ValueError(f"progress cadence must be positive, got {every}")
        self._stream = stream
        self._every = every
        self._total = 0
        self._done = 0
        self._failed = 0

    def _out(self) -> IO[str]:
        return self._stream if self._stream is not None else sys.stderr

    def notify(self, event: ServiceEvent) -> None:
        if isinstance(event, RunStarted):
            self._total = event.total
            self._done = 0
            self._failed = 0
            print(
                f"run started: {event.total} pairs via {event.executor}",
                file=self._out(),
            )
            return
        if isinstance(event, (TaskCompleted, TaskFailed, CacheHit)):
            self._done += 1
            if isinstance(event, TaskFailed):
                self._failed += 1
            if self._done % self._every == 0:
                label = event.pair_id if event.pair_id is not None else event.index
                print(
                    f"[{self._done}/{self._total}] {label}: "
                    f"{event.record.get('status', '?')}",
                    file=self._out(),
                )
            return
        if isinstance(event, RunCompleted):
            print(
                f"run completed: {self._done}/{self._total} pairs, "
                f"{self._failed} failed",
                file=self._out(),
            )


class EventLogObserver:
    """Append every event as one JSON line to a log file.

    The file is opened lazily on the first event and flushed per line, so
    a crash loses at most the record being written; :meth:`close` (or the
    context-manager form) releases the handle.
    """

    def __init__(self, path) -> None:
        self._path = path
        self._handle: IO[str] | None = None

    @property
    def path(self):
        """The log file path."""
        return self._path

    def notify(self, event: ServiceEvent) -> None:
        if self._handle is None:
            self._handle = open(self._path, "a", encoding="utf-8")
        self._handle.write(json.dumps(event.to_dict()) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLogObserver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _TimingStats:
    """Sum/min/max accumulator over the ``duration_s`` of one event kind."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s: float | None = None
        self.max_s: float | None = None

    def add(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        self.min_s = duration_s if self.min_s is None else min(self.min_s, duration_s)
        self.max_s = duration_s if self.max_s is None else max(self.max_s, duration_s)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }


class StatsObserver:
    """Count events in memory — the assertion-friendly observer.

    Attributes:
        runs_started, runs_completed: run boundary counts.
        started: pairs handed to the executor.
        completed, failed: fresh execution outcomes.
        cache_hits, resumed: pairs served without executing (``resumed``
            counts the store-sourced subset of ``cache_hits_total``).
        store_flushes: records flushed to the JSONL store.
        completed_timing, cache_hit_timing: sum/min/max accumulators over
            the ``duration_s`` of :class:`TaskCompleted` and
            :class:`CacheHit` events (events without a duration — store
            hits, or streams from older producers — are not counted).
    """

    def __init__(self) -> None:
        self.runs_started = 0
        self.runs_completed = 0
        self.started = 0
        self.completed = 0
        self.failed = 0
        self.cache_hits = 0
        self.resumed = 0
        self.store_flushes = 0
        self.completed_timing = _TimingStats()
        self.cache_hit_timing = _TimingStats()

    def notify(self, event: ServiceEvent) -> None:
        if isinstance(event, RunStarted):
            self.runs_started += 1
        elif isinstance(event, TaskStarted):
            self.started += 1
        elif isinstance(event, TaskCompleted):
            self.completed += 1
            if event.duration_s is not None:
                self.completed_timing.add(event.duration_s)
        elif isinstance(event, TaskFailed):
            self.failed += 1
        elif isinstance(event, CacheHit):
            if event.source == "store":
                self.resumed += 1
            else:
                self.cache_hits += 1
            if event.duration_s is not None:
                self.cache_hit_timing.add(event.duration_s)
        elif isinstance(event, StoreFlushed):
            self.store_flushes += 1
        elif isinstance(event, RunCompleted):
            self.runs_completed += 1

    def as_dict(self) -> dict:
        """The counters as a plain dict (stable keys for reports)."""
        return {
            "runs_started": self.runs_started,
            "runs_completed": self.runs_completed,
            "started": self.started,
            "completed": self.completed,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "store_flushes": self.store_flushes,
            "timings": {
                "completed": self.completed_timing.as_dict(),
                "cache_hit": self.cache_hit_timing.as_dict(),
            },
        }

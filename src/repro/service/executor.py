"""Execution: stream pair tasks through the engine, one at a time.

:class:`SerialExecutor` takes an iterable of :class:`PairTask` and a
:class:`~repro.core.engine.MatchingConfig` and yields one
:class:`TaskOutcome` per task from :meth:`SerialExecutor.stream`, in task
order — the streaming contract the service pipeline consumes so store
writes and observer notifications interleave with execution instead of
waiting for the whole batch.  Two invariants make a pair's outcome
independent of the batch it runs in:

* **Determinism** — each task carries its own RNG seed, derived from the
  run seed and the task index by :func:`derive_seed` (a SHA-256 mix, so
  nearby indices get unrelated streams).  No state is shared between
  tasks, so a shard of a manifest, run here or on a fleet peer, yields
  the same per-task outcomes as the whole manifest.
* **Serialised results** — outcomes carry results as JSON dicts (the
  :mod:`repro.service.serialize` format) rather than live objects, so the
  cache, the result store and the daemon wire all see one format.

Pairs share no state, so a batch scales out by splitting its pairs
between processes or hosts: ``repro run --shard i/n`` and ``repro fleet
run`` do that, and their merged stores are byte-identical to one run.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.core.engine import MatchingConfig, MatchingEngine
from repro.service import serialize

__all__ = [
    "PairTask",
    "TaskOutcome",
    "derive_seed",
    "SerialExecutor",
]


@dataclass(frozen=True)
class PairTask:
    """One pair to match, self-contained.

    Attributes:
        index: position in the batch (the manifest index for corpus runs,
            so a shard's tasks keep their place in the whole manifest).
        circuit1, circuit2: the pair — circuits or permutations.
        equivalence: the promised class, as its "X-Y" label.
        seed: per-task RNG seed (``None`` = fresh randomness, which
            forfeits reproducibility for this task).
        pair_id: optional stable identifier carried through to the outcome
            (corpus entries use it for resume bookkeeping).
    """

    index: int
    circuit1: object
    circuit2: object
    equivalence: str
    seed: int | None = None
    pair_id: str | None = None


@dataclass(frozen=True)
class TaskOutcome:
    """The executed counterpart of one :class:`PairTask`.

    Attributes:
        index: the task's batch position.
        pair_id: the task's identifier, if any.
        equivalence: the promised class label.
        result: the serialised :class:`~repro.core.problem.MatchingResult`
            (:func:`repro.service.serialize.result_to_dict`), or ``None``
            when the matcher failed.
        error: ``"ExceptionName: message"`` on failure.
        matcher: name of the registry entry that ran.
        duration_s: wall clock of the engine dispatch.  Excluded from
            equality — a replayed outcome with a different timing is
            still the *same* outcome, which is what keeps sharded and
            whole-manifest comparisons (and byte-identical records)
            meaningful.
    """

    index: int
    pair_id: str | None
    equivalence: str
    result: dict | None = None
    error: str | None = None
    matcher: str | None = None
    duration_s: float | None = field(default=None, compare=False)

    @property
    def matched(self) -> bool:
        """Whether the task produced witnesses."""
        return self.result is not None


def derive_seed(base_seed: int | None, index: int) -> int | None:
    """A per-task seed decorrelated from neighbours but fully determined.

    Hashing ``base_seed:index`` (rather than e.g. adding them) keeps task
    streams statistically independent while remaining identical no matter
    which shard, host or run executes the task.
    """
    if base_seed is None:
        return None
    digest = hashlib.sha256(f"{base_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


class SerialExecutor:
    """Run tasks one after another in the calling process.

    The task iterable is consumed lazily: each task is pulled, executed
    and its outcome yielded before the next task is even looked at, so a
    generator of tasks interleaves perfectly with the outcome stream.

    Args:
        metrics: optional metrics registry (duck-typed
            :class:`repro.obs.metrics.MetricsRegistry`) handed to every
            engine this executor builds, so engine-level counters
            (``repro_engine_pairs_total`` and friends) land in-process.
    """

    #: Backend name for reports (the ``executor`` field of run events,
    #: ``stats`` frames and run-meta sidecars).
    name = "serial"

    def __init__(self, *, metrics=None) -> None:
        self._metrics = metrics

    def stream(
        self, tasks: Iterable[PairTask], config: MatchingConfig
    ) -> Iterator[TaskOutcome]:
        """Yield one outcome per task, in task order."""
        engine = MatchingEngine(config, metrics=self._metrics)
        for task in tasks:
            # One pair through the engine's batch path, so failures carry
            # its shared error format.
            pair = (task.circuit1, task.circuit2, task.equivalence)
            started = time.perf_counter()
            entry = engine.match_many([pair], rng=task.seed).entries[0]
            duration_s = time.perf_counter() - started
            result = entry.result
            yield TaskOutcome(
                index=task.index,
                pair_id=task.pair_id,
                equivalence=task.equivalence,
                result=serialize.result_to_dict(result) if result else None,
                error=entry.error,
                matcher=entry.matcher,
                duration_s=duration_s,
            )

"""Unit tests for the execution backends.

The load-bearing property is the acceptance criterion of the service
subsystem: every backend — serial and four-process parallel — produces
byte-identical per-task outcomes for the same seed, because
every task carries its own derived RNG seed and shares no state with its
neighbours; backends differ only in the arrival order of
:meth:`Executor.stream`.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.circuits.random import random_circuit
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.core.verify import make_instance
from repro.service import executor as executor_module
from repro.service.executor import (
    PairTask,
    ParallelExecutor,
    SerialExecutor,
    TaskOutcome,
    derive_seed,
)


def _canonical(outcomes) -> bytes:
    """Outcomes as canonical JSON bytes, sorted by task index.

    ``duration_s`` is dropped: it is telemetry (``compare=False`` on the
    dataclass), measured per process, and never part of the byte-identity
    contract between serial and parallel execution.
    """
    payload = []
    for outcome in outcomes:
        data = dataclasses.asdict(outcome)
        data.pop("duration_s", None)
        payload.append(data)
    return json.dumps(
        sorted(payload, key=lambda outcome: outcome["index"]),
        sort_keys=True,
    ).encode("utf-8")


@pytest.fixture
def tasks(rng):
    """A mixed batch: tractable classes plus one UNIQUE-SAT-hard failure."""
    classes = [
        EquivalenceType.I_N,
        EquivalenceType.I_P,
        EquivalenceType.P_I,
        EquivalenceType.N_I,
        EquivalenceType.NP_I,
        EquivalenceType.N_N,  # hard: records an error instead of witnesses
    ]
    batch = []
    for index, equivalence in enumerate(classes):
        base = random_circuit(4, 16, rng)
        c1, c2, _ = make_instance(base, equivalence, rng)
        batch.append(
            PairTask(
                index=index,
                circuit1=c1,
                circuit2=c2,
                equivalence=equivalence.label,
                seed=derive_seed(1234, index),
                pair_id=f"pair-{index}",
            )
        )
    return batch


class TestDeriveSeed:
    def test_deterministic_and_decorrelated(self):
        assert derive_seed(7, 0) == derive_seed(7, 0)
        assert derive_seed(7, 0) != derive_seed(7, 1)
        assert derive_seed(7, 0) != derive_seed(8, 0)

    def test_none_base_stays_none(self):
        assert derive_seed(None, 5) is None


class TestSerialExecutor:
    def test_stream_preserves_task_order_with_errors_recorded(self, tasks):
        outcomes = list(SerialExecutor().stream(tasks, MatchingConfig()))
        assert [outcome.index for outcome in outcomes] == list(range(len(tasks)))
        assert [outcome.pair_id for outcome in outcomes] == [
            task.pair_id for task in tasks
        ]
        hard = outcomes[-1]
        assert not hard.matched and "UNIQUE-SAT" in hard.error
        for outcome in outcomes[:-1]:
            assert outcome.matched and outcome.matcher is not None

    def test_stream_consumes_tasks_lazily(self, tasks):
        """One task in, one outcome out — what lets store writes interleave."""
        pulled = []

        def task_source():
            for task in tasks[:3]:
                pulled.append(task.index)
                yield task

        stream = SerialExecutor().stream(task_source(), MatchingConfig())
        assert pulled == []
        next(stream)
        assert pulled == [0]
        next(stream)
        assert pulled == [0, 1]

    def test_results_are_plain_json(self, tasks):
        outcomes = SerialExecutor().stream(tasks[:2], MatchingConfig())
        json.dumps([outcome.result for outcome in outcomes])  # must not raise

    def test_broken_tasks_raise_instead_of_failing_the_pair(self, tasks):
        bad = dataclasses.replace(tasks[0], equivalence="NOT-A-CLASS")
        with pytest.raises(ValueError, match="unknown equivalence label"):
            list(SerialExecutor().stream([bad], MatchingConfig()))


class TestParallelExecutor:
    def test_four_workers_byte_identical_to_serial(self, tasks):
        config = MatchingConfig()
        serial = SerialExecutor().stream(tasks, config)
        parallel = ParallelExecutor(workers=4).stream(tasks, config)
        assert _canonical(serial) == _canonical(parallel)

    def test_chunked_stream_covers_every_task(self, tasks):
        outcomes = list(
            ParallelExecutor(workers=2, chunk_size=1).stream(
                tasks, MatchingConfig()
            )
        )
        assert sorted(outcome.index for outcome in outcomes) == list(
            range(len(tasks))
        )

    def test_single_worker_falls_back_to_serial_path(self, tasks):
        outcomes = list(
            ParallelExecutor(workers=1).stream(tasks[:2], MatchingConfig())
        )
        assert len(outcomes) == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(chunk_size=0)

    def test_closing_the_stream_early_cancels_queued_chunks(
        self, tasks, monkeypatch
    ):
        """A consumer that stops after one outcome must not wait for the
        rest of the batch: the pool shuts down with its queue cancelled."""
        shutdowns = []

        class SpyPool(executor_module.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(cancel_futures)
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", SpyPool)
        stream = ParallelExecutor(workers=2, chunk_size=1).stream(
            tasks, MatchingConfig()
        )
        next(stream)
        stream.close()
        assert shutdowns and shutdowns[0] is True

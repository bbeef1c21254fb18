"""Unit tests for the execution backends.

The load-bearing property is the acceptance criterion of the service
subsystem: every backend — serial, four-process parallel, overlap —
produces byte-identical per-task outcomes for the same seed, because
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
from repro.service.executor import (
    OverlapExecutor,
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
        """One task in, one outcome out — the overlap-enabling property."""
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


class TestOverlapExecutor:
    def test_byte_identical_to_inner_serial(self, tasks):
        config = MatchingConfig()
        serial = SerialExecutor().stream(tasks, config)
        overlap = OverlapExecutor().stream(tasks, config)
        assert _canonical(serial) == _canonical(overlap)

    def test_preserves_inner_order(self, tasks):
        outcomes = list(OverlapExecutor(buffer_size=2).stream(tasks, MatchingConfig()))
        assert [outcome.index for outcome in outcomes] == list(range(len(tasks)))

    def test_name_reflects_inner_backend(self):
        assert OverlapExecutor().name == "overlap[serial]"
        assert OverlapExecutor(ParallelExecutor(workers=2)).name == "overlap[parallel]"

    def test_producer_exceptions_reach_the_consumer(self, tasks):
        bad = PairTask(
            index=0,
            circuit1=tasks[0].circuit1,
            circuit2=tasks[0].circuit2,
            equivalence="NOT-A-CLASS",
        )
        with pytest.raises(ValueError, match="unknown equivalence label"):
            list(OverlapExecutor().stream([bad], MatchingConfig()))

    def test_rejects_bad_buffer(self):
        with pytest.raises(ValueError):
            OverlapExecutor(buffer_size=0)

    def test_abandoning_the_stream_does_not_deadlock(self):
        """Closing the generator early must unblock a producer stuck on a
        full queue (regression: join() used to wait forever)."""

        class Firehose(SerialExecutor):
            name = "firehose"

            def stream(self, tasks, config):
                for index in range(1000):
                    yield TaskOutcome(index=index, pair_id=None, equivalence="I-I")

        stream = OverlapExecutor(Firehose(), buffer_size=2).stream(
            [], MatchingConfig()
        )
        assert next(stream).index == 0
        stream.close()  # must return promptly, not hang on join()

"""Unit tests for the serial executor and per-task seed derivation.

Every task carries its own derived RNG seed and shares no state with its
neighbours, so a pair's outcome does not depend on the batch it runs in;
the shard-union tests in ``test_pipeline.py`` and the fleet byte-identity
tests check that end to end.
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
    PairTask,
    SerialExecutor,
    derive_seed,
)


def _canonical(outcomes) -> bytes:
    """Outcomes as canonical JSON bytes, sorted by task index.

    ``duration_s`` is dropped: it is telemetry (``compare=False`` on the
    dataclass), not part of an outcome's identity.
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

    def test_outcomes_do_not_depend_on_the_batch(self, tasks):
        """Each task alone, or the batch reversed, gives the same outcome
        as the whole batch in order: what makes shard unions byte-identical."""
        config = MatchingConfig()
        batch = SerialExecutor().stream(tasks, config)
        alone = [
            outcome
            for task in tasks
            for outcome in SerialExecutor().stream([task], config)
        ]
        reversed_batch = SerialExecutor().stream(tasks[::-1], config)
        assert _canonical(alone) == _canonical(batch)
        assert _canonical(reversed_batch) == _canonical(alone)

    def test_results_are_plain_json(self, tasks):
        outcomes = SerialExecutor().stream(tasks[:2], MatchingConfig())
        json.dumps([outcome.result for outcome in outcomes])  # must not raise

    def test_broken_tasks_raise_instead_of_failing_the_pair(self, tasks):
        bad = dataclasses.replace(tasks[0], equivalence="NOT-A-CLASS")
        with pytest.raises(ValueError, match="unknown equivalence label"):
            list(SerialExecutor().stream([bad], MatchingConfig()))

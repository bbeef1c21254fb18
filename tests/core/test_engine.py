"""Unit tests for the MatchingEngine facade and the batch API."""

from __future__ import annotations

import pytest

from repro.circuits.random import random_circuit
from repro.core import (
    EquivalenceType,
    MatchingConfig,
    MatchingEngine,
    MatchingProblem,
    make_instance,
    verify_match,
)
from repro.core.engine import BatchReport, get_default_engine
from repro.exceptions import (
    QueryBudgetExceededError,
    UnsupportedEquivalenceError,
)
from repro.oracles import CircuitOracle


class TestEngineMatch:
    @pytest.mark.parametrize("label", ["I-N", "I-P", "P-I", "NP-I"])
    def test_matches_and_verifies(self, rng, label):
        equivalence = EquivalenceType.from_label(label)
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, equivalence, rng)
        engine = MatchingEngine()
        result = engine.match(c1, c2, equivalence, rng=rng, epsilon=1e-4)
        assert result.equivalence is equivalence
        assert verify_match(c1, c2, equivalence, result)

    def test_config_with_inverse_grants_inverse_access(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_I, rng)
        engine = MatchingEngine(MatchingConfig(with_inverse=True))
        result = engine.match(c1, c2, EquivalenceType.N_I)
        assert result.quantum_queries == 0
        assert result.queries == 2

    def test_config_no_quantum_raises_without_inverse(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_I, rng)
        engine = MatchingEngine(MatchingConfig(allow_quantum=False))
        with pytest.raises(UnsupportedEquivalenceError):
            engine.match(c1, c2, EquivalenceType.N_I)

    def test_brute_force_opt_in_solves_hard_class(self, rng):
        base = random_circuit(3, 8, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_N, rng)
        engine = MatchingEngine(MatchingConfig(allow_brute_force=True))
        result = engine.match(c1, c2, EquivalenceType.N_N, rng=rng)
        assert verify_match(c1, c2, EquivalenceType.N_N, result)

    def test_query_budget_is_enforced(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.I_P, rng)
        engine = MatchingEngine(MatchingConfig(max_queries=1))
        with pytest.raises(QueryBudgetExceededError):
            engine.match(c1, c2, EquivalenceType.I_P, rng=rng)

    def test_query_budget_binds_the_quantum_tier_too(self, rng):
        # N-I without inverses resolves to the swap-test matcher; the budget
        # must carry over to the lifted quantum oracles.
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_I, rng)
        engine = MatchingEngine(MatchingConfig(max_queries=2))
        with pytest.raises(QueryBudgetExceededError):
            engine.match(c1, c2, EquivalenceType.N_I, rng=rng)

    def test_plan_reports_resolution_without_matching(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_I, rng)
        engine = MatchingEngine()
        assert engine.plan(c1, c2, EquivalenceType.N_I).name == "n-i/swap-test"
        assert (
            engine.plan(c1, c2, EquivalenceType.N_I, with_inverse=True).name
            == "n-i/inverse-probe"
        )

    def test_prebuilt_oracles_pass_through(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.I_N, rng)
        oracle1, oracle2 = CircuitOracle(c1), CircuitOracle(c2)
        MatchingEngine().match(oracle1, oracle2, EquivalenceType.I_N)
        assert oracle1.query_count == 1  # queried directly, not via a copy

    def test_no_stale_oracle_after_circuit_mutation(self, rng):
        # match() coerces fresh every call, so mutating a circuit between
        # calls must be reflected — an engine-lifetime cache would keep the
        # inverse materialised from the pre-mutation gates.
        from repro.circuits.gates import not_gate

        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_I, rng)
        engine = MatchingEngine(MatchingConfig(with_inverse=True))
        first = engine.match(c1, c2, EquivalenceType.N_I)
        assert verify_match(c1, c2, EquivalenceType.N_I, first)
        # Appending the same gate to both sides preserves N-I equivalence;
        # only a fresh inverse of the mutated c2 recovers the witness.
        c1.append(not_gate(0))
        c2.append(not_gate(0))
        second = engine.match(c1, c2, EquivalenceType.N_I)
        assert second.queries == 2  # still the classical inverse tier
        assert verify_match(c1, c2, EquivalenceType.N_I, second)

    def test_with_config_overrides_fields(self):
        engine = MatchingEngine()
        tweaked = engine.with_config(allow_quantum=False, max_queries=7)
        assert tweaked.config.allow_quantum is False
        assert tweaked.config.max_queries == 7
        assert engine.config.allow_quantum is True


class TestEngineSolve:
    def test_solve_uses_problem_fields(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_I, rng)
        problem = MatchingProblem(
            EquivalenceType.N_I, num_lines=4, with_inverse=True
        )
        result = MatchingEngine().solve(problem, c1, c2)
        assert result.queries == 2
        assert result.quantum_queries == 0
        assert verify_match(c1, c2, EquivalenceType.N_I, result)


class TestMatchMany:
    def _pairs(self, rng, labels):
        base = random_circuit(4, 14, rng)
        pairs = []
        for label in labels:
            equivalence = EquivalenceType.from_label(label)
            c1, c2, _ = make_instance(base, equivalence, rng)
            pairs.append((c1, c2, equivalence))
        return pairs

    def test_aggregates_query_totals(self, rng):
        pairs = self._pairs(rng, ["I-N", "I-P", "P-I", "N-I"])
        engine = MatchingEngine()
        report = engine.match_many(pairs, rng=rng)
        assert isinstance(report, BatchReport)
        assert report.num_pairs == 4
        assert report.num_matched == 4
        assert report.num_failed == 0
        assert report.classical_queries == sum(
            entry.result.queries for entry in report.entries
        )
        assert report.quantum_queries == sum(
            entry.result.quantum_queries for entry in report.entries
        )
        assert report.total_queries == (
            report.classical_queries + report.quantum_queries
        )
        # N-I without an inverse runs on the quantum tier.
        assert report.quantum_queries > 0
        assert report.swap_tests > 0

    def test_per_pair_witnesses_verify(self, rng):
        pairs = self._pairs(rng, ["I-N", "P-I", "I-NP"])
        report = MatchingEngine().match_many(pairs, rng=rng)
        for (c1, c2, equivalence), entry in zip(pairs, report.entries):
            assert entry.matched
            assert entry.equivalence is equivalence
            assert verify_match(c1, c2, equivalence, entry.result)

    def test_batch_default_equivalence_applies_to_two_tuples(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.I_N, rng)
        report = MatchingEngine().match_many([(c1, c2)], equivalence="I-N")
        assert report.num_matched == 1

    def test_failures_are_recorded_not_raised(self, rng):
        base = random_circuit(3, 8, rng)
        good1, good2, _ = make_instance(base, EquivalenceType.I_N, rng)
        hard1, hard2, _ = make_instance(base, EquivalenceType.P_P, rng)
        report = MatchingEngine().match_many(
            [
                (good1, good2, EquivalenceType.I_N),
                (hard1, hard2, EquivalenceType.P_P),
            ]
        )
        assert report.num_matched == 1
        assert report.num_failed == 1
        failure = report.failures()[0]
        assert failure.error is not None
        assert "UnsupportedEquivalenceError" in failure.error
        assert report.classical_queries == report.entries[0].result.queries

    def test_oracle_coercion_reused_across_pairs(self, rng):
        base = random_circuit(4, 14, rng)
        template = base
        partners = []
        for _ in range(3):
            c1, _, _ = make_instance(template, EquivalenceType.I_N, rng)
            partners.append(c1)
        engine = MatchingEngine(MatchingConfig(with_inverse=True))
        report = engine.match_many(
            [(partner, template) for partner in partners],
            equivalence=EquivalenceType.I_N,
        )
        assert report.num_matched == 3
        # 3 distinct partners + 1 shared template, coerced once each.
        assert report.coerced_oracles == 4

    def test_budget_failures_recorded_per_pair(self, rng):
        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.I_P, rng)
        engine = MatchingEngine(MatchingConfig(max_queries=1))
        report = engine.match_many([(c1, c2, EquivalenceType.I_P)], rng=rng)
        assert report.num_failed == 1
        assert "QueryBudgetExceededError" in report.failures()[0].error

    def test_budget_applies_per_pair_not_across_batch(self, rng):
        # A shared circuit must not let early pairs starve later ones: with
        # a budget the engine coerces fresh oracles per pair.
        base = random_circuit(4, 14, rng)
        partners = [
            make_instance(base, EquivalenceType.I_N, rng)[0] for _ in range(3)
        ]
        engine = MatchingEngine(MatchingConfig(max_queries=2))
        report = engine.match_many(
            [(partner, base) for partner in partners],
            equivalence=EquivalenceType.I_N,
        )
        assert report.num_matched == 3  # I-N costs 2 queries per pair
        assert report.coerced_oracles == 0  # sharing disabled under budget

    def test_malformed_pairs_raise_value_error(self, rng):
        base = random_circuit(3, 8, rng)
        engine = MatchingEngine()
        with pytest.raises(ValueError):
            engine.match_many([(base,)])
        with pytest.raises(ValueError):
            engine.match_many([(base, base)])  # no class anywhere

    def test_report_renders_through_analysis_table(self, rng):
        pairs = self._pairs(rng, ["I-N", "P-I"])
        report = MatchingEngine().match_many(pairs, rng=rng)
        table = report.to_table(title="demo")
        assert "demo" in table
        assert "matcher" in table
        assert "i-n/zero-probe" in table
        summary = report.summary()
        assert "2/2 matched" in summary


class TestDefaultEngine:
    def test_shared_instance(self):
        assert get_default_engine() is get_default_engine()

    def test_module_match_delegates_to_default_engine(self, rng):
        from repro.core import match

        base = random_circuit(4, 14, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.I_N, rng)
        result = match(c1, c2, "I-N")
        assert result.equivalence is EquivalenceType.I_N

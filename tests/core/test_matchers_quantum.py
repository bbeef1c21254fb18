"""Unit tests for the quantum swap-test matchers (Algorithm 1 and Section 4.6)."""

from __future__ import annotations

import random

import pytest

from repro.circuits import library
from repro.circuits.permutation import Permutation
from repro.circuits.random import random_circuit
from repro.core.equivalence import EquivalenceType
from repro.core.matchers import match_n_i_quantum, match_np_i_quantum, np_i
from repro.core.matchers.n_i import as_quantum_oracle
from repro.core.verify import make_instance, verify_match
from repro.exceptions import MatchingError, PromiseViolationError
from repro.oracles import CircuitOracle, FunctionOracle
from repro.quantum.oracle import QuantumCircuitOracle
from repro.quantum.swap_test import SwapTest


class TestAsQuantumOracle:
    def test_accepts_circuit_permutation_and_oracle(self, rng):
        circuit = random_circuit(3, 10, rng)
        assert as_quantum_oracle(circuit).num_qubits == 3
        assert as_quantum_oracle(Permutation.from_circuit(circuit)).num_qubits == 3
        existing = QuantumCircuitOracle(circuit)
        assert as_quantum_oracle(existing) is existing

    def test_unwraps_classical_oracles(self, rng):
        circuit = random_circuit(3, 10, rng)
        assert as_quantum_oracle(CircuitOracle(circuit)).num_qubits == 3

    def test_rejects_opaque_function_oracles(self):
        opaque = FunctionOracle(lambda value: value, 3)
        with pytest.raises(MatchingError):
            as_quantum_oracle(opaque)


class TestAlgorithm1:
    def test_recovers_negation_on_random_circuits(self, rng):
        for _ in range(4):
            base = random_circuit(5, 20, rng)
            c1, c2, truth = make_instance(base, EquivalenceType.N_I, rng)
            result = match_n_i_quantum(c1, c2, epsilon=1e-4, rng=rng)
            assert result.nu_x == truth.nu_x
            assert verify_match(c1, c2, EquivalenceType.N_I, result)

    def test_recovers_negation_on_structured_circuit(self, rng):
        base = library.ripple_adder(3)
        c1, c2, truth = make_instance(base, EquivalenceType.N_I, rng)
        result = match_n_i_quantum(c1, c2, epsilon=1e-4, rng=rng)
        assert result.nu_x == truth.nu_x

    def test_identity_negation_detected(self, rng):
        base = random_circuit(4, 15, rng)
        result = match_n_i_quantum(base, base.copy(), epsilon=1e-3, rng=rng)
        assert result.nu_x == (False,) * 4

    def test_query_count_is_bounded_by_2nk(self, rng):
        base = random_circuit(6, 20, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_I, rng)
        epsilon = 1e-3
        result = match_n_i_quantum(c1, c2, epsilon=epsilon, rng=rng)
        repetitions = result.metadata["repetitions"]
        assert repetitions == 10  # ceil(log2(1/1e-3))
        assert result.quantum_queries <= 2 * 6 * repetitions
        assert result.queries == 0  # no classical queries

    def test_swap_test_counter_reported(self, rng):
        base = random_circuit(4, 12, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.N_I, rng)
        result = match_n_i_quantum(c1, c2, rng=rng)
        assert result.swap_tests * 2 == result.quantum_queries

    def test_explicit_swap_test_instance_used(self, rng):
        base = random_circuit(3, 8, rng)
        c1, c2, truth = make_instance(base, EquivalenceType.N_I, rng)
        tester = SwapTest(rng=1, use_circuit=True)
        result = match_n_i_quantum(c1, c2, epsilon=1e-2, swap_test=tester)
        assert result.nu_x == truth.nu_x
        assert tester.runs == result.swap_tests

    def test_mismatched_widths_rejected(self, rng):
        with pytest.raises(MatchingError):
            match_n_i_quantum(random_circuit(3, 5, rng), random_circuit(4, 5, rng))


class TestQuantumNPI:
    def test_recovers_witnesses_on_random_circuits(self, rng):
        for _ in range(3):
            base = random_circuit(4, 15, rng)
            c1, c2, _ = make_instance(base, EquivalenceType.NP_I, rng)
            result = match_np_i_quantum(c1, c2, epsilon=1e-4, rng=rng)
            assert verify_match(c1, c2, EquivalenceType.NP_I, result)

    def test_recovers_witnesses_on_structured_circuit(self, rng):
        base = library.increment(5)
        c1, c2, _ = make_instance(base, EquivalenceType.NP_I, rng)
        result = match_np_i_quantum(c1, c2, epsilon=1e-4, rng=rng)
        assert verify_match(c1, c2, EquivalenceType.NP_I, result)

    def test_query_count_is_bounded_by_n_squared(self, rng):
        num_lines = 5
        base = random_circuit(num_lines, 15, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.NP_I, rng)
        result = match_np_i_quantum(c1, c2, epsilon=1e-3, rng=rng)
        repetitions = result.metadata["repetitions"]
        bound = 2 * repetitions * (num_lines * num_lines + num_lines)
        assert result.quantum_queries <= bound

    def test_paper_verbatim_sweep_without_inference(self, rng):
        base = random_circuit(3, 10, rng)
        c1, c2, _ = make_instance(base, EquivalenceType.NP_I, rng)
        result = match_np_i_quantum(
            c1, c2, epsilon=1e-4, rng=rng, infer_last_candidate=False
        )
        assert verify_match(c1, c2, EquivalenceType.NP_I, result)
        assert result.metadata["infer_last_candidate"] is False

    def test_identity_transform_detected(self, rng):
        base = random_circuit(4, 15, rng)
        result = match_np_i_quantum(base, base.copy(), epsilon=1e-3, rng=rng)
        assert result.nu_x == (False,) * 4
        assert result.pi_x.is_identity()


# Golden outputs of the seeded swap-test matchers: any change to the swap
# tests' draw order, the probe states or the query accounting moves them.
# Each N-I row is (nu mask, quantum queries,
# swap tests) and each NP-I row adds pi; seed 1 at n = 5 returns a wrong
# witness and at n = 7, 8 a promise violation (no witness, counts from the
# oracles and the tester), so both failure paths are pinned too.
_N_I_GOLDEN = {
    4: [
        (6, 44, 22), (6, 46, 23), (6, 50, 25), (6, 46, 23), (6, 52, 26),
        (6, 50, 25), (6, 46, 23), (6, 54, 27), (6, 60, 30), (6, 50, 25),
    ],
    5: [
        (3, 64, 32), (3, 66, 33), (3, 64, 32), (3, 68, 34), (3, 76, 38),
        (3, 64, 32), (3, 64, 32), (3, 70, 35), (3, 68, 34), (3, 72, 36),
    ],
    6: [
        (37, 68, 34), (37, 74, 37), (37, 74, 37), (37, 68, 34), (37, 78, 39),
        (37, 72, 36), (37, 66, 33), (37, 74, 37), (37, 74, 37), (37, 72, 36),
    ],
    7: [
        (20, 108, 54), (20, 114, 57), (20, 114, 57), (20, 104, 52),
        (20, 106, 53), (20, 104, 52), (20, 106, 53), (20, 106, 53),
        (20, 114, 57), (20, 108, 54),
    ],
    8: [
        (75, 90, 45), (75, 94, 47), (75, 94, 47), (75, 92, 46), (75, 100, 50),
        (75, 92, 46), (75, 88, 44), (75, 100, 50), (75, 102, 51),
        (75, 106, 53),
    ],
}
_NP_I_GOLDEN = {
    4: [
        (6, (1, 0, 2, 3), 112, 56),
        (6, (1, 0, 2, 3), 112, 56),
        (6, (1, 0, 2, 3), 108, 54),
        (6, (1, 0, 2, 3), 110, 55),
        (6, (1, 0, 2, 3), 124, 62),
        (6, (1, 0, 2, 3), 120, 60),
        (6, (1, 0, 2, 3), 106, 53),
        (6, (1, 0, 2, 3), 112, 56),
        (6, (1, 0, 2, 3), 112, 56),
        (6, (1, 0, 2, 3), 114, 57),
    ],
    5: [
        (3, (2, 1, 3, 4, 0), 162, 81),
        (23, (2, 1, 0, 4, 3), 128, 64),
        (3, (2, 1, 3, 4, 0), 160, 80),
        (3, (2, 1, 3, 4, 0), 166, 83),
        (3, (2, 1, 3, 4, 0), 184, 92),
        (3, (2, 1, 3, 4, 0), 166, 83),
        (3, (2, 1, 3, 4, 0), 162, 81),
        (3, (2, 1, 3, 4, 0), 168, 84),
        (3, (2, 1, 3, 4, 0), 174, 87),
        (3, (2, 1, 3, 4, 0), 178, 89),
    ],
    6: [
        (37, (3, 1, 0, 4, 2, 5), 188, 94),
        (37, (3, 1, 0, 4, 2, 5), 190, 95),
        (37, (3, 1, 0, 4, 2, 5), 184, 92),
        (37, (3, 1, 0, 4, 2, 5), 192, 96),
        (37, (3, 1, 0, 4, 2, 5), 198, 99),
        (37, (3, 1, 0, 4, 2, 5), 182, 91),
        (37, (3, 1, 0, 4, 2, 5), 188, 94),
        (37, (3, 1, 0, 4, 2, 5), 186, 93),
        (37, (3, 1, 0, 4, 2, 5), 192, 96),
        (37, (3, 1, 0, 4, 2, 5), 196, 98),
    ],
    7: [
        (20, (0, 3, 2, 4, 5, 1, 6), 238, 119),
        (None, None, 126, 63),
        (20, (0, 3, 2, 4, 5, 1, 6), 240, 120),
        (20, (0, 3, 2, 4, 5, 1, 6), 244, 122),
        (20, (0, 3, 2, 4, 5, 1, 6), 258, 129),
        (20, (0, 3, 2, 4, 5, 1, 6), 244, 122),
        (20, (0, 3, 2, 4, 5, 1, 6), 244, 122),
        (20, (0, 3, 2, 4, 5, 1, 6), 250, 125),
        (20, (0, 3, 2, 4, 5, 1, 6), 254, 127),
        (20, (0, 3, 2, 4, 5, 1, 6), 260, 130),
    ],
    8: [
        (75, (7, 3, 5, 6, 1, 0, 2, 4), 302, 151),
        (None, None, 160, 80),
        (75, (7, 3, 5, 6, 1, 0, 2, 4), 298, 149),
        (75, (7, 3, 5, 6, 1, 0, 2, 4), 302, 151),
        (75, (7, 3, 5, 6, 1, 0, 2, 4), 336, 168),
        (75, (7, 3, 5, 6, 1, 0, 2, 4), 292, 146),
        (75, (7, 3, 5, 6, 1, 0, 2, 4), 322, 161),
        (75, (7, 3, 5, 6, 1, 0, 2, 4), 322, 161),
        (75, (7, 3, 5, 6, 1, 0, 2, 4), 340, 170),
        (75, (7, 3, 5, 6, 1, 0, 2, 4), 310, 155),
    ],
}


def _golden_pair(num_lines: int, equivalence: EquivalenceType):
    rng = random.Random(100 + num_lines)
    base = random_circuit(num_lines, 3 * num_lines, rng)
    c1, c2, _ = make_instance(base, equivalence, rng)
    return c1, c2


def _run_seeded(matcher, c1, c2, seed: int):
    """``(result or None, quantum queries, swap tests)`` of one seeded run."""
    oracle1, oracle2 = QuantumCircuitOracle(c1), QuantumCircuitOracle(c2)
    tester = SwapTest(seed)
    try:
        result = matcher(oracle1, oracle2, swap_test=tester)
    except PromiseViolationError:
        result = None
    else:
        assert result.quantum_queries == oracle1.query_count + oracle2.query_count
        assert result.swap_tests == tester.runs
    return result, oracle1.query_count + oracle2.query_count, tester.runs


def _nu_mask(nu_x) -> int:
    return sum(1 << line for line, negated in enumerate(nu_x) if negated)


class TestSeededGolden:
    @pytest.mark.parametrize("num_lines", sorted(_N_I_GOLDEN))
    def test_n_i_matches_golden(self, num_lines):
        c1, c2 = _golden_pair(num_lines, EquivalenceType.N_I)
        observed = []
        for seed in range(10):
            result, queries, tests = _run_seeded(match_n_i_quantum, c1, c2, seed)
            observed.append((_nu_mask(result.nu_x), queries, tests))
        assert observed == _N_I_GOLDEN[num_lines]

    @pytest.mark.parametrize("num_lines", sorted(_NP_I_GOLDEN))
    def test_np_i_matches_golden(self, num_lines):
        c1, c2 = _golden_pair(num_lines, EquivalenceType.NP_I)
        observed = []
        for seed in range(10):
            result, queries, tests = _run_seeded(match_np_i_quantum, c1, c2, seed)
            if result is None:
                observed.append((None, None, queries, tests))
                continue
            verified = verify_match(c1, c2, EquivalenceType.NP_I, result)
            assert verified == ((num_lines, seed) != (5, 1))
            observed.append(
                (_nu_mask(result.nu_x), tuple(result.pi_x), queries, tests)
            )
        assert observed == _NP_I_GOLDEN[num_lines]


def test_np_i_builds_each_probe_once(rng, monkeypatch):
    """A structural guard: rebuilding probes per candidate costs about
    n^2/2 + 2n product states at n = 8; building each once costs 2n."""
    num_lines = 8
    c1, c2, _ = make_instance(
        random_circuit(num_lines, 24, rng), EquivalenceType.NP_I, rng
    )
    calls = 0
    original = np_i.product_state

    def counting(labels):
        nonlocal calls
        calls += 1
        return original(labels)

    monkeypatch.setattr(np_i, "product_state", counting)
    match_np_i_quantum(c1, c2, rng=rng, infer_last_candidate=False)
    assert calls <= 3 * num_lines

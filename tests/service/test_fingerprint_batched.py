"""Bitsliced fingerprints vs. a scalar reference, and the peek_table cliff.

Batching is an evaluation strategy, never an identity: the digest of a
circuit or oracle (evaluated by the bitsliced kernel) must be
byte-identical to the digest of the same outputs computed by a local
scalar list comprehension over ``simulate`` / ``peek`` — under every
registered scheme for narrow targets, and on the wide (16-24 line)
corpus family, where the probe tier is the only functional identity.  The scalar outputs are fed
back through representations the fingerprinters never evaluate
bit-parallel (a tabulated :class:`Permutation`, an opaque
:class:`FunctionOracle` answering from a dict), so the comparison is
kernel against reference.  The second half pins the ``peek_table`` cost
cliff fix: sampled-probe fingerprints of an opaque wide oracle touch
exactly ``probe_count`` inputs, never the exponential table.
"""

from __future__ import annotations

import pytest

from repro.circuits.io import real
from repro.circuits.permutation import Permutation
from repro.circuits.random import random_circuit
from repro.oracles.oracle import CircuitOracle, FunctionOracle, PermutationOracle
from repro.service.fingerprint import (
    DEFAULT_PROBE_COUNT,
    FINGERPRINT_SCHEMES,
    build_registry,
    probe_inputs,
)
from repro.service.workload import generate_corpus

CORPUS_SEED = 20240601


@pytest.fixture(scope="module")
def wide_family_circuits(tmp_path_factory):
    """Every circuit of a generated ``wide`` (16-24 line) corpus."""
    root = tmp_path_factory.mktemp("fp_wide_corpus")
    manifest = generate_corpus(
        root, families=("wide",), pairs_per_class=1, seed=CORPUS_SEED
    )
    circuits = []
    for entry in manifest.entries:
        circuits.append(real.read_real(root / entry.circuit1))
        circuits.append(real.read_real(root / entry.circuit2))
    assert circuits and all(c.num_lines >= 16 for c in circuits)
    return circuits


def _scalar_probe_oracle(circuit):
    """An opaque oracle answering the probe set from a scalar ``simulate`` loop."""
    probes = probe_inputs(circuit.num_lines, DEFAULT_PROBE_COUNT)
    outputs = [circuit.simulate(value) for value in probes]
    return FunctionOracle(dict(zip(probes, outputs)).__getitem__, circuit.num_lines)


class TestBatchedDigestInvariance:
    @pytest.mark.parametrize("scheme", FINGERPRINT_SCHEMES)
    def test_wide_corpus_digests_identical(self, scheme, wide_family_circuits):
        registry = build_registry(scheme)
        for circuit in wide_family_circuits:
            fp = registry.fingerprint(circuit)
            if fp.scheme != "probe":
                # The exact scheme keys wide circuits by structure, which
                # evaluates nothing.
                assert scheme == "exact" and fp.scheme == "structure"
                continue
            reference = _scalar_probe_oracle(circuit)
            assert registry.fingerprint(reference).key == fp.key

    @pytest.mark.parametrize("scheme", FINGERPRINT_SCHEMES)
    def test_narrow_targets_digests_identical(self, scheme, rng):
        """Below the width limit the exact tier tabulates bitsliced too."""
        circuit = random_circuit(6, 24, rng)
        oracle = CircuitOracle(circuit, with_inverse=True)
        domain = range(1 << circuit.num_lines)
        reference = Permutation([circuit.simulate(value) for value in domain])
        peeked = Permutation([oracle.peek(value) for value in domain])
        registry = build_registry(scheme)
        expected = registry.fingerprint(reference).digest
        assert registry.fingerprint(peeked).digest == expected
        targets = [
            circuit,
            oracle,
            Permutation(circuit.truth_table()),
            PermutationOracle(Permutation(circuit.truth_table())),
        ]
        for target in targets:
            assert registry.fingerprint(target).digest == expected


class _CountingOracle(FunctionOracle):
    """An opaque oracle that counts evaluations and forbids tabulation."""

    def __init__(self, num_lines: int) -> None:
        mask = (1 << num_lines) - 1
        super().__init__(lambda value: value ^ mask, num_lines)
        self.evaluations = 0

    def _evaluate(self, value: int) -> int:
        self.evaluations += 1
        return super()._evaluate(value)

    def peek_table(self):  # pragma: no cover - the cliff this test pins
        raise AssertionError(
            "peek_table would materialise 2**num_lines entries; the probe "
            "fingerprinter must stay on the bounded probe set"
        )


class TestPeekTableCliff:
    def test_width_16_oracle_is_probed_not_tabulated(self):
        """The fingerprint of a 16-line opaque oracle costs 64 evaluations,
        not a 65536-entry table."""
        oracle = _CountingOracle(16)
        fp = build_registry("auto").fingerprint(oracle)
        assert fp.scheme == "probe"
        assert oracle.evaluations == DEFAULT_PROBE_COUNT
        assert oracle.total_queries == 0  # white-box, never charged

    def test_probe_count_scales_the_cost(self):
        oracle = _CountingOracle(18)
        registry = build_registry("probe", probe_count=7)
        registry.fingerprint(oracle)
        assert oracle.evaluations == 7

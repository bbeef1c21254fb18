"""Brute-force Boolean matching by exhaustive witness search.

For any equivalence class X-Y, enumerate every witness tuple the class
allows (up to ``2**n`` negation masks and ``n!`` line permutations per
side), reconstruct ``C_pi_y C_nu_y C2 C_pi_x C_nu_x`` and compare it against
``C1`` on probe inputs.  This is the "exponential number of equivalence
checking rounds" the paper contrasts its algorithms with (Section 3), and
the only general approach for the UNIQUE-SAT-hard classes of Section 5.

The search is organised so the cheap per-candidate filter (a handful of
probe inputs) runs before the full functional check, and the number of
candidates actually examined is reported in the result metadata — that count
is what the baseline benchmarks plot against the polynomial matchers.
"""

from __future__ import annotations

import itertools
import random as _random
from collections.abc import Iterator, Sequence

from repro.circuits.bitslice import simulate_many
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.line_permutation import LinePermutation
from repro.circuits.random import coerce_rng
from repro.circuits.transforms import transformed_circuit
from repro.core.equivalence import EquivalenceType, SideCondition
from repro.core.problem import MatchingResult
from repro.exceptions import MatchingError

__all__ = ["brute_force_match", "count_witness_space"]


def _negation_candidates(
    condition: SideCondition, num_lines: int
) -> Iterator[tuple[bool, ...] | None]:
    if not condition.allows_negation:
        yield None
        return
    for mask in range(1 << num_lines):
        yield tuple(bool((mask >> line) & 1) for line in range(num_lines))


def _permutation_candidates(
    condition: SideCondition, num_lines: int
) -> Iterator[LinePermutation | None]:
    if not condition.allows_permutation:
        yield None
        return
    for ordering in itertools.permutations(range(num_lines)):
        yield LinePermutation(list(ordering))


def count_witness_space(equivalence: EquivalenceType, num_lines: int) -> int:
    """Size of the witness space the brute-force search enumerates."""

    def side(condition: SideCondition) -> int:
        size = 1
        if condition.allows_negation:
            size *= 1 << num_lines
        if condition.allows_permutation:
            import math

            size *= math.factorial(num_lines)
        return size

    return side(equivalence.input_condition) * side(equivalence.output_condition)


def brute_force_match(
    c1: ReversibleCircuit,
    c2: ReversibleCircuit,
    equivalence: EquivalenceType,
    probe_inputs: Sequence[int] | None = None,
    exhaustive_check: bool = True,
    rng: _random.Random | int | None = None,
    max_candidates: int | None = None,
) -> MatchingResult:
    """Exhaustively search for witnesses of an X-Y equivalence.

    Args:
        c1, c2: the circuits (white boxes — the brute force needs to rebuild
            and simulate the candidate reconstructions).
        equivalence: the class whose witness space is enumerated.
        probe_inputs: inputs used for the cheap pre-filter; defaults to a
            small random sample plus the all-zero input.
        exhaustive_check: confirm surviving candidates on all ``2**n``
            inputs (recommended; disable only for scaling experiments).
        rng: randomness for the default probe inputs.
        max_candidates: abort (raising :class:`MatchingError`) after this
            many candidates — used by the scaling benchmarks to bound work.

    Returns:
        The first verified witness, with ``metadata["candidates_tried"]``
        recording the search effort.

    Raises:
        MatchingError: when no witness exists (the circuits are not X-Y
            equivalent) or the candidate budget is exhausted.
    """
    if c1.num_lines != c2.num_lines:
        raise MatchingError("circuits must have the same number of lines")
    num_lines = c1.num_lines
    rng = coerce_rng(rng)
    if probe_inputs is None:
        probe_count = min(8, 1 << num_lines)
        probe_inputs = [0] + [
            rng.getrandbits(num_lines) for _ in range(probe_count - 1)
        ]
    probe_inputs = list(probe_inputs)
    probe_expected = simulate_many(c1, probe_inputs)

    candidates_tried = 0
    for nu_x in _negation_candidates(equivalence.input_condition, num_lines):
        for pi_x in _permutation_candidates(equivalence.input_condition, num_lines):
            for nu_y in _negation_candidates(
                equivalence.output_condition, num_lines
            ):
                for pi_y in _permutation_candidates(
                    equivalence.output_condition, num_lines
                ):
                    candidates_tried += 1
                    if (
                        max_candidates is not None
                        and candidates_tried > max_candidates
                    ):
                        raise MatchingError(
                            f"brute force exceeded {max_candidates} candidates"
                        )
                    candidate = transformed_circuit(
                        c2, nu_x=nu_x, pi_x=pi_x, nu_y=nu_y, pi_y=pi_y
                    )
                    if simulate_many(candidate, probe_inputs) != probe_expected:
                        continue
                    if exhaustive_check and not candidate.functionally_equal(c1):
                        continue
                    return MatchingResult(
                        equivalence,
                        nu_x=nu_x,
                        pi_x=pi_x,
                        nu_y=nu_y,
                        pi_y=pi_y,
                        queries=candidates_tried * len(probe_inputs),
                        metadata={
                            "regime": "brute-force",
                            "candidates_tried": candidates_tried,
                            "witness_space": count_witness_space(
                                equivalence, num_lines
                            ),
                        },
                    )
    raise MatchingError(
        f"no {equivalence.label} witness exists for the given circuits"
    )

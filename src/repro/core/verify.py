"""Witness verification and instance construction.

Matchers operate under the Problem 1 promise and therefore never need to
check their own answers; experiments and users do.  This module provides:

* :func:`reconstructed_circuit` — apply a :class:`MatchingResult`'s witnesses
  to ``C2``;
* :func:`verify_match` — exhaustive (or sampled) functional comparison of the
  reconstruction against ``C1``;
* :func:`make_instance` — manufacture a promised X-Y-equivalent pair with
  known ground-truth witnesses, used everywhere in tests and benchmarks.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass

from repro.circuits.bitslice import simulate_many
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.line_permutation import LinePermutation
from repro.circuits.random import (
    coerce_rng,
    random_line_permutation,
    random_negation,
)
from repro.circuits.transforms import transformed_circuit
from repro.core.equivalence import EquivalenceType
from repro.core.problem import MatchingResult
from repro.exceptions import MatchingError

__all__ = [
    "GroundTruth",
    "make_instance",
    "reconstructed_circuit",
    "verify_match",
]


@dataclass(frozen=True)
class GroundTruth:
    """The witnesses used to manufacture a promised-equivalent instance."""

    equivalence: EquivalenceType
    nu_x: tuple[bool, ...] | None
    pi_x: LinePermutation | None
    nu_y: tuple[bool, ...] | None
    pi_y: LinePermutation | None


def make_instance(
    base: ReversibleCircuit,
    equivalence: EquivalenceType,
    rng: _random.Random | int | None = None,
) -> tuple[ReversibleCircuit, ReversibleCircuit, GroundTruth]:
    """Build ``(C1, C2, ground_truth)`` with ``C1`` X-Y equivalent to ``C2``.

    ``C2`` is the given base circuit; ``C1`` wraps it in random transforms
    drawn according to the equivalence class.  The ground truth records the
    transforms so experiments can check recovered witnesses (note that for
    some instances several witness assignments may be functionally valid;
    :func:`verify_match` is the semantically correct check, the ground truth
    is informational).
    """
    rng = coerce_rng(rng)
    num_lines = base.num_lines
    input_condition = equivalence.input_condition
    output_condition = equivalence.output_condition

    nu_x = (
        tuple(random_negation(num_lines, rng))
        if input_condition.allows_negation
        else None
    )
    pi_x = (
        random_line_permutation(num_lines, rng)
        if input_condition.allows_permutation
        else None
    )
    nu_y = (
        tuple(random_negation(num_lines, rng))
        if output_condition.allows_negation
        else None
    )
    pi_y = (
        random_line_permutation(num_lines, rng)
        if output_condition.allows_permutation
        else None
    )

    c1 = transformed_circuit(base, nu_x=nu_x, pi_x=pi_x, nu_y=nu_y, pi_y=pi_y)
    truth = GroundTruth(equivalence, nu_x, pi_x, nu_y, pi_y)
    return c1, base.copy(), truth


def reconstructed_circuit(
    c2: ReversibleCircuit, result: MatchingResult
) -> ReversibleCircuit:
    """Apply the result's witnesses to ``C2``: ``C_pi_y C_nu_y C2 C_pi_x C_nu_x``."""
    return transformed_circuit(
        c2,
        nu_x=result.nu_x,
        pi_x=result.pi_x,
        nu_y=result.nu_y,
        pi_y=result.pi_y,
    )


def _check_witness_shape(result: MatchingResult, equivalence: EquivalenceType) -> None:
    if result.nu_x is not None and not equivalence.input_condition.allows_negation:
        raise MatchingError(
            f"{equivalence.label} does not allow an input negation witness"
        )
    if result.pi_x is not None and not equivalence.input_condition.allows_permutation:
        raise MatchingError(
            f"{equivalence.label} does not allow an input permutation witness"
        )
    if result.nu_y is not None and not equivalence.output_condition.allows_negation:
        raise MatchingError(
            f"{equivalence.label} does not allow an output negation witness"
        )
    if result.pi_y is not None and not equivalence.output_condition.allows_permutation:
        raise MatchingError(
            f"{equivalence.label} does not allow an output permutation witness"
        )


def verify_match(
    c1: ReversibleCircuit,
    c2: ReversibleCircuit,
    equivalence: EquivalenceType,
    result: MatchingResult,
    exhaustive: bool = True,
    samples: int = 256,
    rng: _random.Random | int | None = None,
) -> bool:
    """Check that ``result``'s witnesses make ``C2`` equal to ``C1``.

    Args:
        c1, c2: the two circuits (white boxes — verification is outside the
            oracle model).
        equivalence: the class the witnesses are claimed for; witnesses that
            the class does not permit raise :class:`MatchingError`.
        result: the matcher output.
        exhaustive: compare on all ``2**n`` inputs (default).  When False the
            comparison uses ``samples`` random inputs, which is the practical
            choice for ``n`` above ~20.
        samples: number of random probes in non-exhaustive mode.
        rng: randomness source for non-exhaustive mode.

    Returns:
        True when the reconstruction agrees with ``C1`` on every probed input.
    """
    _check_witness_shape(result, equivalence)
    if c1.num_lines != c2.num_lines:
        return False
    reconstruction = reconstructed_circuit(c2, result)
    if exhaustive:
        return reconstruction.functionally_equal(c1)
    rng = coerce_rng(rng)
    probes = [rng.getrandbits(c1.num_lines) for _ in range(samples)]
    return simulate_many(reconstruction, probes) == simulate_many(c1, probes)

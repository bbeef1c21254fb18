"""Combinational equivalence checking of reversible circuits.

Section 3 of the paper points out why solving the *promise* problem matters
even when the promise is not known to hold: once candidate negation and
permutation witnesses are available, "only a single round of equivalence
checking is needed to validate the equivalence relation".  This module is
that single round, in three flavours:

* :func:`exhaustive_equivalent` — compare all ``2**n`` input/output pairs
  (exact, exponential; fine up to ~20 lines);
* :func:`random_equivalent` — Monte-Carlo comparison on random probes with a
  quantifiable one-sided error (bounded by ``(1 - 1/2**n)**k`` only in the
  adversarial worst case, but exact circuits that differ do so on at least
  one point, and random cascades differ on roughly half the domain);
* :func:`oracle_equivalent` — the same Monte-Carlo check phrased over
  black-box oracles, counting queries like every other algorithm here.

These checkers are what :func:`repro.core.decision.decide` combines with the
promise matchers to answer the non-promise question.
"""

from __future__ import annotations

import random as _random

from repro.circuits.bitslice import simulate_many
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.random import coerce_rng
from repro.exceptions import MatchingError
from repro.oracles.oracle import ReversibleOracle, as_oracle

__all__ = [
    "exhaustive_equivalent",
    "random_equivalent",
    "oracle_equivalent",
    "find_distinguishing_input",
]


def exhaustive_equivalent(c1: ReversibleCircuit, c2: ReversibleCircuit) -> bool:
    """Exact functional comparison over all ``2**n`` inputs."""
    if c1.num_lines != c2.num_lines:
        return False
    return c1.functionally_equal(c2)


def find_distinguishing_input(
    c1: ReversibleCircuit, c2: ReversibleCircuit
) -> int | None:
    """The smallest input on which the circuits differ, or ``None``.

    A convenience for debugging failed matches and for counterexample-guided
    flows; exponential like :func:`exhaustive_equivalent`, but the
    bitsliced comparison stops at the first 64-input chunk that differs.
    """
    if c1.num_lines != c2.num_lines:
        raise MatchingError("circuits must have the same number of lines")
    return c1.first_difference(c2)


def random_equivalent(
    c1: ReversibleCircuit,
    c2: ReversibleCircuit,
    samples: int = 256,
    rng: _random.Random | int | None = None,
) -> bool:
    """Monte-Carlo functional comparison on ``samples`` random probes."""
    if c1.num_lines != c2.num_lines:
        return False
    rng = coerce_rng(rng)
    probes = [rng.getrandbits(c1.num_lines) for _ in range(samples)]
    return simulate_many(c1, probes) == simulate_many(c2, probes)


def oracle_equivalent(
    oracle1: "ReversibleOracle | ReversibleCircuit",
    oracle2: "ReversibleOracle | ReversibleCircuit",
    samples: int = 64,
    rng: _random.Random | int | None = None,
    include_structured_probes: bool = True,
) -> bool:
    """Black-box Monte-Carlo equivalence check with query counting.

    Args:
        oracle1, oracle2: circuits or oracles.
        samples: number of random probes.
        rng: randomness source.
        include_structured_probes: also probe the all-zero, all-one and
            one-hot patterns first — cheap inputs that distinguish the
            negation/permutation wrappers this library manufactures far more
            often than uniform probes do.
    """
    oracle1 = as_oracle(oracle1)
    oracle2 = as_oracle(oracle2)
    if oracle1.num_lines != oracle2.num_lines:
        return False
    num_lines = oracle1.num_lines
    rng = coerce_rng(rng)

    probes: list[int] = []
    if include_structured_probes:
        probes.append(0)
        probes.append((1 << num_lines) - 1)
        probes.extend(1 << line for line in range(num_lines))
    probes.extend(rng.getrandbits(num_lines) for _ in range(samples))

    for probe in probes:
        if oracle1.query(probe) != oracle2.query(probe):
            return False
    return True

"""Reversible-circuit substrate.

This package provides everything the matching algorithms need from the
"circuit side" of the paper:

* :mod:`repro.circuits.gates` — multiple-controlled Toffoli (MCT) gates with
  positive/negative controls, plus NOT/CNOT/Toffoli/SWAP/Fredkin helpers.
* :mod:`repro.circuits.circuit` — :class:`ReversibleCircuit`: a gate list
  with classical simulation, inversion, composition and truth-table export.
* :mod:`repro.circuits.bitslice` — bit-parallel (64-lane) evaluation of
  MCT/SWAP cascades, the one engine behind batches, truth tables and
  exhaustive equivalence checks; ``simulate`` is its scalar reference,
  held byte-identical to it by a differential test harness.
* :mod:`repro.circuits.permutation` — :class:`Permutation` over
  ``range(2**n)``: the functional view of a reversible circuit.
* :mod:`repro.circuits.line_permutation` — :class:`LinePermutation` over the
  ``n`` circuit lines: the ``pi`` objects of the paper.
* :mod:`repro.circuits.transforms` — negation circuits ``C_nu``, line
  permutation circuits ``C_pi``, the Fig. 4 commuting identity, and helpers
  that build promised X-Y equivalent circuit pairs for experiments.
* :mod:`repro.circuits.random` — random circuits, permutations, negations.
* :mod:`repro.circuits.library` — generators for standard benchmark
  functions (hidden-weighted-bit, adders, gray code, modular counters, ...).
* :mod:`repro.circuits.io` — RevLib ``.real`` and OpenQASM 2.0 readers and
  writers.
"""

from __future__ import annotations

from repro.circuits import (
    bitslice,
    drawing,
    io,
    library,
    metrics,
    random,
    transforms,
)
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import (
    Control,
    Gate,
    MCTGate,
    SwapGate,
    cnot,
    fredkin,
    mct,
    not_gate,
    toffoli,
)
from repro.circuits.line_permutation import LinePermutation
from repro.circuits.permutation import Permutation

__all__ = [
    "Control",
    "Gate",
    "MCTGate",
    "SwapGate",
    "cnot",
    "fredkin",
    "mct",
    "not_gate",
    "toffoli",
    "ReversibleCircuit",
    "Permutation",
    "LinePermutation",
    "bitslice",
    "transforms",
    "random",
    "library",
    "io",
    "drawing",
    "metrics",
]

"""RevLib ``.real`` reader and writer.

The ``.real`` format is the interchange format of the RevLib benchmark suite
and of most reversible-logic tools (RevKit, ABC extensions, ...).  The subset
supported here covers everything the benchmark circuits in this repository
need:

* header directives ``.version``, ``.numvars``, ``.variables``, ``.inputs``,
  ``.outputs``, ``.constants``, ``.garbage`` (the last four are parsed and
  preserved but not semantically interpreted — the matching problem treats
  all lines alike);
* multiple-controlled Toffoli gates ``t<k>`` with optional negative controls
  written as a ``-`` prefix on the control variable;
* Fredkin/swap gates ``f<k>`` — ``f2`` maps to a plain swap, larger ``f``
  gates to a controlled swap expanded into MCT gates.

Example::

    .version 2.0
    .numvars 3
    .variables a b c
    .begin
    t3 a b c
    t1 a
    f2 b c
    .end
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import Control, MCTGate, SwapGate, fredkin
from repro.exceptions import CircuitError, ParseError

__all__ = ["parse_real", "read_real", "write_real", "circuit_to_real"]


def parse_real(text: str, name: str | None = None) -> ReversibleCircuit:
    """Parse the contents of a ``.real`` file into a circuit.

    Every operand of the parse resolves through one table that maps each
    variable ``v`` and ``-v`` to a :class:`Control`, so all ``t<k>`` gates
    of one circuit share a single ``Control`` per variable and polarity.
    Gates are immutable, so the sharing is safe.  The table lives for one
    call only; nothing is cached across calls or files.

    Args:
        text: the file contents.
        name: optional circuit name; defaults to the ``.version`` header or
            ``"real"``.

    Raises:
        ParseError: on any syntactic or structural problem, with the number
            of the offending line (unknown directives are ignored, unknown
            gate types are not).  Gate and circuit checks that fail on a
            parsed line (a repeated operand, ``.numvars 0``) are re-raised
            as ``ParseError`` chained from the original error.
    """
    variables: list[str] = []
    num_vars: int | None = None
    num_vars_line = 0
    in_body = False
    gates = []

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            directive, _, rest = line.partition(" ")
            directive = directive.lower()
            rest = rest.strip()
            if directive == ".numvars":
                try:
                    num_vars = int(rest)
                except ValueError as error:
                    raise ParseError(
                        f"line {line_number}: invalid .numvars value {rest!r}"
                    ) from error
                num_vars_line = line_number
            elif directive == ".variables":
                variables = rest.split()
                _check_distinct(variables, line_number)
            elif directive == ".begin":
                in_body = True
            elif directive == ".end":
                in_body = False
            # .version, .inputs, .outputs, .constants, .garbage and any other
            # directive are accepted and ignored: they do not affect matching.
            continue
        if not in_body:
            raise ParseError(
                f"line {line_number}: gate line {line!r} outside .begin/.end"
            )
        gates.append((line_number, line))

    if num_vars is None:
        if not variables:
            raise ParseError("missing .numvars and .variables headers")
        num_vars = len(variables)
    if not variables:
        variables = [f"x{index}" for index in range(num_vars)]
    if len(variables) != num_vars:
        raise ParseError(
            f".numvars says {num_vars} but .variables lists {len(variables)} names"
        )
    try:
        circuit = ReversibleCircuit(num_vars, name=name or "real")
    except CircuitError as error:
        raise ParseError(f"line {num_vars_line}: {error}") from error

    # Negative entries go in last: for a variable literally named ``-a``,
    # the operand ``-a`` still means "a, negated".
    table = {variable: Control(index) for index, variable in enumerate(variables)}
    table.update(
        ("-" + variable, Control(index, False))
        for index, variable in enumerate(variables)
    )
    for line_number, line in gates:
        mnemonic, *operands = line.split()
        try:
            _append_gate(circuit, mnemonic.lower(), operands, table, line_number)
        except CircuitError as error:  # GateError included
            raise ParseError(f"line {line_number}: {error}") from error
    return circuit


def _check_distinct(variables: Sequence[str], line_number: int) -> None:
    """Reject a ``.variables`` list that names a variable twice."""
    seen: set[str] = set()
    for variable in variables:
        if variable in seen:
            raise ParseError(
                f"line {line_number}: duplicate variable {variable!r} in .variables"
            )
        seen.add(variable)


def _resolve(
    operands: Sequence[str], table: dict[str, Control], line_number: int
) -> list[Control]:
    """Look every operand up in the parse's ``name``/``-name`` table."""
    try:
        return [table[operand] for operand in operands]
    except KeyError:
        unknown = next(operand for operand in operands if operand not in table)
        raise ParseError(
            f"line {line_number}: unknown variable {unknown.removeprefix('-')!r}"
        ) from None


def _append_gate(
    circuit: ReversibleCircuit,
    mnemonic: str,
    operands: Sequence[str],
    table: dict[str, Control],
    line_number: int,
) -> None:
    kind = mnemonic[0]
    if kind not in "tf":
        raise ParseError(f"line {line_number}: unsupported gate type {mnemonic!r}")
    try:
        arity = int(mnemonic[1:])
    except ValueError as error:
        raise ParseError(
            f"line {line_number}: malformed gate mnemonic {mnemonic!r}"
        ) from error
    if len(operands) != arity:
        raise ParseError(
            f"line {line_number}: gate {mnemonic} expects {arity} operands, "
            f"got {len(operands)}"
        )
    resolved = _resolve(operands, table, line_number)

    if kind == "t":
        if not resolved:
            raise ParseError(f"line {line_number}: t gates need at least 1 operand")
        *controls, target = resolved
        if not target.positive:
            raise ParseError(f"line {line_number}: target cannot be negated")
        circuit.append(MCTGate(tuple(controls), target.line))
        return

    # Fredkin family: the last two operands are swapped, the rest control.
    if arity < 2:
        raise ParseError(f"line {line_number}: f gates need at least 2 operands")
    *controls, swap_a, swap_b = resolved
    if not (swap_a.positive and swap_b.positive):
        raise ParseError(f"line {line_number}: swapped lines cannot be negated")
    if not controls:
        circuit.append(SwapGate(swap_a.line, swap_b.line))
        return
    if len(controls) == 1:
        if not controls[0].positive:
            raise ParseError(
                f"line {line_number}: negative Fredkin controls are unsupported"
            )
        circuit.extend(fredkin(controls[0].line, swap_a.line, swap_b.line))
        return
    raise ParseError(
        f"line {line_number}: Fredkin gates with more than one control are "
        "not supported"
    )


def read_real(path: str | os.PathLike) -> ReversibleCircuit:
    """Read a ``.real`` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_real(text, name=name)


def circuit_to_real(circuit: ReversibleCircuit) -> str:
    """Serialise a circuit to ``.real`` text.

    Swap gates are written as ``f2`` gates; MCT gates as ``t<k>`` with ``-``
    prefixes marking negative controls.
    """
    variables = [f"x{index}" for index in range(circuit.num_lines)]
    lines = [
        "# written by repro.circuits.io.real",
        ".version 2.0",
        f".numvars {circuit.num_lines}",
        ".variables " + " ".join(variables),
        ".inputs " + " ".join(variables),
        ".outputs " + " ".join(variables),
        ".constants " + "-" * circuit.num_lines,
        ".garbage " + "-" * circuit.num_lines,
        ".begin",
    ]
    for gate in circuit:
        if isinstance(gate, SwapGate):
            lines.append(f"f2 {variables[gate.line_a]} {variables[gate.line_b]}")
        elif isinstance(gate, MCTGate):
            operands = [
                ("" if control.positive else "-") + variables[control.line]
                for control in gate.controls
            ]
            operands.append(variables[gate.target])
            lines.append(f"t{len(operands)} " + " ".join(operands))
        else:  # pragma: no cover - defensive: only reachable with custom gates
            raise ParseError(f"cannot serialise gate {gate!r} to .real")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def write_real(circuit: ReversibleCircuit, path: str | os.PathLike) -> None:
    """Write a circuit to a ``.real`` file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(circuit_to_real(circuit))

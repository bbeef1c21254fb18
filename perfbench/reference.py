"""Independent correctness reference for matching answers.

The reference reads the corpus ``.real`` files with its own parser and
evaluates circuits with numpy over whole input batches, so no code path of
``repro`` (its parser, gate objects, bitsliced kernel or ``verify_match``)
decides what counts as correct.  To pin the semantics (line order, control
polarity, swap direction) to the program's scalar reference, a seeded sample
of circuits is also run through ``ReversibleCircuit.simulate``; any
disagreement means the reference itself is broken, and it refuses to judge.

Circuits of at most :data:`EXHAUSTIVE_MAX_LINES` lines are tabulated once on
every input, and a witness is checked by composing tables.  Wider circuits
are checked on :data:`SAMPLE_INPUTS` seeded inputs (reported as *sampled*),
and an ``ok`` answer on a pair the manifest marks inequivalent is wrong
outright.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ANCHOR_CIRCUITS",
    "ANCHOR_INPUTS",
    "EXHAUSTIVE_MAX_LINES",
    "SAMPLE_INPUTS",
    "CorpusReference",
    "ReferenceError",
    "evaluate",
    "parse_real",
]

EXHAUSTIVE_MAX_LINES = 12
SAMPLE_INPUTS = 64
ANCHOR_CIRCUITS = 64
ANCHOR_INPUTS = 8

_SIDES = {"I": (False, False), "N": (True, False), "P": (False, True), "NP": (True, True)}


class ReferenceError(Exception):
    """The reference cannot judge: unreadable corpus or broken semantics."""


def parse_real(text: str) -> tuple[int, list[tuple]]:
    """Parse ``.real`` text into ``(num_lines, ops)``.

    Ops are ``("t", positive_mask, negative_mask, target)`` for Toffoli
    gates and ``("f", control_mask, line_a, line_b)`` for (controlled)
    swaps.
    """
    variables: list[str] = []
    num_lines = None
    body: list[str] = []
    in_body = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            directive, _, rest = line.partition(" ")
            directive = directive.lower()
            if directive == ".numvars":
                num_lines = int(rest)
            elif directive == ".variables":
                variables = rest.split()
            elif directive == ".begin":
                in_body = True
            elif directive == ".end":
                in_body = False
            continue
        if not in_body:
            raise ReferenceError(f"gate line outside .begin/.end: {line!r}")
        body.append(line)
    if num_lines is None:
        num_lines = len(variables)
    if not variables:
        variables = [f"x{index}" for index in range(num_lines)]
    if len(variables) != num_lines:
        raise ReferenceError(".numvars and .variables disagree")
    index = {name: position for position, name in enumerate(variables)}

    def line_of(operand: str) -> tuple[int, bool]:
        positive = not operand.startswith("-")
        name = operand.lstrip("-")
        if name not in index:
            raise ReferenceError(f"unknown variable {name!r}")
        return index[name], positive

    ops: list[tuple] = []
    for line in body:
        mnemonic, *operands = line.split()
        kind = mnemonic[0].lower()
        if kind not in "tf" or int(mnemonic[1:]) != len(operands):
            raise ReferenceError(f"unsupported gate line {line!r}")
        if kind == "t":
            *controls, target = operands
            positive = negative = 0
            for operand in controls:
                position, is_positive = line_of(operand)
                if is_positive:
                    positive |= 1 << position
                else:
                    negative |= 1 << position
            ops.append(("t", positive, negative, line_of(target)[0]))
        else:
            *controls, name_a, name_b = operands
            mask = 0
            for operand in controls:
                position, is_positive = line_of(operand)
                if not is_positive:
                    raise ReferenceError(f"negative swap control in {line!r}")
                mask |= 1 << position
            ops.append(("f", mask, line_of(name_a)[0], line_of(name_b)[0]))
    return num_lines, ops


def evaluate(ops: list[tuple], inputs: np.ndarray) -> np.ndarray:
    """Run parsed ops on a ``uint64`` array of inputs (one input per slot)."""
    state = inputs.astype(np.uint64, copy=True)
    one = np.uint64(1)
    for kind, mask, first, second in ops:
        if kind == "t":
            positive, negative = np.uint64(mask), np.uint64(first)
            active = ((state & positive) == positive) & ((state & negative) == 0)
            state[active] ^= one << np.uint64(second)
        else:
            control = np.uint64(mask)
            a, b = np.uint64(first), np.uint64(second)
            differ = ((state >> a) ^ (state >> b)) & one
            active = ((state & control) == control) & (differ == one)
            state[active] ^= (one << a) | (one << b)
    return state


def permute_lines(values: np.ndarray, mapping: list[int]) -> np.ndarray:
    """Apply a line permutation: output bit ``mapping[i]`` is input bit ``i``."""
    out = np.zeros_like(values)
    one = np.uint64(1)
    for source, destination in enumerate(mapping):
        out |= ((values >> np.uint64(source)) & one) << np.uint64(destination)
    return out


def _seeded_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class _Pair:
    """What the reference knows about one manifest entry."""

    label: str
    expected: bool
    num_lines: int
    inputs: np.ndarray
    c1_out: np.ndarray
    c2_ops: list[tuple]
    c2_table: np.ndarray | None

    @property
    def exhaustive(self) -> bool:
        return self.c2_table is not None


def _negation_mask(value, num_lines: int) -> int | None:
    if value is None:
        return 0
    if len(value) != num_lines or any(bit not in (0, 1) for bit in value):
        return None
    return sum(1 << line for line, bit in enumerate(value) if bit)


def _line_mapping(value, num_lines: int) -> list[int] | None:
    if value is None:
        return list(range(num_lines))
    if sorted(value) != list(range(num_lines)):
        return None
    return list(value)


class CorpusReference:
    """Reference truth for every pair of one generated corpus.

    Built once per corpus seed; :meth:`judge` is then called on the store
    records of every pass and memoises its verdict per (pair, witness).
    """

    def __init__(self, pairs: dict[str, _Pair], sampled: int) -> None:
        self._pairs = pairs
        self._verdicts: dict[tuple[str, str], str] = {}
        #: Pairs whose witnesses are checked on a sample, not exhaustively.
        self.sampled_pairs = sampled

    @classmethod
    def build(cls, manifest_path: Path, seed: int, anchor) -> "CorpusReference":
        """Parse and tabulate a corpus.

        ``anchor(path, inputs)`` must return the program's scalar outputs
        (``ReversibleCircuit.simulate``) for a circuit file; it is called on
        a seeded sample of :data:`ANCHOR_CIRCUITS` circuits.
        """
        manifest_path = Path(manifest_path)
        root = manifest_path.parent
        with open(manifest_path, encoding="utf-8") as handle:
            entries = json.load(handle)["entries"]
        if not entries:
            raise ReferenceError(f"{manifest_path}: corpus has no pairs")
        files = sorted({e[key] for e in entries for key in ("circuit1", "circuit2")})
        rng = _seeded_rng(seed, "anchor")
        anchored = set(rng.sample(files, min(ANCHOR_CIRCUITS, len(files))))
        parsed: dict[str, tuple[int, list[tuple]]] = {}
        for name in files:
            num_lines, ops = parse_real((root / name).read_text(encoding="utf-8"))
            parsed[name] = (num_lines, ops)
            if name in anchored:
                probes = [rng.getrandbits(num_lines) for _ in range(ANCHOR_INPUTS)]
                ours = evaluate(ops, np.array(probes, dtype=np.uint64)).tolist()
                theirs = list(anchor(root / name, probes))
                if ours != theirs:
                    raise ReferenceError(
                        f"{name}: reference evaluation disagrees with "
                        "ReversibleCircuit.simulate"
                    )
        pairs: dict[str, _Pair] = {}
        sampled = 0
        for entry in entries:
            n1, ops1 = parsed[entry["circuit1"]]
            n2, ops2 = parsed[entry["circuit2"]]
            if n1 != n2:
                raise ReferenceError(f"{entry['pair_id']}: widths differ")
            if n1 <= EXHAUSTIVE_MAX_LINES:
                inputs = np.arange(1 << n1, dtype=np.uint64)
                table = evaluate(ops2, inputs)
            else:
                draw = _seeded_rng(seed, entry["pair_id"])
                inputs = np.array(
                    [draw.getrandbits(n1) for _ in range(SAMPLE_INPUTS)],
                    dtype=np.uint64,
                )
                table = None
                sampled += 1
            pairs[entry["pair_id"]] = _Pair(
                label=entry["equivalence"],
                expected=bool(entry["expected_equivalent"]),
                num_lines=n1,
                inputs=inputs,
                c1_out=evaluate(ops1, inputs),
                c2_ops=ops2,
                c2_table=table,
            )
        return cls(pairs, sampled)

    def __len__(self) -> int:
        return len(self._pairs)

    def witness_holds(self, pair_id: str, result: dict) -> bool:
        """Whether ``C1 = C_pi_y C_nu_y C2 C_pi_x C_nu_x`` on the checked inputs."""
        pair = self._pairs[pair_id]
        n = pair.num_lines
        input_side, _, output_side = pair.label.partition("-")
        allows_nx, allows_px = _SIDES[input_side]
        allows_ny, allows_py = _SIDES[output_side]
        for field, allowed in (
            ("nu_x", allows_nx), ("pi_x", allows_px),
            ("nu_y", allows_ny), ("pi_y", allows_py),
        ):
            if result.get(field) is not None and not allowed:
                return False
        mask_x = _negation_mask(result.get("nu_x"), n)
        mask_y = _negation_mask(result.get("nu_y"), n)
        map_x = _line_mapping(result.get("pi_x"), n)
        map_y = _line_mapping(result.get("pi_y"), n)
        if None in (mask_x, mask_y, map_x, map_y):
            return False
        inner = permute_lines(pair.inputs ^ np.uint64(mask_x), map_x)
        if pair.exhaustive:
            middle = pair.c2_table[inner.astype(np.int64)]
        else:
            middle = evaluate(pair.c2_ops, inner)
        outer = permute_lines(middle ^ np.uint64(mask_y), map_y)
        return bool(np.array_equal(outer, pair.c1_out))

    def judge(self, record: dict) -> str:
        """Classify one store record: ``right``, ``wrong`` or ``honest``.

        ``honest`` is a non-``ok`` answer on a pair the manifest marks
        inequivalent.  A pair comes back ``ok`` exactly when its record
        carries a result with witnesses.
        """
        pair_id = record["pair_id"]
        pair = self._pairs.get(pair_id)
        if pair is None:
            raise ReferenceError(f"record for unknown pair {pair_id!r}")
        result = record.get("result")
        if not result:
            return "wrong" if pair.expected else "honest"
        key = (pair_id, json.dumps(result, sort_keys=True))
        verdict = self._verdicts.get(key)
        if verdict is None:
            if not pair.exhaustive and not pair.expected:
                verdict = "wrong"
            else:
                verdict = "right" if self.witness_holds(pair_id, result) else "wrong"
            self._verdicts[key] = verdict
        return verdict

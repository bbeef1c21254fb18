"""JSON (de)serialisation of matching results and batch records.

Both persistence surfaces of the service layer — the on-disk result cache
and the JSONL run store — need :class:`~repro.core.problem.MatchingResult`
as plain JSON, and the executor and the daemon wire carry results in the
same form, so sharded, fleet and whole-manifest runs produce literally
identical records.  Witness fields map to JSON naturally (negations become
0/1 lists, line permutations become mapping lists); free-form metadata is
sanitised value-by-value because matchers may stash arbitrary objects
there.
"""

from __future__ import annotations

from repro.circuits.line_permutation import LinePermutation
from repro.core.equivalence import EquivalenceType
from repro.core.problem import MatchingResult

__all__ = ["json_safe", "result_to_dict", "result_from_dict"]


def json_safe(value):
    """Recursively coerce ``value`` into JSON-serialisable builtins.

    Dicts and lists/tuples are walked; scalars pass through; anything else
    (a LinePermutation in matcher metadata, say) is stringified rather than
    dropped, so records stay lossless enough to read while always
    serialising.

    Dict entries are emitted in sorted (stringified) key order: metadata
    dicts reach cache entries and JSONL records byte-for-byte, so their
    serialised form must not depend on insertion or hash order.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {
            str(key): json_safe(item)
            for key, item in sorted(
                value.items(), key=lambda entry: str(entry[0])
            )
        }
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return str(value)


def _negation_to_json(nu: tuple[bool, ...] | None) -> list[int] | None:
    if nu is None:
        return None
    return [1 if flag else 0 for flag in nu]


def _permutation_to_json(pi: LinePermutation | None) -> list[int] | None:
    if pi is None:
        return None
    return list(pi.mapping)


def result_to_dict(result: MatchingResult) -> dict:
    """Serialise a result (witnesses, query accounting, metadata) to JSON."""
    return {
        "equivalence": result.equivalence.label,
        "nu_x": _negation_to_json(result.nu_x),
        "pi_x": _permutation_to_json(result.pi_x),
        "nu_y": _negation_to_json(result.nu_y),
        "pi_y": _permutation_to_json(result.pi_y),
        "queries": result.queries,
        "quantum_queries": result.quantum_queries,
        "swap_tests": result.swap_tests,
        "metadata": json_safe(result.metadata),
    }


def result_from_dict(data: dict) -> MatchingResult:
    """Rebuild a :class:`MatchingResult` from :func:`result_to_dict` output.

    ``MatchingResult.__post_init__`` re-coerces the witness fields, so the
    0/1 lists and mapping lists round-trip into tuples of bools and
    :class:`LinePermutation` instances.
    """
    return MatchingResult(
        equivalence=EquivalenceType.from_label(data["equivalence"]),
        nu_x=data.get("nu_x"),
        pi_x=data.get("pi_x"),
        nu_y=data.get("nu_y"),
        pi_y=data.get("pi_y"),
        queries=data.get("queries", 0),
        quantum_queries=data.get("quantum_queries", 0),
        swap_tests=data.get("swap_tests", 0),
        metadata=dict(data.get("metadata") or {}),
    )

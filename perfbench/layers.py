"""Per-layer tracing from outside the program.

:class:`LayerTrace` wraps the public entry points of each ``repro`` layer
(module functions, methods, one classmethod) for the length of one traced
pass, records one in-memory span per call with a link to the span that was
open when it started, and restores every original on exit.  Nothing inside
``src/`` is modified on disk or knows it is being traced.

A span's *self time* is its duration minus the durations of the spans
opened inside it.  The self times of all spans add up to the time covered
by top-level spans; what the pass spent outside every span is reported as
``service.pipeline.unattributed_s`` (manifest handling, record building,
events and the executor loop of ``run_manifest``).  Times are wall clock,
except ``trace.overhead_s``: the traced pass minus the median untraced
pass, both at the reference machine speed (``perfbench.workloads.SpeedProbe``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

__all__ = [
    "LAYER_METRICS",
    "SELF_TIME_METRICS",
    "LayerTrace",
    "closure_gap",
    "layer_metrics",
]

LANES = 64

#: Class labels the engine spans are reported under (the 8 tractable classes).
CLASSES = ("I-I", "I-N", "I-P", "I-NP", "N-I", "P-I", "P-N", "NP-I")

#: Self-time metrics that, with ``service.pipeline.unattributed_s``, add up
#: to the traced pass's wall time.
SELF_TIME_METRICS = (
    "circuits.io.parse_s",
    "service.fingerprint.exact_s",
    "service.fingerprint.probe_s",
    "service.cache.get_s",
    "service.cache.put_s",
    "cachenet.prefetch_s",
    "cachenet.get_put_s",
    "core.matchers.self_s",
    "oracles.query_s",
    "circuits.table_s",
    "circuits.bitslice.s",
    "quantum.s",
    "core.verify.s",
    "service.store.append_s",
)

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS = (
    ("circuits.io.parse_s", "s"),
    ("circuits.io.gates_per_s", "gates/s"),
    ("service.fingerprint.exact_s", "s"),
    ("service.fingerprint.probe_s", "s"),
    ("service.fingerprint.calls", "count"),
    ("service.cache.get_s", "s"),
    ("service.cache.put_s", "s"),
    ("service.cache.hit_ratio", "ratio"),
    ("cachenet.prefetch_s", "s"),
    ("cachenet.get_put_s", "s"),
    ("cachenet.round_trips", "count"),
    *((f"core.engine.match_s.{label}", "s") for label in CLASSES),
    ("core.matchers.self_s", "s"),
    ("oracles.query_s", "s"),
    ("oracles.values_evaluated_per_charged_query", "ratio"),
    ("circuits.table_s", "s"),
    ("circuits.tables_built", "count"),
    ("circuits.bitslice.s", "s"),
    ("circuits.bitslice.lane_fill", "ratio"),
    ("circuits.bitslice.compiles_per_circuit", "ratio"),
    ("quantum.s", "s"),
    ("quantum.swap_tests", "count"),
    ("quantum.queries_per_pair", "queries"),
    ("core.verify.s", "s"),
    ("core.verify.total_s", "s"),
    ("core.verify.calls", "count"),
    ("core.verify.reject_ratio", "ratio"),
    ("service.store.append_s", "s"),
    ("service.store.bytes_per_pair", "bytes"),
    ("service.pipeline.unattributed_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class LayerTrace:
    """Context manager that traces the layers' public entry points.

    Spans are kept as lists ``[layer, op, parent, start, end, info]`` in
    :attr:`spans`; ``parent`` is the index of the enclosing span or -1.
    :attr:`round_trips` counts cache-server requests.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.round_trips = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------------
    def _wrap(self, function, layer, op, info=None):
        """A traced version of ``function``.

        ``layer`` is a name or a callable of the call's arguments (so one
        base-class method can report under the tier it ran for); ``info``
        maps ``(args, result)`` to what the metrics need from the call.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            span = [name, op, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return traced

    def _method(self, cls, name, layer, op=None, info=None) -> None:
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self._wrap(original.__func__, layer, op or name, info)
            )
        else:
            replacement = self._wrap(original, layer, op or name, info)
        setattr(cls, name, replacement)
        self._undo.append((cls, name, original))

    def _function(self, module, name, layer, op=None, info=None) -> None:
        """Wrap a module function everywhere ``repro`` bound it by name."""
        original = getattr(module, name)
        traced = self._wrap(original, layer, op or name, info)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if (
                namespace is not None
                and getattr(loaded, "__name__", "").startswith("repro")
                and namespace.get(name) is original
            ):
                setattr(loaded, name, traced)
                self._undo.append((loaded, name, original))

    def _counter(self, cls, name) -> None:
        original = cls.__dict__[name]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.round_trips += 1
            return original(*args, **kwargs)

        setattr(cls, name, counted)
        self._undo.append((cls, name, original))

    def __enter__(self) -> "LayerTrace":
        from repro.cachenet.remote import RemoteCache
        from repro.circuits.circuit import ReversibleCircuit
        from repro.circuits.permutation import Permutation
        from repro.core.engine import MatchingEngine
        from repro.oracles.oracle import ReversibleOracle
        from repro.quantum.oracle import QuantumCircuitOracle
        from repro.quantum.swap_test import SwapTest
        from repro.service.cache import ResultCache
        from repro.service.daemon import DaemonClient
        from repro.service.fingerprint import FingerprintRegistry
        from repro.service.pipeline import ResultStore

        bitslice = importlib.import_module("repro.circuits.bitslice")
        real = importlib.import_module("repro.circuits.io.real")
        verify = importlib.import_module("repro.core.verify")

        def cache_tier(args):
            return "cachenet" if isinstance(args[0], RemoteCache) else "service.cache"

        self._function(
            real, "read_real", "circuits.io",
            info=lambda args, result: result.num_gates,
        )
        self._method(
            FingerprintRegistry, "fingerprint", "service.fingerprint",
            info=lambda args, result: result.scheme,
        )
        self._method(ResultCache, "get", cache_tier)
        self._method(ResultCache, "put", cache_tier)
        self._method(RemoteCache, "prefetch", "cachenet")
        self._counter(DaemonClient, "request")
        self._method(
            MatchingEngine, "match_many", "core.engine",
            info=lambda args, result: _pair_class(args),
        )
        for name in ("query", "query_inverse"):
            self._method(
                ReversibleOracle, name, "oracles",
                info=lambda args, result: (1, 1),
            )
        for name in ("query_many", "query_inverse_many"):
            self._method(
                ReversibleOracle, name, "oracles",
                info=lambda args, result: (len(result), len(result)),
            )
        for name in ("evaluate_many", "peek_table"):
            self._method(
                ReversibleOracle, name, "oracles",
                info=lambda args, result: (len(result), 0),
            )
        for name in ("truth_table", "is_identity", "functionally_equal"):
            self._method(ReversibleCircuit, name, "circuits.table")
        self._method(Permutation, "from_circuit", "circuits.table")
        self._function(bitslice, "simulate_many", "circuits.bitslice")
        self._function(
            bitslice, "evaluate_compiled", "circuits.bitslice",
            info=lambda args, result: len(result),
        )
        self._function(bitslice, "compile_gates", "circuits.bitslice")
        for name in ("sample", "sample_many", "any_one"):
            self._method(SwapTest, name, "quantum")
        self._method(QuantumCircuitOracle, "query_state", "quantum")
        self._function(
            verify, "verify_match", "core.verify",
            info=lambda args, result: bool(result),
        )
        self._method(ResultStore, "append", "service.store")
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- output ----------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path, origin: float) -> None:
        """Write the spans as JSON lines, times relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (layer, op, parent, start, end, info) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "parent": parent if parent >= 0 else None,
                    "layer": layer,
                    "op": op,
                    "start_s": round(start - origin, 9),
                    "duration_s": round(end - start, 9),
                    "info": info,
                }) + "\n")


def _pair_class(args) -> str:
    """The class label of a single-pair ``match_many`` call."""
    pairs = args[1]
    return str(pairs[0][2]) if pairs and len(pairs[0]) == 3 else "?"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def closure_gap(metrics: dict[str, float]) -> float:
    """How far the self times plus unattributed time miss the pass wall time.

    Zero up to rounding when every span is reported under exactly one
    self-time metric; anything else means a layer went uncounted.
    """
    covered = sum(metrics[name] for name in SELF_TIME_METRICS)
    return covered + metrics["service.pipeline.unattributed_s"] - metrics["trace.pass_s"]


def layer_metrics(
    trace: LayerTrace,
    *,
    pass_s: float,
    overhead_s: float,
    pairs: int,
    hit_ratio: float,
    quantum_per_pair: float,
    store_bytes: int,
) -> dict[str, float]:
    """Reduce one traced pass to the :data:`LAYER_METRICS` values."""
    own = trace.self_times()
    spans = trace.spans
    self_s: dict[tuple[str, str], float] = defaultdict(float)
    count: dict[tuple[str, str], int] = defaultdict(int)
    for (layer, op, *_), seconds in zip(spans, own):
        self_s[layer, op] += seconds
        count[layer, op] += 1

    def layer_self(layer: str, *ops: str) -> float:
        return sum(
            seconds for (name, op), seconds in self_s.items()
            if name == layer and (not ops or op in ops)
        )

    parse_inclusive = gates = 0.0
    exact = probe = 0.0
    match_by_class: dict[str, float] = defaultdict(float)
    values = charged = 0
    lane_values = lane_words = 0
    rejects = 0
    verify_total = roots = 0.0
    for index, (layer, op, parent, start, end, info) in enumerate(spans):
        duration = end - start
        if parent < 0:
            roots += duration
        if layer == "circuits.io":
            parse_inclusive += duration
            gates += info or 0
        elif layer == "service.fingerprint":
            if info == "exact":
                exact += own[index]
            else:
                probe += own[index]
        elif layer == "core.engine":
            match_by_class[info] += duration
        elif layer == "oracles" and info is not None:
            if parent < 0 or spans[parent][0] != "oracles":
                values += info[0]
                charged += info[1]
        elif layer == "circuits.bitslice" and op == "evaluate_compiled":
            lane_values += info
            lane_words += -(-info // LANES)
        elif layer == "core.verify":
            verify_total += duration
            rejects += info is False

    metrics = {
        "circuits.io.parse_s": layer_self("circuits.io"),
        "circuits.io.gates_per_s": _ratio(gates, parse_inclusive),
        "service.fingerprint.exact_s": exact,
        "service.fingerprint.probe_s": probe,
        "service.fingerprint.calls": count["service.fingerprint", "fingerprint"],
        "service.cache.get_s": layer_self("service.cache", "get"),
        "service.cache.put_s": layer_self("service.cache", "put"),
        "service.cache.hit_ratio": hit_ratio,
        "cachenet.prefetch_s": layer_self("cachenet", "prefetch"),
        "cachenet.get_put_s": layer_self("cachenet", "get", "put"),
        "cachenet.round_trips": trace.round_trips,
    }
    for label in CLASSES:
        metrics[f"core.engine.match_s.{label}"] = match_by_class.get(label, 0.0)
    verify_calls = count["core.verify", "verify_match"]
    metrics.update({
        "core.matchers.self_s": layer_self("core.engine"),
        "oracles.query_s": layer_self("oracles"),
        "oracles.values_evaluated_per_charged_query": _ratio(values, charged),
        "circuits.table_s": layer_self("circuits.table"),
        "circuits.tables_built": (
            count["circuits.table", "truth_table"]
            + count["circuits.table", "is_identity"]
            + 2 * count["circuits.table", "functionally_equal"]
        ),
        "circuits.bitslice.s": layer_self("circuits.bitslice"),
        "circuits.bitslice.lane_fill": _ratio(lane_values, LANES * lane_words),
        "circuits.bitslice.compiles_per_circuit": _ratio(
            count["circuits.bitslice", "compile_gates"],
            count["circuits.io", "read_real"],
        ),
        "quantum.s": layer_self("quantum"),
        "quantum.swap_tests": count["quantum", "sample"],
        "quantum.queries_per_pair": quantum_per_pair,
        "core.verify.s": layer_self("core.verify"),
        "core.verify.total_s": verify_total,
        "core.verify.calls": verify_calls,
        "core.verify.reject_ratio": _ratio(rejects, verify_calls),
        "service.store.append_s": layer_self("service.store"),
        "service.store.bytes_per_pair": _ratio(store_bytes, pairs),
        "service.pipeline.unattributed_s": pass_s - roots,
        "trace.pass_s": pass_s,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans),
    })
    return metrics

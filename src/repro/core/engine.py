"""The :class:`MatchingEngine` facade.

A configured front door to the capability-based matcher registry:

* :class:`MatchingConfig` — the policy knobs (epsilon, quantum permission,
  brute-force opt-in, inverse granting, query budget) bundled once instead
  of threaded through every call;
* :class:`MatchingEngine` — holds a config, a registry and shared randomness
  and exposes :meth:`~MatchingEngine.match` (one pair),
  :meth:`~MatchingEngine.solve` (a declarative
  :class:`~repro.core.problem.MatchingProblem`), and
  :meth:`~MatchingEngine.match_many` — the in-process batch API (result
  caching, streaming and stores live in
  :class:`repro.service.pipeline.MatchingService`);
* :class:`BatchReport` / :class:`BatchEntry` — per-pair witnesses plus
  aggregate classical/quantum query accounting, rendered through
  :mod:`repro.analysis.report` so batch output and the benchmark harness
  share one format.

Oracle coercion happens in exactly one place (:meth:`MatchingEngine._coerce`).
Within a :meth:`~MatchingEngine.match_many` call the coercions are cached,
so matching one circuit against many partners — the template-matching
workload — materialises its inverse once instead of once per pair; the
cache dies with the batch, so mutating a circuit between calls can never
leak a stale oracle.  The module-level :func:`repro.core.match` wrapper in
:mod:`repro.core.dispatcher` delegates to a shared default engine.
"""

from __future__ import annotations

import random as _random
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

from repro.analysis.report import format_table
from repro.core.equivalence import EquivalenceType
from repro.core.problem import MatchContext, MatchingProblem, MatchingResult
from repro.core.registry import (
    Capability,
    MatcherRegistry,
    MatcherSpec,
    default_registry,
    detect_capabilities,
)
from repro.exceptions import ReproError
from repro.oracles.oracle import ReversibleOracle, as_oracle
from repro.quantum.oracle import QuantumCircuitOracle
from repro.quantum.swap_test import SwapTest

# Importing the matcher package populates the default registry.
import repro.core.matchers  # noqa: F401  (imported for registration side effect)

__all__ = [
    "MatchingConfig",
    "MatchingEngine",
    "BatchEntry",
    "BatchReport",
    "get_default_engine",
]


@dataclass(frozen=True)
class MatchingConfig:
    """Policy knobs shared by every request an engine serves.

    Attributes:
        epsilon: default admissible failure probability for randomised and
            quantum matchers.
        allow_quantum: permit the simulated quantum matchers.
        allow_brute_force: permit the exponential brute-force fallback tier.
        with_inverse: grant inverse access when coercing *raw* circuits or
            permutations into oracles (pre-built oracles keep their own
            setting, exactly like :func:`repro.oracles.oracle.as_oracle`).
        max_queries: optional query budget applied to each oracle the
            engine builds; exceeding it raises
            :class:`~repro.exceptions.QueryBudgetExceededError`.  The
            budget is per matched pair: with a budget set, batch matching
            coerces fresh oracles for every pair instead of reusing them,
            so one pair's spending cannot starve another.
        fingerprint_scheme: which oracle-identity scheme the service
            layer's caches key on — ``"auto"`` (exact truth tables up to
            the width limit, sampled probes beyond), ``"exact"`` or
            ``"probe"``.  The engine itself never fingerprints; the knob
            lives here because it is cache *policy* and must be part of
            the cache key (see :func:`repro.service.fingerprint.config_digest`).
        probe_count: probes per sampled-probe fingerprint (the probe
            budget); ``0`` disables the probe tier in ``auto`` mode.
    """

    epsilon: float = 1e-3
    allow_quantum: bool = True
    allow_brute_force: bool = False
    with_inverse: bool = False
    max_queries: int | None = None
    fingerprint_scheme: str = "auto"
    probe_count: int = 64


@dataclass(frozen=True)
class BatchEntry:
    """One pair's outcome inside a :class:`BatchReport`.

    Attributes:
        index: position of the pair in the submitted batch.
        equivalence: the promised class for this pair.
        result: the witnesses, or ``None`` when the matcher failed.
        error: ``"ExceptionName: message"`` when the matcher failed.
        matcher: name of the registry entry that ran (when resolution
            succeeded).
    """

    index: int
    equivalence: EquivalenceType
    result: MatchingResult | None
    error: str | None = None
    matcher: str | None = None

    @property
    def matched(self) -> bool:
        """Whether the matcher produced witnesses for this pair."""
        return self.result is not None


@dataclass(frozen=True)
class BatchReport:
    """Aggregated outcome of :meth:`MatchingEngine.match_many`.

    Per-pair witnesses live in :attr:`entries`; the properties aggregate the
    classical/quantum query accounting across the batch for
    :mod:`repro.analysis`-style reporting.  Aggregates sum the matched
    pairs: a pair whose matcher raised (budget exhausted, promise
    violation) has no :class:`~repro.core.problem.MatchingResult` to read
    counts from.

    Attributes:
        entries: one :class:`BatchEntry` per submitted pair, in order.
        coerced_oracles: how many distinct oracles the batch coerced and
            shared across pairs; 0 when a query budget disabled sharing.
    """

    entries: tuple[BatchEntry, ...]
    coerced_oracles: int = 0

    # -- aggregates ------------------------------------------------------------
    @property
    def num_pairs(self) -> int:
        """Number of pairs submitted."""
        return len(self.entries)

    @property
    def num_matched(self) -> int:
        """Number of pairs for which witnesses were produced."""
        return sum(1 for entry in self.entries if entry.matched)

    @property
    def num_failed(self) -> int:
        """Number of pairs that raised instead of matching."""
        return self.num_pairs - self.num_matched

    @property
    def classical_queries(self) -> int:
        """Classical oracle queries spent by this batch."""
        return sum(
            entry.result.queries for entry in self.entries if entry.result
        )

    @property
    def quantum_queries(self) -> int:
        """Quantum oracle queries spent by this batch."""
        return sum(
            entry.result.quantum_queries for entry in self.entries if entry.result
        )

    @property
    def swap_tests(self) -> int:
        """Swap tests performed by this batch."""
        return sum(
            entry.result.swap_tests for entry in self.entries if entry.result
        )

    @property
    def total_queries(self) -> int:
        """Classical plus quantum queries across the batch."""
        return self.classical_queries + self.quantum_queries

    # -- accessors -------------------------------------------------------------
    def results(self) -> list[MatchingResult]:
        """The per-pair witnesses of the successfully matched pairs."""
        return [entry.result for entry in self.entries if entry.result is not None]

    def failures(self) -> list[BatchEntry]:
        """The entries that failed to match."""
        return [entry for entry in self.entries if not entry.matched]

    def as_rows(self) -> list[tuple[object, ...]]:
        """Table rows (index, class, matcher, status, queries, quantum)."""
        rows: list[tuple[object, ...]] = []
        for entry in self.entries:
            if entry.result is not None:
                rows.append(
                    (
                        entry.index,
                        entry.equivalence.label,
                        entry.matcher or "-",
                        "ok",
                        entry.result.queries,
                        entry.result.quantum_queries,
                    )
                )
            else:
                # Registry-generated messages are multi-line; keep the table
                # rectangular and leave the full text on entry.error.
                status = (entry.error or "failed").splitlines()[0]
                rows.append(
                    (
                        entry.index,
                        entry.equivalence.label,
                        entry.matcher or "-",
                        status,
                        0,
                        0,
                    )
                )
        return rows

    def to_table(self, title: str | None = None) -> str:
        """Render the batch through :func:`repro.analysis.report.format_table`."""
        return format_table(
            ["#", "class", "matcher", "status", "queries", "quantum"],
            self.as_rows(),
            title=title,
        )

    def summary(self) -> str:
        """One-line aggregate: matched count and query totals."""
        return (
            f"{self.num_matched}/{self.num_pairs} matched, "
            f"{self.classical_queries} classical + "
            f"{self.quantum_queries} quantum queries "
            f"({self.swap_tests} swap tests)"
        )


class MatchingEngine:
    """Facade over the matcher registry for single and batch matching.

    Args:
        config: the :class:`MatchingConfig` policy; defaults are the
            historical :func:`repro.core.match` defaults.
        registry: the matcher registry to resolve against; defaults to the
            process-wide one the stock matchers register into.
        rng: engine-wide randomness (seed or ``random.Random``) used when a
            call does not pass its own.
        swap_test: optionally a shared pre-configured
            :class:`~repro.quantum.swap_test.SwapTest`.
        metrics: optional duck-typed metrics registry (anything with
            ``counter(name)``/``histogram(name)`` à la
            :class:`repro.obs.metrics.MetricsRegistry`);
            :meth:`match_many` feeds the ``repro_engine_*`` series.
            Telemetry only — never part of :class:`MatchingConfig`, so it
            cannot leak into cache keys.
    """

    def __init__(
        self,
        config: MatchingConfig | None = None,
        *,
        registry: MatcherRegistry | None = None,
        rng: _random.Random | int | None = None,
        swap_test: SwapTest | None = None,
        metrics=None,
    ) -> None:
        self._config = config if config is not None else MatchingConfig()
        self._registry = registry if registry is not None else default_registry()
        self._rng = rng
        self._swap_test = swap_test
        self._metrics = metrics

    # -- introspection ---------------------------------------------------------
    @property
    def config(self) -> MatchingConfig:
        """The engine's policy configuration."""
        return self._config

    @property
    def registry(self) -> MatcherRegistry:
        """The registry the engine resolves matchers from."""
        return self._registry

    # -- coercion (the single place dispatch builds oracles) -------------------
    def _coerce(self, target, with_inverse: bool, cache: dict | None):
        """Coerce one matcher argument — the only coercion site on dispatch.

        Pre-built classical or quantum oracles pass through untouched (their
        own inverse/budget settings win).  Circuits and permutations are
        wrapped; when a batch-scoped ``cache`` is supplied the wrapper is
        reused per ``(object, with_inverse)`` so a circuit appearing in many
        pairs materialises its inverse once.  The cache keeps the original
        object alive, pinning its id against recycling, and dies with the
        batch.  A configured query budget disables reuse — the budget is
        per-oracle, so sharing one oracle across pairs would let early
        pairs starve later ones.
        """
        if isinstance(target, (ReversibleOracle, QuantumCircuitOracle)):
            return target
        reusable = cache is not None and self._config.max_queries is None
        key = (id(target), with_inverse)
        if reusable:
            cached = cache.get(key)
            if cached is not None:
                return cached[1]
        oracle = as_oracle(
            target,
            with_inverse=with_inverse,
            max_queries=self._config.max_queries,
        )
        if reusable:
            cache[key] = (target, oracle)
        return oracle

    def _context(
        self,
        *,
        epsilon: float | None,
        rng,
        swap_test: SwapTest | None,
        allow_quantum: bool | None,
        allow_brute_force: bool | None,
    ) -> MatchContext:
        config = self._config
        return MatchContext(
            epsilon=config.epsilon if epsilon is None else epsilon,
            rng=self._rng if rng is None else rng,
            swap_test=self._swap_test if swap_test is None else swap_test,
            max_queries=config.max_queries,
            allow_quantum=(
                config.allow_quantum if allow_quantum is None else allow_quantum
            ),
            allow_brute_force=(
                config.allow_brute_force
                if allow_brute_force is None
                else allow_brute_force
            ),
        )

    # -- resolution ------------------------------------------------------------
    def _prepare(
        self,
        circuit1,
        circuit2,
        equivalence: EquivalenceType | str,
        cache: dict | None,
        *,
        epsilon: float | None = None,
        rng: _random.Random | int | None = None,
        allow_quantum: bool | None = None,
        allow_brute_force: bool | None = None,
        swap_test: SwapTest | None = None,
        with_inverse: bool | None = None,
    ) -> tuple[MatcherSpec, object, object, MatchingProblem, MatchContext]:
        """Coerce, detect capabilities and resolve — everything but running.

        The single dispatch path behind :meth:`plan`, :meth:`match` and
        :meth:`match_many`, so resolution happens exactly once per request.
        """
        if isinstance(equivalence, str):
            equivalence = EquivalenceType.from_label(equivalence)
        grant = self._config.with_inverse if with_inverse is None else with_inverse
        oracle1 = self._coerce(circuit1, grant, cache)
        oracle2 = self._coerce(circuit2, grant, cache)
        ctx = self._context(
            epsilon=epsilon,
            rng=rng,
            swap_test=swap_test,
            allow_quantum=allow_quantum,
            allow_brute_force=allow_brute_force,
        )
        capabilities = detect_capabilities(oracle1, oracle2, ctx)
        spec = self._registry.resolve(equivalence, capabilities)
        problem = MatchingProblem(
            equivalence=equivalence,
            num_lines=_num_lines(oracle1),
            with_inverse=Capability.INVERSE in capabilities,
            epsilon=ctx.epsilon,
        )
        return spec, oracle1, oracle2, problem, ctx

    def plan(
        self,
        circuit1,
        circuit2,
        equivalence: EquivalenceType | str,
        *,
        with_inverse: bool | None = None,
        allow_quantum: bool | None = None,
        allow_brute_force: bool | None = None,
    ) -> MatcherSpec:
        """Resolve which registered matcher *would* run, without running it."""
        spec, _, _, _, _ = self._prepare(
            circuit1,
            circuit2,
            equivalence,
            None,
            with_inverse=with_inverse,
            allow_quantum=allow_quantum,
            allow_brute_force=allow_brute_force,
        )
        return spec

    # -- matching --------------------------------------------------------------
    def match(
        self,
        circuit1,
        circuit2,
        equivalence: EquivalenceType | str,
        *,
        epsilon: float | None = None,
        rng: _random.Random | int | None = None,
        allow_quantum: bool | None = None,
        allow_brute_force: bool | None = None,
        swap_test: SwapTest | None = None,
        with_inverse: bool | None = None,
    ) -> MatchingResult:
        """Match one pair under a promised equivalence class.

        Keyword overrides fall back to the engine's config; semantics are
        those of :func:`repro.core.match`.  Oracles are coerced fresh for
        every call (no caching outside :meth:`match_many`), so mutating a
        circuit between calls is always safe.

        Raises:
            UnsupportedEquivalenceError: when no registered matcher is
                eligible (message generated from the registry).
        """
        spec, oracle1, oracle2, problem, ctx = self._prepare(
            circuit1,
            circuit2,
            equivalence,
            None,
            epsilon=epsilon,
            rng=rng,
            allow_quantum=allow_quantum,
            allow_brute_force=allow_brute_force,
            swap_test=swap_test,
            with_inverse=with_inverse,
        )
        return spec(oracle1, oracle2, problem, ctx)

    def solve(
        self,
        problem: MatchingProblem,
        circuit1,
        circuit2,
        *,
        rng: _random.Random | int | None = None,
    ) -> MatchingResult:
        """Solve a declaratively specified :class:`MatchingProblem`.

        The problem's ``equivalence``, ``epsilon`` and ``with_inverse``
        drive dispatch; the circuits supply the oracles.
        """
        return self.match(
            circuit1,
            circuit2,
            problem.equivalence,
            epsilon=problem.epsilon,
            rng=rng,
            with_inverse=problem.with_inverse,
        )

    def match_many(
        self,
        pairs: Iterable[Sequence],
        *,
        equivalence: EquivalenceType | str | None = None,
        rng: _random.Random | int | None = None,
    ) -> BatchReport:
        """Match a batch of circuit pairs and aggregate query statistics.

        Caching, streaming and result stores live one layer up, in
        :class:`repro.service.pipeline.MatchingService`; this is the plain
        in-process batch the service's executors run each task through.

        Args:
            pairs: an iterable of ``(circuit1, circuit2)`` or
                ``(circuit1, circuit2, equivalence)`` tuples; the per-pair
                equivalence wins over the batch-wide one.
            equivalence: batch-wide default class for 2-tuples.
            rng: randomness shared by the whole batch.

        Returns:
            A :class:`BatchReport` with one :class:`BatchEntry` per pair
            plus aggregate classical/quantum query totals over the matched
            pairs.  A matcher failure is recorded as a failed entry, not
            raised.  Oracle coercion is cached for the duration of the
            call, so a circuit appearing in many pairs is wrapped (and its
            inverse materialised) only once — unless a query budget is
            configured, in which case every pair gets fresh oracles so the
            budget applies per pair.
        """
        if isinstance(equivalence, str):
            equivalence = EquivalenceType.from_label(equivalence)
        cache: dict = {}
        entries: list[BatchEntry] = []
        metrics = self._metrics
        for index, pair in enumerate(pairs):
            if len(pair) == 3:
                circuit1, circuit2, pair_equivalence = pair
            elif len(pair) == 2:
                circuit1, circuit2 = pair
                pair_equivalence = equivalence
            else:
                raise ValueError(
                    f"pair #{index} has {len(pair)} elements; expected "
                    "(c1, c2) or (c1, c2, equivalence)"
                )
            if pair_equivalence is None:
                raise ValueError(
                    f"pair #{index} names no equivalence class and no "
                    "batch-wide default was given"
                )
            if isinstance(pair_equivalence, str):
                pair_equivalence = EquivalenceType.from_label(pair_equivalence)
            matcher_name: str | None = None
            dispatch_started = time.perf_counter()
            try:
                spec, oracle1, oracle2, problem, ctx = self._prepare(
                    circuit1, circuit2, pair_equivalence, cache, rng=rng
                )
                matcher_name = spec.name
                result = spec(oracle1, oracle2, problem, ctx)
            except ReproError as error:
                entry = BatchEntry(
                    index=index,
                    equivalence=pair_equivalence,
                    result=None,
                    error=f"{type(error).__name__}: {error}",
                    matcher=matcher_name,
                )
            else:
                entry = BatchEntry(
                    index=index,
                    equivalence=pair_equivalence,
                    result=result,
                    matcher=matcher_name,
                )
                if metrics is not None:
                    metrics.histogram("repro_engine_match_seconds").observe(
                        time.perf_counter() - dispatch_started
                    )
                    if result.queries:
                        metrics.counter("repro_engine_queries_total").inc(
                            result.queries, kind="classical"
                        )
                    if result.quantum_queries:
                        metrics.counter("repro_engine_queries_total").inc(
                            result.quantum_queries, kind="quantum"
                        )
            if metrics is not None:
                metrics.counter("repro_engine_pairs_total").inc(
                    status="ok" if entry.matched else "failed"
                )
            entries.append(entry)
        return BatchReport(entries=tuple(entries), coerced_oracles=len(cache))

    # -- reconfiguration -------------------------------------------------------
    def with_config(self, **changes) -> "MatchingEngine":
        """A new engine sharing registry/rng but with config fields replaced."""
        return MatchingEngine(
            replace(self._config, **changes),
            registry=self._registry,
            rng=self._rng,
            swap_test=self._swap_test,
            metrics=self._metrics,
        )


def _num_lines(target) -> int:
    if isinstance(target, ReversibleOracle):
        return target.num_lines
    if isinstance(target, QuantumCircuitOracle):
        return target.num_qubits
    return getattr(target, "num_lines", 0)


#: Lazily built engine behind the module-level :func:`repro.core.match`.
_DEFAULT_ENGINE: MatchingEngine | None = None


def get_default_engine() -> MatchingEngine:
    """The shared default engine the ``repro.core.match`` wrapper uses."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = MatchingEngine()
    return _DEFAULT_ENGINE

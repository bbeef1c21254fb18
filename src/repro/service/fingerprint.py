"""Oracle identity as a pluggable, versioned strategy API.

A fingerprint identifies *what function* an oracle hides, not which Python
object wraps it, so two batches (or two processes, or two runs on
different days) that match the same pair under the same policy can share
one cached result.  Identity used to be a hard-coded ``isinstance``
ladder; it is now a registry of :class:`Fingerprinter` strategies —
mirroring how the matcher registry replaced the dispatch ladder — with
three built-ins:

* :class:`TruthTableFingerprinter` (scheme ``exact``) — a digest of the
  full truth table.  Canonical: any two representations of the same
  reversible function collide.  Exponential in the bit width, so it only
  applies up to :data:`FUNCTIONAL_WIDTH_LIMIT` lines.
* :class:`SampledProbeFingerprinter` (scheme ``probe``) — a digest of the
  function's outputs on a deterministic pseudo-random probe set derived
  from ``sha256(width:probe_salt)``.  Width-independent and canonical
  across representations (a circuit, its resynthesis, the tabulated
  permutation, an opaque oracle's white-box peek all collide), at the
  cost of a *probabilistic* distinctness guarantee: two functions
  differing in ``d`` of the ``2**n`` truth-table entries collide with
  probability ``(1 - d/2**n)**probe_count``.  Random different functions
  essentially never collide; an adversarial near-miss differing in a
  handful of entries can — which is why distinctness-critical corpora
  (:mod:`repro.service.workload`'s ``wide`` family) place their
  perturbations on the probe set, and why ``exact`` remains available.
* :class:`StructureFingerprinter` (scheme ``structure``) — a digest of
  the gate cascade.  Cheap at any width but only structural; the
  last-resort fallback (a structural mismatch is a cache miss, never a
  wrong hit).

Fingerprints and pair keys are **versioned**: fingerprint key fragments
render as ``fp/v2:...`` and pair keys carry the ``v2|`` prefix, so caches
and result stores written under the v1 contract read as clean misses —
never as wrong hits — once the identity scheme changes (see
``repro cache migrate`` for dropping stale v1 entries).

The cache key for a matched pair (:func:`pair_key`) combines both
fingerprints with the equivalence class and a digest of the
:class:`~repro.core.engine.MatchingConfig` policy, because the policy
changes what a matcher may do (inverse access, quantum access, budgets,
and now the fingerprint scheme itself) and therefore what is cached.
"""

from __future__ import annotations

import functools
import hashlib
import json
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass

from repro.circuits import bitslice
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.permutation import Permutation
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.exceptions import FingerprintError
from repro.oracles.oracle import (
    CircuitOracle,
    PermutationOracle,
    ReversibleOracle,
)
from repro.quantum.oracle import QuantumCircuitOracle

__all__ = [
    "FUNCTIONAL_WIDTH_LIMIT",
    "DEFAULT_PROBE_COUNT",
    "PROBE_SALT",
    "FP_VERSION",
    "KEY_VERSION",
    "KEY_PREFIX",
    "FINGERPRINT_SCHEMES",
    "OracleFingerprint",
    "FingerprintContext",
    "Fingerprinter",
    "TruthTableFingerprinter",
    "SampledProbeFingerprinter",
    "StructureFingerprinter",
    "FingerprintRegistry",
    "build_registry",
    "registry_for_config",
    "default_registry",
    "probe_inputs",
    "fingerprint",
    "config_digest",
    "pair_key",
    "pair_key_schemes",
    "scheme_label",
]

#: Widest circuit whose truth table is tabulated for an exact functional
#: fingerprint; beyond it the registry falls through to the next strategy
#: (sampled probes in ``auto`` mode, gate structure in ``exact`` mode).
FUNCTIONAL_WIDTH_LIMIT = 14

#: Probes per sampled-probe fingerprint unless configured otherwise.
DEFAULT_PROBE_COUNT = 64

#: Salt mixed into the probe-set derivation; part of the digest payload,
#: so changing it (a new key version) can never replay old digests.
PROBE_SALT = "repro-probe"

#: Version stamped on every fingerprint (the ``fp/v2`` key fragment).
FP_VERSION = 2

#: Version prefix of every pair key.  v1 keys had no prefix, so v1 cache
#: and store entries are textually disjoint from v2 ones: clean misses.
KEY_VERSION = "v2"
KEY_PREFIX = KEY_VERSION + "|"

#: The registry modes ``build_registry`` accepts (and the CLI exposes).
FINGERPRINT_SCHEMES = ("auto", "exact", "probe")


@dataclass(frozen=True)
class OracleFingerprint:
    """Identity of one oracle for caching purposes.

    Attributes:
        num_lines: bit width of the hidden function.
        kind: ``"function"`` (truth-table digest, canonical),
            ``"probe"`` (sampled-probe digest, canonical up to probe
            collisions) or ``"structure"`` (gate-cascade digest).
        digest: hex SHA-256 of the canonical payload.
        with_inverse: whether matchers get inverse access to this oracle —
            part of the identity because it changes which algorithm runs.
        scheme: name of the strategy that produced the fingerprint
            (``exact`` / ``probe`` / ``structure``).
        version: fingerprint contract version (:data:`FP_VERSION`).
    """

    num_lines: int
    kind: str
    digest: str
    with_inverse: bool = False
    scheme: str = "exact"
    version: int = FP_VERSION

    @property
    def key(self) -> str:
        """The fingerprint rendered as a stable, versioned key fragment."""
        access = "inv" if self.with_inverse else "fwd"
        return (
            f"fp/v{self.version}:{self.num_lines}:{self.scheme}:"
            f"{self.kind}:{access}:{self.digest}"
        )


@dataclass(frozen=True)
class FingerprintContext:
    """Per-call context handed to a :class:`Fingerprinter` strategy.

    Strategy *tuning* (width limits, probe counts) is construction-time
    state of the strategy itself; the context carries only what varies
    per request.

    Attributes:
        with_inverse: the effective inverse-access flag of the target
            (resolved by the registry: pre-built oracles contribute their
            own, raw circuits and permutations take the caller's).
    """

    with_inverse: bool = False


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _width(target) -> int | None:
    """The bit width of a fingerprintable target, or None for foreign types."""
    if isinstance(target, Permutation):
        return target.num_bits
    if isinstance(target, (ReversibleCircuit, ReversibleOracle)):
        return target.num_lines
    if isinstance(target, QuantumCircuitOracle):
        return target.num_qubits
    return None


@functools.lru_cache(maxsize=512)
def _probe_inputs_cached(
    num_lines: int, count: int, salt: str
) -> tuple[int, ...]:
    seed = hashlib.sha256(f"{num_lines}:{salt}".encode("utf-8")).digest()
    return tuple(
        int.from_bytes(
            hashlib.sha256(seed + index.to_bytes(8, "big")).digest()[:8],
            "big",
        )
        % (1 << num_lines)
        for index in range(count)
    )


def probe_inputs(
    num_lines: int, count: int, salt: str = PROBE_SALT
) -> list[int]:
    """The deterministic pseudo-random probe set for one bit width.

    Derived from ``sha256(f"{num_lines}:{salt}")`` expanded in counter
    mode — a pure function of ``(num_lines, count, salt)``, so every
    process, host and run derives the identical set (what makes probe
    digests canonical) and the expansion is memoised per ``(num_lines,
    count, salt)`` triple.  Duplicates are possible and kept: the digest
    is over the output *sequence*, so determinism matters more than
    coverage.
    """
    if count <= 0:
        raise FingerprintError(f"probe count must be positive, got {count}")
    return list(_probe_inputs_cached(num_lines, count, salt))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
class Fingerprinter(ABC):
    """One identity strategy: can it fingerprint a target, and how.

    Attributes (class-level):
        name: human-readable strategy name (CLI / docs / errors).
        scheme: the scheme stamped on produced fingerprints.
        cost_rank: resolution order — the registry asks strategies in
            ascending rank and the first that ``supports`` the target
            wins, so cheaper/stronger identities shadow weaker ones.
    """

    name: str = "?"
    scheme: str = "?"
    cost_rank: int = 100

    @abstractmethod
    def supports(self, target) -> bool:
        """Whether this strategy can fingerprint ``target``."""

    @abstractmethod
    def fingerprint(self, target, ctx: FingerprintContext) -> OracleFingerprint:
        """Fingerprint a supported ``target`` (never charges oracle queries)."""


class TruthTableFingerprinter(Fingerprinter):
    """Exact functional identity: a digest of the full truth table.

    Canonical — any two representations of the same function collide —
    but exponential in width, so :meth:`supports` caps at
    ``width_limit`` lines.
    """

    name = "truth-table"
    scheme = "exact"
    cost_rank = 10

    def __init__(self, width_limit: int = FUNCTIONAL_WIDTH_LIMIT) -> None:
        if width_limit <= 0:
            raise FingerprintError(
                f"width limit must be positive, got {width_limit}"
            )
        self.width_limit = width_limit

    def supports(self, target) -> bool:
        width = _width(target)
        return width is not None and width <= self.width_limit

    def _table(self, target) -> list[int]:
        if isinstance(target, Permutation):
            return list(target.mapping)
        if isinstance(target, ReversibleCircuit):
            return target.truth_table()
        if isinstance(target, QuantumCircuitOracle):
            return list(target.permutation.mapping)
        # Any classical oracle, opaque or not: white-box tabulation without
        # charging queries; evaluate_many keeps circuit-backed oracles on
        # the bitsliced path.
        return target.evaluate_many(range(1 << target.num_lines))

    def fingerprint(self, target, ctx: FingerprintContext) -> OracleFingerprint:
        table = self._table(target)
        return OracleFingerprint(
            num_lines=_width(target),
            kind="function",
            digest=_digest("tt:" + ",".join(str(value) for value in table)),
            with_inverse=ctx.with_inverse,
            scheme=self.scheme,
        )


class SampledProbeFingerprinter(Fingerprinter):
    """Width-independent identity: a digest of outputs on a fixed probe set.

    The probe set (:func:`probe_inputs`) depends only on the bit width,
    the salt and the probe count, so the digest is canonical across
    representations of the same function — including *opaque* oracles,
    which are evaluated through their white-box
    :meth:`~repro.oracles.oracle.ReversibleOracle.evaluate_many` hatch so
    fingerprinting stays free under the query-complexity accounting **and**
    bounded by the probe budget at every width: an opaque 16-line oracle
    costs ``probe_count`` evaluations, never a ``2**16``-entry tabulation
    (the ``peek_table`` cost cliff).  The whole probe set is evaluated in
    one batched call — bitsliced for circuit-backed targets — and batching
    is digest-invariant: the differential fingerprint tests hold the
    digests to a scalar ``simulate``/``peek`` loop, so ``v2|`` cache keys
    never fork on the evaluation strategy.
    The probe count bounds the work per fingerprint (the "probe budget");
    distinctness is probabilistic, as documented in ``docs/cache-keys.md``.
    """

    name = "sampled-probe"
    scheme = "probe"
    cost_rank = 20

    def __init__(
        self,
        probe_count: int = DEFAULT_PROBE_COUNT,
        salt: str = PROBE_SALT,
    ) -> None:
        if probe_count <= 0:
            raise FingerprintError(
                f"probe count must be positive, got {probe_count}"
            )
        self.probe_count = probe_count
        self.salt = salt

    def supports(self, target) -> bool:
        return _width(target) is not None

    def _outputs(self, target, probes: list[int]) -> list[int]:
        """The target's responses on the probe set, in one batched call."""
        if isinstance(target, Permutation):
            mapping = target.mapping
            return [mapping[value] for value in probes]
        if isinstance(target, ReversibleCircuit):
            return bitslice.simulate_many(target, probes)
        if isinstance(target, QuantumCircuitOracle):
            mapping = target.permutation.mapping
            return [mapping[value] for value in probes]
        return target.evaluate_many(probes)

    def fingerprint(self, target, ctx: FingerprintContext) -> OracleFingerprint:
        width = _width(target)
        outputs = self._outputs(
            target, probe_inputs(width, self.probe_count, self.salt)
        )
        payload = (
            f"probe:{self.salt}:{self.probe_count}:"
            + ",".join(str(value) for value in outputs)
        )
        return OracleFingerprint(
            num_lines=width,
            kind="probe",
            digest=_digest(payload),
            with_inverse=ctx.with_inverse,
            scheme=self.scheme,
        )


class StructureFingerprinter(Fingerprinter):
    """Last-resort structural identity: a digest of the gate cascade.

    Width-independent and free, but functionally equal circuits with
    different gates get different fingerprints — a cache miss, never a
    wrong hit.  Only circuits (and circuit-backed oracles) have structure
    to digest.
    """

    name = "structure"
    scheme = "structure"
    cost_rank = 30

    def supports(self, target) -> bool:
        return isinstance(target, (ReversibleCircuit, CircuitOracle))

    def fingerprint(self, target, ctx: FingerprintContext) -> OracleFingerprint:
        circuit = target.circuit if isinstance(target, CircuitOracle) else target
        payload = "gates:" + ";".join(repr(gate) for gate in circuit.gates)
        return OracleFingerprint(
            num_lines=circuit.num_lines,
            kind="structure",
            digest=_digest(payload),
            with_inverse=ctx.with_inverse,
            scheme=self.scheme,
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class FingerprintRegistry:
    """An ordered collection of strategies resolving targets to identities.

    Resolution walks the registered strategies in ascending
    :attr:`~Fingerprinter.cost_rank` and uses the first whose
    :meth:`~Fingerprinter.supports` accepts the target — the same
    capability-registry shape :class:`repro.core.registry.MatcherRegistry`
    gave matcher dispatch.
    """

    def __init__(self, fingerprinters: tuple[Fingerprinter, ...] = ()) -> None:
        self._fingerprinters: list[Fingerprinter] = []
        for fingerprinter in fingerprinters:
            self.register(fingerprinter)

    def register(self, fingerprinter: Fingerprinter) -> Fingerprinter:
        """Add a strategy, keeping the collection sorted by cost rank."""
        self._fingerprinters.append(fingerprinter)
        self._fingerprinters.sort(key=lambda entry: entry.cost_rank)
        return fingerprinter

    @property
    def fingerprinters(self) -> tuple[Fingerprinter, ...]:
        """The registered strategies in resolution order."""
        return tuple(self._fingerprinters)

    def resolve(self, target) -> Fingerprinter:
        """The strategy that will fingerprint ``target``.

        Raises:
            FingerprintError: when no registered strategy supports it
                (e.g. an opaque wide oracle under the ``exact`` scheme).
        """
        for fingerprinter in self._fingerprinters:
            if fingerprinter.supports(target):
                return fingerprinter
        tried = ", ".join(f.name for f in self._fingerprinters) or "none"
        width = _width(target)
        what = (
            f"a {width}-line {type(target).__name__}"
            if width is not None
            else f"a {type(target).__name__}"
        )
        raise FingerprintError(
            f"cannot fingerprint {what} (strategies tried: {tried})"
        )

    def fingerprint(
        self, target, *, with_inverse: bool = False
    ) -> OracleFingerprint:
        """Fingerprint a circuit, permutation or oracle.

        Pre-built oracles contribute their own inverse availability; raw
        circuits and permutations take the ``with_inverse`` argument
        (mirroring how the engine coerces them).  Quantum oracles have no
        inverse access by construction.
        """
        if isinstance(target, ReversibleOracle):
            with_inverse = target.has_inverse
        elif isinstance(target, QuantumCircuitOracle):
            with_inverse = False
        strategy = self.resolve(target)
        return strategy.fingerprint(
            target, FingerprintContext(with_inverse=with_inverse)
        )


def build_registry(
    scheme: str = "auto",
    *,
    probe_count: int = DEFAULT_PROBE_COUNT,
    width_limit: int = FUNCTIONAL_WIDTH_LIMIT,
    salt: str = PROBE_SALT,
) -> FingerprintRegistry:
    """The standard registry for one of the :data:`FINGERPRINT_SCHEMES`.

    * ``auto`` — exact up to ``width_limit`` lines, sampled probes
      beyond, structure as the last resort (``probe_count=0`` disables
      the probe tier, restoring the v1 exact-then-structure behaviour).
    * ``exact`` — exact up to the limit, structure beyond; opaque wide
      oracles are unfingerprintable (bypass the cache).
    * ``probe`` — sampled probes at every width.
    """
    if scheme == "exact":
        strategies: tuple[Fingerprinter, ...] = (
            TruthTableFingerprinter(width_limit),
            StructureFingerprinter(),
        )
    elif scheme == "probe":
        strategies = (SampledProbeFingerprinter(probe_count, salt),)
    elif scheme == "auto":
        strategies = (TruthTableFingerprinter(width_limit),)
        if probe_count > 0:
            strategies += (SampledProbeFingerprinter(probe_count, salt),)
        strategies += (StructureFingerprinter(),)
    else:
        raise FingerprintError(
            f"unknown fingerprint scheme {scheme!r}; "
            f"known: {', '.join(FINGERPRINT_SCHEMES)}"
        )
    return FingerprintRegistry(strategies)


def registry_for_config(
    config: MatchingConfig, width_limit: int = FUNCTIONAL_WIDTH_LIMIT
) -> FingerprintRegistry:
    """A fresh registry describing a config's fingerprint knobs.

    Every call builds a new registry (three tiny objects — far cheaper
    than any digest it will compute), so a caller that ``register``\\ s a
    custom strategy on its copy can never mutate cache-key policy for
    other services or a running daemon in the same process.
    """
    return build_registry(
        config.fingerprint_scheme,
        probe_count=config.probe_count,
        width_limit=width_limit,
    )


def default_registry() -> FingerprintRegistry:
    """A fresh ``auto`` registry with default knobs."""
    return build_registry("auto")


def fingerprint(
    target,
    *,
    with_inverse: bool = False,
    width_limit: int = FUNCTIONAL_WIDTH_LIMIT,
    registry: FingerprintRegistry | None = None,
) -> OracleFingerprint:
    """Fingerprint a circuit, permutation or oracle (module-level wrapper).

    Delegates to ``registry`` (default: a fresh ``auto``-mode registry
    honouring ``width_limit``).  Kept for the many call sites that need
    one fingerprint without holding a registry.

    Raises:
        FingerprintError: when no strategy supports the target.
    """
    if registry is None:
        registry = build_registry("auto", width_limit=width_limit)
    return registry.fingerprint(target, with_inverse=with_inverse)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------
def config_digest(config: MatchingConfig) -> str:
    """Digest of the policy knobs that can change a matching result.

    Derived from the *sorted, complete* ``dataclasses.asdict`` dump of the
    config — a new ``MatchingConfig`` field can never be silently omitted
    from the cache key — and version-prefixed alongside the v2 pair key.
    """
    payload = json.dumps(asdict(config), sort_keys=True)
    return _digest(f"cfg/{KEY_VERSION}:" + payload)[:16]


def pair_key(
    fp1: OracleFingerprint,
    fp2: OracleFingerprint,
    equivalence: EquivalenceType,
    config: MatchingConfig,
) -> str:
    """The versioned cache key for one matched pair under one policy.

    Contract (``docs/cache-keys.md``): a cached result may be replayed
    exactly when the key version, the two hidden functions (as seen by
    the configured fingerprint scheme), their inverse availability, the
    promised class and every policy knob of the config coincide.  The
    engine seed is deliberately *not* part of the key — any seed's
    witnesses are valid witnesses, so replays trade bitwise RNG
    reproducibility for hits (run with a cold cache when auditing
    determinism).
    """
    return (
        f"{KEY_PREFIX}{equivalence.label}|{fp1.key}|{fp2.key}|"
        f"{config_digest(config)}"
    )


def pair_key_schemes(key: str) -> tuple[str, str] | None:
    """The two fingerprint schemes recorded in a v2 pair key.

    Returns ``None`` for v1 or otherwise foreign keys — the hook cache
    statistics use to attribute hits per scheme without re-fingerprinting
    anything.
    """
    if not key.startswith(KEY_PREFIX):
        return None
    parts = key.split("|")
    if len(parts) != 5:
        return None
    schemes = []
    for fragment in parts[2:4]:
        fields = fragment.split(":")
        if len(fields) != 6 or not fields[0].startswith("fp/"):
            return None
        schemes.append(fields[2])
    return schemes[0], schemes[1]


def scheme_label(key: str) -> str:
    """A per-scheme counter label for a pair key (``"unversioned"`` for v1)."""
    schemes = pair_key_schemes(key)
    if schemes is None:
        return "unversioned"
    first, second = schemes
    return first if first == second else f"{first}+{second}"

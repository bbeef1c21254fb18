"""Command-line interface.

Eighteen sub-commands cover the workflows a user of the library
reaches for most often without writing Python:

* ``repro info CIRCUIT.real`` — line/gate counts, cost metrics and an ASCII
  drawing of a circuit file;
* ``repro match C1.real C2.real --equivalence NP-I`` — run the Boolean
  matcher of a tractable class and print the witnesses;
* ``repro match-many MANIFEST`` — batch matching over a manifest of circuit
  pairs through :meth:`~repro.core.MatchingEngine.match_many`, printing the
  per-pair table and aggregate query totals of the
  :class:`~repro.core.BatchReport`;
* ``repro decide C1.real C2.real --equivalence NP-I`` — the non-promise
  decision (match + validate);
* ``repro synth --permutation 0,3,1,2 [--output out.real]`` — synthesise an
  MCT circuit for an explicitly given permutation;
* ``repro corpus OUT_DIR`` — generate a workload corpus (circuit files +
  ``manifest.json``) across equivalence classes and problem families;
* ``repro run MANIFEST`` — execute a corpus manifest through the
  streaming :class:`~repro.service.MatchingService` pipeline, with
  ``--cache``/``--cache-dir`` (result reuse across pairs and runs),
  ``--resume`` (skip pairs already in the JSONL result store),
  ``--shard i/n`` (run one deterministic partition of the manifest, the
  way to scale a run out), ``--progress`` (a progress line per N
  finished pairs),
  ``--events`` (JSONL lifecycle-event log), ``--metrics`` (write a
  ``repro-metrics/v1`` snapshot of the run's counters) and ``--trace``
  (JSONL span log following each pair through the pipeline);
* ``repro merge`` — union the result stores of shard runs into one store,
  byte-identical to an unsharded run of the same manifest;
* ``repro fingerprint C1.real [C2.real]`` — print the oracle-identity
  scheme, fingerprint key and (for a pair) the full versioned cache key:
  the debugging tool for "why was this a cache miss?";
* ``repro cache migrate`` — inventory a disk result cache across key
  versions and (``--drop-v1``) reclaim entries stranded by a key-contract
  bump;
* ``repro cache-server`` — serve a shared result cache over the
  ``repro-cache/v1`` protocol of ``docs/remote-cache.md``; runs mount it
  behind their local tiers with ``--remote-cache ADDR``;
* ``repro serve`` — run the long-lived matching daemon (one process and
  shared result cache across many submissions) on a Unix or TCP
  socket, speaking the ``repro-daemon/v1`` protocol of ``docs/protocol.md``;
* ``repro submit`` — submit a corpus manifest (or ad-hoc ``--pair``\\ s) to
  a running daemon, optionally waiting with the same ``--progress`` /
  ``--events`` observers as ``repro run``;
* ``repro watch`` — subscribe to a daemon run's live event stream;
* ``repro daemon`` — daemon administration (``ping`` / ``status`` /
  ``stats`` / ``metrics`` / ``cancel`` / ``shutdown``);
* ``repro fleet`` — cross-host sharded runs: ``run`` dispatches one
  shard of a manifest to each healthy ``--peer`` daemon, watches the
  event streams, reassigns dead/hung workers and merges the shard
  stores byte-identically to a serial run (``docs/fleet.md``);
  ``peers``/``status`` probe the registered workers;
* ``repro report`` — scan a tree of JSONL result stores and print
  per-run summaries plus cross-run trends (``docs/observability.md``);
* ``repro lint`` — run the project's static invariant checks
  (``docs/lint.md``).

Matching commands accept ``--no-quantum`` (forbid the simulated quantum
matchers) and ``--budget N`` (hard oracle query budget).  Circuit files may
be RevLib ``.real`` or OpenQASM (chosen by extension).  The module is
importable (``python -m repro ...``) and also exposed through the ``repro``
console script.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.circuits import drawing, metrics
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.io import load_circuit, save_circuit
from repro.circuits.permutation import Permutation
from repro.core import (
    EquivalenceType,
    MatchingConfig,
    MatchingEngine,
    verify_match,
)
from repro.core.decision import decide
from repro.exceptions import DaemonError, ReproError
from repro.service.daemon import DaemonClient, MatchingDaemon, RunState
from repro.service.events import (
    EventLogObserver,
    ProgressObserver,
    RunCompleted,
)
from repro.service.executor import SerialExecutor
from repro.service.fingerprint import (
    FINGERPRINT_SCHEMES,
    pair_key,
    registry_for_config,
)
from repro.service.pipeline import MatchingService, merge_stores, parse_shard
from repro.service.workload import (
    DEFAULT_FAMILIES,
    MANIFEST_NAME,
    generate_corpus,
    tractable_classes,
)
from repro.service.cache import build_cache, migrate_cache
from repro.synthesis import synthesize
from repro.version import __version__

__all__ = ["main", "build_parser"]


def _format_witnesses(result) -> str:
    lines = []
    if result.nu_x is not None:
        lines.append("nu_x = " + "".join("1" if b else "0" for b in result.nu_x))
    if result.pi_x is not None:
        lines.append(f"pi_x = {list(result.pi_x.mapping)}")
    if result.nu_y is not None:
        lines.append("nu_y = " + "".join("1" if b else "0" for b in result.nu_y))
    if result.pi_y is not None:
        lines.append(f"pi_y = {list(result.pi_y.mapping)}")
    lines.append(f"classical queries = {result.queries}")
    if result.quantum_queries:
        lines.append(f"quantum queries  = {result.quantum_queries}")
        lines.append(f"swap tests       = {result.swap_tests}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sub-command handlers
# ---------------------------------------------------------------------------
def _cmd_info(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    report = metrics.metrics(circuit)
    print(f"circuit : {circuit.name or args.circuit}")
    for key, value in report.as_dict().items():
        print(f"{key:13s}: {value}")
    counts = circuit.gate_counts()
    if counts:
        print("gate histogram:", ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    if args.draw:
        print()
        print(drawing.draw(circuit, ascii_only=args.ascii))
    return 0


def _engine_from_args(args: argparse.Namespace) -> MatchingEngine:
    """Build a configured engine from the shared matching flags."""
    return MatchingEngine(
        MatchingConfig(
            epsilon=args.epsilon,
            allow_quantum=not args.no_quantum,
            with_inverse=getattr(args, "with_inverse", False),
            max_queries=getattr(args, "budget", None),
        )
    )


def _cmd_match(args: argparse.Namespace) -> int:
    c1 = load_circuit(args.circuit1)
    c2 = load_circuit(args.circuit2)
    equivalence = EquivalenceType.from_label(args.equivalence)
    engine = _engine_from_args(args)
    result = engine.match(c1, c2, equivalence, rng=args.seed)
    print(f"equivalence : {equivalence.label}")
    print(_format_witnesses(result))
    if args.verify:
        ok = verify_match(c1, c2, equivalence, result)
        print(f"verified    : {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def _read_manifest(
    path: str, default_equivalence: str
) -> list[tuple[str, str, str]]:
    """Parse a match-many manifest: ``C1 C2 [EQUIVALENCE]`` per line.

    Blank lines and ``#`` comments are skipped; the default class applies to
    two-column lines.
    """
    rows: list[tuple[str, str, str]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) == 2:
                label = default_equivalence
            elif len(fields) == 3:
                label = fields[2]
            else:
                raise ReproError(
                    f"{path}:{lineno}: expected 'C1 C2 [EQUIVALENCE]', got "
                    f"{len(fields)} fields"
                )
            try:
                EquivalenceType.from_label(label)
            except ValueError as error:
                raise ReproError(f"{path}:{lineno}: {error}") from None
            rows.append((fields[0], fields[1], label))
    if not rows:
        raise ReproError(f"{path}: manifest lists no circuit pairs")
    return rows


def _cmd_match_many(args: argparse.Namespace) -> int:
    rows = _read_manifest(args.manifest, args.equivalence)
    # Load each distinct file once so the engine's coercion cache (keyed by
    # object identity) is shared across every pair the circuit appears in.
    circuits: dict[str, ReversibleCircuit] = {}
    for path1, path2, _ in rows:
        for path in (path1, path2):
            if path not in circuits:
                circuits[path] = load_circuit(path)
    pairs = [
        (circuits[path1], circuits[path2], label) for path1, path2, label in rows
    ]
    engine = _engine_from_args(args)
    report = engine.match_many(pairs, rng=args.seed)
    print(report.to_table(title=f"batch of {report.num_pairs} pairs"))
    print()
    print(report.summary())
    return 0 if report.num_failed == 0 else 1


def _cmd_decide(args: argparse.Namespace) -> int:
    c1 = load_circuit(args.circuit1)
    c2 = load_circuit(args.circuit2)
    outcome = decide(
        c1,
        c2,
        args.equivalence,
        epsilon=args.epsilon,
        rng=args.seed,
        allow_quantum=not args.no_quantum,
        allow_brute_force=args.brute_force,
    )
    print(f"equivalent: {'yes' if outcome.equivalent else 'no'}")
    if outcome.equivalent and outcome.result is not None:
        print(_format_witnesses(outcome.result))
    return 0 if outcome.equivalent else 1


def _parse_classes(spec: str):
    """Parse the --classes value: 'tractable', 'all' or a CSV of labels."""
    if spec == "tractable":
        return tractable_classes()
    if spec == "all":
        return tuple(EquivalenceType)
    try:
        return tuple(
            EquivalenceType.from_label(label) for label in spec.split(",") if label
        )
    except ValueError as error:
        raise ReproError(str(error)) from None


def _cmd_corpus(args: argparse.Namespace) -> int:
    families = tuple(name for name in args.families.split(",") if name)
    manifest = generate_corpus(
        args.out_dir,
        num_lines=args.num_lines,
        classes=_parse_classes(args.classes),
        families=families,
        pairs_per_class=args.pairs_per_class,
        seed=args.seed,
    )
    # Entries record what was actually built: the wide family ignores
    # --num-lines and skips classes it cannot generate, so the summary
    # counts generated cells, not requested ones.
    widths = sorted({entry.num_lines for entry in manifest.entries})
    if not widths:  # e.g. wide family crossed with only non-wide classes
        width_text = str(manifest.num_lines)
    elif len(widths) == 1:
        width_text = str(widths[0])
    else:
        width_text = f"{widths[0]}-{widths[-1]}"
    generated_classes = {entry.equivalence for entry in manifest.entries}
    print(
        f"generated {len(manifest.entries)} pairs "
        f"({len(generated_classes)} classes x "
        f"{len(manifest.families)} families "
        f"x {args.pairs_per_class}) on {width_text} lines, "
        f"seed {manifest.seed}"
    )
    print(f"manifest: {args.out_dir}/{MANIFEST_NAME}")
    return 0


def _resolve_seed(seed: int | None, continuing: str | None = None) -> int:
    """The run seed: ``seed`` itself, or a fresh one printed on stderr.

    A run without ``--seed`` still draws every swap test from a seed.  It
    is printed before the run starts, so an interrupted run can be resumed
    with it and a finished one replayed.  ``continuing`` names the flag
    (``--resume``, ``--shard``) that makes the invocation continue an
    earlier run: a freshly drawn seed would then mix two seeds in one
    (merged) store, so it is refused instead.
    """
    if seed is not None:
        return seed
    if continuing is not None:
        raise ReproError(
            f"{continuing} requires the --seed of the run it continues "
            "(an unseeded run prints it as 'seed: N' when it starts)"
        )
    seed = random.SystemRandom().getrandbits(32)  # repro: allow[det-unseeded-random]
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _cmd_run(args: argparse.Namespace) -> int:
    shard = parse_shard(args.shard) if args.shard is not None else None
    seed = _resolve_seed(
        args.seed,
        "--resume" if args.resume else "--shard" if shard is not None else None,
    )
    if args.no_cache:
        if args.remote_cache is not None:
            raise ReproError(
                "--remote-cache rides behind the local cache tiers; "
                "drop --no-cache to use it"
            )
        cache = None
    else:
        if args.cache_size <= 0:
            raise ReproError(
                f"--cache-size must be positive, got {args.cache_size} "
                "(use --no-cache to disable caching)"
            )
        remote_token = None
        if args.auth_token_file is not None:
            remote_token = _read_token_file(args.auth_token_file)
        cache = build_cache(
            memory_size=args.cache_size,
            disk_dir=args.cache_dir,
            remote=args.remote_cache,
            remote_auth_token=remote_token,
        )
    metrics = None
    if args.metrics is not None:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        if cache is not None:
            cache.bind_metrics(metrics)
    tracer = None
    if args.trace is not None:
        from repro.obs.trace import Tracer

        tracer = Tracer(args.trace)
    observers, event_log = _watch_observers(args)
    service = MatchingService(
        MatchingConfig(
            epsilon=args.epsilon,
            allow_quantum=not args.no_quantum,
            with_inverse=args.with_inverse,
            max_queries=args.budget,
            fingerprint_scheme=args.fingerprint,
            probe_count=args.probe_count,
        ),
        executor=SerialExecutor(metrics=metrics),
        cache=cache,
        verify=args.verify,
        observers=observers,
        metrics=metrics,
        tracer=tracer,
    )
    try:
        report = service.run_manifest(
            args.manifest,
            store_path=args.store,
            resume=args.resume,
            seed=seed,
            shard=shard,
        )
    finally:
        if event_log is not None:
            event_log.close()
        if tracer is not None:
            tracer.close()
        # Written in the cleanup path on purpose: an interrupted run's
        # counters are exactly what a post-mortem wants to see.
        if metrics is not None:
            metrics.write_json(args.metrics)
    print(report.to_table(title=f"service run of {report.total} pairs"))
    print()
    print(report.summary())
    if args.store:
        print(f"store: {args.store}")
    if args.metrics:
        print(f"metrics: {args.metrics}")
    if args.trace:
        print(f"trace: {args.trace}")
    return 0 if report.failed == 0 else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report, report_to_json, scan_results

    summaries = scan_results(
        args.results_root, use_cache=not args.no_cache_file
    )
    if args.json:
        print(json.dumps(report_to_json(summaries), indent=2, sort_keys=True))
    else:
        print(render_report(summaries))
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    count = merge_stores(args.output, args.stores)
    print(
        f"merged {count} records from {len(args.stores)} "
        f"store{'s' if len(args.stores) != 1 else ''} into {args.output}"
    )
    return 0


# ---------------------------------------------------------------------------
# Daemon commands
# ---------------------------------------------------------------------------
def _read_token_file(path: str) -> str:
    """The shared secret from an --auth-token-file, stripped."""
    try:
        token = Path(path).read_text(encoding="utf-8").strip()
    except OSError as error:
        raise ReproError(f"cannot read --auth-token-file: {error}") from None
    if not token:
        raise ReproError(f"--auth-token-file {path} holds no token")
    return token


def _daemon_client(args: argparse.Namespace) -> DaemonClient:
    """Build a client from the shared daemon-address flags."""
    token = None
    if getattr(args, "auth_token_file", None) is not None:
        token = _read_token_file(args.auth_token_file)
    if args.socket is not None:
        return DaemonClient(
            socket_path=args.socket, timeout=args.timeout, auth_token=token
        )
    if args.host is not None:
        if args.port is None:
            raise ReproError("--host needs --port")
        return DaemonClient(
            host=args.host, port=args.port, timeout=args.timeout,
            auth_token=token,
        )
    if args.address_file is not None:
        try:
            address = Path(args.address_file).read_text(encoding="utf-8").strip()
        except OSError as error:
            raise ReproError(f"cannot read --address-file: {error}") from None
        return DaemonClient.from_address(
            address, timeout=args.timeout, auth_token=token
        )
    raise ReproError(
        "name the daemon with --socket PATH, --host/--port, or --address-file"
    )


def _watch_observers(args: argparse.Namespace) -> tuple[list, EventLogObserver | None]:
    """The observers a waiting submit/watch wires up, like ``repro run``."""
    observers: list = []
    event_log = None
    if args.progress is not None:
        if args.progress <= 0:
            raise ReproError(
                f"--progress cadence must be positive, got {args.progress}"
            )
        observers.append(ProgressObserver(every=args.progress))
    if args.events is not None:
        event_log = EventLogObserver(args.events)
        observers.append(event_log)
    return observers, event_log


class _FinalReport:
    """Observer capturing the run's RunCompleted aggregate.

    The exit code must count *every* failed pair, including ones served
    from the cache or the store (those arrive as ``CacheHit`` events, so
    tallying ``TaskFailed`` events would under-count) — the summary on
    ``RunCompleted`` is the authoritative total, same as ``repro run``.
    """

    def __init__(self) -> None:
        self.failed: int | None = None

    def notify(self, event) -> None:
        if isinstance(event, RunCompleted):
            self.failed = event.report.failed


def _watch_run(client: DaemonClient, run_id: str, args: argparse.Namespace) -> int:
    """Subscribe to a run, forward events to observers, map state to exit code."""
    observers, event_log = _watch_observers(args)
    final = _FinalReport()
    observers.append(final)
    try:
        state = client.watch(
            run_id, observers, replay=not getattr(args, "no_replay", False)
        )
    finally:
        if event_log is not None:
            event_log.close()
    if final.failed is None and state == RunState.COMPLETED:
        # --no-replay on an already-finished run delivers no events; the
        # authoritative failure count then comes from a status probe.
        final.failed = client.status(run_id)["run"]["summary"]["failed"]
    print(f"{run_id}: {state}")
    if state == RunState.COMPLETED and final.failed == 0:
        return 0
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.no_cache:
        cache = None
    else:
        if args.cache_size <= 0:
            raise ReproError(
                f"--cache-size must be positive, got {args.cache_size} "
                "(use --no-cache to disable caching)"
            )
        cache = build_cache(
            memory_size=args.cache_size,
            disk_dir=args.cache_dir,
        )
    if args.socket is None and args.host is None:
        args.socket = str(Path(args.store_dir) / "daemon.sock")
    token = None
    if args.auth_token_file is not None:
        token = _read_token_file(args.auth_token_file)
    daemon = MatchingDaemon(
        MatchingConfig(
            epsilon=args.epsilon,
            allow_quantum=not args.no_quantum,
            with_inverse=args.with_inverse,
            max_queries=args.budget,
            fingerprint_scheme=args.fingerprint,
            probe_count=args.probe_count,
        ),
        store_dir=args.store_dir,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        cache=cache,
        verify=args.verify,
        max_queued=args.max_queued,
        auth_token=token,
        insecure=args.insecure,
        remote_cache=args.remote_cache,
    )
    daemon.start()
    print(f"listening on {daemon.address} (store dir: {daemon.store_dir})")
    if args.address_file is not None:
        Path(args.address_file).write_text(daemon.address + "\n", encoding="utf-8")
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        daemon.stop()
    print("daemon stopped")
    return 0


def _cmd_cache_server(args: argparse.Namespace) -> int:
    from repro.cachenet import CacheServer

    if args.cache_size <= 0:
        raise ReproError(
            f"--cache-size must be positive, got {args.cache_size}"
        )
    cache = build_cache(memory_size=args.cache_size, disk_dir=args.cache_dir)
    token = None
    if args.auth_token_file is not None:
        token = _read_token_file(args.auth_token_file)
    if args.socket is None and args.host is None:
        args.socket = str(
            Path(args.cache_dir) / "cache.sock"
            if args.cache_dir
            else Path("cache.sock")
        )
    server = CacheServer(
        cache,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        auth_token=token,
        insecure=args.insecure,
    )
    server.start()
    print(f"cache server listening on {server.address}")
    if args.address_file is not None:
        Path(args.address_file).write_text(server.address + "\n", encoding="utf-8")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        server.stop()
    print("cache server stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    if (args.manifest is None) == (not args.pair):
        raise ReproError("submit needs a MANIFEST or at least one --pair (not both)")
    if args.resume and args.store is None:
        raise ReproError(
            "--resume requires --store PATH (each submission otherwise gets "
            "a fresh store, leaving nothing to resume from)"
        )
    pairs = None
    if args.pair:
        for _, _, label in args.pair:
            try:
                EquivalenceType.from_label(label)  # fail client-side
            except ValueError as error:
                raise ReproError(str(error)) from None
        pairs = [
            {"circuit1": c1, "circuit2": c2, "equivalence": label}
            for c1, c2, label in args.pair
        ]
    seed = _resolve_seed(args.seed, "--resume" if args.resume else None)
    with _daemon_client(args) as client:
        ack = client.submit(
            args.manifest,
            pairs=pairs,
            seed=seed,
            resume=args.resume,
            store=args.store,
        )
        run_id = ack["run_id"]
        print(f"submitted {run_id} (store: {ack['store']})")
        if not (args.wait or args.progress is not None or args.events is not None):
            return 0
        return _watch_run(client, run_id, args)


def _cmd_watch(args: argparse.Namespace) -> int:
    with _daemon_client(args) as client:
        return _watch_run(client, args.run_id, args)


def _cmd_daemon(args: argparse.Namespace) -> int:
    if args.action == "cancel" and args.run_id is None:
        raise ReproError("cancel needs a RUN_ID")
    with _daemon_client(args) as client:
        if args.action == "ping":
            response = client.ping()
        elif args.action == "status":
            response = client.status(args.run_id)
        elif args.action == "stats":
            response = client.stats()
        elif args.action == "metrics":
            response = client.metrics()
        elif args.action == "cancel":
            response = client.cancel(args.run_id)
        else:  # shutdown (argparse restricts the choices)
            response = client.shutdown()
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _fleet_coordinator(args: argparse.Namespace, observers, metrics):
    from repro.fleet import FleetCoordinator

    if not args.peer:
        raise ReproError("fleet needs at least one --peer HOST:PORT")
    token = None
    if args.auth_token_file is not None:
        token = _read_token_file(args.auth_token_file)
    return FleetCoordinator(
        args.peer,
        work_dir=args.work_dir,
        auth_token=token,
        observers=observers,
        metrics=metrics,
        heartbeat_s=args.heartbeat,
        hang_timeout_s=args.hang_timeout,
        max_attempts=args.max_attempts,
        timeout=args.timeout,
        remote_cache=args.remote_cache,
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.action != "run":
        # peers: one health probe per registered worker.  status: the
        # probes plus each healthy worker's stats frame, as one JSON doc.
        coordinator = _fleet_coordinator(args, [], None)
        probes = coordinator.check_peers()
        if args.action == "peers":
            for probe in probes:
                state = "healthy" if probe["healthy"] else (
                    f"unhealthy ({probe.get('error', probe['reason'])})"
                )
                print(f"{probe['address']}: {state}")
        else:
            token = None
            if args.auth_token_file is not None:
                token = _read_token_file(args.auth_token_file)
            for probe in probes:
                if not probe["healthy"]:
                    continue
                with DaemonClient.from_address(
                    probe["address"], timeout=args.timeout, auth_token=token
                ) as client:
                    frame = client.stats()
                    probe["stats"] = {
                        key: frame[key]
                        for key in (
                            "executor", "runs", "pairs", "cache", "uptime"
                        )
                        if key in frame
                    }
            print(json.dumps({"peers": probes}, indent=2, sort_keys=True))
        return 0 if all(probe["healthy"] for probe in probes) else 1

    if args.manifest is None:
        raise ReproError("fleet run needs a MANIFEST")
    observers, event_log = _watch_observers(args)
    metrics = None
    if args.metrics is not None:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    coordinator = _fleet_coordinator(args, observers, metrics)
    seed = _resolve_seed(args.seed)
    try:
        report = coordinator.run(args.manifest, seed=seed, output=args.output)
    finally:
        if event_log is not None:
            event_log.close()
        if metrics is not None:
            metrics.write_json(args.metrics)
    for shard in report.shards:
        moved = (
            f" (reassigned from {', '.join(shard.reassigned_from)})"
            if shard.reassigned_from
            else ""
        )
        print(
            f"shard {shard.index}/{shard.count}: {len(shard.settled)} pairs "
            f"on {shard.peer} as {shard.remote_run_id}{moved}"
        )
    print(report.summary())
    if args.metrics:
        print(f"metrics: {args.metrics}")
    return 0 if report.failed == 0 else 1


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    config = MatchingConfig(
        epsilon=args.epsilon,
        allow_quantum=not args.no_quantum,
        with_inverse=args.with_inverse,
        max_queries=args.budget,
        fingerprint_scheme=args.fingerprint,
        probe_count=args.probe_count,
    )
    registry = registry_for_config(config)
    paths = [args.circuit1] + ([args.circuit2] if args.circuit2 else [])
    fingerprints = []
    for path in paths:
        circuit = load_circuit(path)
        strategy = registry.resolve(circuit)
        fp = registry.fingerprint(circuit, with_inverse=config.with_inverse)
        print(f"{path}:")
        print(f"  lines  : {fp.num_lines}")
        print(f"  scheme : {fp.scheme} ({strategy.name})")
        print(f"  key    : {fp.key}")
        fingerprints.append(fp)
    if len(fingerprints) == 2:
        equivalence = EquivalenceType.from_label(args.equivalence)
        key = pair_key(fingerprints[0], fingerprints[1], equivalence, config)
        print(f"pair key : {key}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    # argparse restricts `action` to "migrate"; the sub-command keeps the
    # action slot so future maintenance verbs (gc, stats) slot in.
    if args.remote is not None:
        raise ReproError(
            "cache migrate cannot run against a remote cache server: the "
            "repro-cache/v1 wire protocol moves records, not key versions, "
            "and migrating entries out from under a live server would race "
            "its writers.  Stop the server and run 'repro cache migrate "
            "--cache-dir DIR' on its host against the same directory."
        )
    counts = migrate_cache(args.cache_dir, drop_v1=args.drop_v1)
    print(
        f"{args.cache_dir}: {counts['v2']} current (v2) entries, "
        f"{counts['v1']} stale v1, {counts['unreadable']} unreadable"
    )
    if args.drop_v1:
        print(f"dropped {counts['dropped']} stale entries")
    elif counts["v1"] or counts["unreadable"]:
        print("re-run with --drop-v1 to delete the stale entries")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    mapping = [int(token) for token in args.permutation.split(",")]
    circuit = synthesize(
        Permutation(mapping), bidirectional=not args.basic, name="synthesized"
    )
    print(f"synthesised {circuit.num_gates} gates on {circuit.num_lines} lines")
    print(drawing.draw(circuit, ascii_only=args.ascii))
    if args.output:
        save_circuit(circuit, args.output)
        print(f"written to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Boolean matching of reversible circuits (DAC 2024 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="inspect a circuit file")
    info.add_argument("circuit", help="path to a .real or .qasm file")
    info.add_argument("--draw", action="store_true", help="print an ASCII drawing")
    info.add_argument("--ascii", action="store_true", help="pure-ASCII glyphs")
    info.set_defaults(handler=_cmd_info)

    def add_matching_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--equivalence", "-e", default="NP-I", help="X-Y class (default NP-I)"
        )
        sub.add_argument("--epsilon", type=float, default=1e-3)
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument(
            "--no-quantum",
            action="store_true",
            help="disallow the simulated quantum matchers",
        )

    def add_matching_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("circuit1", help="path to C1")
        sub.add_argument("circuit2", help="path to C2")
        add_matching_options(sub)

    def add_engine_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--with-inverse",
            action="store_true",
            help="grant the matcher inverse-circuit access (Table 1 left column)",
        )
        sub.add_argument(
            "--budget",
            type=int,
            default=None,
            metavar="N",
            help="hard per-oracle query budget (QueryBudgetExceededError beyond)",
        )

    def add_fingerprint_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--fingerprint",
            choices=FINGERPRINT_SCHEMES,
            default="auto",
            help="oracle-identity scheme cache keys use: auto (exact up "
            "to 14 lines, sampled probes beyond), exact, or probe",
        )
        sub.add_argument(
            "--probe-count", type=int, default=64, metavar="N",
            help="probes per sampled-probe fingerprint (default 64; "
            "0 disables the probe tier in auto mode)",
        )

    matcher = subparsers.add_parser("match", help="run a promise matcher")
    add_matching_arguments(matcher)
    add_engine_arguments(matcher)
    matcher.add_argument(
        "--verify", action="store_true", help="exhaustively verify the witnesses"
    )
    matcher.set_defaults(handler=_cmd_match)

    many = subparsers.add_parser(
        "match-many",
        help="batch matching over a manifest of circuit pairs",
        description=(
            "Each manifest line names 'C1 C2 [EQUIVALENCE]'; blank lines and "
            "# comments are skipped.  Pairs without an explicit class use "
            "--equivalence.  Prints the per-pair BatchReport table plus "
            "aggregate classical/quantum query totals."
        ),
    )
    many.add_argument("manifest", help="path to the circuit-pair manifest")
    add_matching_options(many)
    add_engine_arguments(many)
    many.set_defaults(handler=_cmd_match_many)

    corpus = subparsers.add_parser(
        "corpus",
        help="generate a workload corpus (circuits + manifest.json)",
        description=(
            "Writes circuit pairs and a manifest.json into OUT_DIR, drawn "
            "from the requested problem families (random cascades, library "
            "benchmark functions, adversarial non-equivalent near-misses) "
            "across the requested equivalence classes.  Feed the result to "
            "'repro run'."
        ),
    )
    corpus.add_argument("out_dir", help="directory to create/populate")
    corpus.add_argument("--num-lines", type=int, default=4, metavar="N")
    corpus.add_argument(
        "--classes",
        default="tractable",
        help="'tractable' (default), 'all', or a comma-separated label list",
    )
    corpus.add_argument(
        "--families",
        default=",".join(DEFAULT_FAMILIES),
        help=f"comma-separated families (default {','.join(DEFAULT_FAMILIES)})",
    )
    corpus.add_argument(
        "--pairs-per-class", type=int, default=1, metavar="K",
        help="pairs per (family, class) cell (default 1)",
    )
    corpus.add_argument("--seed", type=int, default=None)
    corpus.set_defaults(handler=_cmd_corpus)

    runner = subparsers.add_parser(
        "run",
        help="execute a corpus manifest through the matching service",
        description=(
            "Runs every pair of a corpus manifest through the cached, "
            "resumable MatchingService pipeline and prints the per-pair "
            "table plus throughput.  Exit code 1 when any pair failed to "
            "match.  Scale out with --shard or 'repro fleet run'."
        ),
    )
    runner.add_argument(
        "manifest", help="path to a manifest.json or a corpus directory"
    )
    runner.add_argument(
        "--store", metavar="PATH",
        help="JSONL result store to stream records to (required for --resume)",
    )
    runner.add_argument(
        "--resume", action="store_true",
        help="skip pairs already present in the store",
    )
    runner.add_argument(
        "--shard", metavar="I/N",
        help="run only the pairs of shard I of N (deterministic partition "
        "by pair id; union the shard stores with 'repro merge')",
    )
    runner.add_argument(
        "--progress", type=int, nargs="?", const=1, default=None, metavar="N",
        help="print a progress line every N finished pairs "
        "(default quiet; bare --progress means every pair)",
    )
    runner.add_argument(
        "--events", metavar="PATH",
        help="append every lifecycle event to a JSONL log file",
    )
    runner.add_argument(
        "--metrics", metavar="PATH",
        help="write a repro-metrics/v1 JSON snapshot of the run's counters",
    )
    runner.add_argument(
        "--trace", metavar="PATH",
        help="append per-stage spans (fingerprint, cache probe, match, "
        "store append) to a JSONL span log",
    )
    runner.add_argument(
        "--no-cache", action="store_true",
        help="disable the in-memory result cache",
    )
    runner.add_argument(
        "--cache-size", type=int, default=4096, metavar="N",
        help="in-memory LRU capacity in results (default 4096)",
    )
    runner.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist the result cache on disk so later runs can reuse it",
    )
    runner.add_argument(
        "--remote-cache", metavar="ADDR",
        help="shared cache server behind the local tiers (unix:<path> or "
        "tcp:<host>:<port>, from 'repro cache-server'); a dead server "
        "degrades to local-only, never fails the run",
    )
    runner.add_argument(
        "--auth-token-file", metavar="PATH",
        help="file holding the --remote-cache server's shared secret",
    )
    runner.add_argument(
        "--verify", action="store_true",
        help="exhaustively verify the witnesses of freshly executed pairs",
    )
    # The promised class per pair comes from the manifest, so `run` takes
    # the matching flags minus --equivalence.
    runner.add_argument("--epsilon", type=float, default=1e-3)
    runner.add_argument(
        "--seed", type=int, default=None,
        help="run seed; when omitted one is drawn, printed and recorded "
        "in the store's run-meta sidecar (--resume and --shard require it)",
    )
    runner.add_argument(
        "--no-quantum",
        action="store_true",
        help="disallow the simulated quantum matchers",
    )
    add_engine_arguments(runner)
    add_fingerprint_arguments(runner)
    runner.set_defaults(handler=_cmd_run)

    merger = subparsers.add_parser(
        "merge",
        help="union shard result stores into one",
        description=(
            "Merges the JSONL result stores written by sharded 'repro run "
            "--shard i/n' invocations (or by resumed runs) into a single "
            "store ordered by manifest index — byte-identical to the store "
            "an unsharded run of the same manifest would have written."
        ),
    )
    merger.add_argument(
        "stores", nargs="+", help="input JSONL result stores (one per shard)"
    )
    merger.add_argument(
        "--output", "-o", required=True, metavar="PATH",
        help="merged JSONL store to write (overwritten)",
    )
    merger.set_defaults(handler=_cmd_merge)

    reporter = subparsers.add_parser(
        "report",
        help="summarise result stores: per-run mix and cross-run trends",
        description=(
            "Scans a directory tree for JSONL result stores ('repro run "
            "--store', shard stores, daemon run stores), summarises each "
            "run's class mix, cache hit rates per fingerprint scheme, "
            "query totals and wall clock, and renders cross-run trends.  "
            "Scanning is incremental: unchanged stores are reused from "
            "a .repro-report-cache.json at the root."
        ),
    )
    reporter.add_argument(
        "results_root", help="directory tree holding JSONL result stores"
    )
    reporter.add_argument(
        "--json", action="store_true",
        help="print the machine-readable repro-report/v1 document instead",
    )
    reporter.add_argument(
        "--no-cache-file", action="store_true",
        help="re-read every store; neither read nor write the scan cache",
    )
    reporter.set_defaults(handler=_cmd_report)

    printer = subparsers.add_parser(
        "fingerprint",
        help="print a circuit's oracle identity (and a pair's cache key)",
        description=(
            "Fingerprints one or two circuit files under the configured "
            "identity scheme and prints the chosen scheme and versioned "
            "key fragment; with two files, also the full pair cache key.  "
            "The debugging tool for 'why was this pair a cache miss?' — "
            "two runs hit the same cache entry exactly when this command "
            "prints the same pair key for both."
        ),
    )
    printer.add_argument("circuit1", help="path to a .real or .qasm file")
    printer.add_argument(
        "circuit2", nargs="?", default=None,
        help="optional second circuit: print the pair's full cache key",
    )
    printer.add_argument(
        "--equivalence", "-e", default="NP-I",
        help="X-Y class of the pair key (default NP-I)",
    )
    printer.add_argument("--epsilon", type=float, default=1e-3)
    printer.add_argument(
        "--no-quantum", action="store_true",
        help="disallow the simulated quantum matchers (part of the key)",
    )
    add_engine_arguments(printer)
    add_fingerprint_arguments(printer)
    printer.set_defaults(handler=_cmd_fingerprint)

    cache_admin = subparsers.add_parser(
        "cache",
        help="result-cache maintenance",
        description=(
            "Maintenance over a disk result cache.  'migrate' inventories "
            "the entries by cache-key version: entries written under the "
            "v1 contract can never hit again (v2 keys hash to different "
            "filenames) and --drop-v1 deletes them."
        ),
    )
    cache_admin.add_argument("action", choices=("migrate",))
    cache_admin.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="the disk cache directory to migrate",
    )
    cache_admin.add_argument(
        "--drop-v1", action="store_true",
        help="delete stale (v1 or unreadable) entries instead of counting them",
    )
    cache_admin.add_argument(
        "--remote", metavar="ADDR",
        help="refused: migration runs on the cache server's host against "
        "its --cache-dir, with the server stopped",
    )
    cache_admin.set_defaults(handler=_cmd_cache)

    cache_server = subparsers.add_parser(
        "cache-server",
        help="serve a shared result cache to remote runs",
        description=(
            "Serves one result cache (in-memory LRU, optionally backed by "
            "--cache-dir on disk) to many runs over the newline-delimited "
            "JSON protocol repro-cache/v1 (docs/remote-cache.md), on a "
            "Unix socket (default ./cache.sock, or <cache-dir>/cache.sock) "
            "or TCP with --host/--port.  Point 'repro run', 'repro serve' "
            "or 'repro fleet run' at it with --remote-cache: results one "
            "host computes become cache hits on every other."
        ),
    )
    cache_server.add_argument(
        "--socket", metavar="PATH",
        help="listen on this Unix socket (default ./cache.sock, or "
        "<cache-dir>/cache.sock with --cache-dir)",
    )
    cache_server.add_argument("--host", help="listen on TCP at this host instead")
    cache_server.add_argument(
        "--port", type=int, default=0,
        help="TCP port (with --host; 0 = pick a free one)",
    )
    cache_server.add_argument(
        "--address-file", metavar="PATH",
        help="write the bound address here (what --remote-cache consumers read)",
    )
    cache_server.add_argument(
        "--auth-token-file", metavar="PATH",
        help="require clients to present this file's shared secret in an "
        "'auth' handshake (mandatory for non-loopback --host binds)",
    )
    cache_server.add_argument(
        "--insecure", action="store_true",
        help="serve on a non-loopback --host without an auth token "
        "(refused otherwise)",
    )
    cache_server.add_argument(
        "--cache-size", type=int, default=4096, metavar="N",
        help="in-memory LRU capacity in results (default 4096)",
    )
    cache_server.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist the served cache on disk (survives server restarts)",
    )
    cache_server.set_defaults(handler=_cmd_cache_server)

    def add_daemon_address(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--socket", metavar="PATH", help="Unix socket the daemon listens on"
        )
        sub.add_argument("--host", help="TCP host the daemon listens on")
        sub.add_argument("--port", type=int, help="TCP port (with --host)")
        sub.add_argument(
            "--address-file", metavar="PATH",
            help="file holding the daemon address (written by 'repro serve')",
        )
        sub.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="socket timeout (default: block forever)",
        )
        sub.add_argument(
            "--auth-token-file", metavar="PATH",
            help="file holding the daemon's shared secret (sent as an "
            "'auth' handshake right after connecting)",
        )

    def add_watch_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--progress", type=int, nargs="?", const=1, default=None, metavar="N",
            help="print a progress line every N finished pairs",
        )
        sub.add_argument(
            "--events", metavar="PATH",
            help="append every received lifecycle event to a JSONL log file",
        )

    server = subparsers.add_parser(
        "serve",
        help="run the long-lived matching daemon",
        description=(
            "Starts a matching daemon: one process and one shared "
            "result cache serve every submission, so repeated pairs cost "
            "zero oracle queries across clients.  Speaks the newline-"
            "delimited JSON protocol repro-daemon/v1 (docs/protocol.md) "
            "on a Unix socket (default: <store-dir>/daemon.sock) or TCP "
            "with --host/--port (port 0 picks a free port).  Every run "
            "streams to its own JSONL store under --store-dir, so daemon "
            "runs resume and merge exactly like 'repro run' ones."
        ),
    )
    server.add_argument(
        "--store-dir", default="./daemon-runs", metavar="DIR",
        help="directory for per-run result stores (default ./daemon-runs)",
    )
    server.add_argument(
        "--socket", metavar="PATH",
        help="listen on this Unix socket (default <store-dir>/daemon.sock)",
    )
    server.add_argument("--host", help="listen on TCP at this host instead")
    server.add_argument(
        "--port", type=int, default=0,
        help="TCP port (with --host; 0 = pick a free one)",
    )
    server.add_argument(
        "--address-file", metavar="PATH",
        help="write the bound address here (what clients' --address-file reads)",
    )
    server.add_argument(
        "--auth-token-file", metavar="PATH",
        help="require clients to present this file's shared secret in an "
        "'auth' handshake (mandatory for non-loopback --host binds)",
    )
    server.add_argument(
        "--insecure", action="store_true",
        help="serve on a non-loopback --host without an auth token "
        "(refused otherwise)",
    )
    server.add_argument(
        "--max-queued", type=int, default=16, metavar="N",
        help="bound on waiting jobs; submits beyond it are rejected",
    )
    server.add_argument(
        "--cache-size", type=int, default=4096, metavar="N",
        help="in-memory LRU capacity in results (default 4096)",
    )
    server.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist the shared result cache on disk",
    )
    server.add_argument(
        "--no-cache", action="store_true",
        help="disable the shared result cache entirely",
    )
    server.add_argument(
        "--remote-cache", metavar="ADDR",
        help="default shared cache server for submissions that name none "
        "(the submit frame's remote_cache field overrides per run)",
    )
    server.add_argument(
        "--verify", action="store_true",
        help="exhaustively verify the witnesses of freshly executed pairs",
    )
    server.add_argument("--epsilon", type=float, default=1e-3)
    server.add_argument(
        "--no-quantum", action="store_true",
        help="disallow the simulated quantum matchers",
    )
    add_engine_arguments(server)
    add_fingerprint_arguments(server)
    server.set_defaults(handler=_cmd_serve)

    submit = subparsers.add_parser(
        "submit",
        help="submit a run to a matching daemon",
        description=(
            "Submits a corpus manifest (or ad-hoc --pair C1 C2 CLASS "
            "triples) to a running daemon and prints the run id.  With "
            "--wait (implied by --progress/--events) the command "
            "subscribes to the run's event stream and exits 0 only when "
            "the run completed with no failed pairs — the same contract "
            "as 'repro run'."
        ),
    )
    submit.add_argument(
        "manifest", nargs="?",
        help="path to a manifest.json or corpus directory (on the daemon's host)",
    )
    submit.add_argument(
        "--pair", nargs=3, action="append", default=[],
        metavar=("C1", "C2", "CLASS"),
        help="an ad-hoc circuit pair with its promised class (repeatable)",
    )
    submit.add_argument(
        "--seed", type=int, default=None,
        help="run seed; when omitted one is drawn and printed on stderr "
        "(--resume requires it)",
    )
    submit.add_argument(
        "--resume", action="store_true",
        help="skip pairs the run's store already answered",
    )
    submit.add_argument(
        "--store", metavar="PATH",
        help="result store path override (default <store-dir>/<run-id>.jsonl)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="wait for the run and mirror its outcome in the exit code",
    )
    add_watch_options(submit)
    add_daemon_address(submit)
    submit.set_defaults(handler=_cmd_submit)

    watcher = subparsers.add_parser(
        "watch",
        help="subscribe to a daemon run's event stream",
        description=(
            "Streams a run's lifecycle events from a daemon — replaying "
            "history first, so watching a finished run shows the whole "
            "run.  Exit code 0 only for a completed run with no failed "
            "pairs."
        ),
    )
    watcher.add_argument("run_id", help="the run to watch (e.g. run-0001)")
    watcher.add_argument(
        "--no-replay", action="store_true",
        help="live events only; do not replay history",
    )
    add_watch_options(watcher)
    add_daemon_address(watcher)
    watcher.set_defaults(handler=_cmd_watch)

    admin = subparsers.add_parser(
        "daemon",
        help="administer a running matching daemon",
        description=(
            "One-shot admin requests against a running daemon; prints "
            "the JSON response frame."
        ),
    )
    admin.add_argument(
        "action",
        choices=("ping", "status", "stats", "metrics", "cancel", "shutdown"),
    )
    admin.add_argument(
        "run_id", nargs="?",
        help="run id (required for cancel, optional for status)",
    )
    add_daemon_address(admin)
    admin.set_defaults(handler=_cmd_daemon)

    fleet = subparsers.add_parser(
        "fleet",
        help="coordinate a sharded run across worker daemons",
        description=(
            "Cross-host sharded runs (docs/fleet.md).  'run' probes the "
            "--peer daemons, dispatches one deterministic shard of the "
            "manifest to each healthy one, watches every event stream, "
            "reassigns the shard of a dead or hung worker (the retry "
            "resumes from mirrored records at zero oracle-query cost) "
            "and merges the shard stores into a store byte-identical to "
            "an unsharded serial run.  'peers' pings each worker; "
            "'status' adds each healthy worker's stats frame."
        ),
    )
    fleet.add_argument("action", choices=("run", "status", "peers"))
    fleet.add_argument(
        "manifest", nargs="?",
        help="manifest.json or corpus directory (required for run; the "
        "path must resolve on every worker's host)",
    )
    fleet.add_argument(
        "--peer", action="append", default=[], metavar="ADDR",
        help="a worker daemon: HOST:PORT, tcp:<host>:<port> or "
        "unix:<path> (repeatable; one shard per healthy peer)",
    )
    fleet.add_argument(
        "--work-dir", default="./fleet-runs", metavar="DIR",
        help="coordinator state: the crash-safe run-id counter and one "
        "directory of fetched shard stores per run (default ./fleet-runs)",
    )
    fleet.add_argument(
        "--output", metavar="PATH",
        help="merged store to write (default <work-dir>/<run-id>/merged.jsonl)",
    )
    fleet.add_argument(
        "--seed", type=int, default=None,
        help="run seed; when omitted one is drawn and printed on stderr",
    )
    fleet.add_argument(
        "--auth-token-file", metavar="PATH",
        help="shared secret presented to every peer (required when "
        "peers bind non-loopback TCP)",
    )
    fleet.add_argument(
        "--heartbeat", type=float, default=5.0, metavar="SECONDS",
        help="silence on an event stream before the worker is probed "
        "out-of-band (default 5)",
    )
    fleet.add_argument(
        "--hang-timeout", type=float, default=30.0, metavar="SECONDS",
        help="silence budget for a running shard; past it the worker "
        "counts as hung and the shard is reassigned (default 30)",
    )
    fleet.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="dispatch attempts per shard before the run fails (default 3)",
    )
    fleet.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="socket timeout for one-shot control requests (default 10)",
    )
    fleet.add_argument(
        "--remote-cache", metavar="ADDR",
        help="shared cache server every worker mounts behind its local "
        "tiers (the address must resolve from each worker's host)",
    )
    fleet.add_argument(
        "--metrics", metavar="PATH",
        help="write a repro-metrics/v1 snapshot of the fleet counters",
    )
    add_watch_options(fleet)
    fleet.set_defaults(handler=_cmd_fleet)

    decider = subparsers.add_parser("decide", help="non-promise decision")
    add_matching_arguments(decider)
    decider.add_argument(
        "--brute-force",
        action="store_true",
        help="allow exponential search for the UNIQUE-SAT-hard classes",
    )
    decider.set_defaults(handler=_cmd_decide)

    synth = subparsers.add_parser("synth", help="synthesise a permutation")
    synth.add_argument(
        "--permutation",
        required=True,
        help="comma-separated image list over range(2^n), e.g. 0,3,1,2",
    )
    synth.add_argument("--basic", action="store_true", help="basic (not bidirectional)")
    synth.add_argument("--output", "-o", help="write the circuit to a file")
    synth.add_argument("--ascii", action="store_true", help="pure-ASCII glyphs")
    synth.set_defaults(handler=_cmd_synth)

    linter = subparsers.add_parser(
        "lint",
        help="run the project's static invariant checks",
        description=(
            "Walks the AST of src/repro/** enforcing the determinism, "
            "lock-coverage and docs-drift invariants (see docs/lint.md). "
            "Exit code 0 only when no non-baselined finding remains."
        ),
    )
    linter.add_argument(
        "paths", nargs="*",
        help="specific files to lint (default: the whole src/repro tree)",
    )
    linter.add_argument(
        "--root", default=".", metavar="DIR",
        help="repository root holding src/repro, docs/ and README.md",
    )
    linter.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format on stdout",
    )
    linter.add_argument(
        "--output", metavar="PATH",
        help="also write the report to a file (the CI artifact)",
    )
    linter.add_argument(
        "--baseline", metavar="PATH",
        help="baseline file of grandfathered findings "
             "(default <root>/lint-baseline.json when present)",
    )
    linter.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline; report every finding as new",
    )
    linter.add_argument(
        "--write-baseline", action="store_true",
        help="grandfather the current findings into the baseline file",
    )
    linter.set_defaults(handler=_cmd_lint)
    return parser


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        lint_project,
        load_baseline,
        render,
        render_text,
        write_baseline,
    )

    root = Path(args.root)
    paths = [Path(item) for item in args.paths] or None
    baseline_path = (
        Path(args.baseline) if args.baseline else root / "lint-baseline.json"
    )
    baseline = frozenset()
    if (
        not args.no_baseline
        and not args.write_baseline
        and (args.baseline or baseline_path.exists())
    ):
        baseline = load_baseline(baseline_path)
    report = lint_project(root, baseline=baseline, paths=paths)
    if args.write_baseline:
        write_baseline(baseline_path, report.findings)
        print(f"wrote {baseline_path} ({len(report.findings)} findings)")
        return 0
    output = render(report, args.format)
    if args.output:
        Path(args.output).write_text(output + "\n", encoding="utf-8")
        print(render_text(report))
    else:
        print(output)
    return report.exit_code


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())

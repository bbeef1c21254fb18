"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold8-verified --seed 3 --seconds 15 --trace 0

``--corpus-seed`` and ``--run-seed`` override the two seeds ``--seed`` sets;
``--corpus-seed 3 --run-seed 5`` is the corpus and run measured in ROADMAP.md.

Set-up (untimed): generate the workload's corpus from the corpus seed,
build the independent correctness reference, time a few fresh
interpreters importing ``repro.cli`` and building the service, and,
for ``warm8-remote``, start a cache server and fill it with one cold pass.
Then whole passes run for at least ``--seconds``; every answer of every
pass is judged by the reference.

On a shared host the CPU speed drifts by tens of percent over minutes (the
probe loop below read 8 to 12 ms within minutes on a 2-core Xeon VM), so the
end-to-end timings (``pairs_per_s``, ``pair_ms_*``, ``first_result_s``,
``setup_s``) are reported at a reference machine speed: every timed call is
bracketed by a fixed pure-Python probe loop and scaled by how much slower or
faster than its reference time the loop ran (``SpeedProbe``).  The wall-clock
values as measured are printed on a ``# wall clock`` line.

With ``--trace 1`` one more pass runs
with the layer wrappers installed and the per-layer metrics (wall clock,
unscaled) are printed instead of the end-to-end ones; its spans are written
to ``.perfbench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero, with no result printed, when the program or the reference
cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics and their units, in report order.  The per-pair
#: median is printed too, on a note line, but not gated (see ``measure``).
END_TO_END = (
    ("pairs_per_s", "pairs/s"),
    ("pair_ms_p95", "ms"),
    ("first_result_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("wrong_answer_share", "ratio"),
    ("classical_queries_per_pair", "queries"),
)

#: Fresh interpreters timed per run for ``setup_s`` (their median).
SETUP_REPEATS = 5

#: Samples of ``first_result_s`` per run: full passes contribute theirs, and
#: streams stopped at their first settled pair make up the rest.
FIRST_RESULT_SAMPLES = 5

#: Tolerance on the traced pass's time accounting (self times plus
#: unattributed time against the pass's wall time).
CLOSURE_TOLERANCE_S = 1e-6


def _parse(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="seeds the corpus and the run unless overridden")
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum time spent in timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, help="override the corpus seed")
    parser.add_argument("--run-seed", type=int, help="override the run seed")
    return parser.parse_args(argv)


def _percentile(values: list[float], share: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[share - 1]


def _per_pair(records: list[dict], field: str) -> float:
    """Charged queries per settled pair, as recorded on the answers."""
    spent = sum(r["result"][field] for r in records if r.get("result"))
    return spent / len(records)


#: End-to-end timings a pass yields.
_TIMINGS = ("pairs_per_s", "pair_ms_p50", "pair_ms_p95", "first_result_s")


class _Judged:
    """One pass reduced to what the metrics need.

    :attr:`raw` holds the pass's wall-clock timings; :attr:`timings` the
    same at the reference machine speed (see ``SpeedProbe``): per-pair
    intervals are scaled by the speed sampled nearest them, the rest by
    the pass's mean speed.
    """

    def __init__(self, result, reference, workload, cache, total: int) -> None:
        report = result.report
        records = report.records
        verdicts = Counter(reference.judge(record) for record in records)
        intervals = [
            (later - earlier) * 1e3
            for earlier, later in zip(result.settle_s, result.settle_s[1:])
        ]
        local = [ms * scale for ms, scale in zip(intervals, result.interval_scales)]
        self.wall_s = result.wall_s
        self.scale = result.scale
        self.pairs = len(records)
        self.verdicts = verdicts
        self.raw = {
            "pairs_per_s": len(result.settle_s) / result.wall_s,
            "pair_ms_p50": statistics.median(intervals),
            "pair_ms_p95": _percentile(intervals, 95),
            "first_result_s": result.settle_s[0],
        }
        self.timings = {
            "pairs_per_s": self.raw["pairs_per_s"] / result.scale,
            "pair_ms_p50": statistics.median(local),
            "pair_ms_p95": _percentile(local, 95),
            "first_result_s": self.raw["first_result_s"] * result.scale,
        }
        self.wrong_share = verdicts["wrong"] / total
        self.classical = _per_pair(records, "queries")
        self.quantum = _per_pair(records, "quantum_queries")
        stats = cache.stats
        self.hit_ratio = stats.hits / stats.lookups if stats.lookups else 0.0
        problems = []
        if len(records) != total or len(result.settle_s) != total:
            problems.append(
                f"{len(records)} records and {len(result.settle_s)} settle "
                f"events for {total} pairs"
            )
        if workload.remote:
            spent = report.classical_queries + report.quantum_queries
            if report.executed or self.hit_ratio != 1.0 or spent:
                problems.append(
                    f"warm pass executed {report.executed} pairs, hit ratio "
                    f"{self.hit_ratio:.3f}, spent {spent} queries"
                )
        self.problems = problems


class _Runner:
    """The set-up one run shares between its passes."""

    def __init__(self, workload, manifest, store, run_seed, reference, address):
        from perfbench.workloads import SpeedProbe

        self.speed = SpeedProbe()
        self.workload = workload
        self.manifest = manifest
        self.store = store
        self.run_seed = run_seed
        self.reference = reference
        self.address = address

    def run(self, trace=None):
        """One fresh-service pass, optionally under a layer trace."""
        from perfbench.workloads import build_service, close_service, run_pass

        service = build_service(self.address, self.workload.verify)
        with trace if trace is not None else nullcontext():
            result = run_pass(
                service, self.manifest, self.store, self.run_seed, self.speed
            )
        close_service(service)
        judged = _Judged(
            result, self.reference, self.workload, service.cache, len(self.reference)
        )
        return result, judged

    def first_result(self) -> tuple[float, float]:
        """A stream's first-result time: ``(raw, reference-speed)``."""
        from perfbench.workloads import build_service, close_service, first_result

        service = build_service(self.address, self.workload.verify)
        try:
            seconds, scale = self.speed.bracket(
                lambda: first_result(service, self.manifest, self.store, self.run_seed)
            )
        finally:
            close_service(service)
        return seconds, seconds * scale


def _fill(runner) -> None:
    """Fill the cache server with one untimed cold pass (verify off: the
    cache key does not depend on it)."""
    from perfbench.workloads import build_service, close_service, run_pass

    service = build_service(runner.address, verify=False)
    fill = run_pass(
        service, runner.manifest, runner.store, runner.run_seed, runner.speed
    )
    close_service(service)
    if fill.report.executed != len(runner.reference):
        raise RuntimeError(
            f"fill pass executed {fill.report.executed} of "
            f"{len(runner.reference)} pairs"
        )


def _traced(runner, untraced_s: float, log: Path):
    """One pass under the layer trace; its judged pass and layer metrics.

    ``untraced_s`` is the median untraced pass time at the reference speed;
    the overhead is taken at that speed too, so host drift between the
    passes does not show as overhead.
    """
    from perfbench.layers import LayerTrace, layer_metrics

    trace = LayerTrace()
    result, judged = runner.run(trace)
    metrics = layer_metrics(
        trace,
        pass_s=result.wall_s,
        overhead_s=result.wall_s * result.scale - untraced_s,
        pairs=judged.pairs,
        hit_ratio=judged.hit_ratio,
        quantum_per_pair=judged.quantum,
        store_bytes=runner.store.stat().st_size,
    )
    log.parent.mkdir(parents=True, exist_ok=True)
    trace.write(log, origin=result.start)
    return judged, metrics


def measure(workload, args, base: Path) -> dict:
    """Set up, run the timed (and traced) passes, and build the result.

    Scratch files live under ``base``, which also receives the span log.
    """
    from perfbench.layers import LAYER_METRICS, closure_gap
    from perfbench.reference import CorpusReference
    from perfbench.workloads import CacheServerProcess, generate, measure_setup
    from repro.circuits.io.real import read_real

    def simulate(path, inputs):
        circuit = read_real(path)
        return [circuit.simulate(value) for value in inputs]

    corpus_seed = args.seed if args.corpus_seed is None else args.corpus_seed
    run_seed = args.seed if args.run_seed is None else args.run_seed
    work = base / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traced = None
    try:
        manifest = generate(workload, work / "corpus", corpus_seed)
        reference = CorpusReference.build(manifest, corpus_seed, anchor=simulate)
        server_context = (
            CacheServerProcess(ROOT, work) if workload.remote else nullcontext()
        )
        with server_context as server:
            address = server.address if server is not None else None
            runner = _Runner(
                workload, manifest, work / "pass.jsonl", run_seed, reference, address
            )
            setup_raw, setup = measure_setup(
                ROOT, address, workload.verify, SETUP_REPEATS, runner.speed
            )
            if server is not None:
                _fill(runner)
            timed = []
            started = time.perf_counter()
            while not timed or time.perf_counter() - started < args.seconds:
                timed.append(runner.run()[1])
            first_results = [
                (p.raw["first_result_s"], p.timings["first_result_s"]) for p in timed
            ]
            while not args.trace and len(first_results) < FIRST_RESULT_SAMPLES:
                first_results.append(runner.first_result())
            if args.trace:
                traced = _traced(
                    runner,
                    statistics.median(p.wall_s * p.scale for p in timed),
                    base / f"trace-{workload.name}-seed{args.seed}.jsonl",
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = timed + ([traced[0]] if traced else [])
    problems = [problem for p in passes for problem in p.problems]
    notes = []
    if traced:
        values, units = traced[1], dict(LAYER_METRICS)
        gap = closure_gap(values)
        if abs(gap) > CLOSURE_TOLERANCE_S:
            problems.append(f"traced layer times miss the pass wall time by {gap:.9f}s")
    else:
        units = dict(END_TO_END)
        values = {
            name: statistics.median(p.timings[name] for p in timed) for name in _TIMINGS
        }
        raw = {name: statistics.median(p.raw[name] for p in timed) for name in _TIMINGS}
        values["first_result_s"] = statistics.median(s for _, s in first_results)
        raw["first_result_s"] = statistics.median(r for r, _ in first_results)
        values["setup_s"] = statistics.median(setup)
        raw["setup_s"] = statistics.median(setup_raw)
        values.update({
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "wrong_answer_share": statistics.median(p.wrong_share for p in timed),
            "classical_queries_per_pair": statistics.median(p.classical for p in timed),
        })
        notes.append("wall clock as measured: " + ", ".join(
            f"{name}={value:.6g}" for name, value in raw.items()
        ))
        notes.append(
            f"pair_ms_p50 {values['pair_ms_p50']:.6f} ms, not gated: on "
            "cold8-verified the median falls in a gap of a two-humped "
            "per-pair distribution and swings by a quarter between runs"
        )

    verdicts = sum((p.verdicts for p in passes), Counter())
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"{platform.machine()}")
    print(f"# workload {workload.name}: corpus seed {corpus_seed}, run seed "
          f"{run_seed}, {len(reference)} pairs, {len(timed)} timed passes"
          + (", 1 traced pass" if traced else ""))
    print(f"# reference: {len(reference) - reference.sampled_pairs} pairs "
          f"exhaustive, {reference.sampled_pairs} sampled; verdicts over all "
          "passes " + ", ".join(f"{k}={verdicts[k]}" for k in ("right", "wrong", "honest")))
    for note in notes:
        print(f"# {note}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name:45s} {values[name]:14.6f} {unit}")
    return {
        "correct": not problems,
        "attempted": sum(p.pairs for p in passes),
        "failed": sum(p.pairs for p in passes if p.problems),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no repro package to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.chdir(ROOT)
    # A terminated run still unwinds: scratch files go and the cache
    # server is shut down and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse(argv)
    from perfbench.workloads import WORKLOADS

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    try:
        result = measure(WORKLOADS[args.workload], args, ROOT / ".perfbench_work")
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

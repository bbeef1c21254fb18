#!/usr/bin/env python3
"""Record the benchmark trajectory file ``BENCH_<n>.json``.

Runs ``perfbench/run.py`` on every workload that ``BENCHMARK.json``
declares, untraced (the end-to-end metrics) and then traced (the
per-layer metrics), and writes one JSON document::

    python scripts/bench_record.py --output BENCH_16.json
    python scripts/bench_record.py --output bench.json --seconds 1

The document holds the seed (always :data:`SEED`), the run length,
``nproc``, the Python version and, per workload, both metric sets with
the pass counts.  With ``--parent DIR`` the same runs are made on
another checkout (a parent commit, say) in alternating order and stored
under ``"parent"``; the report then compares against it.  Otherwise it compares against the
newest other ``BENCH_*.json`` at the repository root, if there is one.

The comparison prints every metric that moved: an end-to-end metric by
more than its ``BENCHMARK.json`` bound, a count exactly, and any other
per-layer metric by more than :data:`LAYER_BAND` (and, for times, by
more than :data:`LAYER_FLOOR_S`).  One run per side is
no proof of a gain or a regression; it points at where to measure.

Exit status 0 when every run completed and judged its answers; 1 when a
run failed, printed no result or reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FORMAT = "repro-bench/v1"

#: Relative move beyond which an ungated per-layer time or ratio is printed.
LAYER_BAND = 0.25

#: Absolute move in seconds below which a per-layer time is not printed:
#: one traced pass of a few milliseconds drifts by more than the band.
LAYER_FLOOR_S = 0.05

#: perfbench seed for the corpus and the run: the one every record uses.
SEED = 3

#: Units whose per-layer values repeat exactly for a fixed seed.
EXACT_UNITS = ("count", "queries")


def _run_perfbench(checkout: Path, workload: str, seconds: float,
                   trace: int) -> dict:
    """One ``perfbench/run.py`` run; its last stdout line, parsed."""
    command = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=False
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command[1:])} exited {completed.returncode}:\n"
            f"{completed.stderr.strip()}"
        )
    return json.loads(lines[-1])


def _measure(checkout: Path, workload: str, seconds: float) -> dict:
    untraced = _run_perfbench(checkout, workload, seconds, trace=0)
    traced = _run_perfbench(checkout, workload, seconds, trace=1)
    return {
        "correct": untraced["correct"] and traced["correct"],
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "end_to_end": untraced["metrics"],
        "per_layer": traced["metrics"],
    }


def _previous(output: Path) -> Path | None:
    """The highest-numbered ``BENCH_<n>.json`` at the root other than ``output``."""
    numbered = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and path.resolve() != output.resolve():
            numbered.append((int(match.group(1)), path))
    return max(numbered)[1] if numbered else None


def moved_metrics(before: dict, after: dict, benchmark: dict) -> list[str]:
    """One line per metric of ``after`` that moved against ``before``.

    ``before`` and ``after`` map workload names to :func:`_measure`
    results; ``benchmark`` is the parsed ``BENCHMARK.json``.
    """
    better = {m["name"]: m["better"]
              for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    lines = []
    for workload in sorted(after):
        if workload not in before:
            continue
        for group in ("end_to_end", "per_layer"):
            old_metrics = before[workload][group]
            for name, metric in sorted(after[workload][group].items()):
                if name not in old_metrics:
                    continue
                old, new = old_metrics[name]["value"], metric["value"]
                if old == new:
                    continue
                change = (new - old) / abs(old) if old else float("inf")
                if name in bounds:
                    band = bounds[name]
                elif metric["unit"] in EXACT_UNITS:
                    band = 0.0
                else:
                    band = LAYER_BAND
                if abs(change) <= band:
                    continue
                if (group == "per_layer" and metric["unit"] == "s"
                        and abs(new - old) < LAYER_FLOOR_S):
                    continue
                direction = "moved"
                if name in better:
                    improved = (new > old) == (better[name] == "higher")
                    direction = "better" if improved else "WORSE"
                lines.append(
                    f"{workload:16s} {name:45s} {old:.6g} -> {new:.6g} "
                    f"{metric['unit']} ({change:+.1%}, {direction})"
                )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", required=True, type=Path,
                        help="where to write the JSON document")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="perfbench minimum timed seconds per run")
    parser.add_argument("--parent", type=Path,
                        help="another checkout to measure the same way")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    results: dict[str, dict] = {side: {} for side in sides}
    try:
        for index, workload in enumerate(workloads):
            # Alternate which side runs first, so host drift spreads evenly.
            order = list(sides) if index % 2 else list(reversed(sides))
            for side in order:
                print(f"measuring {workload} on {side}", file=sys.stderr)
                results[side][workload] = _measure(
                    sides[side], workload, args.seconds
                )
    except RuntimeError as error:
        print(f"bench_record: {error}", file=sys.stderr)
        return 1

    document = {
        "format": FORMAT,
        "seed": SEED,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": results["change"],
    }
    if "parent" in results:
        document["parent"] = results["parent"]
        baseline, label = results["parent"], "the parent checkout"
    else:
        previous = _previous(args.output)
        baseline = label = None
        if previous is not None:
            earlier = json.loads(previous.read_text())
            baseline, label = earlier["workloads"], previous.name
            settings = ("seed", "seconds", "nproc", "python")
            differ = [key for key in settings if earlier.get(key) != document[key]]
            if differ:
                label += f" (different {', '.join(differ)})"
    args.output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    if baseline is None:
        print("no earlier BENCH_*.json to compare against")
    else:
        moved = moved_metrics(baseline, document["workloads"], benchmark)
        print(f"{len(moved)} metrics moved against {label}")
        for line in moved:
            print(f"  {line}")
    correct = all(result["correct"] for side in results.values()
                  for result in side.values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

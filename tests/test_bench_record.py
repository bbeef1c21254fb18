"""The trajectory wrapper's comparison: which metrics count as moved."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _side(pairs_per_s, peak_rss_mb, swap_tests, quantum_s):
    return {
        "cold8-verified": {
            "end_to_end": {
                "pairs_per_s": {"value": pairs_per_s, "unit": "pairs/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            },
            "per_layer": {
                "quantum.swap_tests": {"value": swap_tests, "unit": "count"},
                "quantum.s": {"value": quantum_s, "unit": "s"},
            },
        }
    }


def test_moves_are_judged_by_bound_exactness_and_band(bench_record):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = _side(200.0, 57.0, 11337, 0.40)
    # pairs/s +60% (bound 0.25), RSS +5% (bound 0.1), one swap test more
    # (counts compare exactly), quantum.s -20% (inside the 0.25 band).
    after = _side(320.0, 59.85, 11338, 0.32)
    moved = bench_record.moved_metrics(before, after, benchmark)
    assert len(moved) == 2
    assert "pairs_per_s" in moved[0] and "better" in moved[0]
    assert "quantum.swap_tests" in moved[1] and "WORSE" in moved[1]
    assert bench_record.moved_metrics(before, before, benchmark) == []


def test_layer_times_move_past_band_and_floor(bench_record):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = _side(200.0, 57.0, 11337, 0.10)
    # quantum.s +49% but under 0.05 s more is not printed; +60% and
    # 0.06 s more is.
    tiny = bench_record.moved_metrics(
        before, _side(200.0, 57.0, 11337, 0.149), benchmark
    )
    assert tiny == []
    moved = bench_record.moved_metrics(
        before, _side(200.0, 57.0, 11337, 0.16), benchmark
    )
    assert len(moved) == 1 and "quantum.s" in moved[0] and "WORSE" in moved[0]

"""Tests of the benchmark itself, on corpora small enough to run in seconds."""

from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import reference as reference_module
from perfbench import run
from perfbench.layers import LAYER_METRICS, LayerTrace
from perfbench.reference import CorpusReference, ReferenceError, evaluate, parse_real
from perfbench.workloads import WORKLOADS, Workload

from repro.circuits.io.real import read_real, write_real
from repro.circuits.random import random_circuit
from repro.core.equivalence import EquivalenceType
from repro.core.verify import verify_match
from repro.oracles.oracle import ReversibleOracle
from repro.service import MatchingService, generate_corpus, result_from_dict

ROOT = Path(__file__).resolve().parent.parent
TINY = {"num_lines": 3, "families": ("random", "adversarial"), "pairs_per_class": 1}


def _args(trace: int = 0) -> argparse.Namespace:
    return argparse.Namespace(
        seed=1, seconds=0, trace=trace, corpus_seed=None, run_seed=None
    )


@pytest.fixture(autouse=True)
def _one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _simulate(path, inputs):
    circuit = read_real(path)
    return [circuit.simulate(value) for value in inputs]


def _printed(capsys) -> dict[str, str]:
    """Metric name -> unit, from the human-readable lines of a run."""
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1])  # the machine-readable result comes last
    rows = [line.split() for line in lines[:-1] if not line.startswith("#")]
    return {row[0]: row[2] for row in rows}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


def test_every_end_to_end_metric_prints_with_its_unit(tmp_path, capsys):
    workload = Workload("tiny-cold", TINY, verify=True, remote=False)
    result = run.measure(workload, _args(), tmp_path)
    print(json.dumps(result))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 16
    expected = dict(run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert _printed(capsys) == expected
    assert all(v["value"] > 0 for k, v in result["metrics"].items()
               if k != "wrong_answer_share")


def test_traced_warm_run_closes_its_time_accounting(tmp_path, capsys):
    workload = Workload("tiny-warm", TINY, verify=True, remote=True)
    result = run.measure(workload, _args(trace=1), tmp_path)
    print(json.dumps(result))
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert _printed(capsys) == dict(LAYER_METRICS)
    assert metrics["service.cache.hit_ratio"] == 1.0
    assert metrics["cachenet.round_trips"] >= 1
    assert metrics["core.verify.calls"] == 0
    assert (tmp_path / "trace-tiny-warm-seed1.jsonl").stat().st_size > 0
    assert [p.name for p in tmp_path.iterdir()] == ["trace-tiny-warm-seed1.jsonl"]


def _tiny_records(tmp_path, **corpus):
    manifest = generate_corpus(tmp_path / "corpus", seed=4, **corpus)
    report = MatchingService().run_manifest(tmp_path / "corpus", seed=4)
    ref = CorpusReference.build(tmp_path / "corpus" / "manifest.json", 4, _simulate)
    return manifest, report.records, ref


def test_reference_flags_a_corrupted_witness(tmp_path):
    manifest, records, ref = _tiny_records(
        tmp_path, num_lines=4, families=("random",), pairs_per_class=3
    )
    entries = {entry.pair_id: entry for entry in manifest.entries}
    flagged = 0
    for record in records:
        assert ref.judge(record) == "right"
        result = record["result"]
        if not result.get("nu_x"):
            continue
        corrupted = dict(result, nu_x=[1 - result["nu_x"][0]] + result["nu_x"][1:])
        entry = entries[record["pair_id"]]
        circuits = [read_real(tmp_path / "corpus" / name)
                    for name in (entry.circuit1, entry.circuit2)]
        holds = verify_match(*circuits, EquivalenceType.from_label(entry.equivalence),
                             result_from_dict(corrupted))
        verdict = ref.judge(dict(record, result=corrupted))
        assert verdict == ("right" if holds else "wrong")
        flagged += verdict == "wrong"
    assert flagged > 0


def test_near_miss_answers_are_wrong_and_failures_on_them_honest(tmp_path):
    _, records, ref = _tiny_records(
        tmp_path, num_lines=4, families=("adversarial",), pairs_per_class=2
    )
    for record in records:
        verdict = ref.judge(record)
        if record.get("result"):
            holds = ref.witness_holds(record["pair_id"], record["result"])
            assert verdict == ("right" if holds else "wrong")
        else:
            assert verdict == "honest"


def test_wide_pairs_are_checked_on_a_sample(tmp_path, monkeypatch):
    monkeypatch.setattr(reference_module, "EXHAUSTIVE_MAX_LINES", 2)
    _, records, ref = _tiny_records(tmp_path, **TINY)
    assert ref.sampled_pairs == len(records) == 16
    for record in records:
        expected = not record["pair_id"].startswith("adversarial")
        if record.get("result"):
            assert ref.judge(record) == ("right" if expected else "wrong")


def test_reference_refuses_when_it_disagrees_with_simulate(tmp_path):
    generate_corpus(tmp_path / "corpus", seed=2, **TINY)

    def off_by_one(path, inputs):
        return [value ^ 1 for value in _simulate(path, inputs)]

    with pytest.raises(ReferenceError):
        CorpusReference.build(tmp_path / "corpus" / "manifest.json", 2, off_by_one)


def test_reference_evaluator_matches_simulate(tmp_path):
    rng = random.Random(11)
    for index in range(20):
        path = tmp_path / f"c{index}.real"
        write_real(random_circuit(5, 30, rng), path)
        # A controlled and a plain swap, which write_real never emits.
        path.write_text(
            path.read_text().replace(".end", "f3 x0 x1 x2\nf2 x3 x4\n.end")
        )
        num_lines, ops = parse_real(path.read_text())
        table = evaluate(ops, np.arange(1 << num_lines, dtype=np.uint64)).tolist()
        assert table == read_real(path).truth_table()


def test_layer_trace_restores_every_entry_point():
    before = dict(vars(ReversibleOracle))
    with LayerTrace():
        assert vars(ReversibleOracle)["query"] is not before["query"]
    assert dict(vars(ReversibleOracle)) == before


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Smoke test of the engine-session benchmark at tiny sizes (a few seconds).

Runs every workload through ``run.py`` in its one-workload form,
untraced and traced, and checks that every metric ``BENCHMARK.json`` names is
emitted with its unit, that the correctness gate passes, and that every
layer wrapper fired, so a rename inside the program cannot silently zero a
layer of the per-layer split.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from .compare import main as compare_main
from .compare import verdict
from .layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def _run(tmp_path, workload, trace, env=None, cwd=ROOT, script=HERE / "run.py"):
    out = tmp_path / "records.jsonl"
    completed = subprocess.run(
        [
            sys.executable, str(script),
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--tiny", "--out", str(out),
        ],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    records = [json.loads(line) for line in out.read_text().splitlines()] if out.exists() else []
    return completed, records


def _result(completed):
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(tmp_path, workload):
    completed, (record,) = _run(tmp_path, workload, trace=0)
    result = _result(completed)
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units(BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())
    assert record["gate_failures"] == [] and record["rounds"] == 2
    assert set(record["raw"]) == set(metrics)
    assert record["host"]["calib_s"] > 0 and record["host"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_fires_every_layer_wrapper(tmp_path, workload):
    # Fault injection set in the caller's environment must not reach the
    # workload process: its store then retries nothing.
    env = dict(os.environ, REPRO_FAULT_SEED="1", REPRO_FAULT_P="0.5")
    completed, (traced,) = _run(tmp_path, workload, trace=1, env=env)
    result = _result(completed)
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units(BENCHMARK["per_layer"])
    assert set(traced["fired"]) == set(LAYERS)
    assert metrics["bulk.store.retries"]["value"] == 0
    assert metrics["trace.overhead"]["value"] > 0
    for verb in ("open", "materialize", "apply", "query"):
        assert 0 < metrics[f"trace.coverage.{verb}"]["value"] <= 1


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "session")
    script = tmp_path / "benchmarks" / "session" / "run.py"
    completed, records = _run(tmp_path, WORKLOADS[0], trace=0, cwd=tmp_path, script=script)
    assert completed.returncode != 0
    assert completed.stdout == "" and records == []


def test_compare_verdicts():
    same = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert verdict(same, same, 0.1, True)["verdict"] == "within-bound"
    assert verdict(same, [v * 1.3 for v in same], 0.1, True)["verdict"] == "regressed"
    assert verdict(same, [v * 0.7 for v in same], 0.1, True)["verdict"] == "improved"
    assert verdict(same, [v * 1.3 for v in same], 0.1, False)["verdict"] == "improved"
    noisy = [5.0, 10.0, 15.0, 8.0, 12.0]
    assert verdict(noisy, noisy, 0.1, True)["verdict"] == "unresolved"


def test_compare_counts_every_run_and_guards_claims(tmp_path):
    claimed = "setup_s"

    def records(pairs, setup):
        return [
            {
                "workload": workload,
                "trace": 0,
                "size": "full",
                "correct": True,
                "failed": 0,
                "metrics": dict(
                    {entry["name"]: 10.0 + 0.01 * index for entry in BENCHMARK["end_to_end"]},
                    **{claimed: setup + 0.01 * index},
                ),
                "host": {"calib_s": 0.02},
            }
            for index in range(pairs)
            for workload in WORKLOADS
        ]

    def compare(a, b):
        paths = []
        for name, records_ in (("a", a), ("b", b)):
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join(json.dumps(record) + "\n" for record in records_))
            paths.append(str(path))
        return compare_main(paths + ["--claim", f"{WORKLOADS[0]}:{claimed}"])

    assert compare(records(10, 10.0), records(10, 8.0)) == 0
    # Too few pairs for a claim, even though every pair is won.
    assert compare(records(5, 10.0), records(5, 8.0)) == 1
    # A failed candidate run is not dropped: the workload is not compared.
    broken = records(10, 8.0)
    broken[len(WORKLOADS)]["correct"] = False
    assert compare(records(10, 10.0), broken) == 1

"""Tests of the benchmark itself, on the smoke size of each workload.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, input_for, pool_order

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"metric {name} = ") and f" {unit}" in line
                   for line in lines), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_perturbed_reference_is_a_failed_operation(workload, tmp_path, monkeypatch, capsys):
    seed = 5
    refs = json.loads(run.REFERENCES.read_text())
    key = input_for(WORKLOADS[workload], "smoke", pool_order(workload, seed), 0)["key"]
    outputs = refs["workloads"][workload]["smoke"][key]
    field = next(k for k, v in outputs.items() if isinstance(v, float))
    outputs[field] += 1.0
    perturbed = tmp_path / "references.json"
    perturbed.write_text(json.dumps(refs))
    monkeypatch.setattr(run, "REFERENCES", perturbed)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")

    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", "0", "--size", "smoke"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    failures = [line for line in lines if line.startswith("FAILED")]
    assert len(failures) == result["failed"]
    assert all(f" {key}: {field}: got " in line for line in failures)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "sweep", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_predictions_name_benchmark_metrics_and_workloads():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layers = {m["name"] for m in SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    predicted = set()
    for p in PREDICTIONS["predictions"]:
        assert set(p["layer"]) <= layers, p
        assert set(p["moves"]) <= e2e, p
        assert set(p["on"]) <= workloads, p
        predicted |= set(p["layer"])
    assert predicted == layers

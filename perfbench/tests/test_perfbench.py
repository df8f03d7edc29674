"""Tests of the benchmark itself, on shrunken graphs and one-second windows.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# FR at 512 vertices, PK at 64.
TOY = {
    name: dataclasses.replace(w, scale_delta=-5)
    for name, w in workloads.WORKLOADS.items()
}


@pytest.fixture
def toy(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", TOY)


def _run(capsys, workload: str, trace: int, seed: int = 3):
    code = bench.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(toy, capsys, workload, trace):
    code, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in section)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_a_corrupted_answer_fails_the_run(toy, capsys, monkeypatch,
                                          workload):
    import repro.serve.service as service

    real = service.two_phase

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        res.values = res.values + 1.0
        return res

    monkeypatch.setattr(service, "two_phase", corrupted)
    code, result = _run(capsys, workload, trace=0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_knobs_that_change_the_program(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "graph.mutate.add=1.0")
    code = bench.main(["--workload", "serve-pk-telemetry", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-fr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_workloads_and_the_metric_map():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] for w in SPEC["workloads"])
    assert [m["name"] for m in SPEC["end_to_end"]][0] == "setup_s"
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    layer_map = json.loads((BENCH / "metric_map.json").read_text())
    assert list(layer_map["per_layer"]) == [
        m["name"] for m in SPEC["per_layer"]
    ]
    for name, row in layer_map["per_layer"].items():
        if row["layer"].startswith("repro"):
            importlib.import_module(row["layer"])
        for metric, names in row["moves"].items():
            assert metric in end_to_end, (name, metric)
            assert set(names) <= set(workloads.WORKLOADS), (name, names)

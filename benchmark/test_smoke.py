"""Smoke test of the benchmark itself, at its smallest size.

    python3 -m pytest benchmark/test_smoke.py

Runs every workload of BENCHMARK.json untraced and traced with --smoke,
checks that the reported names match BENCHMARK.json, that the
workloads stay apart (no Jacobian on stability, no lattice on solve),
and that the benchmark refuses to run without the library.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _command(workload: str, trace: int) -> list:
    program, *rest = SPEC["command"]
    exe = sys.executable if program.startswith("python") else program
    return [exe, *rest, "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--smoke"]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(_command(workload, trace), cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def _result(workload: str, trace: int):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def _check_shape(result: dict, expected: list):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    units = {m["name"]: m["unit"] for m in expected}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_names(workload):
    prov, result = _result(workload, 0)
    assert prov["workload"] == workload
    _check_shape(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_names_and_isolation(workload):
    prov, result = _result(workload, 1)
    assert prov["workload"] == workload
    _check_shape(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "stability":
        assert metrics["total_space.moment_jacobian.calls"] == 0
        assert metrics["graded.candidate_lattice.calls"] > 0
    if workload == "solve":
        assert metrics["graded.candidate_lattice.calls"] == 0
        assert metrics["total_space.moment_jacobian.calls"] > 0
    if workload == "cli":
        assert metrics["cli.main.calls"] > 0


def test_refuses_to_run_without_the_library():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()

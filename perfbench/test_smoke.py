"""Smoke test of the benchmark: every workload once, at a toy size.

Not a timing gate. It checks that each workload runs, that its output
checks ran and passed, that the result line carries exactly the metrics
``BENCHMARK.json`` declares, and that the benchmark refuses to run outside
a pcfield checkout. Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark's entry point, imported for its spec)

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())

EXPECTED_CHECKS = {
    "ref_study": {"blas_threads_pinned", "partial_localizes_and_beats_classical"},
    "cli_pipeline": {"blas_threads_pinned", "scores_match_in_process"}
    | {f"{stage}_exit_0" for stage in run.CLI_STAGES},
    "dense_montage": {
        "blas_threads_pinned", "factor_rows_unit_norm", "factor_matches_pairwise_partial",
        "seed_map_matches_pairwise_partial",
    },
}


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--size", "small",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def checks_ran(stdout: str, workload: str) -> set[str]:
    prefix = f"[{workload}] checks ran: "
    line = next(line for line in stdout.splitlines() if line.startswith(prefix))
    return {entry.rsplit(" x", 1)[0] for entry in line[len(prefix):].split(", ")}


def test_manifest_matches_spec():
    assert MANIFEST["command"] == ["python3", "perfbench/run.py"]
    assert MANIFEST["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == run.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    completed = run_benchmark(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer"] if trace else MANIFEST["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        required = [name for name, _, _, workloads in run.PER_LAYER if workload in workloads]
    else:
        required = [name for name, *_ in run.END_TO_END]
    for name in required:
        value = result["metrics"][name]["value"]
        assert isinstance(value, float) and value == value, name
    assert EXPECTED_CHECKS[workload] <= checks_ran(completed.stdout, workload)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_work" / "smoke-no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        completed = run_benchmark("ref_study", 0, cwd=bare)
        assert completed.returncode != 0
        assert '"correct"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()

"""Every BENCH_*.json at the repository root is a complete benchmark record.

A record is the before/after evidence of one performance change. Each
holds the keys all records share, and its claim names a workload and an
end-to-end metric that BENCHMARK.json declares, so a claim cannot be
made on a metric the benchmark does not gate.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SHARED_KEYS = {
    "change",
    "parent_commit",
    "command",
    "run_seconds",
    "protocol",
    "environment",
    "claim",
    "notes",
    "workloads",
}

RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_repository_holds_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_holds_the_shared_keys_and_a_declared_claim(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    assert SHARED_KEYS <= record.keys(), sorted(SHARED_KEYS - record.keys())
    claim = record["claim"]
    assert claim["workload"] in {workload["name"] for workload in declared["workloads"]}
    assert claim["metric"] in {metric["name"] for metric in declared["end_to_end"]}

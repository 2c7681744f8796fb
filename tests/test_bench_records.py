"""Every BENCH_*.json at the repository root is a complete benchmark record.

A record is the before/after evidence of one performance change. Each
holds the keys all records share, and its claim names a workload and an
end-to-end metric that BENCHMARK.json declares, so a claim cannot be
made on a metric the benchmark does not gate. The claim must also hold on
the record's own runs: its quartiles and win count are those of the
workload's pairs, and the gain clears the rule below.
"""

import json
import statistics
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_claim_is_a_gain_of_its_own_pairs(path):
    # The rule: at least 10 pairs, the change better in at least 9 of 10,
    # and its median better than the parent's by more than the parent's
    # interquartile distance, in the unit and direction BENCHMARK.json gives.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    claim = record["claim"]
    metric = next(entry for entry in declared["end_to_end"] if entry["name"] == claim["metric"])
    pairs = record["workloads"][claim["workload"]]["pairs"]
    assert len(pairs) >= 10
    values = {}
    for side in ("parent", "change"):
        readings = [pair[side]["metrics"][claim["metric"]] for pair in pairs]
        assert {reading["unit"] for reading in readings} == {claim["unit"]} == {metric["unit"]}
        values[side] = [reading["value"] for reading in readings]
        quartiles = claim[side]
        assert quartiles["q1"] <= quartiles["median"] <= quartiles["q3"]
        assert quartiles["median"] == statistics.median(values[side])
        assert np.allclose(
            np.percentile(values[side], [25, 75]), [quartiles["q1"], quartiles["q3"]],
            rtol=1e-12, atol=0.0,
        )
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (change - parent) < 0 for parent, change in zip(values["parent"], values["change"]))
    assert claim["change_wins"] == f"{wins}/{len(pairs)}"
    assert 10 * wins >= 9 * len(pairs)
    parent, change = claim["parent"], claim["change"]
    assert sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"]

"""Every committed perf record (BENCH_*.json at the repo root) is consistent
with its own runs: each summary recomputes from the parent/change pairs,
with the direction of each metric taken from BENCHMARK.json, and the pairs
are the declared seeds with the side run first alternating."""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _side_summary(values: list[float]) -> dict:
    return {"median": float(np.median(values)),
            "q1": float(np.percentile(values, 25)),
            "q3": float(np.percentile(values, 75)),
            "min": min(values), "max": max(values), "runs": len(values)}


def _workloads(path: Path):
    return json.loads(path.read_text())["workloads"].items()


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_summaries_recompute_from_pairs(path):
    metrics = {m["name"]: m for m in _spec()["end_to_end"]}
    for workload, record in _workloads(path):
        pairs = record["pairs"]
        assert set(record["summary"]) == set(metrics), workload
        for name, summary in record["summary"].items():
            where = f"{workload} {name}"
            better = metrics[name]["better"]
            assert summary["better"] == better, where
            assert summary["unit"] == metrics[name]["unit"], where
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                      for side in SIDES}
            for side in SIDES:
                assert summary[side] == _side_summary(values[side]), where
            sign = 1.0 if better == "higher" else -1.0
            diffs = [sign * (c - p)
                     for p, c in zip(values["parent"], values["change"])]
            assert summary["change_wins"] == sum(d > 0 for d in diffs), where
            assert summary["ties"] == sum(d == 0 for d in diffs), where
            assert summary["pairs"] == len(pairs), where


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_pairs_run_the_declared_seeds_alternating_sides(path):
    declared = {w["name"] for w in _spec()["workloads"]}
    for workload, record in _workloads(path):
        assert workload in declared
        pairs = record["pairs"]
        assert [p["seed"] for p in pairs] == record["seeds"], workload
        firsts = [p["first"] for p in pairs]
        assert set(firsts) <= set(SIDES), workload
        assert all(a != b for a, b in zip(firsts, firsts[1:])), workload


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_every_run_is_a_correct_untraced_run_of_the_gated_length(path):
    record = json.loads(path.read_text())
    assert record["seconds"] == _spec()["run_seconds"]
    assert record["trace"] == 0
    for workload, entry in record["workloads"].items():
        for pair in entry["pairs"]:
            for side in SIDES:
                run = pair[side]
                where = f"{workload} seed {pair['seed']} {side}"
                assert run["correct"] is True, where
                assert run["failed"] == 0, where
                assert run["attempted"] > 0, where

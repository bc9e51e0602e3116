"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The last test runs the traced ablate-small workload twice (about 10 s).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracle import DenseOracle, read_raw_energy
from tracer import covered_seconds, span_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oodhg  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli", 0.0, 10.0, -1],
        ["model.train", 1.0, 9.0, 0],
        ["energy.propagate", 2.0, 4.0, 1],
        ["sparse.matvec", 2.5, 3.5, 2],
        ["energy.propagate", 5.0, 6.0, 1],
    ]
    stats = span_stats(spans)
    assert stats["cli"] == {"calls": 1, "total_s": 10.0, "self_s": 2.0}
    assert stats["model.train"]["self_s"] == pytest.approx(5.0)
    assert stats["energy.propagate"] == {"calls": 2, "total_s": 3.0, "self_s": 2.0}
    assert stats["sparse.matvec"]["self_s"] == pytest.approx(1.0)


def test_coverage_is_the_union_of_nested_and_disjoint_spans():
    spans = [
        ["hetgraph.compose", 0.0, 3.0, -1],
        ["sparse.matmul", 1.0, 2.0, 0],
        ["energy.propagate", 4.0, 5.0, -1],
        ["sparse.matvec", 4.5, 6.0, -1],
        ["model.forward", 7.0, 8.0, -1],
    ]
    assert covered_seconds(spans, ["sparse"]) == pytest.approx(2.5)
    assert covered_seconds(spans, ["energy", "hetgraph", "sparse"]) == pytest.approx(5.0)
    assert covered_seconds(spans, ["metrics"]) == 0.0


def test_dense_oracle_reproduces_both_repairs(tmp_path):
    """A dangling aux node makes a composed row lose mass and an unlinked
    target node gets a self-loop; the oracle must agree with the program on
    both, which the synthetic workloads never exercise."""
    nt = [oodhg.NodeTypeSchema("t", 5, 2), oodhg.NodeTypeSchema("a", 3, 0)]
    et = [oodhg.EdgeTypeSchema("t_a", "t", "a"), oodhg.EdgeTypeSchema("a_t", "a", "t")]
    # aux node 2 has no way back to t; target node 4 has no edges at all
    edges = {"t_a": [(0, 0), (0, 2), (1, 1), (2, 2), (3, 0)],
             "a_t": [(0, 1), (0, 3), (1, 0)]}
    feats = {"t": np.arange(10, dtype=float).reshape(5, 2)}
    graph = oodhg.build_graph(nt, et, edges, feats, "t")
    oodhg.save_dataset(tmp_path, graph)

    path = ("t", "a", "t")
    a_hat = oodhg.compose_metapath(graph, path)
    e0 = np.array([-1.0, 0.5, 2.0, -3.0, 4.0])
    cfg = oodhg.PropagationConfig(gamma=0.3, steps=3)
    expected = oodhg.propagate(e0, a_hat, cfg)

    oracle = DenseOracle(tmp_path, [list(path)])
    _, scale, empty = oracle.paths[0]
    assert np.count_nonzero(scale != 1.0) == 1   # row 0 lost half its mass
    assert empty.tolist() == [False, False, True, False, True]
    assert np.abs(oracle.propagate(e0, 0.3, 3) - expected).max() <= 1e-12


def test_read_raw_energy_orders_by_node_id(tmp_path):
    f = tmp_path / "raw_energy.tsv"
    f.write_text("node_id\tenergy_raw\tenergy_final\n1\t-2.5\t-2.0\n0\t1.0\t0.5\n")
    raw, final = read_raw_energy(f)
    assert raw.tolist() == [1.0, -2.5] and final.tolist() == [0.5, -2.0]


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = run_bench(tmp_path, "--workload", "ablate-small", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_counts_repeat_exactly_across_two_traced_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] != "s" and not m["name"].startswith("trace.")]
    results = []
    for _ in range(2):
        res = run_bench(ROOT, "--workload", "ablate-small", "--seed", "3",
                        "--seconds", "1", "--trace", "1")
        assert res.returncode == 0, res.stderr
        results.append(json.loads(res.stdout.splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["model.distinct_trainings_ratio"]["value"] == 0.75
    assert first["metrics"]["metrics.sweep_moved_ratio"]["value"] == 0.0

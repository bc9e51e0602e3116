"""Metamorphic tests of train + evaluate: relabel the input, and the output
relabels with it.

A rerun that repeats its bytes cannot show that indexing is right; these
cases can. Permuting the target ids (edges, features, labels and splits
together) or each aux type's ids changes only the order of some sums, so
the final energies agree within 1e-12 and model selection and metrics are
equal. Shuffling the rows of an edge list changes nothing the hops see, so
the energies are bitwise equal. Renaming the class values (held-out class
included) in an order-keeping way changes no arithmetic, so the energies
are bitwise equal; and a dataset written with shuffled .tsv rows and no
sidecars makes the CLI write the same files.

Swapping the two aux type names is not an invariant: init_params draws the
feature projections in path order, so each path would get the other's
initial weights. What holds instead is that fusing two paths' propagated
energies does not depend on their order, bit for bit.
"""

import shutil

import numpy as np
import pytest

from oodhg import (
    SynthConfig,
    TrainConfig,
    build_graph,
    evaluate,
    generate_synthetic,
    make_splits,
    train,
)
from oodhg.cli import main
from oodhg.data import Splits
from oodhg.hetgraph import resolve_paths
from oodhg.model import propagated_energies, propagation_operators

TOL = 1e-12
SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def dataset():
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=20, seed=7))
    return graph, labels, make_splits(labels, 3, seed=0)


def _run(graph, labels, splits, seed):
    cfg = TrainConfig(seed=seed, d_hidden=16)
    params, history = train(graph, labels, splits, cfg)
    report = evaluate(graph, labels, splits, params, cfg)
    f1 = [r.val_micro_f1 for r in history.records]
    return report, f1.index(max(f1))


def _rebuild(graph, edges, features=None):
    return build_graph(graph.node_types, graph.edge_types, edges,
                       graph.features if features is None else features,
                       graph.target_type)


def _relabel(graph, type_name, perm):
    """Edges with every endpoint of type_name, node i, renamed perm[i]."""
    edges = {}
    for schema in graph.edge_types:
        pairs = graph.edges[schema.name].copy()
        for col, end in enumerate((schema.src_type, schema.dst_type)):
            if end == type_name:
                pairs[:, col] = perm[pairs[:, col]]
        edges[schema.name] = pairs
    return edges


def _assert_same_outcome(base, other, energies):
    (want, want_epoch), (got, got_epoch) = base, other
    np.testing.assert_allclose(energies(got), want.energy_final,
                               rtol=0, atol=TOL)
    assert got_epoch == want_epoch
    assert got.metrics["auroc"] == want.metrics["auroc"]
    assert got.metrics["micro_f1"] == want.metrics["micro_f1"]


@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_the_target_ids_permutes_the_energies(dataset, seed):
    graph, labels, splits = dataset
    perm = np.random.default_rng(100 + seed).permutation(labels.size)
    target = graph.target_type
    features = {target: np.empty_like(graph.features[target])}
    features[target][perm] = graph.features[target]
    moved_labels = np.empty_like(labels)
    moved_labels[perm] = labels
    moved_splits = Splits(np.sort(perm[splits.train_ids]),
                          np.sort(perm[splits.val_ids]),
                          np.sort(perm[splits.test_ids]), splits.ood_class)
    moved = _rebuild(graph, _relabel(graph, target, perm), features)
    _assert_same_outcome(_run(graph, labels, splits, seed),
                         _run(moved, moved_labels, moved_splits, seed),
                         lambda report: report.energy_final[perm])


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffling_edge_rows_changes_no_energy_bit(dataset, seed):
    graph, labels, splits = dataset
    rng = np.random.default_rng(200 + seed)
    shuffled = _rebuild(graph, {name: rng.permutation(pairs)
                                for name, pairs in graph.edges.items()})
    (want, want_epoch) = _run(graph, labels, splits, seed)
    (got, got_epoch) = _run(shuffled, labels, splits, seed)
    assert got.energy_final.tobytes() == want.energy_final.tobytes()
    assert got_epoch == want_epoch
    assert got.metrics == want.metrics


@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_aux_ids_keeps_the_energies(dataset, seed):
    graph, labels, splits = dataset
    rng = np.random.default_rng(300 + seed)
    moved = graph
    for schema in graph.node_types:
        if schema.name != graph.target_type:
            perm = rng.permutation(schema.count)
            moved = _rebuild(moved, _relabel(moved, schema.name, perm))
    _assert_same_outcome(_run(graph, labels, splits, seed),
                         _run(moved, labels, splits, seed),
                         lambda report: report.energy_final)


@pytest.fixture(scope="module")
def relabel_dataset():
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=20, seed=1))
    return graph, labels, make_splits(labels, 3, seed=0)


@pytest.mark.parametrize("seed", SEEDS)
def test_renaming_class_values_in_order_changes_no_energy_bit(relabel_dataset,
                                                              seed):
    graph, labels, splits = relabel_dataset
    values = np.array([5, 7, 9, 11])
    renamed = Splits(splits.train_ids, splits.val_ids, splits.test_ids,
                     int(values[splits.ood_class]))
    (want, want_epoch) = _run(graph, labels, splits, seed)
    (got, got_epoch) = _run(graph, values[labels], renamed, seed)
    assert got.energy_final.tobytes() == want.energy_final.tobytes()
    assert got_epoch == want_epoch
    assert got.metrics == want.metrics


@pytest.mark.parametrize("seed", SEEDS)
def test_fusing_two_paths_does_not_depend_on_their_order(relabel_dataset,
                                                         seed):
    graph, labels, _ = relabel_dataset
    _, prop = resolve_paths(graph)
    cfg = TrainConfig()
    operators = propagation_operators(graph, prop, cfg.propagation)
    assert len(operators) == 2
    e_raw = np.random.default_rng(400 + seed).standard_normal(labels.size) * 3
    want = propagated_energies(e_raw, operators, cfg.propagation)
    got = propagated_energies(e_raw, operators[::-1], cfg.propagation)
    assert got.tobytes() == want.tobytes()


def _shuffle_tables(root, rng):
    """Shuffle the rows of every .tsv table under root and delete every
    sidecar, so each table is parsed from its shuffled text."""
    for table in sorted(root.rglob("*.tsv")):
        rows = table.read_text().splitlines(keepends=True)
        table.write_text("".join(rows[i] for i in rng.permutation(len(rows))))
    for sidecar in root.rglob("*.bin"):
        sidecar.unlink()


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_writes_the_same_files_from_shuffled_tables(tmp_path,
                                                        monkeypatch):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--per-class", "20", "--seed", "1",
                 "-o", str(first / "data")]) == 0
    shutil.copytree(first / "data", second / "data")
    _shuffle_tables(second / "data", np.random.default_rng(500))
    assert not list((second / "data").rglob("*.bin"))
    for root in (first, second):
        # relative paths, because the outputs echo them
        monkeypatch.chdir(root)
        assert main(["train", "--data", "data", "--ood-class", "3",
                     "--epochs", "20", "--out", "run"]) == 0
        assert main(["eval", "--ckpt", "run/checkpoint.json", "--data", "data",
                     "--out", "eval"]) == 0
    for name in ("run", "eval"):
        assert _tree_bytes(second / name) == _tree_bytes(first / name)

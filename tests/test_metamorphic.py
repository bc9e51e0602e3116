"""Metamorphic tests of train + evaluate: relabel the input, and the output
relabels with it.

A rerun that repeats its bytes cannot show that indexing is right; these
cases can. Permuting the target ids (edges, features, labels and splits
together) or each aux type's ids changes only the order of some sums, so
the final energies agree within 1e-12 and model selection and metrics are
equal. Shuffling the rows of an edge list changes nothing the hops see, so
the energies are bitwise equal.
"""

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
from oodhg.data import Splits

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

"""EvalReport.at reads another threshold off one scoring pass: the report it
returns must equal, bit for bit, a fresh evaluate at that threshold."""

import dataclasses

import numpy as np
import pytest

from oodhg import (
    SynthConfig,
    TrainConfig,
    evaluate,
    generate_synthetic,
    make_splits,
    train,
)
from oodhg.errors import LabelOutOfRange, ValidationError
from oodhg.pipeline import resolve_paths


def _bits(value):
    """Comparable bytes of a report field: arrays by dtype, shape and
    content, metric dicts key by key, floats by their binary64 pattern."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return np.float64(value).tobytes()


@pytest.fixture(scope="module")
def scored():
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=25, seed=7))
    splits = make_splits(labels, 3, seed=0)
    feat, prop = resolve_paths(graph)
    cfg = TrainConfig(epochs=5, d_hidden=8)
    params, _ = train(graph, labels, splits, cfg, feat, prop)
    return lambda tau: evaluate(graph, labels, splits, params, cfg, tau)


def test_at_matches_a_fresh_evaluate_bitwise(scored):
    base = scored(1.0)
    ids = base.test_ids
    # a threshold exactly at one test node's -E, which counts as OOD
    boundary = float(-base.energy_final[ids[3]])
    for tau in (1.0, -50.0, 1.5, boundary, 50.0):
        fresh, read = scored(tau), base.at(tau)
        for f in dataclasses.fields(fresh):
            assert _bits(getattr(read, f.name)) == _bits(getattr(fresh, f.name)), \
                (tau, f.name)
    ood = base.probs.shape[1]
    assert base.at(boundary).predicted[3] == ood
    assert base.at(np.nextafter(boundary, -np.inf)).predicted[3] != ood


def test_at_rejects_non_finite_tau(scored):
    with pytest.raises(ValueError, match="tau must be finite"):
        scored(1.0).at(float("nan"))


def test_evaluate_rejects_splits_with_other_classes():
    # splits holding out class 2 instead of 3 once made evaluate relabel
    # output column 2 as class 3 and report AUROC 0.335
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=150, seed=3))
    cfg = TrainConfig(epochs=10)
    params, _ = train(graph, labels, make_splits(labels, 3, seed=0), cfg)
    np.testing.assert_array_equal(params.classes, [0, 1, 2])
    with pytest.raises(ValidationError, match=r"model class set \[0, 1, 2\] "
                       r"does not match the splits' train/val classes "
                       r"\[0, 1, 3\]"):
        evaluate(graph, labels, make_splits(labels, 2, seed=0), params, cfg)


def test_evaluate_rejects_a_test_label_outside_the_protocol():
    # train refuses such splits, so the model is trained on labels whose
    # test split holds only train/val classes and the held-out class
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=25, seed=7))
    splits = make_splits(labels, 3, seed=0)
    cfg = TrainConfig(epochs=2, d_hidden=8)
    params, _ = train(graph, labels, splits, cfg)
    relabelled = labels.copy()
    node = next(int(i) for i in splits.test_ids if labels[i] != 3)
    relabelled[node] = 7
    with pytest.raises(LabelOutOfRange, match=r"^label 7 is neither a "
                       r"train/val class nor the held-out class 3$"):
        evaluate(graph, relabelled, splits, params, cfg)

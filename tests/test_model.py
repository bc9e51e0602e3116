import dataclasses

import numpy as np
import pytest

from oodhg import (
    EdgeTypeSchema,
    NodeTypeSchema,
    SynthConfig,
    TrainConfig,
    build_graph,
    energy_scores,
    forward,
    generate_synthetic,
    gradients,
    loss_classification,
    loss_energy,
    loss_total,
    make_splits,
    run_experiment,
    softmax_probs,
    train,
)
from oodhg.errors import EmptyTrainSet, LabelOutOfRange, OodLabelInTrainSet
from oodhg.hetgraph import MetaPath
from oodhg.model import (
    feature_tables,
    forward_from_features,
    id_class_values,
    init_params,
    map_to_head,
    training_loss,
)

from conftest import dense_row_normalize


def small_instance(seed=0, nodes_per_class=4):
    """Tiny planted instance: 3 blocks of target nodes, class 2 held out."""
    cfg = SynthConfig(n_id_classes=2, nodes_per_class=nodes_per_class,
                      n_aux_types=1, feature_dim=3, intra_edge_prob=0.6,
                      inter_edge_prob=0.2, ood_shift=1.0, seed=seed)
    graph, labels = generate_synthetic(cfg)
    return graph, labels


def gradcheck_instance(seed, n_target=12, n_aux=5, feature_dim=3):
    """Mirrored random bipartite graph with no isolated target node.

    Isolation would put a zero feature row through the zero-initialized
    biases, parking a pre-activation exactly on the ReLU kink where the
    loss is not differentiable and finite differences cannot agree.
    """
    rng = np.random.default_rng(seed)
    mask = rng.random((n_target, n_aux)) < 0.4
    mask[np.arange(n_target), rng.integers(0, n_aux, n_target)] = True
    pairs = np.argwhere(mask)
    node_types = [NodeTypeSchema("target", n_target, feature_dim),
                  NodeTypeSchema("aux0", n_aux)]
    edge_types = [EdgeTypeSchema("target_aux0", "target", "aux0"),
                  EdgeTypeSchema("aux0_target", "aux0", "target")]
    edges = {"target_aux0": pairs, "aux0_target": pairs[:, ::-1]}
    features = {"target": rng.standard_normal((n_target, feature_dim))}
    graph = build_graph(node_types, edge_types, edges, features, "target")
    labels = rng.integers(0, 2, n_target)
    return graph, labels


def make_params(graph, feature_paths, seed, d_hidden, n_classes):
    rng = np.random.Generator(np.random.Philox(seed))
    dims = [x.shape[1] for x in feature_tables(graph, feature_paths)]
    return init_params(rng, feature_paths, dims, d_hidden, n_classes)


GRAD_CFG = TrainConfig(alpha=0.5, m_in=-2.0, gamma=0.6, steps=2, d_hidden=3)


def fd_gradients(graph, feat, prop, params, labels, train_ids, cfg, step=1e-5):
    """Central finite differences over every scalar parameter."""
    out = []
    for arr in params.param_list():
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = training_loss(graph, feat, prop, params, labels, train_ids, cfg)[0]
            flat[i] = orig - step
            lm = training_loss(graph, feat, prop, params, labels, train_ids, cfg)[0]
            flat[i] = orig
            gflat[i] = (lp - lm) / (2.0 * step)
        out.append(g)
    return out


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        graph, _ = small_instance()
        paths = [MetaPath(("target", "aux0", "target"))]
        params = make_params(graph, paths, 0, 4, 3)
        for arr in params.param_list():
            arr[...] = 0.0
        assert np.all(forward(graph, paths, params) == 0.0)

    def test_identity_composition_single_feature(self):
        # one path, 1x1 identity projections, identity head, non-negative
        # features: logits equal the aggregated features
        node_types = [NodeTypeSchema("t", 2, 1), NodeTypeSchema("u", 1)]
        edge_types = [EdgeTypeSchema("tu", "t", "u"), EdgeTypeSchema("ut", "u", "t")]
        edges = {"tu": [(0, 0), (1, 0)], "ut": [(0, 0), (0, 1)]}
        features = {"t": np.array([[2.0], [4.0]])}
        graph = build_graph(node_types, edge_types, edges, features, "t")
        paths = [MetaPath(("t", "u", "t"))]
        params = make_params(graph, paths, 0, 1, 1)
        params.proj_weights[0][...] = 1.0
        params.proj_biases[0][...] = 0.0
        params.hidden_weight[...] = 1.0
        params.hidden_bias[...] = 0.0
        params.out_weight[...] = 1.0
        params.out_bias[...] = 0.0
        logits = forward(graph, paths, params)
        np.testing.assert_allclose(logits, [[3.0], [3.0]], atol=1e-15)

    def test_matches_straight_line_dense_oracle(self):
        graph, _ = small_instance(seed=3)
        paths = [MetaPath(("target", "aux0", "target"))]
        params = make_params(graph, paths, 7, 5, 3)
        got = forward(graph, paths, params)

        # independent recomputation from the raw edge lists
        n_t = graph.target_count
        n_a = graph.node_count("aux0")
        fwd = np.zeros((n_t, n_a))
        rev = np.zeros((n_a, n_t))
        for a, b in graph.edges["target_aux0"]:
            fwd[a, b] = 1.0
        for a, b in graph.edges["aux0_target"]:
            rev[a, b] = 1.0
        x = (dense_row_normalize(fwd) @ dense_row_normalize(rev)
             @ graph.features["target"])
        z = x @ params.proj_weights[0] + params.proj_biases[0]
        h = np.maximum(z @ params.hidden_weight + params.hidden_bias, 0.0)
        expected = h @ params.out_weight + params.out_bias
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestSoftmax:
    def test_symmetric(self):
        np.testing.assert_allclose(softmax_probs(np.array([[0.0, 0.0]])),
                                   [[0.5, 0.5]], atol=1e-15)

    def test_large_logits_stable(self):
        p = softmax_probs(np.array([[1000.0, 0.0]]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p, [[1.0, 0.0]], atol=1e-12)

    def test_one_two_three_row(self):
        p = softmax_probs(np.array([[1.0, 2.0, 3.0]]))
        e = np.exp([1.0, 2.0, 3.0])
        np.testing.assert_allclose(p[0], e / e.sum(), atol=1e-14)
        np.testing.assert_allclose(
            p[0], [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = softmax_probs(rng.standard_normal((40, 6)) * 30)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_leaves_probs_and_moves_energy(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((10, 4))
        c = 2.75
        np.testing.assert_allclose(softmax_probs(h + c), softmax_probs(h),
                                   atol=1e-12)
        np.testing.assert_allclose(energy_scores(h + c),
                                   energy_scores(h) - c, atol=1e-10)


class TestLosses:
    def test_confident_correct_logits_vanish(self):
        logits = np.array([[50.0, 0.0], [0.0, 50.0]])
        loss = loss_classification(logits, np.array([0, 1]), np.array([0, 1]))
        assert loss < 1e-20

    def test_uniform_logits_log_k(self):
        loss = loss_classification(np.zeros((3, 4)), np.zeros(3, dtype=int),
                                   np.arange(3))
        np.testing.assert_allclose(loss, np.log(4.0), atol=1e-12)

    def test_classification_matches_direct_recomputation(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, 5)
        ids = np.array([0, 2, 3])
        probs = softmax_probs(logits)
        expected = -np.mean([np.log(probs[i, labels[i]]) for i in ids])
        got = loss_classification(logits, labels, ids)
        assert abs(got - expected) <= 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            loss_classification(np.zeros((2, 2)), np.array([0, 5]), np.array([1]))

    def test_energy_hinge_inactive(self):
        assert loss_energy(np.array([-4.0, -3.5]), np.array([0, 1]), -3.0) == 0.0

    def test_energy_single_node(self):
        assert loss_energy(np.array([-1.0]), np.array([0]), -3.0) == 4.0

    def test_energy_matches_direct_recomputation(self):
        rng = np.random.default_rng(3)
        e = rng.standard_normal(10) * 2
        ids = np.array([1, 4, 7, 9])
        m_in = -0.5
        expected = np.mean([max(0.0, e[i] - m_in) ** 2 for i in ids])
        assert abs(loss_energy(e, ids, m_in) - expected) <= 1e-12

    def test_total_endpoints_and_midpoint(self):
        assert loss_total(2.0, 4.0, 1.0) == 2.0
        assert loss_total(2.0, 4.0, 0.0) == 4.0
        assert loss_total(2.0, 4.0, 0.5) == 3.0


class TestGradients:
    def _setup(self, seed):
        graph, labels = gradcheck_instance(seed)
        paths = [MetaPath(("target", "aux0", "target"))]
        params = make_params(graph, paths, seed + 100, GRAD_CFG.d_hidden, 2)
        y_head = map_to_head(labels, np.array([0, 1]))
        train_ids = np.array([0, 1, 2, 4, 5, 6])
        return graph, paths, params, y_head, train_ids

    def test_matches_finite_differences(self):
        for seed in range(3):
            graph, paths, params, y_head, train_ids = self._setup(seed)
            got = gradients(graph, paths, paths, params, y_head, train_ids,
                            GRAD_CFG)
            fd = fd_gradients(graph, paths, paths, params, y_head, train_ids,
                              GRAD_CFG)
            for a, f in zip(got.param_list(), fd):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-3)
                assert np.all(np.abs(a - f) <= np.maximum(1e-7, 1e-4 * denom))

    def test_inactive_hinge_pure_energy_gradient_is_zero(self):
        graph, paths, params, y_head, train_ids = self._setup(0)
        cfg = dataclasses.replace(GRAD_CFG, alpha=0.0, m_in=100.0)
        got = gradients(graph, paths, paths, params, y_head, train_ids, cfg)
        for g in got.param_list():
            assert np.all(g == 0.0)

    def test_gamma_one_equals_no_propagation(self):
        graph, paths, params, y_head, train_ids = self._setup(1)
        g_ident = gradients(graph, paths, paths, params, y_head, train_ids,
                            dataclasses.replace(GRAD_CFG, gamma=1.0))
        g_off = gradients(graph, paths, paths, params, y_head, train_ids,
                          dataclasses.replace(GRAD_CFG, steps=0))
        for a, b in zip(g_ident.param_list(), g_off.param_list()):
            np.testing.assert_array_equal(a, b)


class TestTrain:
    def _splits(self, labels, seed=0):
        return make_splits(labels, ood_class=int(labels.max()), seed=seed)

    def test_single_epoch_single_update(self):
        graph, labels = small_instance(nodes_per_class=10)
        splits = self._splits(labels)
        cfg = TrainConfig(epochs=1, seed=0, d_hidden=4)
        params, history = train(graph, labels, splits, cfg)
        assert len(history) == 1
        fresh = make_params(
            graph, params.paths, 0, 4,
            id_class_values(labels, splits.train_ids, splits.val_ids).size)
        # one Adam step moved the weights
        assert not np.array_equal(params.hidden_weight, fresh.hidden_weight)

    def test_epoch_count_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_bitwise_deterministic(self):
        graph, labels = small_instance(nodes_per_class=10)
        splits = self._splits(labels)
        cfg = TrainConfig(epochs=6, seed=11, d_hidden=4)
        p1, h1 = train(graph, labels, splits, cfg)
        p2, h2 = train(graph, labels, splits, cfg)
        assert h1.records == h2.records
        for a, b in zip(p1.param_list(), p2.param_list()):
            np.testing.assert_array_equal(a, b)

    def test_ignores_test_labels(self):
        graph, labels = small_instance(nodes_per_class=10)
        splits = self._splits(labels)
        cfg = TrainConfig(epochs=5, seed=3, d_hidden=4)
        _, h1 = train(graph, labels, splits, cfg)
        perturbed = labels.copy()
        in_split = set(splits.train_ids) | set(splits.val_ids)
        test_only = [i for i in splits.test_ids if i not in in_split
                     and perturbed[i] != splits.ood_class]
        perturbed[test_only[0]] = 1 - perturbed[test_only[0]]
        _, h2 = train(graph, perturbed, splits, cfg)
        assert h1.records == h2.records

    def test_empty_train_set(self):
        graph, labels = small_instance(nodes_per_class=10)
        splits = self._splits(labels)
        bad = dataclasses.replace(splits, train_ids=np.array([], dtype=np.int64))
        with pytest.raises(EmptyTrainSet):
            train(graph, labels, bad, TrainConfig(epochs=1))

    def test_empty_validation_split_evaluates_at_default_tau(self):
        graph, labels = small_instance(nodes_per_class=10)
        splits = dataclasses.replace(self._splits(labels),
                                     val_ids=np.array([], dtype=np.int64))
        _, history, report = run_experiment(
            graph, labels, splits, TrainConfig(epochs=2, d_hidden=4))
        assert len(history) == 2
        assert report.tau == 1.0

    def test_ood_label_in_train_set(self):
        graph, labels = small_instance(nodes_per_class=10)
        splits = self._splits(labels)
        ood_node = int(np.flatnonzero(labels == splits.ood_class)[0])
        bad = dataclasses.replace(
            splits, train_ids=np.append(splits.train_ids, ood_node))
        with pytest.raises(OodLabelInTrainSet):
            train(graph, labels, bad, TrainConfig(epochs=1))

    def test_separable_instance_reaches_high_training_f1(self):
        cfg_gen = SynthConfig(nodes_per_class=100, intra_edge_prob=0.15,
                              inter_edge_prob=0.002, seed=0)
        graph, labels = generate_synthetic(cfg_gen)
        splits = make_splits(labels, 3, seed=0)
        cfg = TrainConfig(alpha=1.0, steps=0, seed=0)
        params, _ = train(graph, labels, splits, cfg)
        y_head = map_to_head(labels, id_class_values(
            labels, splits.train_ids, splits.val_ids))
        xs = feature_tables(graph, list(params.paths))
        logits = forward_from_features(xs, params)
        train_f1 = np.mean(
            logits[splits.train_ids].argmax(axis=1) == y_head[splits.train_ids])
        assert train_f1 >= 0.95

    def test_train_energy_descends(self):
        cfg_gen = SynthConfig(nodes_per_class=100, intra_edge_prob=0.15,
                              inter_edge_prob=0.002, seed=1)
        graph, labels = generate_synthetic(cfg_gen)
        splits = make_splits(labels, 3, seed=1)
        _, history = train(graph, labels, splits, TrainConfig(seed=1))
        assert history.records[-1].train_energy_mean < history.records[0].train_energy_mean

    def test_total_loss_alpha_one_equals_classification(self):
        graph, labels = small_instance(nodes_per_class=10)
        splits = self._splits(labels)
        cfg = TrainConfig(epochs=3, alpha=1.0, seed=5, d_hidden=4)
        _, history = train(graph, labels, splits, cfg)
        for rec in history.records:
            assert rec.total_loss == rec.class_loss

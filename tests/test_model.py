import copy
import dataclasses

import numpy as np
import pytest

from oodhg import (
    EdgeTypeSchema,
    PropagationConfig,
    NodeTypeSchema,
    SynthConfig,
    TrainConfig,
    build_graph,
    forward,
    generate_synthetic,
    gradients,
    loss_total,
    make_splits,
    run_experiment,
    train,
)
from oodhg import model
from oodhg.errors import (
    EmptyTrainSet,
    InvalidPath,
    LabelOutOfRange,
    OodLabelInTrainSet,
    ShapeMismatch,
    TrainingDiverged,
)
from oodhg.energy import fuse, logit_pass, propagate, propagate_transpose
from oodhg.hetgraph import MetaPath, resolve_paths
from oodhg.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EpochRecord,
    feature_tables,
    forward_from_features,
    id_class_values,
    init_params,
    map_to_head,
    propagation_operators,
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


def gradcheck_instance(seed, n_target=12, n_aux=5, feature_dim=3, aux_dim=0):
    """Mirrored random bipartite graph with no isolated target node; aux0
    nodes carry aux_dim features.

    Isolation would put a zero feature row through the zero-initialized
    biases, parking a pre-activation exactly on the ReLU kink where the
    loss is not differentiable and finite differences cannot agree.
    """
    rng = np.random.default_rng(seed)
    mask = rng.random((n_target, n_aux)) < 0.4
    mask[np.arange(n_target), rng.integers(0, n_aux, n_target)] = True
    pairs = np.argwhere(mask)
    node_types = [NodeTypeSchema("target", n_target, feature_dim),
                  NodeTypeSchema("aux0", n_aux, aux_dim)]
    edge_types = [EdgeTypeSchema("target_aux0", "target", "aux0"),
                  EdgeTypeSchema("aux0_target", "aux0", "target")]
    edges = {"target_aux0": pairs, "aux0_target": pairs[:, ::-1]}
    features = {"target": rng.standard_normal((n_target, feature_dim))}
    if aux_dim:
        features["aux0"] = rng.standard_normal((n_aux, aux_dim))
    graph = build_graph(node_types, edge_types, edges, features, "target")
    labels = rng.integers(0, 2, n_target)
    return graph, labels


def make_params(graph, feature_paths, seed, d_hidden, n_classes,
                prop_paths=()):
    rng = np.random.Generator(np.random.Philox(seed))
    dims = [x.shape[1] for x in feature_tables(graph, feature_paths)]
    return init_params(rng, feature_paths, dims, d_hidden,
                       np.arange(n_classes), prop_paths)


GRAD_CFG = TrainConfig(alpha=0.5, m_in=-2.0, gamma=0.6, steps=2, d_hidden=3)


def fd_gradients(graph, params, labels, train_ids, cfg, step=1e-5):
    """Central finite differences over every scalar parameter."""
    out = []
    for arr in params.param_list():
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = training_loss(graph, params, labels, train_ids, cfg)[0]
            flat[i] = orig - step
            lm = training_loss(graph, params, labels, train_ids, cfg)[0]
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
        assert np.all(forward(graph, params) == 0.0)

    def test_feature_tables_need_a_path(self):
        graph, _ = small_instance()
        with pytest.raises(InvalidPath, match="at least one feature meta-path"):
            feature_tables(graph, [])

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
        logits = forward(graph, params)
        np.testing.assert_allclose(logits, [[3.0], [3.0]], atol=1e-15)

    def test_matches_straight_line_dense_oracle(self):
        graph, _ = small_instance(seed=3)
        paths = [MetaPath(("target", "aux0", "target"))]
        params = make_params(graph, paths, 7, 5, 3)
        got = forward(graph, params)

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
        np.testing.assert_allclose(logit_pass(np.array([[0.0, 0.0]])).probs,
                                   [[0.5, 0.5]], atol=1e-15)

    def test_large_logits_stable(self):
        p = logit_pass(np.array([[1000.0, 0.0]])).probs
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p, [[1.0, 0.0]], atol=1e-12)

    def test_one_two_three_row(self):
        p = logit_pass(np.array([[1.0, 2.0, 3.0]])).probs
        e = np.exp([1.0, 2.0, 3.0])
        np.testing.assert_allclose(p[0], e / e.sum(), atol=1e-14)
        np.testing.assert_allclose(
            p[0], [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = logit_pass(rng.standard_normal((40, 6)) * 30).probs
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_leaves_probs_and_moves_energy(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((10, 4))
        c = 2.75
        shifted, plain = logit_pass(h + c), logit_pass(h)
        np.testing.assert_allclose(shifted.probs, plain.probs, atol=1e-12)
        np.testing.assert_allclose(shifted.energy, plain.energy - c, atol=1e-10)


class TestLosses:
    """The class and energy terms of training_loss, against recomputations
    from forward's logits."""

    def _instance(self, n_classes, seed=0):
        """(graph, head labels in [0, 2), params) on the gradcheck graph,
        whose twelve target nodes all have a PROP_PATH neighbour."""
        graph, labels = gradcheck_instance(seed)
        params = make_params(graph, [PROP_PATH], seed, GRAD_CFG.d_hidden,
                             n_classes, [PROP_PATH])
        return graph, labels, params

    def _losses(self, graph, params, labels, train_ids, **changes):
        """(total, classification, energy) at GRAD_CFG with changes."""
        return training_loss(graph, params, labels, np.asarray(train_ids),
                             dataclasses.replace(GRAD_CFG, **changes))

    def test_confident_correct_logits_vanish(self):
        graph, _, params = self._instance(2)
        params.out_weight[...] = 0.0
        for cls in (0, 1):
            params.out_bias[...] = 0.0
            params.out_bias[cls] = 50.0
            labels = np.full(graph.target_count, cls)
            _, loss, _ = self._losses(graph, params, labels, [0, 1, 2])
            assert loss < 1e-20

    def test_uniform_logits_log_k(self):
        graph, labels, params = self._instance(4)
        for arr in params.param_list():
            arr[...] = 0.0
        _, loss, _ = self._losses(graph, params, labels, np.arange(3))
        np.testing.assert_allclose(loss, np.log(4.0), atol=1e-12)

    def test_classification_matches_direct_recomputation(self):
        graph, _, params = self._instance(3, seed=2)
        labels = np.random.default_rng(2).integers(0, 3, graph.target_count)
        ids = np.array([0, 2, 3, 7])
        logits = forward(graph, params)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.mean([np.log(probs[i, labels[i]]) for i in ids])
        _, got, _ = self._losses(graph, params, labels, ids)
        assert abs(got - expected) <= 1e-12

    def test_label_out_of_range(self):
        graph, labels, params = self._instance(2)
        labels = labels.copy()
        labels[1] = 5
        with pytest.raises(LabelOutOfRange, match=r"label 5 outside \[0, 2\)"):
            self._losses(graph, params, labels, [0, 1])
        with pytest.raises(LabelOutOfRange):
            gradients(graph, params, labels, np.array([0, 1]), GRAD_CFG)

    def test_energy_hinge_inactive(self):
        graph, labels, params = self._instance(2)
        _, _, loss = self._losses(graph, params, labels, [0, 1], m_in=100.0)
        assert loss == 0.0

    def test_energy_single_node(self):
        # one class and a zero encoder: every raw energy is -out_bias = -1
        graph, _, params = self._instance(1)
        for arr in params.param_list():
            arr[...] = 0.0
        params.out_bias[...] = 1.0
        labels = np.zeros(graph.target_count, dtype=np.int64)
        _, _, loss = self._losses(graph, params, labels, [0], m_in=-3.0,
                                  steps=0)
        assert loss == 4.0

    def test_energy_matches_direct_recomputation(self):
        graph, labels, params = self._instance(2, seed=3)
        ids = np.array([1, 4, 7, 9])
        m_in = -0.9                    # between the raw energies of ids
        logits = forward(graph, params)
        e = -np.log(np.exp(logits).sum(axis=1))
        fwd = np.zeros((graph.target_count, graph.node_count("aux0")))
        fwd[tuple(graph.edges["target_aux0"].T)] = 1.0
        a_hat = dense_row_normalize(fwd) @ dense_row_normalize(fwd.T)
        for _ in range(GRAD_CFG.steps):
            e = GRAD_CFG.gamma * e + (1.0 - GRAD_CFG.gamma) * (a_hat @ e)
        expected = np.mean([max(0.0, e[i] - m_in) ** 2 for i in ids])
        assert expected > 0.0
        total, l_c, got = self._losses(graph, params, labels, ids, m_in=m_in)
        assert abs(got - expected) <= 1e-12
        assert total == 0.5 * l_c + 0.5 * got

    def test_total_endpoints_and_midpoint(self):
        assert loss_total(2.0, 4.0, 1.0) == 2.0
        assert loss_total(2.0, 4.0, 0.0) == 4.0
        assert loss_total(2.0, 4.0, 0.5) == 3.0


PROP_PATH = MetaPath(("target", "aux0", "target"))


def assert_close_to_oracle(got, want, tol=1e-12):
    """|got - want| <= tol times the largest magnitude of either array."""
    scale = max(np.abs(got).max(initial=0.0), np.abs(want).max(initial=0.0))
    assert np.abs(got - want).max(initial=0.0) <= tol * scale


class TestGradients:
    def _setup(self, seed):
        graph, labels = gradcheck_instance(seed)
        paths = [PROP_PATH]
        params = make_params(graph, paths, seed + 100, GRAD_CFG.d_hidden, 2,
                             [PROP_PATH])
        y_head = map_to_head(labels, np.array([0, 1]))
        train_ids = np.array([0, 1, 2, 4, 5, 6])
        return graph, paths, params, y_head, train_ids

    def _two_path_setup(self, seed):
        """Feature paths of widths 2 and 3 and random non-zero biases, so
        the bias terms of the folded hidden layer carry weight."""
        graph, labels = gradcheck_instance(seed, aux_dim=2)
        paths = [MetaPath(("target", "aux0")), PROP_PATH]
        params = make_params(graph, paths, seed + 100, GRAD_CFG.d_hidden, 2,
                             [PROP_PATH])
        rng = np.random.default_rng(seed)
        for b in params.proj_biases + [params.hidden_bias, params.out_bias]:
            b[...] = rng.uniform(-0.5, 0.5, b.shape)
        y_head = map_to_head(labels, np.array([0, 1]))
        train_ids = np.array([0, 1, 2, 4, 5, 6])
        return graph, paths, params, y_head, train_ids

    def _inputs(self):
        """(graph, feature paths, params, head labels, train ids)."""
        return [self._setup(seed) for seed in range(3)] + [
            self._two_path_setup(3)]

    def test_matches_finite_differences(self):
        # steps 0 encodes only the training rows, so the row cut is checked
        # as well as the propagation adjoint
        configs = [GRAD_CFG, dataclasses.replace(GRAD_CFG, steps=0),
                   dataclasses.replace(GRAD_CFG, steps=0, alpha=1.0)]
        for graph, paths, params, y_head, train_ids in self._inputs():
            for cfg in configs:
                got = gradients(graph, params, y_head, train_ids, cfg)
                fd = fd_gradients(graph, params, y_head, train_ids, cfg)
                for a, f in zip(got.param_list(), fd, strict=True):
                    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-3)
                    assert np.all(
                        np.abs(a - f) <= np.maximum(1e-7, 1e-4 * denom))

    def test_matches_the_textbook_encoder(self):
        for graph, paths, params, y_head, train_ids in self._inputs():
            got = gradients(graph, params, y_head, train_ids, GRAD_CFG)
            xs = feature_tables(graph, paths)
            a_hats = propagation_operators(graph, [PROP_PATH],
                                           GRAD_CFG.propagation)
            _, want = _ref_forward_backward(xs, a_hats, params, y_head,
                                            train_ids, GRAD_CFG)
            for a, w in zip(got.param_list(), want, strict=True):
                assert_close_to_oracle(a, w)

    def test_inactive_hinge_pure_energy_gradient_is_zero(self):
        graph, paths, params, y_head, train_ids = self._setup(0)
        cfg = dataclasses.replace(GRAD_CFG, alpha=0.0, m_in=100.0)
        got = gradients(graph, params, y_head, train_ids, cfg)
        for g in got.param_list():
            assert np.all(g == 0.0)

    def test_gamma_one_equals_no_propagation(self):
        graph, paths, params, y_head, train_ids = self._setup(1)
        g_ident = gradients(graph, params, y_head, train_ids,
                            dataclasses.replace(GRAD_CFG, gamma=1.0))
        g_off = gradients(graph, params, y_head, train_ids,
                          dataclasses.replace(GRAD_CFG, steps=0))
        for a, b in zip(g_ident.param_list(), g_off.param_list()):
            np.testing.assert_array_equal(a, b)


def test_gamma_one_trains_the_steps_zero_parameters():
    """gamma 1 leaves energies where steps 0 does, so it builds no operator
    and takes the steps 0 row cut; on 1,000 targets, where BLAS regroups
    the backward's row sums, the parameters are bitwise the steps 0 run's."""
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=250,
                                                   seed=3))
    assert propagation_operators(graph, resolve_paths(graph)[1],
                                 PropagationConfig(1.0, 2)) == []
    splits = make_splits(labels, 3, seed=0)
    still, _ = train(graph, labels, splits,
                     TrainConfig(seed=0, epochs=5, gamma=1.0))
    off, _ = train(graph, labels, splits,
                   TrainConfig(seed=0, epochs=5, steps=0))
    for a, b in zip(still.param_list(), off.param_list(), strict=True):
        assert a.tobytes() == b.tobytes()


def test_id_class_values_is_np_unique():
    rng = np.random.default_rng(4)
    labels = rng.integers(-3, 9, 300)
    for n_train, n_val in [(0, 0), (1, 0), (0, 5), (40, 12), (200, 100)]:
        ids = rng.permutation(300)
        train_ids, val_ids = ids[:n_train], ids[n_train:n_train + n_val]
        got = id_class_values(labels, train_ids, val_ids)
        want = np.unique(labels[np.concatenate([train_ids, val_ids])])
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


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

    @pytest.mark.parametrize("field, value, message", [
        ("learning_rate", 0.0, "learning_rate must be > 0, got 0.0"),
        ("learning_rate", -1e-3, "learning_rate must be > 0, got -0.001"),
        ("d_hidden", 0, "d_hidden must be >= 1, got 0"),
    ], ids=["zero-rate", "negative-rate", "no-hidden-units"])
    def test_config_refuses_value(self, field, value, message):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("n_tables", [0, 2])
    def test_workspace_needs_one_table_per_projection(self, n_tables):
        graph, _ = small_instance()
        paths = resolve_paths(graph)[0]
        assert len(paths) == 1
        params = make_params(graph, paths, 0, 4, 2)
        xs = feature_tables(graph, paths) * n_tables
        with pytest.raises(ShapeMismatch) as info:
            model._Workspace(xs, params)
        assert str(info.value) == f"{n_tables} feature tables for 1 projections"

    def test_default_feature_paths_are_resolve_paths(self):
        graph, labels = generate_synthetic(SynthConfig(nodes_per_class=10))
        splits = self._splits(labels)
        params, _ = train(graph, labels, splits, TrainConfig(epochs=1))
        assert params.paths == tuple(resolve_paths(graph)[0])

    def test_params_record_prop_paths_and_classes(self):
        graph, labels = generate_synthetic(SynthConfig(nodes_per_class=10))
        splits = self._splits(labels)
        params, _ = train(graph, labels, splits, TrainConfig(epochs=2))
        assert params.prop_paths == tuple(resolve_paths(graph)[1])
        assert params.classes.dtype == np.int64
        np.testing.assert_array_equal(params.classes, id_class_values(
            labels, splits.train_ids, splits.val_ids))
        assert params.classes.size == params.n_classes

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

    # seed 0's best epoch is epoch 2 of 4; seed 1 ties epochs 0-2
    @pytest.mark.parametrize("seed", [0, 1])
    def test_validation_scores_the_parameters_leaving_each_epoch(self, seed):
        graph, labels = small_instance(nodes_per_class=20)
        splits = self._splits(labels)
        cfg = TrainConfig(epochs=4, seed=seed, d_hidden=4, learning_rate=0.1)
        best, history = train(graph, labels, splits, cfg)
        y_head = map_to_head(labels, id_class_values(
            labels, splits.train_ids, splits.val_ids))
        xs = feature_tables(graph, list(best.paths))
        # validation ids do not enter the gradient, so without them train
        # returns the parameters leaving its last epoch
        no_val = dataclasses.replace(splits, val_ids=np.array([], dtype=np.int64))
        leaving = [train(graph, labels, no_val,
                         dataclasses.replace(cfg, epochs=t + 1))[0]
                   for t in range(cfg.epochs)]
        for rec, params in zip(history.records, leaving):
            logits = forward_from_features(xs, params)[splits.val_ids]
            assert rec.val_micro_f1 == float(np.mean(
                logits.argmax(axis=1) == y_head[splits.val_ids]))
        f1s = [rec.val_micro_f1 for rec in history.records]
        assert len(set(f1s)) > 1
        for a, b in zip(best.param_list(),
                        leaving[int(np.argmax(f1s))].param_list()):
            np.testing.assert_array_equal(a, b)

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
            splits, train_ids=np.append(splits.train_ids, ood_node),
            test_ids=splits.test_ids[splits.test_ids != ood_node])
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


# ----------------------------------------------------------------------
# the epoch loop as a per-array program: fresh arrays for every activation
# and gradient, one Adam update per parameter array, and separate softmax,
# energy and cross-entropy passes. It runs either encoder below.
#
# _ref_encode/_ref_forward_backward are the textbook encoder: each path's
# projection z_i = X_i W_i + b_i formed, then the hidden layer on their
# concatenation. train must agree with it within 1e-12.
#
# _ref_folded_encode/_ref_folded_forward_backward compute the same map with
# each projection folded into the hidden layer, pre_hidden = X F + c, in the
# order model.py sums it; train must reproduce that loop bit for bit.

def _ref_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _ref_energy(logits):
    m = logits.max(axis=1)
    return -(m + np.log(np.exp(logits - m[:, None]).sum(axis=1)))


def _ref_cross_entropy(logits, y, ids):
    shifted = logits[ids] - logits[ids].max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(ids.size), y[ids]].mean())


def _ref_encode(xs, p):
    z = np.concatenate([x @ w + b for x, w, b in
                        zip(xs, p.proj_weights, p.proj_biases)], axis=1)
    pre = z @ p.hidden_weight + p.hidden_bias
    hidden = np.maximum(pre, 0.0)
    return z, pre, hidden, hidden @ p.out_weight + p.out_bias


def _ref_hidden_blocks(p):
    h = p.d_hidden
    return [p.hidden_weight[i * h:(i + 1) * h]
            for i in range(len(p.proj_weights))]


def _ref_folded_encode(xs, p):
    x = np.concatenate(xs, axis=1)
    whs = _ref_hidden_blocks(p)
    f = np.concatenate([w @ wh for w, wh in zip(p.proj_weights, whs)])
    c = p.hidden_bias.copy()
    for b, wh in zip(p.proj_biases, whs):
        c = c + b @ wh
    pre = x @ f + c
    hidden = np.maximum(pre, 0.0)
    return x, pre, hidden, hidden @ p.out_weight + p.out_bias


def _ref_losses_and_d_logits(logits, a_hats, y, ids, cfg):
    prop = PropagationConfig(cfg.gamma, cfg.steps)
    probs = _ref_softmax(logits)
    e_raw = _ref_energy(logits)
    e_final = (fuse([propagate(e_raw, a, prop) for a in a_hats])
               if a_hats else e_raw)
    l_c = _ref_cross_entropy(logits, y, ids)
    l_e = float(np.mean(np.maximum(e_final[ids] - cfg.m_in, 0.0) ** 2))
    total = cfg.alpha * l_c + (1.0 - cfg.alpha) * l_e

    d_logits = np.zeros_like(logits)
    if cfg.alpha != 0.0:
        d_ce = probs[ids].copy()
        d_ce[np.arange(ids.size), y[ids]] -= 1.0
        d_logits[ids] += (cfg.alpha / ids.size) * d_ce
    if cfg.alpha != 1.0:
        g = np.zeros(logits.shape[0])
        g[ids] = 2.0 * np.maximum(e_final[ids] - cfg.m_in, 0.0) / ids.size
        d_e_raw = (np.mean(np.stack([propagate_transpose(g, a, prop)
                                     for a in a_hats]), axis=0)
                   if a_hats else g)
        d_logits += (1.0 - cfg.alpha) * d_e_raw[:, None] * (-probs)
    return (total, l_c, l_e, e_raw), d_logits


def _ref_forward_backward(xs, a_hats, p, y, ids, cfg):
    z, pre, hidden, logits = _ref_encode(xs, p)
    losses, d_logits = _ref_losses_and_d_logits(logits, a_hats, y, ids, cfg)
    d_pre = (d_logits @ p.out_weight.T) * (pre > 0.0)
    d_z = d_pre @ p.hidden_weight.T
    h = p.d_hidden
    grads = []
    for i, x in enumerate(xs):
        chunk = d_z[:, i * h:(i + 1) * h]
        grads.extend([x.T @ chunk, chunk.sum(axis=0)])
    grads.extend([z.T @ d_pre, d_pre.sum(axis=0),
                  hidden.T @ d_logits, d_logits.sum(axis=0)])
    return losses, grads


def _ref_folded_forward_backward(xs, a_hats, p, y, ids, cfg):
    x, pre, hidden, logits = _ref_folded_encode(xs, p)
    losses, d_logits = _ref_losses_and_d_logits(logits, a_hats, y, ids, cfg)
    d_pre = (d_logits @ p.out_weight.T) * (pre > 0.0)
    d_f = x.T @ d_pre
    s = d_pre.sum(axis=0)
    ends = np.cumsum([x_i.shape[1] for x_i in xs])
    grads, d_whs = [], []
    for w, b, wh, x_i, end in zip(p.proj_weights, p.proj_biases,
                                  _ref_hidden_blocks(p), xs, ends):
        d_f_i = d_f[end - x_i.shape[1]:end]
        grads.extend([d_f_i @ wh.T, s @ wh.T])
        d_whs.append(w.T @ d_f_i + np.outer(b, s))
    grads.extend([np.concatenate(d_whs), s,
                  hidden.T @ d_logits, d_logits.sum(axis=0)])
    return losses, grads


def _ref_train(graph, labels, splits, cfg, folded):
    encode, forward_backward = (
        (_ref_folded_encode, _ref_folded_forward_backward) if folded
        else (_ref_encode, _ref_forward_backward))
    train_ids = np.asarray(splits.train_ids, dtype=np.int64)
    val_ids = np.asarray(splits.val_ids, dtype=np.int64)
    feature_paths, prop_paths = resolve_paths(graph)
    y = map_to_head(labels, id_class_values(labels, train_ids, val_ids))
    xs = feature_tables(graph, feature_paths)
    a_hats = propagation_operators(graph, prop_paths, cfg.propagation)
    params = make_params(graph, feature_paths, cfg.seed, cfg.d_hidden,
                         int(y.max()) + 1)
    m = [np.zeros_like(a) for a in params.param_list()]
    v = [np.zeros_like(a) for a in params.param_list()]
    records, best, best_f1 = [], None, -np.inf
    for epoch in range(cfg.epochs):
        (total, l_c, l_e, e_raw), grads = forward_backward(
            xs, a_hats, params, y, train_ids, cfg)
        t = epoch + 1
        for a, g, m_a, v_a in zip(params.param_list(), grads, m, v,
                                  strict=True):
            m_a *= ADAM_BETA1
            m_a += (1.0 - ADAM_BETA1) * g
            v_a *= ADAM_BETA2
            v_a += (1.0 - ADAM_BETA2) * g * g
            m_hat = m_a / (1.0 - ADAM_BETA1 ** t)
            v_hat = v_a / (1.0 - ADAM_BETA2 ** t)
            a -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        val_f1 = 0.0
        if val_ids.size:
            logits = encode(xs, params)[3]
            val_f1 = float(np.mean(logits[val_ids].argmax(axis=1) == y[val_ids]))
        records.append(EpochRecord(epoch, total, l_c, l_e, val_f1,
                                   float(e_raw[train_ids].mean())))
        if val_ids.size and val_f1 > best_f1:
            best_f1, best = val_f1, copy.deepcopy(params)
    return (best or copy.deepcopy(params)), records


def _epoch_loop_case(alpha, steps, with_val):
    graph, labels = small_instance(seed=1, nodes_per_class=20)
    splits = make_splits(labels, ood_class=int(labels.max()), seed=0)
    if not with_val:
        splits = dataclasses.replace(splits,
                                     val_ids=np.array([], dtype=np.int64))
    cfg = TrainConfig(epochs=6, alpha=alpha, steps=steps, seed=4, d_hidden=5,
                      learning_rate=0.05)
    return graph, labels, splits, cfg


def _assert_bitwise_the_folded_loop(graph, labels, splits, cfg):
    params, history = train(graph, labels, splits, cfg)
    want_params, want_records = _ref_train(graph, labels, splits, cfg,
                                           folded=True)
    assert history.records == want_records
    for got, want in zip(params.param_list(), want_params.param_list(),
                         strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return history


def _assert_close_to_the_textbook_loop(graph, labels, splits, cfg):
    params, history = train(graph, labels, splits, cfg)
    want_params, want_records = _ref_train(graph, labels, splits, cfg,
                                           folded=False)
    assert len(history.records) == len(want_records)
    for got, want in zip(history.records, want_records):
        assert (got.epoch, got.val_micro_f1) == (want.epoch, want.val_micro_f1)
        assert_close_to_oracle(
            np.array([got.total_loss, got.class_loss, got.energy_loss,
                      got.train_energy_mean]),
            np.array([want.total_loss, want.class_loss, want.energy_loss,
                      want.train_energy_mean]))
    for got, want in zip(params.param_list(), want_params.param_list(),
                         strict=True):
        assert_close_to_oracle(got, want)


epoch_loop_grid = pytest.mark.parametrize(
    "alpha, steps, with_val",
    [pytest.param(alpha, steps, with_val,
                  id=f"{alpha}-{steps}-{'val' if with_val else 'no-val'}")
     for alpha in (0.0, 0.5, 1.0) for steps in (0, 2)
     for with_val in (True, False)])


@epoch_loop_grid
def test_train_is_bitwise_the_per_array_epoch_loop(alpha, steps, with_val):
    history = _assert_bitwise_the_folded_loop(
        *_epoch_loop_case(alpha, steps, with_val))
    if with_val and alpha == 1.0:
        # model selection matters: the best epoch is a later one
        f1s = [r.val_micro_f1 for r in history.records]
        assert f1s.index(max(f1s)) > 0


@epoch_loop_grid
def test_train_agrees_with_the_textbook_encoder(alpha, steps, with_val):
    _assert_close_to_the_textbook_loop(
        *_epoch_loop_case(alpha, steps, with_val))


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_no_active_hinge_skips_the_energy_adjoint(monkeypatch, alpha):
    """With m_in above every energy no hinge is active and the energy
    term's gradient is exactly zero: train never applies the adjoint, and
    its results are bitwise those of the per-array loop, which does."""
    def refuse(*args, **kwargs):
        raise AssertionError("propagate_transpose called")

    monkeypatch.setattr(model, "propagate_transpose", refuse)
    graph, labels, splits, cfg = _epoch_loop_case(alpha, 2, True)
    _assert_bitwise_the_folded_loop(graph, labels, splits,
                                    dataclasses.replace(cfg, m_in=100.0))


@pytest.mark.parametrize("check", [_assert_bitwise_the_folded_loop,
                                   _assert_close_to_the_textbook_loop],
                         ids=["bitwise-folded", "textbook"])
def test_two_path_train_matches_the_epoch_loops(check):
    # the instance above has one feature path; this one has two, so the
    # per-path sums of the folded layer have more than one term
    graph, labels = generate_synthetic(
        SynthConfig(nodes_per_class=10, feature_dim=4, seed=1))
    assert len(resolve_paths(graph)[0]) == 2
    splits = make_splits(labels, ood_class=int(labels.max()), seed=0)
    check(graph, labels, splits,
          TrainConfig(epochs=6, steps=2, seed=4, d_hidden=5,
                      learning_rate=0.05))


# ----------------------------------------------------------------------
# stop_when_settled: once validation micro-F1 reaches 1.0 no later epoch can
# replace the earliest best one, so the stopped run selects the same
# parameters and its history is a prefix of the full one.

def _settle_case(alpha, steps, seed=0):
    graph, labels = small_instance(seed=1, nodes_per_class=20)
    splits = make_splits(labels, ood_class=int(labels.max()), seed=0)
    cfg = TrainConfig(epochs=12, alpha=alpha, steps=steps, seed=seed,
                      d_hidden=5, learning_rate=0.05)
    return graph, labels, splits, cfg


def _assert_same_params(got, want):
    for a, b in zip(got.param_list(), want.param_list(), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("steps", [0, 2])
def test_stop_when_settled_keeps_the_full_run_selection(alpha, steps):
    graph, labels, splits, cfg = _settle_case(alpha, steps)
    full_params, full = train(graph, labels, splits, cfg)
    f1s = [r.val_micro_f1 for r in full.records]
    settled = f1s.index(1.0)
    # the stop skips epochs, and one of them scores below 1.0 again
    assert settled < cfg.epochs - 1 and min(f1s[settled:]) < 1.0
    params, history = train(graph, labels, splits, cfg,
                            stop_when_settled=True)
    assert history.records == full.records[:settled + 1]
    _assert_same_params(params, full_params)


@pytest.mark.parametrize("case", ["no-val", "never-settles"])
def test_stop_when_settled_without_a_settling_epoch_is_the_full_run(case):
    if case == "no-val":
        graph, labels, splits, cfg = _settle_case(0.5, 2)
        splits = dataclasses.replace(splits,
                                     val_ids=np.array([], dtype=np.int64))
    else:
        graph, labels, splits, cfg = _settle_case(1.0, 2, seed=2)
    full_params, full = train(graph, labels, splits, cfg)
    if case == "never-settles":
        assert max(r.val_micro_f1 for r in full.records) < 1.0
    params, history = train(graph, labels, splits, cfg,
                            stop_when_settled=True)
    assert len(history) == cfg.epochs and history.records == full.records
    _assert_same_params(params, full_params)


def test_stop_when_settled_still_reports_an_early_divergence():
    graph, labels, splits, cfg = _settle_case(0.5, 2)
    cfg = dataclasses.replace(cfg, learning_rate=1e300)
    messages = []
    for stop in (False, True):
        with pytest.raises(TrainingDiverged) as exc:
            train(graph, labels, splits, cfg, stop_when_settled=stop)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("training diverged at epoch 1:")


# Without propagation the losses read only the training rows and selection
# only the validation rows, so the encoder runs on train ∪ val alone.

def _workspace_rows(monkeypatch):
    """Every workspace train or gradients builds, as its stacked table x."""
    seen = []

    class Spy(model._Workspace):
        def __init__(self, xs, params):
            super().__init__(xs, params)
            seen.append(self.x.copy())

    monkeypatch.setattr(model, "_Workspace", Spy)
    return seen


@pytest.mark.parametrize("steps", [0, 1, 2])
def test_encoder_reads_train_and_val_rows_only_without_propagation(
        monkeypatch, steps):
    graph, labels, splits, cfg = _epoch_loop_case(0.5, steps, True)
    full = np.concatenate(feature_tables(graph, resolve_paths(graph)[0]),
                          axis=1)
    seen = _workspace_rows(monkeypatch)
    train(graph, labels, splits, cfg)
    y = map_to_head(labels, id_class_values(labels, splits.train_ids,
                                            splits.val_ids))
    params = make_params(graph, resolve_paths(graph)[0], 0, cfg.d_hidden,
                         int(y.max()) + 1, prop_paths=resolve_paths(graph)[1])
    gradients(graph, params, y, splits.train_ids, cfg)
    if steps == 0:
        both = np.sort(np.concatenate([splits.train_ids, splits.val_ids]))
        assert both.size < full.shape[0]
        wants = [full[both], full[np.sort(splits.train_ids)]]
    else:
        wants = [full, full]
    assert len(seen) == 2
    for got, want in zip(seen, wants):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_train_without_propagation_agrees_with_the_all_rows_loop(alpha):
    """On 2,000 targets, where the backward's sums over rows are long
    enough for BLAS to split, training on train ∪ val stays within 1e-12
    of the per-array loop over every row, selects by the same validation
    F1, and reruns to the same bytes."""
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=500,
                                                   seed=3))
    assert graph.target_count == 2000
    splits = make_splits(labels, ood_class=int(labels.max()), seed=0)
    cfg = TrainConfig(epochs=8, alpha=alpha, steps=0, seed=5,
                      learning_rate=0.01)
    params, history = train(graph, labels, splits, cfg)
    want_params, want_records = _ref_train(graph, labels, splits, cfg,
                                           folded=True)
    assert ([r.val_micro_f1 for r in history.records]
            == [r.val_micro_f1 for r in want_records])
    for got, want in zip(history.records, want_records):
        assert_close_to_oracle(
            np.array([got.total_loss, got.class_loss, got.energy_loss,
                      got.train_energy_mean]),
            np.array([want.total_loss, want.class_loss, want.energy_loss,
                      want.train_energy_mean]))
    for got, want in zip(params.param_list(), want_params.param_list(),
                         strict=True):
        assert_close_to_oracle(got, want)
    again, again_history = train(graph, labels, splits, cfg)
    assert again_history.records == history.records
    _assert_same_params(again, params)

"""Meta-path encoder, joint loss, analytic gradients, and full-batch training.

The encoder projects each meta-path feature table into a shared hidden
space, concatenates them, and maps through a two-layer ReLU perceptron to
K class logits. With X_i the table of path i, (W_i, b_i) its projection,
Wh_i the rows of the hidden weight that projection feeds, (bh, Wo, bo) the
rest of the head:

    logits = relu(sum_i (X_i W_i + b_i) Wh_i + bh) Wo + bo.

No nonlinearity separates a projection from the hidden layer, so the
encoder computes the pre-activation as one product X F + c, where
X = [X_1 | ... | X_P], F stacks the blocks W_i Wh_i and
c = bh + sum_i b_i Wh_i. Per row the forward pass then costs sum d_i * h
multiply-adds instead of sum d_i * h + P * h * h up to the hidden layer,
and the backward pass sum d_i * h instead of sum d_i * h + 2 * P * h * h.
The parameters are still the per-path projections and the hidden layer,
so initialisation, the gradients' shapes and checkpoints are unchanged;
only the float summation order differs from the textbook sums, by about
1e-15.

Training minimizes

    loss = alpha * classification + (1 - alpha) * energy hinge,

where the classification term is mean cross-entropy over training nodes and
the energy term is the mean squared hinge max(0, E_i - m_in)^2 on the
post-propagation energies of training nodes. Because propagation is linear,
its adjoint is the transposed update, so the hinge gradient reaches every
logit that influenced a training node's final energy, including unlabeled
neighbours.

Every training pass, in train and in the gradient check (gradients,
training_loss), takes its feature tables and operators from _pass_inputs.
Without propagation (steps 0 or gamma 1, PropagationConfig.inert) the
losses read the logits and raw energies of training nodes only, and model
selection reads validation nodes only, so _pass_inputs cuts the tables to
the rows of the ids the pass is given: train and validation nodes in
train, training nodes in the gradient check. With propagation a training
node's final energy reads every row its K-step neighbourhood reaches, so
every pass encodes all target nodes. Either way the losses, gradients and
selection are those of the all-rows pass. Only the backward's sums over
rows (X^T d_pre and hidden^T d_logits) may group differently, since the
dropped rows add exact zeros; where BLAS splits them, parameters move by
about 1e-16.

Each epoch runs the encoder once. The parameters leaving epoch t are the
ones entering epoch t + 1, so the forward/backward pass that gives epoch
t + 1 its gradients also scores epoch t on the validation split; only the
last epoch runs a forward pass of its own, and only when there is a
validation split.

An epoch allocates no large array. train keeps every parameter as a view
into one flat vector and every gradient as a view into a second one, so an
Adam step and the finite check are a few in-place operations on the whole
vector, and the best epoch's snapshot is one copy of that vector.
Activations, their gradients and the logit statistics are written into one
_Workspace that each train call allocates for itself, and one pass over the
logits (energy.logit_pass) gives the softmax, the raw energy and the
cross-entropy. All of it is elementwise the same arithmetic as a
per-array loop with fresh arrays that computes the folded products above,
so results are bitwise equal to that loop.

All math is float64 and full batch. Randomness comes from a Philox
(counter-based) generator seeded by the run seed, the in-package
philox.PhiloxGenerator, bitwise numpy's Generator(Philox(seed)): weights
are drawn Glorot-uniform in path order, then hidden, then output layer;
biases start at zero. Two runs with equal seeds produce bitwise identical
histories and parameters.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .energy import (
    LogitPass,
    PropagationConfig,
    fuse,
    logit_pass,
    propagate,
    propagate_transpose,
)
from .errors import (
    EmptyTrainSet,
    IndexOutOfRange,
    InvalidPath,
    LabelOutOfRange,
    OodLabelInTrainSet,
    ShapeMismatch,
    TrainingDiverged,
)
# compose_metapath is not called here; it stays importable as
# model.compose_metapath because perfbench/tracer.py patches it by name
from .hetgraph import (
    HeteroGraph,
    MetaPath,
    MetaPathOperator,
    compose_metapath,  # noqa: F401
    metapath_features,
    metapath_operator,
    resolve_paths,
)
from .sparse import sorted_distinct

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    learning_rate: float = 1e-3
    epochs: int = 50
    alpha: float = 0.5
    m_in: float = -3.0
    gamma: float = 0.5
    steps: int = 2
    seed: int = 0
    d_hidden: int = 32

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not np.isfinite(self.m_in):
            raise ValueError(f"m_in must be finite, got {self.m_in}")
        if self.d_hidden < 1:
            raise ValueError(f"d_hidden must be >= 1, got {self.d_hidden}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the checkpoint reader takes only integers that fit int64
        for name in ("epochs", "steps", "seed", "d_hidden"):
            if getattr(self, name) >= 2 ** 63:
                raise ValueError(
                    f"{name} must be < 2**63, got {getattr(self, name)}")
        # delegate gamma/steps validation
        PropagationConfig(self.gamma, self.steps)

    @property
    def propagation(self) -> PropagationConfig:
        return PropagationConfig(self.gamma, self.steps)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# the JSON kind (data._typed spec) of each TrainConfig field
TRAIN_CONFIG_KINDS = {key: type(value)
                      for key, value in dataclasses.asdict(TrainConfig()).items()}


@dataclass
class EncoderParams:
    """A trained model: the meta-paths it reads and the classes it predicts,
    then all learnable arrays, one projection per feature path plus the head.

    paths are the feature paths, one per projection; prop_paths are the
    target-to-target paths its energies propagate along; classes[j] is the
    label value of output column j (int64, sorted).
    """

    paths: tuple[MetaPath, ...]
    prop_paths: tuple[MetaPath, ...]
    classes: np.ndarray
    proj_weights: list[np.ndarray]
    proj_biases: list[np.ndarray]
    hidden_weight: np.ndarray
    hidden_bias: np.ndarray
    out_weight: np.ndarray
    out_bias: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.out_weight.shape[1]

    @property
    def d_hidden(self) -> int:
        return self.hidden_weight.shape[1]

    def param_list(self) -> list[np.ndarray]:
        """Fixed flattening order shared by parameters, gradients and Adam
        state."""
        out: list[np.ndarray] = []
        for w, b in zip(self.proj_weights, self.proj_biases):
            out.extend([w, b])
        out.extend([self.hidden_weight, self.hidden_bias,
                    self.out_weight, self.out_bias])
        return out


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    total_loss: float
    class_loss: float
    energy_loss: float
    val_micro_f1: float
    train_energy_mean: float


@dataclass
class TrainHistory:
    """Per-epoch log, one record per epoch run. Losses and the mean raw
    training energy are measured with the parameters entering the epoch;
    val_micro_f1 with the updated parameters leaving it, which the next
    epoch's forward pass scores. A train call with stop_when_settled may
    end before config.epochs; its records are then the full run's first
    ones, up to the first epoch with validation micro-F1 1.0."""

    records: list[EpochRecord] = field(default_factory=list)

    def as_dicts(self) -> list[dict]:
        return [dataclasses.asdict(r) for r in self.records]

    def __len__(self) -> int:
        return len(self.records)


def _glorot_uniform(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(rng, paths, in_dims, d_hidden: int,
                classes, prop_paths) -> EncoderParams:
    """Glorot-uniform weights, zero biases; draws in a fixed order. The head
    has one column per value of classes. rng is a PhiloxGenerator or a
    numpy Generator."""
    paths = tuple(MetaPath(p) for p in paths)
    classes = np.asarray(classes, dtype=np.int64)
    proj_w = [_glorot_uniform(rng, d, d_hidden) for d in in_dims]
    proj_b = [np.zeros(d_hidden) for _ in in_dims]
    hidden_w = _glorot_uniform(rng, d_hidden * len(paths), d_hidden)
    out_w = _glorot_uniform(rng, d_hidden, classes.size)
    return EncoderParams(paths, tuple(MetaPath(p) for p in prop_paths),
                         classes, proj_w, proj_b, hidden_w,
                         np.zeros(d_hidden), out_w, np.zeros(classes.size))


def feature_tables(graph: HeteroGraph, feature_paths) -> list[np.ndarray]:
    """Aggregated features per path; every path must start at the target
    type. The one owner of the rule that a model needs a feature path."""
    paths = [MetaPath(p) for p in feature_paths]
    if not paths:
        raise InvalidPath("no meta-path starts at the target type and ends "
                          "at a featured type")
    for p in paths:
        if p.types[0] != graph.target_type:
            raise InvalidPath(
                f"feature meta-path {p} must start at target type "
                f"{graph.target_type!r}")
    return [metapath_features(graph, p) for p in paths]


def _param_views(like: EncoderParams, flat: np.ndarray) -> EncoderParams:
    """Arrays shaped like like's, as consecutive views into flat in
    param_list order."""
    views, start = [], 0
    for arr in like.param_list():
        views.append(flat[start:start + arr.size].reshape(arr.shape))
        start += arr.size
    n = len(like.proj_weights)
    return EncoderParams(like.paths, like.prop_paths, like.classes,
                         views[0:2 * n:2], views[1:2 * n:2], *views[2 * n:])


class _Workspace:
    """Every large array one forward/backward pass writes, allocated once.

    x is the feature tables side by side, [X_1 | ... | X_P] (n, sum d_i),
    copied once from the tables it is given: every target node's row, or
    without propagation only the rows _pass_inputs keeps, so n counts the
    rows the encoder reads, not the graph's target nodes. rows[i] selects
    the rows of path i's block in every (sum d_i, h) array. The encoder
    never forms the per-path projections: folded_weight F and folded_bias c
    are the projections composed with the hidden layer, rebuilt from the
    parameters each pass, and d_folded is the gradient of F.

    train allocates one per call and reuses it every epoch. gradients,
    training_loss and forward_from_features make a fresh one per call. A
    pass leaves its results here, valid until the next pass into the same
    workspace: the logits, the raw energies (logit_pass.energy) and the
    gradients (grads, views into grad_flat).
    """

    def __init__(self, xs: list[np.ndarray], params: EncoderParams):
        if len(xs) != len(params.proj_weights):
            raise ShapeMismatch(
                f"{len(xs)} feature tables for {len(params.proj_weights)} projections")
        for x, w in zip(xs, params.proj_weights):
            if x.shape[1] != w.shape[0]:
                raise ShapeMismatch(
                    f"feature dim {x.shape[1]} does not match projection {w.shape}")
        n, h, k = xs[0].shape[0], params.d_hidden, params.n_classes
        ends = np.cumsum([x.shape[1] for x in xs])
        self.rows = [slice(end - x.shape[1], end) for x, end in zip(xs, ends)]
        self.x = np.concatenate(xs, axis=1)
        self.folded_weight = np.empty((self.x.shape[1], h))
        self.folded_bias = np.empty(h)
        self.d_folded = np.empty((self.x.shape[1], h))
        self.pre_hidden = np.empty((n, h))
        self.hidden = np.empty((n, h))
        self.logits = np.empty((n, k))
        self.logit_pass = LogitPass.empty(n, k)
        self.d_logits = np.empty((n, k))
        self.d_hidden = np.empty((n, h))
        self.active = np.empty((n, h), dtype=bool)
        self.d_pre = np.empty((n, h))
        self.grad_flat = np.empty(sum(p.size for p in params.param_list()))
        self.grads = _param_views(params, self.grad_flat)


def _hidden_blocks(params: EncoderParams) -> list[np.ndarray]:
    """Row block i of hidden_weight: the rows path i's projection feeds."""
    h = params.d_hidden
    return [params.hidden_weight[i * h:(i + 1) * h]
            for i in range(len(params.proj_weights))]


def _encode(params: EncoderParams, ws: _Workspace) -> np.ndarray:
    """Encoder forward into ws: folded_weight, folded_bias, pre_hidden,
    hidden and the logits, which it returns; the backward pass reads all
    but the logits.

    No nonlinearity separates a projection from the hidden layer, so
    sum_i (X_i W_i + b_i) Wh_i + bh = X F + c with F_i = W_i Wh_i and
    c = bh + sum_i b_i Wh_i, one (n, sum d_i) x (sum d_i, h) product.
    """
    np.copyto(ws.folded_bias, params.hidden_bias)
    for w, b, wh, rows in zip(params.proj_weights, params.proj_biases,
                              _hidden_blocks(params), ws.rows):
        np.matmul(w, wh, out=ws.folded_weight[rows])
        ws.folded_bias += b @ wh
    np.matmul(ws.x, ws.folded_weight, out=ws.pre_hidden)
    ws.pre_hidden += ws.folded_bias
    np.maximum(ws.pre_hidden, 0.0, out=ws.hidden)
    np.matmul(ws.hidden, params.out_weight, out=ws.logits)
    ws.logits += params.out_bias
    return ws.logits


def forward_from_features(xs: list[np.ndarray], params: EncoderParams) -> np.ndarray:
    """Logits from precomputed per-path feature tables."""
    return _encode(params, _Workspace(xs, params))


def forward(graph: HeteroGraph, params: EncoderParams) -> np.ndarray:
    """Logits (n_target, n_classes) from the feature tables of params.paths."""
    return forward_from_features(feature_tables(graph, params.paths), params)


def _check_head_labels(labels: np.ndarray, ids: np.ndarray, n_classes: int) -> None:
    picked = labels[ids]
    if picked.size and (picked.min() < 0 or picked.max() >= n_classes):
        bad = picked[(picked < 0) | (picked >= n_classes)][0]
        raise LabelOutOfRange(f"label {bad} outside [0, {n_classes})")


def _mean(x: np.ndarray):
    """x.sum() / x.size: what np.mean computes, without its Python wrapper."""
    return x.sum() / x.size


def loss_total(l_c: float, l_e: float, alpha: float) -> float:
    return alpha * l_c + (1.0 - alpha) * l_e


def propagation_operators(graph: HeteroGraph, prop_paths,
                          propagation: PropagationConfig
                          ) -> list[MetaPathOperator]:
    """Matrix-free operator (forward and adjoint) for every propagation path;
    none when propagation is inert (steps 0 or gamma 1). The one owner of
    the rule that energies which propagate need a target-to-target path."""
    if propagation.inert:
        return []
    paths = [MetaPath(p) for p in prop_paths or []]
    if not paths:
        raise InvalidPath("energies propagate (steps >= 1, gamma < 1) but no "
                          "target-to-target meta-path given")
    for p in paths:
        if p.types[0] != graph.target_type or p.types[-1] != graph.target_type:
            raise InvalidPath(
                f"propagation meta-path {p} must start and end at "
                f"{graph.target_type!r}")
    return [metapath_operator(graph, p) for p in paths]


def propagated_energies(e_raw: np.ndarray, a_hats: list[MetaPathOperator],
                        prop_cfg: PropagationConfig) -> np.ndarray:
    """Final energies: propagate raw energies along every path, then average.
    With no operators the raw energies are returned unchanged."""
    if not a_hats:
        return e_raw
    return fuse([propagate(e_raw, a, prop_cfg) for a in a_hats])


def _pass_inputs(graph: HeteroGraph, paths, prop_paths,
                 propagation: PropagationConfig, labels: np.ndarray,
                 *ids: np.ndarray):
    """(a_hats, xs, labels, ids) of one training pass: the propagation
    operators of prop_paths and the feature tables of paths, with labels
    and the id arrays cut to the rows the pass reads. With operators that
    is every row, returned unchanged; without (steps 0 or gamma 1), the
    rows of the union of the id arrays, with each id array re-indexed into
    them."""
    xs = feature_tables(graph, paths)
    a_hats = propagation_operators(graph, prop_paths, propagation)
    if a_hats:
        return a_hats, xs, labels, ids
    rows = sorted_distinct(np.concatenate(ids))
    return (a_hats, [x[rows] for x in xs], labels[rows],
            tuple(np.searchsorted(rows, i) for i in ids))


def _forward_backward(a_hats: list[MetaPathOperator],
                      params: EncoderParams,
                      train_ids: np.ndarray,
                      y_train: np.ndarray,
                      config: TrainConfig,
                      ws: _Workspace) -> tuple[float, float, float]:
    """(total, classification, energy) loss of params on the training
    nodes. The pass leaves its logits in ws.logits, the raw energies in
    ws.logit_pass.energy and the gradients in ws.grads (views into
    ws.grad_flat). y_train are the head classes of train_ids, whose range
    the caller has checked."""
    n_train = train_ids.size
    prop_cfg = config.propagation

    lp = logit_pass(_encode(params, ws), ws.logit_pass)
    e_final = propagated_energies(lp.energy, a_hats, prop_cfg)
    l_c = float(-_mean(lp.log_probs(train_ids, y_train)))
    hinge = np.maximum(e_final[train_ids] - config.m_in, 0.0)
    l_e = float(_mean(hinge ** 2))

    # backward: gradient of the total loss w.r.t. the logits
    d_logits = ws.d_logits
    d_logits.fill(0.0)
    # at alpha 0 this adds signed zeros, which leave d_logits bitwise as is
    d_ce = lp.probs[train_ids]
    d_ce[np.arange(n_train), y_train] -= 1.0
    d_logits[train_ids] += (config.alpha / n_train) * d_ce
    # no active hinge: the energy gradient is exactly 0 (NaN counts as active)
    if config.alpha != 1.0 and hinge.any():
        g = np.zeros(ws.x.shape[0])
        g[train_ids] = 2.0 * hinge / n_train
        if a_hats:
            d_e_raw = fuse([propagate_transpose(g, a, prop_cfg) for a in a_hats])
        else:
            d_e_raw = g
        # dE_raw/dlogits is -softmax rowwise
        d_logits += (1.0 - config.alpha) * d_e_raw[:, None] * (-lp.probs)

    grads = ws.grads
    np.matmul(ws.hidden.T, d_logits, out=grads.out_weight)
    np.add.reduce(d_logits, axis=0, out=grads.out_bias)
    np.matmul(d_logits, params.out_weight.T, out=ws.d_hidden)
    np.greater(ws.pre_hidden, 0.0, out=ws.active)
    np.multiply(ws.d_hidden, ws.active, out=ws.d_pre)
    # back through pre_hidden = X F + c, then F_i = W_i Wh_i and
    # c = bh + sum_i b_i Wh_i; s = d c = d bh
    np.matmul(ws.x.T, ws.d_pre, out=ws.d_folded)
    s = np.add.reduce(ws.d_pre, axis=0, out=grads.hidden_bias)
    for w, b, wh, rows, d_w, d_b, d_wh in zip(
            params.proj_weights, params.proj_biases, _hidden_blocks(params),
            ws.rows, grads.proj_weights, grads.proj_biases,
            _hidden_blocks(grads)):
        d_f = ws.d_folded[rows]
        np.matmul(w.T, d_f, out=d_wh)
        d_wh += b[:, None] * s
        np.matmul(d_f, wh.T, out=d_w)
        np.matmul(s, wh.T, out=d_b)
    return loss_total(l_c, l_e, config.alpha), l_c, l_e


def _graph_pass(graph: HeteroGraph, params: EncoderParams, labels: np.ndarray,
                train_ids: np.ndarray, config: TrainConfig):
    """(losses, workspace) of _forward_backward on the feature tables of
    params.paths and the operators of params.prop_paths, built from graph,
    into a fresh workspace."""
    labels = np.asarray(labels, dtype=np.int64)
    train_ids = np.asarray(train_ids, dtype=np.int64)
    _check_head_labels(labels, train_ids, params.n_classes)
    a_hats, xs, labels, (train_ids,) = _pass_inputs(
        graph, params.paths, params.prop_paths, config.propagation, labels,
        train_ids)
    ws = _Workspace(xs, params)
    return _forward_backward(a_hats, params, train_ids, labels[train_ids],
                             config, ws), ws


def gradients(graph: HeteroGraph, params: EncoderParams, labels: np.ndarray,
              train_ids: np.ndarray, config: TrainConfig) -> EncoderParams:
    """Exact gradient of the joint loss for every parameter, shaped like
    params, with the encoder reading params.paths and the energies
    propagating along params.prop_paths, as forward and evaluate do.

    labels must already be head-space class ids in [0, K); the energy term
    differentiates through the propagation chain via its transpose.
    """
    return _graph_pass(graph, params, labels, train_ids, config)[1].grads


def training_loss(graph: HeteroGraph, params: EncoderParams,
                  labels: np.ndarray, train_ids: np.ndarray,
                  config: TrainConfig) -> tuple[float, float, float]:
    """(total, classification, energy) loss of the model params, on its own
    feature and propagation paths; the finite-difference target of
    gradients."""
    return _graph_pass(graph, params, labels, train_ids, config)[0]


class _Adam:
    """Adam moments of one flat parameter vector, plus scratch for a step."""

    def __init__(self, size: int, learning_rate: float):
        self.lr = learning_rate
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._step = np.empty(size)
        self._denom = np.empty(size)

    def update(self, params: np.ndarray, grads: np.ndarray, t: int) -> None:
        """Step t >= 1, in place: params -= lr * m_hat / (sqrt(v_hat) + eps)."""
        m, v, step, denom = self.m, self.v, self._step, self._denom
        m *= ADAM_BETA1
        np.multiply(grads, 1.0 - ADAM_BETA1, out=step)
        m += step
        v *= ADAM_BETA2
        np.multiply(grads, 1.0 - ADAM_BETA2, out=step)
        step *= grads
        v += step
        np.divide(v, 1.0 - ADAM_BETA2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1 ** t, out=step)
        step *= self.lr
        step /= denom
        params -= step


def id_class_values(labels: np.ndarray, train_ids, val_ids) -> np.ndarray:
    """Sorted distinct label values occurring in the train and val splits."""
    labels = np.asarray(labels, dtype=np.int64)
    ids = np.concatenate([np.asarray(train_ids, dtype=np.int64),
                          np.asarray(val_ids, dtype=np.int64)])
    return sorted_distinct(labels[ids])


def map_to_head(labels: np.ndarray, id_values: np.ndarray) -> np.ndarray:
    """Labels mapped to head indices [0, K); unknown values map to -1."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.full(labels.shape, -1, dtype=np.int64)
    for idx, value in enumerate(np.asarray(id_values, dtype=np.int64)):
        out[labels == value] = idx
    return out


def label_space(labels: np.ndarray, splits) -> tuple[np.ndarray, np.ndarray]:
    """The K+1 label protocol of splits, shared by train and evaluate.

    Returns (classes, kplus1): classes are the K sorted distinct train+val
    labels, and kplus1[i] is node i's head index, K for the held-out class
    and -1 for any other label. Raises IndexOutOfRange for a split id at
    or past the node count, EmptyTrainSet for an empty train split,
    OodLabelInTrainSet when train or val holds the held-out class, and
    LabelOutOfRange when a test node's kplus1 would be -1.
    """
    labels = np.asarray(labels, dtype=np.int64)
    for name in ("train_ids", "val_ids", "test_ids"):
        ids = getattr(splits, name)
        if ids.size and ids.max() >= labels.size:
            raise IndexOutOfRange(
                f"{name[:-4]} split id {ids.max()} outside [0, {labels.size})")
    if splits.train_ids.size == 0:
        raise EmptyTrainSet("no training nodes")
    ood = splits.ood_class
    if np.any(labels[splits.train_ids] == ood) or np.any(
            labels[splits.val_ids] == ood):
        raise OodLabelInTrainSet(
            f"held-out class {ood} occurs in the train or val split")
    classes = id_class_values(labels, splits.train_ids, splits.val_ids)
    kplus1 = map_to_head(labels, classes)
    kplus1[labels == ood] = classes.size
    bad = labels[splits.test_ids][kplus1[splits.test_ids] == -1]
    if bad.size:
        raise LabelOutOfRange(
            f"test label {bad[0]} is neither a train/val class nor the "
            f"held-out class {ood}")
    return classes, kplus1


def train(graph: HeteroGraph, labels: np.ndarray, splits, config: TrainConfig,
          *, stop_when_settled: bool = False
          ) -> tuple[EncoderParams, TrainHistory]:
    """Full-batch Adam training; returns the best-validation parameters,
    which record the paths they were trained with and their classes.

    Labels are raw dataset values; head classes are label_space's, the
    sorted distinct labels seen in train plus val. The paths are
    resolve_paths' for the graph's own metapaths and max_hops, so a graph
    that load_dataset read trains on the paths of its schema.json, as every
    CLI command that trains does. feature_tables refuses a graph with no
    feature path, and propagation_operators, unless the run is inert, one
    with no target-to-target path. Model selection keeps the parameters
    with the highest validation micro-F1 (earliest epoch wins ties); with an
    empty validation split the final parameters are returned.
    The encoder runs once per epoch, plus once after the last epoch when the
    validation split is non-empty, always in the one workspace train
    allocates; each epoch reads its losses, raw energies and gradients from
    there. Its inputs come from _pass_inputs: at steps 0 or gamma 1 the
    encoder reads only the feature-table rows of the train and validation
    nodes, the only rows the losses and selection read; with propagation it
    reads every target node's row.

    With stop_when_settled and a non-empty validation split, training ends
    right after the first epoch whose validation micro-F1 is 1.0: no later
    epoch can beat it, so the returned parameters are bitwise the full
    run's and the history is a prefix of the full history, ending at that
    epoch. A divergence in the epochs skipped is then never reached.

    Raises label_space's errors on protocol violations, before the first
    epoch, and TrainingDiverged once the loss or a parameter stops being
    finite.
    """
    id_values, y_head = label_space(labels, splits)
    feature_paths, prop_paths = resolve_paths(graph, graph.metapaths,
                                              graph.max_hops)
    a_hats, xs, y_head, (train_ids, val_ids) = _pass_inputs(
        graph, feature_paths, prop_paths, config.propagation, y_head,
        splits.train_ids, splits.val_ids)
    y_train, y_val = y_head[train_ids], y_head[val_ids]

    # imported here, as in data.make_splits
    from .philox import PhiloxGenerator
    init = init_params(PhiloxGenerator(config.seed), feature_paths,
                       [x.shape[1] for x in xs], config.d_hidden, id_values,
                       prop_paths)
    flat = np.concatenate([p.ravel() for p in init.param_list()])
    params = _param_views(init, flat)
    ws = _Workspace(xs, params)
    adam = _Adam(flat.size, config.learning_rate)
    finite = np.empty(flat.size, dtype=bool)

    history = TrainHistory()
    best = None
    best_f1 = -np.inf
    # The finite check below turns overflow and NaN into TrainingDiverged,
    # so numpy's warnings on the way there only add noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        losses = _forward_backward(a_hats, params, train_ids, y_train,
                                   config, ws)
        for epoch in range(config.epochs):
            # the next pass overwrites ws, so read this epoch's results first
            total, l_c, l_e = losses
            e_mean = float(_mean(ws.logit_pass.energy[train_ids]))
            adam.update(flat, ws.grad_flat, epoch + 1)
            if not (np.isfinite(total) and np.isfinite(flat, out=finite).all()):
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}: loss {total} or a "
                    f"parameter is not finite; lower the learning rate")

            # the next epoch's forward pass scores validation for this one
            if epoch + 1 < config.epochs:
                losses = _forward_backward(a_hats, params, train_ids, y_train,
                                           config, ws)
            elif val_ids.size:
                _encode(params, ws)
            if val_ids.size:
                val_f1 = np.count_nonzero(
                    ws.logits[val_ids].argmax(axis=1) == y_val) / val_ids.size
            else:
                val_f1 = 0.0
            history.records.append(
                EpochRecord(epoch, total, l_c, l_e, val_f1, e_mean))
            if val_ids.size and val_f1 > best_f1:
                best_f1 = val_f1
                best = flat.copy()
                if stop_when_settled and best_f1 == 1.0:
                    break

    return _param_views(init, flat if best is None else best), history

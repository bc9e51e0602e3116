"""Meta-path encoder, joint loss, analytic gradients, and full-batch training.

The encoder projects each meta-path feature table into a shared hidden
space, concatenates them, and maps through a two-layer ReLU perceptron to
K class logits. Training minimizes

    loss = alpha * classification + (1 - alpha) * energy hinge,

where the classification term is mean cross-entropy over training nodes and
the energy term is the mean squared hinge max(0, E_i - m_in)^2 on the
post-propagation energies of training nodes. Because propagation is linear,
its adjoint is the transposed update, so the hinge gradient reaches every
logit that influenced a training node's final energy, including unlabeled
neighbours.

Each epoch runs the encoder once. The parameters leaving epoch t are the
ones entering epoch t + 1, so the forward/backward pass that gives epoch
t + 1 its gradients also scores epoch t on the validation split; only the
last epoch runs a forward pass of its own, and only when there is a
validation split.

An epoch allocates no large array. train keeps every parameter as a view
into one flat vector and every gradient as a view into a second one, so an
Adam step and the finite check are a few in-place operations on the whole
vector. Activations, their gradients and the logit statistics are written
into one _Workspace that each train call allocates for itself, and one
pass over the logits (energy.logit_pass) gives the softmax, the raw energy
and the cross-entropy. All of it is elementwise the same arithmetic as a
per-array loop with fresh arrays, so results are bitwise equal to it.

All math is float64 and full batch. Randomness comes from a Philox
(counter-based) generator seeded by the run seed: weights are drawn
Glorot-uniform in path order, then hidden, then output layer; biases start
at zero. Two runs with equal seeds produce bitwise identical histories and
parameters.
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
    InvalidPath,
    LabelOutOfRange,
    OodLabelInTrainSet,
    ShapeMismatch,
    TrainingDiverged,
    ValidationError,
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
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not np.isfinite(self.m_in):
            raise ValueError(f"m_in must be finite, got {self.m_in}")
        if self.d_hidden < 1:
            raise ValueError(f"d_hidden must be >= 1, got {self.d_hidden}")
        # delegate gamma/steps validation
        PropagationConfig(self.gamma, self.steps)

    @property
    def propagation(self) -> PropagationConfig:
        return PropagationConfig(self.gamma, self.steps)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        """Config from field-name keys, the vocabulary of to_dict; absent
        fields keep their defaults.

        Raises ValidationError naming an unknown key, or a value that is not
        a number its field's type holds exactly.
        """
        defaults = dataclasses.asdict(cls())
        kwargs = {}
        for key, value in values.items():
            if key not in defaults:
                raise ValidationError(
                    f"unknown train config key {key!r}; expected one of "
                    f"{sorted(defaults)}")
            cast = type(defaults[key])
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or cast(value) != value):
                raise ValidationError(
                    f"train config key {key!r} must be {cast.__name__}, "
                    f"got {value!r}")
            kwargs[key] = cast(value)
        return cls(**kwargs)


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

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.paths, self.prop_paths, self.classes,
            [w.copy() for w in self.proj_weights],
            [b.copy() for b in self.proj_biases],
            self.hidden_weight.copy(), self.hidden_bias.copy(),
            self.out_weight.copy(), self.out_bias.copy())


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
    """Per-epoch log. Losses and the mean raw training energy are measured
    with the parameters entering the epoch; val_micro_f1 with the updated
    parameters leaving it, which the next epoch's forward pass scores."""

    records: list[EpochRecord] = field(default_factory=list)

    def as_dicts(self) -> list[dict]:
        return [dataclasses.asdict(r) for r in self.records]

    def __len__(self) -> int:
        return len(self.records)


def _glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(rng: np.random.Generator, paths, in_dims, d_hidden: int,
                classes, prop_paths) -> EncoderParams:
    """Glorot-uniform weights, zero biases; draws in a fixed order. The head
    has one column per value of classes."""
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
    """Aggregated features per path; every path must start at the target type."""
    paths = [MetaPath(p) for p in feature_paths]
    if not paths:
        raise InvalidPath("at least one feature meta-path is required")
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

    train allocates one per call and reuses it every epoch; it is never
    shared, because seeds may train concurrently in threads. gradients,
    training_loss and forward_from_features make a fresh one per call. The
    arrays a pass returns live here, valid until the next pass into the same
    workspace.
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
        self.z = np.empty((n, h * len(xs)))
        self.pre_hidden = np.empty((n, h))
        self.hidden = np.empty((n, h))
        self.logits = np.empty((n, k))
        self.logit_pass = LogitPass.empty(n, k)
        self.d_logits = np.empty((n, k))
        self.d_hidden = np.empty((n, h))
        self.active = np.empty((n, h), dtype=bool)
        self.d_pre = np.empty((n, h))
        self.d_z = np.empty((n, h * len(xs)))
        self.grad_flat = np.empty(sum(p.size for p in params.param_list()))
        self.grads = _param_views(params, self.grad_flat)


def _encode(xs: list[np.ndarray], params: EncoderParams,
            ws: _Workspace) -> np.ndarray:
    """Encoder forward into ws: z (the concatenated per-path projections),
    pre_hidden, hidden and the logits, which it returns; the backward pass
    reads all four."""
    h = params.d_hidden
    for i, (x, w, b) in enumerate(zip(xs, params.proj_weights,
                                      params.proj_biases)):
        block = ws.z[:, i * h:(i + 1) * h]
        np.matmul(x, w, out=block)
        block += b
    np.matmul(ws.z, params.hidden_weight, out=ws.pre_hidden)
    ws.pre_hidden += params.hidden_bias
    np.maximum(ws.pre_hidden, 0.0, out=ws.hidden)
    np.matmul(ws.hidden, params.out_weight, out=ws.logits)
    ws.logits += params.out_bias
    return ws.logits


def forward_from_features(xs: list[np.ndarray], params: EncoderParams) -> np.ndarray:
    """Logits from precomputed per-path feature tables."""
    return _encode(xs, params, _Workspace(xs, params))


def forward(graph: HeteroGraph, params: EncoderParams) -> np.ndarray:
    """Logits (n_target, n_classes) from the feature tables of params.paths."""
    return forward_from_features(feature_tables(graph, params.paths), params)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max shift; rows sum to 1 within 1e-12."""
    return logit_pass(logits).probs


def _check_head_labels(labels: np.ndarray, ids: np.ndarray, n_classes: int) -> None:
    picked = labels[ids]
    if picked.size and (picked.min() < 0 or picked.max() >= n_classes):
        bad = picked[(picked < 0) | (picked >= n_classes)][0]
        raise LabelOutOfRange(f"label {bad} outside [0, {n_classes})")


def _class_loss(lp: LogitPass, labels: np.ndarray, train_ids: np.ndarray) -> float:
    return float(-lp.log_probs(train_ids, labels[train_ids]).mean())


def loss_classification(logits: np.ndarray, labels: np.ndarray,
                        train_ids: np.ndarray) -> float:
    """Mean cross-entropy -log p(y_i) over the training nodes."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    train_ids = np.asarray(train_ids, dtype=np.int64)
    _check_head_labels(labels, train_ids, logits.shape[1])
    return _class_loss(logit_pass(logits), labels, train_ids)


def loss_energy(final_energies: np.ndarray, train_ids: np.ndarray,
                m_in: float) -> float:
    """Mean squared hinge max(0, E_i - m_in)^2 over the training nodes,
    evaluated on post-propagation energies."""
    e = np.asarray(final_energies, dtype=np.float64)[np.asarray(train_ids, dtype=np.int64)]
    hinge = np.maximum(e - m_in, 0.0)
    return float(np.mean(hinge ** 2))


def loss_total(l_c: float, l_e: float, alpha: float) -> float:
    return alpha * l_c + (1.0 - alpha) * l_e


@dataclass
class _ForwardState:
    """One full forward/backward pass over all target nodes; its arrays live
    in the workspace the pass wrote."""

    logits: np.ndarray
    energy_raw: np.ndarray
    class_loss: float
    energy_loss: float
    total_loss: float
    grads: EncoderParams


def propagation_operators(graph: HeteroGraph, prop_paths,
                          steps: int) -> list[MetaPathOperator]:
    """Matrix-free operator (forward and adjoint) for every propagation path;
    none when steps is 0."""
    if steps == 0:
        return []
    paths = [MetaPath(p) for p in prop_paths or []]
    if not paths:
        raise InvalidPath("propagation steps > 0 but no target-to-target meta-path given")
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


def _forward_backward(xs: list[np.ndarray],
                      a_hats: list[MetaPathOperator],
                      params: EncoderParams,
                      labels: np.ndarray,
                      train_ids: np.ndarray,
                      config: TrainConfig,
                      ws: _Workspace) -> _ForwardState:
    """Losses and gradients, written into ws. labels must be int64 head
    classes whose range the caller has checked on train_ids."""
    n = xs[0].shape[0]
    n_train = train_ids.size
    prop_cfg = config.propagation

    logits = _encode(xs, params, ws)
    lp = logit_pass(logits, ws.logit_pass)
    e_final = propagated_energies(lp.energy, a_hats, prop_cfg)
    l_c = _class_loss(lp, labels, train_ids)
    l_e = loss_energy(e_final, train_ids, config.m_in)
    total = loss_total(l_c, l_e, config.alpha)

    # backward: gradient of the total loss w.r.t. the logits
    d_logits = ws.d_logits
    d_logits.fill(0.0)
    if config.alpha != 0.0:
        d_ce = lp.probs[train_ids]
        d_ce[np.arange(n_train), labels[train_ids]] -= 1.0
        d_logits[train_ids] += (config.alpha / n_train) * d_ce
    if config.alpha != 1.0:
        hinge = np.maximum(e_final[train_ids] - config.m_in, 0.0)
        g = np.zeros(n)
        g[train_ids] = 2.0 * hinge / n_train
        if a_hats:
            d_e_raw = fuse([propagate_transpose(g, a, prop_cfg) for a in a_hats])
        else:
            d_e_raw = g
        # dE_raw/dlogits is -softmax rowwise
        d_logits += (1.0 - config.alpha) * d_e_raw[:, None] * (-lp.probs)

    grads = ws.grads
    np.matmul(ws.hidden.T, d_logits, out=grads.out_weight)
    np.sum(d_logits, axis=0, out=grads.out_bias)
    np.matmul(d_logits, params.out_weight.T, out=ws.d_hidden)
    np.greater(ws.pre_hidden, 0.0, out=ws.active)
    np.multiply(ws.d_hidden, ws.active, out=ws.d_pre)
    np.matmul(ws.z.T, ws.d_pre, out=grads.hidden_weight)
    np.sum(ws.d_pre, axis=0, out=grads.hidden_bias)
    np.matmul(ws.d_pre, params.hidden_weight.T, out=ws.d_z)
    h = params.d_hidden
    for i, x in enumerate(xs):
        chunk = ws.d_z[:, i * h:(i + 1) * h]
        np.matmul(x.T, chunk, out=grads.proj_weights[i])
        np.sum(chunk, axis=0, out=grads.proj_biases[i])
    return _ForwardState(logits, lp.energy, l_c, l_e, total, grads)


def _graph_pass(graph: HeteroGraph, feature_paths, prop_paths,
                params: EncoderParams, labels: np.ndarray,
                train_ids: np.ndarray, config: TrainConfig) -> _ForwardState:
    """_forward_backward on feature tables and operators built from graph,
    into a fresh workspace."""
    labels = np.asarray(labels, dtype=np.int64)
    train_ids = np.asarray(train_ids, dtype=np.int64)
    _check_head_labels(labels, train_ids, params.n_classes)
    xs = feature_tables(graph, feature_paths)
    a_hats = propagation_operators(graph, prop_paths, config.steps)
    return _forward_backward(xs, a_hats, params, labels, train_ids, config,
                             _Workspace(xs, params))


def gradients(graph: HeteroGraph, feature_paths, prop_paths,
              params: EncoderParams, labels: np.ndarray,
              train_ids: np.ndarray, config: TrainConfig) -> EncoderParams:
    """Exact gradient of the joint loss for every parameter, shaped like
    params.

    labels must already be head-space class ids in [0, K); the energy term
    differentiates through the propagation chain via its transpose.
    """
    return _graph_pass(graph, feature_paths, prop_paths, params, labels,
                       train_ids, config).grads


def training_loss(graph: HeteroGraph, feature_paths, prop_paths,
                  params: EncoderParams, labels: np.ndarray,
                  train_ids: np.ndarray, config: TrainConfig) -> tuple[float, float, float]:
    """(total, classification, energy) loss; the finite-difference target."""
    state = _graph_pass(graph, feature_paths, prop_paths, params, labels,
                        train_ids, config)
    return state.total_loss, state.class_loss, state.energy_loss


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
    return np.unique(labels[ids])


def map_to_head(labels: np.ndarray, id_values: np.ndarray) -> np.ndarray:
    """Labels mapped to head indices [0, K); unknown values map to -1."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.full(labels.shape, -1, dtype=np.int64)
    for idx, value in enumerate(np.asarray(id_values, dtype=np.int64)):
        out[labels == value] = idx
    return out


def train(graph: HeteroGraph, labels: np.ndarray, splits, config: TrainConfig,
          feature_paths=None, prop_paths=None) -> tuple[EncoderParams, TrainHistory]:
    """Full-batch Adam training; returns the best-validation parameters,
    which record the paths they were trained with and their classes.

    Labels are raw dataset values; head classes are the sorted distinct
    labels seen in train plus val. A path list left None comes from
    resolve_paths(graph). Model selection keeps the parameters with the
    highest validation micro-F1 (earliest epoch wins ties); with an empty
    validation split the final parameters are returned.
    The encoder runs once per epoch, plus once after the last epoch when the
    validation split is non-empty.

    Raises EmptyTrainSet and OodLabelInTrainSet on protocol violations, and
    TrainingDiverged once the loss or a parameter stops being finite.
    """
    labels = np.asarray(labels, dtype=np.int64)
    train_ids = np.asarray(splits.train_ids, dtype=np.int64)
    val_ids = np.asarray(splits.val_ids, dtype=np.int64)
    if train_ids.size == 0:
        raise EmptyTrainSet("no training nodes")
    ood = splits.ood_class
    if np.any(labels[train_ids] == ood) or (val_ids.size and np.any(labels[val_ids] == ood)):
        raise OodLabelInTrainSet(
            f"held-out class {ood} occurs in the train or val split")

    if feature_paths is None or prop_paths is None:
        feat, prop = resolve_paths(graph)
        feature_paths = feat if feature_paths is None else feature_paths
        prop_paths = prop if prop_paths is None else prop_paths

    id_values = id_class_values(labels, train_ids, val_ids)
    y_head = map_to_head(labels, id_values)

    xs = feature_tables(graph, feature_paths)
    a_hats = propagation_operators(graph, prop_paths, config.steps)

    rng = np.random.Generator(np.random.Philox(config.seed))
    init = init_params(rng, feature_paths, [x.shape[1] for x in xs],
                       config.d_hidden, id_values, prop_paths)
    flat = np.concatenate([p.ravel() for p in init.param_list()])
    params = _param_views(init, flat)
    ws = _Workspace(xs, params)
    adam = _Adam(flat.size, config.learning_rate)
    finite = np.empty(flat.size, dtype=bool)

    history = TrainHistory()
    best_params = None
    best_f1 = -np.inf
    # The finite check below turns overflow and NaN into TrainingDiverged,
    # so numpy's warnings on the way there only add noise.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state = _forward_backward(xs, a_hats, params, y_head, train_ids,
                                  config, ws)
        for epoch in range(config.epochs):
            # the next pass overwrites ws, so read this epoch's losses first
            losses = dict(total_loss=state.total_loss,
                          class_loss=state.class_loss,
                          energy_loss=state.energy_loss,
                          train_energy_mean=float(
                              state.energy_raw[train_ids].mean()))
            adam.update(flat, ws.grad_flat, epoch + 1)
            if not (np.isfinite(state.total_loss)
                    and np.isfinite(flat, out=finite).all()):
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}: loss "
                    f"{state.total_loss} or a parameter is not finite; "
                    f"lower the learning rate")

            # the next epoch's forward pass scores validation for this one
            if epoch + 1 < config.epochs:
                state = _forward_backward(xs, a_hats, params, y_head,
                                          train_ids, config, ws)
                logits = state.logits
            elif val_ids.size:
                logits = forward_from_features(xs, params)
            if val_ids.size:
                val_f1 = float(np.mean(
                    logits[val_ids].argmax(axis=1) == y_head[val_ids]))
            else:
                val_f1 = 0.0
            history.records.append(EpochRecord(
                epoch=epoch, val_micro_f1=val_f1, **losses))
            if val_ids.size and val_f1 > best_f1:
                best_f1 = val_f1
                best_params = params.copy()

    if best_params is None:
        best_params = params.copy()
    return best_params, history

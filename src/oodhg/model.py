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
    PropagationConfig,
    energy_scores,
    fuse,
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
    candidate_metapaths,
    compose_metapath,  # noqa: F401
    metapath_features,
    metapath_operator,
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
    """All learnable arrays: one projection per feature path plus the head."""

    paths: tuple[MetaPath, ...]
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
            self.paths,
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
    parameters leaving it."""

    records: list[EpochRecord] = field(default_factory=list)

    def as_dicts(self) -> list[dict]:
        return [dataclasses.asdict(r) for r in self.records]

    def __len__(self) -> int:
        return len(self.records)


def _glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(rng: np.random.Generator, paths, in_dims, d_hidden: int,
                n_classes: int) -> EncoderParams:
    """Glorot-uniform weights, zero biases; draws in a fixed order."""
    paths = tuple(p if isinstance(p, MetaPath) else MetaPath(p) for p in paths)
    proj_w = [_glorot_uniform(rng, d, d_hidden) for d in in_dims]
    proj_b = [np.zeros(d_hidden) for _ in in_dims]
    hidden_w = _glorot_uniform(rng, d_hidden * len(paths), d_hidden)
    out_w = _glorot_uniform(rng, d_hidden, n_classes)
    return EncoderParams(paths, proj_w, proj_b,
                         hidden_w, np.zeros(d_hidden),
                         out_w, np.zeros(n_classes))


def feature_tables(graph: HeteroGraph, feature_paths) -> list[np.ndarray]:
    """Aggregated features per path; every path must start at the target type."""
    paths = [p if isinstance(p, MetaPath) else MetaPath(p) for p in feature_paths]
    if not paths:
        raise InvalidPath("at least one feature meta-path is required")
    for p in paths:
        if p.types[0] != graph.target_type:
            raise InvalidPath(
                f"feature meta-path {p} must start at target type "
                f"{graph.target_type!r}")
    return [metapath_features(graph, p) for p in paths]


def forward_from_features(xs: list[np.ndarray], params: EncoderParams) -> np.ndarray:
    """Logits from precomputed per-path feature tables."""
    if len(xs) != len(params.proj_weights):
        raise ShapeMismatch(
            f"{len(xs)} feature tables for {len(params.proj_weights)} projections")
    cols = []
    for x, w, b in zip(xs, params.proj_weights, params.proj_biases):
        if x.shape[1] != w.shape[0]:
            raise ShapeMismatch(
                f"feature dim {x.shape[1]} does not match projection {w.shape}")
        cols.append(x @ w + b)
    z = np.concatenate(cols, axis=1)
    hidden = np.maximum(z @ params.hidden_weight + params.hidden_bias, 0.0)
    return hidden @ params.out_weight + params.out_bias


def forward(graph: HeteroGraph, feature_paths, params: EncoderParams) -> np.ndarray:
    """Logits for every target node, shape (n_target, n_classes)."""
    return forward_from_features(feature_tables(graph, feature_paths), params)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max shift; rows sum to 1 within 1e-12."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _check_head_labels(labels: np.ndarray, ids: np.ndarray, n_classes: int) -> None:
    picked = labels[ids]
    if picked.size and (picked.min() < 0 or picked.max() >= n_classes):
        bad = picked[(picked < 0) | (picked >= n_classes)][0]
        raise LabelOutOfRange(f"label {bad} outside [0, {n_classes})")


def loss_classification(logits: np.ndarray, labels: np.ndarray,
                        train_ids: np.ndarray) -> float:
    """Mean cross-entropy -log p(y_i) over the training nodes."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    train_ids = np.asarray(train_ids, dtype=np.int64)
    _check_head_labels(labels, train_ids, logits.shape[1])
    logp = _log_softmax(logits[train_ids])
    return float(-logp[np.arange(train_ids.size), labels[train_ids]].mean())


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
    """One full forward/backward pass over all target nodes."""

    logits: np.ndarray
    probs: np.ndarray
    energy_raw: np.ndarray
    energy_final: np.ndarray
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
    paths = [p if isinstance(p, MetaPath) else MetaPath(p) for p in prop_paths or []]
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
                      config: TrainConfig) -> _ForwardState:
    n = xs[0].shape[0]
    train_ids = np.asarray(train_ids, dtype=np.int64)
    n_train = train_ids.size
    prop_cfg = config.propagation

    # forward
    cols = [x @ w + b for x, w, b in
            zip(xs, params.proj_weights, params.proj_biases)]
    z = np.concatenate(cols, axis=1)
    pre_hidden = z @ params.hidden_weight + params.hidden_bias
    hidden = np.maximum(pre_hidden, 0.0)
    logits = hidden @ params.out_weight + params.out_bias
    probs = softmax_probs(logits)
    e_raw = energy_scores(logits)
    e_final = propagated_energies(e_raw, a_hats, prop_cfg)
    l_c = loss_classification(logits, labels, train_ids)
    l_e = loss_energy(e_final, train_ids, config.m_in)
    total = loss_total(l_c, l_e, config.alpha)

    # backward: gradient of the total loss w.r.t. the logits
    d_logits = np.zeros_like(logits)
    if config.alpha != 0.0:
        d_ce = probs[train_ids].copy()
        d_ce[np.arange(n_train), labels[train_ids]] -= 1.0
        d_logits[train_ids] += (config.alpha / n_train) * d_ce
    if config.alpha != 1.0:
        hinge = np.maximum(e_final[train_ids] - config.m_in, 0.0)
        g = np.zeros(n)
        g[train_ids] = 2.0 * hinge / n_train
        if a_hats:
            back = [propagate_transpose(g, a, prop_cfg) for a in a_hats]
            d_e_raw = np.mean(np.stack(back), axis=0)
        else:
            d_e_raw = g
        # dE_raw/dlogits is -softmax rowwise
        d_logits += (1.0 - config.alpha) * d_e_raw[:, None] * (-probs)

    d_out_w = hidden.T @ d_logits
    d_out_b = d_logits.sum(axis=0)
    d_hidden = d_logits @ params.out_weight.T
    d_pre = d_hidden * (pre_hidden > 0.0)
    d_hidden_w = z.T @ d_pre
    d_hidden_b = d_pre.sum(axis=0)
    d_z = d_pre @ params.hidden_weight.T
    h = params.d_hidden
    d_proj_w, d_proj_b = [], []
    for i, x in enumerate(xs):
        chunk = d_z[:, i * h:(i + 1) * h]
        d_proj_w.append(x.T @ chunk)
        d_proj_b.append(chunk.sum(axis=0))

    grads = EncoderParams(params.paths, d_proj_w, d_proj_b,
                          d_hidden_w, d_hidden_b, d_out_w, d_out_b)
    return _ForwardState(logits, probs, e_raw, e_final, l_c, l_e, total, grads)


def gradients(graph: HeteroGraph, feature_paths, prop_paths,
              params: EncoderParams, labels: np.ndarray,
              train_ids: np.ndarray, config: TrainConfig) -> EncoderParams:
    """Exact gradient of the joint loss for every parameter, shaped like
    params.

    labels must already be head-space class ids in [0, K); the energy term
    differentiates through the propagation chain via its transpose.
    """
    xs = feature_tables(graph, feature_paths)
    a_hats = propagation_operators(graph, prop_paths, config.steps)
    labels = np.asarray(labels, dtype=np.int64)
    _check_head_labels(labels, np.asarray(train_ids, dtype=np.int64), params.n_classes)
    return _forward_backward(xs, a_hats, params, labels,
                             train_ids, config).grads


def training_loss(graph: HeteroGraph, feature_paths, prop_paths,
                  params: EncoderParams, labels: np.ndarray,
                  train_ids: np.ndarray, config: TrainConfig) -> tuple[float, float, float]:
    """(total, classification, energy) loss; the finite-difference target."""
    xs = feature_tables(graph, feature_paths)
    a_hats = propagation_operators(graph, prop_paths, config.steps)
    labels = np.asarray(labels, dtype=np.int64)
    state = _forward_backward(xs, a_hats, params, labels,
                              np.asarray(train_ids, dtype=np.int64), config)
    return state.total_loss, state.class_loss, state.energy_loss


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
    """Full-batch Adam training; returns the best-validation parameters.

    Labels are raw dataset values; head classes are the sorted distinct
    labels seen in train plus val. Both path lists default to the
    target-to-target candidates within 2 hops. Model selection keeps the
    parameters with the highest validation micro-F1 (earliest epoch wins
    ties); with an empty validation split the final parameters are returned.

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
        default_paths = candidate_metapaths(graph, 2)
        feature_paths = default_paths if feature_paths is None else feature_paths
        prop_paths = default_paths if prop_paths is None else prop_paths

    id_values = id_class_values(labels, train_ids, val_ids)
    y_head = map_to_head(labels, id_values)
    n_classes = id_values.size

    xs = feature_tables(graph, feature_paths)
    for x in xs:
        if x.shape[0] != graph.target_count:
            raise ShapeMismatch("feature tables must cover every target node")
    a_hats = propagation_operators(graph, prop_paths, config.steps)

    rng = np.random.Generator(np.random.Philox(config.seed))
    params = init_params(rng, feature_paths, [x.shape[1] for x in xs],
                         config.d_hidden, n_classes)

    flat = params.param_list()
    m_state = [np.zeros_like(p) for p in flat]
    v_state = [np.zeros_like(p) for p in flat]
    lr = config.learning_rate

    history = TrainHistory()
    best_params = None
    best_f1 = -np.inf
    for epoch in range(config.epochs):
        state = _forward_backward(xs, a_hats, params, y_head,
                                  train_ids, config)
        t = epoch + 1
        for p, g, m, v in zip(params.param_list(), state.grads.param_list(),
                              m_state, v_state):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1 ** t)
            v_hat = v / (1.0 - ADAM_BETA2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if not (np.isfinite(state.total_loss)
                and all(np.isfinite(p).all() for p in params.param_list())):
            raise TrainingDiverged(
                f"training diverged at epoch {epoch}: loss "
                f"{state.total_loss} or a parameter is not finite; "
                f"lower the learning rate")

        if val_ids.size:
            val_logits = forward_from_features(xs, params)[val_ids]
            val_f1 = float(np.mean(val_logits.argmax(axis=1) == y_head[val_ids]))
        else:
            val_f1 = 0.0
        history.records.append(EpochRecord(
            epoch=epoch,
            total_loss=state.total_loss,
            class_loss=state.class_loss,
            energy_loss=state.energy_loss,
            val_micro_f1=val_f1,
            train_energy_mean=float(state.energy_raw[train_ids].mean()),
        ))
        if val_ids.size and val_f1 > best_f1:
            best_f1 = val_f1
            best_params = params.copy()

    if best_params is None:
        best_params = params.copy()
    return best_params, history

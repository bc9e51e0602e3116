"""End-to-end experiment plumbing shared by the CLI and the test suite.

Covers post-training evaluation (detection metrics and K+1 classification
at a threshold tau) and the versioned parameter checkpoint format
"oodhg-ckpt-v1". The K+1 classes of the test nodes are model.label_space's,
the protocol train checks, so evaluate refuses exactly the splits train
refuses. A trained model is one EncoderParams: its arrays, its
feature and propagation paths, and the class value of each output column.
The path policy, resolve_paths, is hetgraph's and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Splits, _read_json, _write_json
# not called here, kept importable as pipeline.<name>: perfbench/tracer.py
# patches compose_metapath, propagate and sweep_threshold by name, and
# perfbench/setup_probe.py imports resolve_paths
from .energy import logit_pass, msp_score, propagate  # noqa: F401
from .errors import ValidationError
from .hetgraph import (
    HeteroGraph,
    MetaPath,
    compose_metapath,  # noqa: F401
    resolve_paths,  # noqa: F401
)
from .metrics import (
    BinaryScoredSet,
    KPlusOnePrediction,
    assemble_kplus1,
    aupr,
    auroc,
    fpr_at_95tpr,
    macro_f1,
    micro_f1,
    sweep_threshold,  # noqa: F401
)
from .model import (
    TRAIN_CONFIG_KINDS,
    EncoderParams,
    TrainConfig,
    TrainHistory,
    forward,
    label_space,
    propagated_energies,
    propagation_operators,
    train,
)

CHECKPOINT_FORMAT = "oodhg-ckpt-v1"

# The validation split never holds held-out-class nodes (train() rejects
# it), so no validation score can choose tau: K+1 micro-F1 there only falls
# as tau rises. The threshold is a fixed constant, as in energy-based OOD
# detection, which sets it from ID data alone.
DEFAULT_TAU = 1.0


@dataclass
class EvalReport:
    """Per-node detector outputs and aggregate metrics on the test split.

    Only predicted and the micro_f1/macro_f1 metrics depend on tau; at(t)
    reads them off the same scores at another threshold, without a second
    forward pass or propagation.
    """

    tau: float
    metrics: dict
    test_ids: np.ndarray
    energy_raw: np.ndarray
    energy_final: np.ndarray
    probs: np.ndarray
    max_softmax: np.ndarray
    predicted: np.ndarray
    gold: np.ndarray

    def at(self, tau: float) -> EvalReport:
        """This report at threshold tau: -E <= tau is OOD. Raises ValueError
        when tau is not finite."""
        predicted = assemble_kplus1(self.probs[self.test_ids],
                                    self.energy_final[self.test_ids], tau)
        kp = KPlusOnePrediction(predicted, self.gold, self.probs.shape[1] + 1)
        return replace(self, tau=float(tau), predicted=predicted, metrics={
            **self.metrics, "micro_f1": micro_f1(kp), "macro_f1": macro_f1(kp)})


def evaluate(graph: HeteroGraph, labels: np.ndarray, splits: Splits,
             params: EncoderParams, config: TrainConfig,
             tau: float = DEFAULT_TAU) -> EvalReport:
    """Score every node with the trained model, flag -E <= tau as OOD, and
    compute the test-split metric suite.

    Logits come from the feature tables of params.paths. Final energies come
    from the same propagate-then-average step training uses along
    params.prop_paths, so the path checks of training apply here too. Output
    column j predicts class params.classes[j]. Gold classes come from
    label_space, so splits that train would refuse raise train's errors,
    and a ValidationError follows when the train/val classes of splits are
    not params.classes.
    """
    seen, kplus1 = label_space(labels, splits)
    if not np.array_equal(seen, params.classes):
        raise ValidationError(
            f"model class set {params.classes.tolist()} does not match the "
            f"splits' train/val classes {seen.tolist()}")
    lp = logit_pass(forward(graph, params))
    probs, e_raw = lp.probs, lp.energy
    e_final = propagated_energies(
        e_raw, propagation_operators(graph, params.prop_paths, config.steps),
        config.propagation)

    test_ids = splits.test_ids
    gold = kplus1[test_ids]
    is_ood = gold == params.classes.size
    scored = BinaryScoredSet(e_final[test_ids], is_ood)
    max_soft = msp_score(probs)
    msp_scored = BinaryScoredSet(-max_soft[test_ids], is_ood)
    metrics = {
        "auroc": auroc(scored),
        "aupr": aupr(scored),
        "fpr95": fpr_at_95tpr(scored),
        "auroc_msp": auroc(msp_scored),
    }
    return EvalReport(
        tau=float(tau), metrics=metrics, test_ids=test_ids, energy_raw=e_raw,
        energy_final=e_final, probs=probs, max_softmax=max_soft,
        predicted=None, gold=gold).at(tau)


def run_experiment(graph: HeteroGraph, labels: np.ndarray, splits: Splits,
                   config: TrainConfig
                   ) -> tuple[EncoderParams, TrainHistory, EvalReport]:
    """Train on resolve_paths(graph), then evaluate on the test split at
    DEFAULT_TAU; one seed, fully deterministic.

    The paths come from the graph alone, not from a dataset's schema.json:
    on a dataset whose metapaths list only target->aux0->target, every CLI
    command uses that one path, while this trains on the aux0 and the aux1
    path. For the CLI's paths, call train with the lists
    resolve_paths(graph, *load_path_config(d)) returns.
    """
    params, history = train(graph, labels, splits, config)
    report = evaluate(graph, labels, splits, params, config)
    return params, history, report


# ----------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, params: EncoderParams, config: TrainConfig,
                    ood_class: int) -> Path:
    """Self-describing JSON checkpoint, format tag "oodhg-ckpt-v1".

    Paths and class values come from params. All arrays are stored as nested
    float lists; json round-trips Python floats exactly, so reloading
    reproduces the parameters bit for bit.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "train_config": config.to_dict(),
        "feature_paths": [list(p.types) for p in params.paths],
        "prop_paths": [list(p.types) for p in params.prop_paths],
        "id_class_values": [int(v) for v in params.classes],
        "ood_class": int(ood_class),
        "params": {
            "projections": [
                {"path": list(p.types), "weight": w.tolist(), "bias": b.tolist()}
                for p, w, b in zip(params.paths, params.proj_weights,
                                   params.proj_biases)],
            "hidden_weight": params.hidden_weight.tolist(),
            "hidden_bias": params.hidden_bias.tolist(),
            "out_weight": params.out_weight.tolist(),
            "out_bias": params.out_bias.tolist(),
        },
    }
    path = Path(path)
    _write_json(path, payload)
    return path


@dataclass
class Checkpoint:
    params: EncoderParams
    config: TrainConfig
    ood_class: int


_CHECKPOINT = {
    "format": CHECKPOINT_FORMAT, "train_config": TRAIN_CONFIG_KINDS,
    "feature_paths": [[str]], "prop_paths": [[str]],
    "id_class_values": [int], "ood_class": int,
    "params": {
        "projections": [{"path": [str], "weight": [[float]], "bias": [float]}],
        "hidden_weight": [[float]], "hidden_bias": [float],
        "out_weight": [[float]], "out_bias": [float]},
}


def _array(values: list, name: str, shape: tuple) -> np.ndarray:
    """values as an array of shape shape, where None matches any length."""
    widths = {len(row) for row in values} if len(shape) == 2 else set()
    if len(widths) > 1:
        raise ValidationError(f"{name!r} has rows of unequal length")
    got = (len(values), *widths)
    if len(got) != len(shape) or any(
            want is not None and g != want for g, want in zip(got, shape)):
        expected = tuple("*" if w is None else w for w in shape)
        raise ValidationError(f"{name!r} has shape {got}, expected {expected}")
    return np.asarray(values, dtype=np.float64)


def _parse_checkpoint(payload: dict) -> Checkpoint:
    """Checkpoint of a payload already read against _CHECKPOINT."""
    try:
        config = TrainConfig.from_dict(payload["train_config"])
    except ValueError as exc:
        raise ValidationError(f"'train_config': {exc}") from None
    paths = tuple(MetaPath(p) for p in payload["feature_paths"])
    id_values = payload["id_class_values"]
    raw = payload["params"]
    if len(raw["projections"]) != len(paths):
        raise ValidationError(f"checkpoint has {len(raw['projections'])} "
                              f"projections for {len(paths)} feature paths")
    h, k = config.d_hidden, len(id_values)
    weights, biases = [], []
    for i, (proj, path) in enumerate(zip(raw["projections"], paths)):
        name = f"params.projections[{i}]"
        if proj["path"] != list(path.types):
            raise ValidationError(f"'{name}.path' does not match feature path {path}")
        weights.append(_array(proj["weight"], name + ".weight", (None, h)))
        biases.append(_array(proj["bias"], name + ".bias", (h,)))
    params = EncoderParams(
        paths, tuple(MetaPath(p) for p in payload["prop_paths"]),
        np.asarray(id_values, dtype=np.int64), weights, biases,
        _array(raw["hidden_weight"], "params.hidden_weight",
               (h * len(paths), h)),
        _array(raw["hidden_bias"], "params.hidden_bias", (h,)),
        _array(raw["out_weight"], "params.out_weight", (h, k)),
        _array(raw["out_bias"], "params.out_bias", (k,)))
    return Checkpoint(params, config, payload["ood_class"])


def load_checkpoint(path) -> Checkpoint:
    """Checkpoint written by save_checkpoint. Raises ValidationError naming
    the path and the first field that is missing, of the wrong type, or
    whose array shape disagrees with the config, paths or class values."""
    path = Path(path)
    payload = _read_json(path, _CHECKPOINT)
    try:
        return _parse_checkpoint(payload)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def summarize_metric_rows(rows: list[dict]) -> dict:
    """Mean and population std per metric name over per-seed result rows."""
    keys = sorted(rows[0]) if rows else []
    out = {}
    for key in keys:
        vals = np.asarray([r[key] for r in rows], dtype=np.float64)
        out[key] = {"mean": float(vals.mean()), "std": float(vals.std())}
    return out

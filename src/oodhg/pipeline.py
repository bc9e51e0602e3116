"""End-to-end experiment plumbing shared by the CLI and the test suite.

Covers post-training evaluation (detection metrics and K+1 classification
at a threshold tau) and the versioned parameter checkpoint format
"oodhg-ckpt-v1". A model's feature paths are its EncoderParams.paths; the
path policy, resolve_paths, is hetgraph's and is re-exported here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Splits, _read_json
# compose_metapath, propagate and sweep_threshold are not called here; they
# stay importable as pipeline.<name> because perfbench/tracer.py patches
# them by name
from .energy import logit_pass, msp_score, propagate  # noqa: F401
from .errors import LabelOutOfRange, ValidationError
from .hetgraph import (
    HeteroGraph,
    MetaPath,
    compose_metapath,  # noqa: F401
    resolve_paths,
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
    EncoderParams,
    TrainConfig,
    TrainHistory,
    forward,
    id_class_values,
    map_to_head,
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
        n = self.probs.shape[1] + 1
        predicted = assemble_kplus1(self.probs[self.test_ids],
                                    self.energy_final[self.test_ids], tau, n)
        kp = KPlusOnePrediction(predicted, self.gold, n)
        return replace(self, tau=float(tau), predicted=predicted, metrics={
            **self.metrics, "micro_f1": micro_f1(kp), "macro_f1": macro_f1(kp)})


def gold_kplus1(labels: np.ndarray, ids: np.ndarray, id_values: np.ndarray,
                ood_class: int) -> np.ndarray:
    """Gold classes in [0, K]: head index for ID labels, K for the held-out
    class; any other value is a protocol violation."""
    labels = np.asarray(labels, dtype=np.int64)[np.asarray(ids, dtype=np.int64)]
    out = map_to_head(labels, id_values)
    out[(out == -1) & (labels == ood_class)] = id_values.size
    if np.any(out == -1):
        bad = labels[out == -1][0]
        raise LabelOutOfRange(
            f"label {bad} is neither a train/val class nor the held-out "
            f"class {ood_class}")
    return out


def evaluate(graph: HeteroGraph, labels: np.ndarray, splits: Splits,
             params: EncoderParams, config: TrainConfig, prop_paths,
             tau: float = DEFAULT_TAU) -> EvalReport:
    """Score every node with the training head, flag -E <= tau as OOD, and
    compute the test-split metric suite.

    Logits come from the feature tables of params.paths. Final energies come
    from the same propagate-then-average step training uses along
    prop_paths, so the path checks of training apply here too.
    """
    lp = logit_pass(forward(graph, params))
    probs, e_raw = lp.probs, lp.energy
    e_final = propagated_energies(
        e_raw, propagation_operators(graph, prop_paths, config.steps),
        config.propagation)

    id_values = id_class_values(labels, splits.train_ids, splits.val_ids)
    test_ids = np.asarray(splits.test_ids, dtype=np.int64)
    gold = gold_kplus1(labels, test_ids, id_values, splits.ood_class)
    is_ood = gold == id_values.size
    scored = BinaryScoredSet(e_final[test_ids], is_ood)
    max_soft = msp_score(probs)
    msp_scored = BinaryScoredSet(-max_soft[test_ids], is_ood)
    metrics = {
        "auroc": auroc(scored),
        "aupr": aupr(scored),
        "fpr95": fpr_at_95tpr(scored),
        "auroc_msp": auroc(msp_scored),
        "auroc_raw_energy": auroc(BinaryScoredSet(e_raw[test_ids], is_ood)),
    }
    return EvalReport(
        tau=float(tau), metrics=metrics, test_ids=test_ids, energy_raw=e_raw,
        energy_final=e_final, probs=probs, max_softmax=max_soft,
        predicted=None, gold=gold).at(tau)


def run_experiment(graph: HeteroGraph, labels: np.ndarray, splits: Splits,
                   config: TrainConfig, feature_paths=None, prop_paths=None,
                   tau: float = DEFAULT_TAU
                   ) -> tuple[EncoderParams, TrainHistory, EvalReport]:
    """Train, then evaluate on the test split; one seed, fully deterministic."""
    if prop_paths is None:
        prop_paths = resolve_paths(graph)[1]
    params, history = train(graph, labels, splits, config,
                            feature_paths, prop_paths)
    report = evaluate(graph, labels, splits, params, config, prop_paths, tau)
    return params, history, report


# ----------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, params: EncoderParams, config: TrainConfig,
                    id_values: np.ndarray, ood_class: int, prop_paths) -> Path:
    """Self-describing JSON checkpoint, format tag "oodhg-ckpt-v1".

    Feature paths come from params.paths. All arrays are stored as nested
    float lists; json round-trips Python floats exactly, so reloading
    reproduces the parameters bit for bit.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "train_config": config.to_dict(),
        "feature_paths": [list(p.types) for p in params.paths],
        "prop_paths": [list(MetaPath(p).types) for p in prop_paths],
        "id_class_values": [int(v) for v in id_values],
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
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@dataclass
class Checkpoint:
    params: EncoderParams
    config: TrainConfig
    prop_paths: list[MetaPath]
    id_class_values: np.ndarray
    ood_class: int


def _field(obj: dict, name: str, kind: type):
    """obj[key] for the last part of the dotted field name, which must be
    present and of type kind (bool never counts as int)."""
    key = name.rsplit(".", 1)[-1]
    if key not in obj:
        raise ValidationError(f"checkpoint field {name!r} is missing")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(
            f"checkpoint field {name!r} must be a {kind.__name__}, "
            f"got {type(value).__name__}")
    return value


def _array(obj: dict, name: str, shape: tuple) -> np.ndarray:
    """Float array field whose shape must equal shape; None matches any
    length along that axis."""
    try:
        arr = np.asarray(_field(obj, name, list), dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(
            f"checkpoint field {name!r} is not a numeric array") from None
    if arr.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(arr.shape, shape)):
        expected = tuple("*" if w is None else w for w in shape)
        raise ValidationError(
            f"checkpoint field {name!r} has shape {arr.shape}, expected "
            f"{expected}")
    return arr


def _metapaths(obj: dict, name: str) -> list[MetaPath]:
    paths = _field(obj, name, list)
    for i, p in enumerate(paths):
        if not isinstance(p, list) or not all(isinstance(t, str) for t in p):
            raise ValidationError(
                f"checkpoint field '{name}[{i}]' must be a list of type names")
    return [MetaPath(p) for p in paths]


def _parse_checkpoint(payload) -> Checkpoint:
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        found = payload.get("format") if isinstance(payload, dict) else None
        raise ValidationError(
            f"unsupported checkpoint format {found!r}, expected "
            f"{CHECKPOINT_FORMAT!r}")
    raw_config = _field(payload, "train_config", dict)
    missing = sorted(set(TrainConfig().to_dict()) - set(raw_config))
    if missing:
        raise ValidationError(
            f"checkpoint field 'train_config.{missing[0]}' is missing")
    config = TrainConfig.from_dict(raw_config)
    feature_paths = _metapaths(payload, "feature_paths")
    prop_paths = _metapaths(payload, "prop_paths")
    id_values = _field(payload, "id_class_values", list)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in id_values):
        raise ValidationError(
            "checkpoint field 'id_class_values' must list integers")
    ood_class = _field(payload, "ood_class", int)

    raw = _field(payload, "params", dict)
    projections = _field(raw, "params.projections", list)
    if len(projections) != len(feature_paths):
        raise ValidationError(
            f"checkpoint has {len(projections)} projections for "
            f"{len(feature_paths)} feature paths")
    h, k = config.d_hidden, len(id_values)
    weights, biases = [], []
    for i, (proj, path) in enumerate(zip(projections, feature_paths)):
        name = f"params.projections[{i}]"
        if not isinstance(proj, dict):
            raise ValidationError(f"checkpoint field {name!r} must be a dict")
        if _field(proj, name + ".path", list) != list(path.types):
            raise ValidationError(
                f"checkpoint field '{name}.path' does not match feature "
                f"path {path}")
        weights.append(_array(proj, name + ".weight", (None, h)))
        biases.append(_array(proj, name + ".bias", (h,)))
    params = EncoderParams(
        tuple(feature_paths), weights, biases,
        _array(raw, "params.hidden_weight", (h * len(feature_paths), h)),
        _array(raw, "params.hidden_bias", (h,)),
        _array(raw, "params.out_weight", (h, k)),
        _array(raw, "params.out_bias", (k,)))
    return Checkpoint(
        params=params,
        config=config,
        prop_paths=prop_paths,
        id_class_values=np.asarray(id_values, dtype=np.int64),
        ood_class=ood_class)


def load_checkpoint(path) -> Checkpoint:
    """Checkpoint written by save_checkpoint.

    Raises MissingFile, or ParseError naming the path when the file is not
    UTF-8 JSON. Raises ValidationError naming the first field that is
    missing, of the wrong type, or whose array shape disagrees with the
    training config, the feature paths or the class values.
    """
    path = Path(path)
    payload = _read_json(path)
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

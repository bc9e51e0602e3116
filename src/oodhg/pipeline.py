"""End-to-end experiment plumbing shared by the CLI and the test suite.

Covers meta-path resolution from dataset schema settings, post-training
evaluation (detection metrics, K+1 classification, threshold selection),
and the versioned parameter checkpoint format "oodhg-ckpt-v1".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Splits
from .energy import energy_scores, fuse, msp_score, propagate
from .errors import InvalidPath, LabelOutOfRange, ValidationError
# compose_metapath is not called here; it stays importable as
# pipeline.compose_metapath because perfbench/tracer.py patches it by name
from .hetgraph import (
    HeteroGraph,
    MetaPath,
    candidate_metapaths,
    compose_metapath,  # noqa: F401
    metapath_operator,
    validate_metapath,
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
    sweep_threshold,
)
from .model import (
    EncoderParams,
    TrainConfig,
    TrainHistory,
    forward,
    id_class_values,
    softmax_probs,
    train,
)

CHECKPOINT_FORMAT = "oodhg-ckpt-v1"


@dataclass
class EvalReport:
    """Per-node detector outputs and aggregate metrics on the test split."""

    tau: float
    metrics: dict
    test_ids: np.ndarray
    energy_raw: np.ndarray
    energy_final: np.ndarray
    max_softmax: np.ndarray
    predicted: np.ndarray
    gold: np.ndarray
    ood_flags: np.ndarray
    sweep_table: list | None = None


def resolve_paths(graph: HeteroGraph, metapaths=None, max_hops: int | None = None):
    """Feature and propagation path lists from schema-level settings.

    Explicit metapaths win; otherwise target-to-target candidates within
    max_hops (default 2) are enumerated. Propagation keeps only paths with
    both endpoints at the target type; feature paths must start at the
    target and end at a featured type.
    """
    if metapaths:
        paths = [validate_metapath(graph, MetaPath(seq)) for seq in metapaths]
    else:
        paths = candidate_metapaths(graph, max_hops if max_hops else 2)
    target = graph.target_type
    prop = [p for p in paths
            if p.types[0] == target and p.types[-1] == target]
    feat = [p for p in paths
            if p.types[0] == target and graph.feature_dim(p.types[-1]) > 0]
    if not feat:
        raise InvalidPath("no meta-path starts at the target type and ends "
                          "at a featured type")
    if not prop:
        raise InvalidPath("no target-to-target meta-path available for "
                          "energy propagation")
    return feat, prop


def gold_kplus1(labels: np.ndarray, ids: np.ndarray, id_values: np.ndarray,
                ood_class: int) -> np.ndarray:
    """Gold classes in [0, K]: head index for ID labels, K for the held-out
    class; any other value is a protocol violation."""
    labels = np.asarray(labels, dtype=np.int64)[np.asarray(ids, dtype=np.int64)]
    k = id_values.size
    out = np.full(labels.shape, -1, dtype=np.int64)
    out[labels == ood_class] = k
    for idx, value in enumerate(id_values):
        out[labels == value] = idx
    if np.any(out == -1):
        bad = labels[out == -1][0]
        raise LabelOutOfRange(
            f"label {bad} is neither a train/val class nor the held-out "
            f"class {ood_class}")
    return out


def final_energies(graph: HeteroGraph, e_raw: np.ndarray, prop_paths,
                   config: TrainConfig) -> np.ndarray:
    """Propagate raw energies along every path and average; identity when
    steps is 0."""
    if config.steps == 0 or not prop_paths:
        return e_raw.copy()
    prop_cfg = config.propagation
    return fuse([propagate(e_raw, metapath_operator(graph, p), prop_cfg)
                 for p in prop_paths])


def evaluate(graph: HeteroGraph, labels: np.ndarray, splits: Splits,
             params: EncoderParams, config: TrainConfig, feature_paths,
             prop_paths, tau: float | None = None, tau_grid=None) -> EvalReport:
    """Score every node, pick tau (given, or best validation micro-F1 on the
    default energy grid), and compute the test-split metric suite."""
    logits = forward(graph, feature_paths, params)
    probs = softmax_probs(logits)
    e_raw = energy_scores(logits)
    e_final = final_energies(graph, e_raw, prop_paths, config)

    id_values = id_class_values(labels, splits.train_ids, splits.val_ids)
    k = id_values.size
    test_ids = np.asarray(splits.test_ids, dtype=np.int64)
    gold = gold_kplus1(labels, test_ids, id_values, splits.ood_class)

    sweep_table = None
    if tau is None:
        val_ids = np.asarray(splits.val_ids, dtype=np.int64)
        gold_val = gold_kplus1(labels, val_ids, id_values, splits.ood_class)
        tau, sweep_table = sweep_threshold(e_final[val_ids], probs[val_ids],
                                           gold_val, k + 1, tau_grid)

    predicted = assemble_kplus1(probs[test_ids], e_final[test_ids], tau, k + 1)
    is_ood = gold == k
    scored = BinaryScoredSet(e_final[test_ids], is_ood)
    kp = KPlusOnePrediction(predicted, gold, k + 1)
    max_soft = msp_score(probs[test_ids])
    msp_scored = BinaryScoredSet(-max_soft, is_ood)
    metrics = {
        "auroc": auroc(scored),
        "aupr": aupr(scored),
        "fpr95": fpr_at_95tpr(scored),
        "micro_f1": micro_f1(kp),
        "macro_f1": macro_f1(kp),
        "auroc_msp": auroc(msp_scored),
        "auroc_raw_energy": auroc(BinaryScoredSet(e_raw[test_ids], is_ood)),
    }
    return EvalReport(
        tau=float(tau), metrics=metrics, test_ids=test_ids,
        energy_raw=e_raw, energy_final=e_final, max_softmax=msp_score(probs),
        predicted=predicted, gold=gold, ood_flags=predicted == k,
        sweep_table=sweep_table)


def run_experiment(graph: HeteroGraph, labels: np.ndarray, splits: Splits,
                   config: TrainConfig, feature_paths=None, prop_paths=None,
                   tau: float | None = None
                   ) -> tuple[EncoderParams, TrainHistory, EvalReport]:
    """Train, then evaluate on the test split; one seed, fully deterministic."""
    if feature_paths is None or prop_paths is None:
        feat, prop = resolve_paths(graph)
        feature_paths = feat if feature_paths is None else feature_paths
        prop_paths = prop if prop_paths is None else prop_paths
    params, history = train(graph, labels, splits, config,
                            feature_paths, prop_paths)
    report = evaluate(graph, labels, splits, params, config,
                      feature_paths, prop_paths, tau)
    return params, history, report


# ----------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, params: EncoderParams, config: TrainConfig,
                    id_values: np.ndarray, ood_class: int, feature_paths,
                    prop_paths) -> Path:
    """Self-describing JSON checkpoint, format tag "oodhg-ckpt-v1".

    All arrays are stored as nested float lists; json round-trips Python
    floats exactly, so reloading reproduces the parameters bit for bit.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "train_config": config.to_dict(),
        "feature_paths": [list(p.types) for p in params.paths],
        "prop_paths": [list(p.types) if isinstance(p, MetaPath) else list(p)
                       for p in prop_paths],
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
    feature_paths: list[MetaPath]
    prop_paths: list[MetaPath]
    id_class_values: np.ndarray
    ood_class: int


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    payload = json.loads(path.read_text())
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValidationError(
            f"{path}: unsupported checkpoint format "
            f"{payload.get('format')!r}, expected {CHECKPOINT_FORMAT!r}")
    raw = payload["params"]
    paths = tuple(MetaPath(p["path"]) for p in raw["projections"])
    params = EncoderParams(
        paths,
        [np.asarray(p["weight"], dtype=np.float64) for p in raw["projections"]],
        [np.asarray(p["bias"], dtype=np.float64) for p in raw["projections"]],
        np.asarray(raw["hidden_weight"], dtype=np.float64),
        np.asarray(raw["hidden_bias"], dtype=np.float64),
        np.asarray(raw["out_weight"], dtype=np.float64),
        np.asarray(raw["out_bias"], dtype=np.float64))
    config = TrainConfig(**payload["train_config"])
    return Checkpoint(
        params=params,
        config=config,
        feature_paths=[MetaPath(p) for p in payload["feature_paths"]],
        prop_paths=[MetaPath(p) for p in payload["prop_paths"]],
        id_class_values=np.asarray(payload["id_class_values"], dtype=np.int64),
        ood_class=int(payload["ood_class"]))


def summarize_metric_rows(rows: list[dict]) -> dict:
    """Mean and population std per metric name over per-seed result rows."""
    keys = sorted(rows[0]) if rows else []
    out = {}
    for key in keys:
        vals = np.asarray([r[key] for r in rows], dtype=np.float64)
        out[key] = {"mean": float(vals.mean()), "std": float(vals.std())}
    return out

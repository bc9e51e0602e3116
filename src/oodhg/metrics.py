"""Detection and classification metrics.

Detection treats OOD as the positive class, scored by the (post-propagation)
energy: higher score means more OOD. Tie handling is pinned down so results
are bit-reproducible across implementations: AUROC gives ties half credit
(rank statistic with average ranks), average precision breaks ties by stable
original index order, and FPR@95 sweeps the finite threshold set consisting
of the distinct scores plus +infinity with a >= decision rule.

Classification is the K+1 problem: K head classes plus one OOD bucket
(label value K). Micro-F1 equals plain accuracy in this single-label
setting; macro-F1 averages per-class F1 over all K+1 classes, with classes
absent from both gold and prediction contributing zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import DetectorConfig, detect
from .errors import (
    DegenerateLabels,
    EmptyPredictions,
    LengthMismatch,
    NonFiniteScore,
)

ENERGY_TAU_GRID = np.linspace(1.0, 2.0, 21)


@dataclass(frozen=True)
class BinaryScoredSet:
    """Scores (OOD-ness, higher = more OOD) with boolean labels (True = OOD)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=bool))
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise LengthMismatch(
                f"scores {self.scores.shape} and labels {self.labels.shape} "
                "must be equal-length 1-D arrays")
        if not np.isfinite(self.scores).all():
            bad = int(np.flatnonzero(~np.isfinite(self.scores))[0])
            raise NonFiniteScore(
                f"score {bad} is {self.scores[bad]}; every score must be finite")

    @property
    def n_pos(self) -> int:
        return int(self.labels.sum())

    @property
    def n_neg(self) -> int:
        return int((~self.labels).sum())


@dataclass(frozen=True)
class KPlusOnePrediction:
    """Predicted and gold class ids in [0, n_classes); n_classes - 1 is OOD.

    n_classes is K + 1 and is never read off the ids: a class absent from
    both still counts in macro-F1's mean."""

    predicted: np.ndarray
    gold: np.ndarray
    n_classes: int

    def __post_init__(self):
        object.__setattr__(self, "predicted", np.asarray(self.predicted, dtype=np.int64))
        object.__setattr__(self, "gold", np.asarray(self.gold, dtype=np.int64))
        if self.predicted.shape != self.gold.shape or self.predicted.ndim != 1:
            raise LengthMismatch("predicted and gold must be equal-length 1-D arrays")


def _require_both_classes(s: BinaryScoredSet) -> None:
    if s.n_pos == 0 or s.n_neg == 0:
        raise DegenerateLabels(
            f"need at least one positive and one negative, got "
            f"{s.n_pos} positives / {s.n_neg} negatives")


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks of scores, ties sharing their group's mean rank."""
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    n = scores.size
    boundaries = np.empty(n, dtype=bool)
    boundaries[0] = True
    boundaries[1:] = sorted_scores[1:] != sorted_scores[:-1]
    starts = np.flatnonzero(boundaries)
    ends = np.append(starts[1:], n)
    mean_rank = (starts + 1 + ends) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(mean_rank, ends - starts)
    return ranks


def auroc(s: BinaryScoredSet) -> float:
    """Area under the ROC curve, equal to the pairwise rank statistic.

    Over all (positive, negative) pairs: full credit when the positive
    scores higher, half credit on a tie.
    """
    _require_both_classes(s)
    ranks = _average_ranks(s.scores)
    pos_rank_sum = ranks[s.labels].sum()
    n_pos, n_neg = s.n_pos, s.n_neg
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def aupr(s: BinaryScoredSet) -> float:
    """Average precision over descending scores, ties in original index order."""
    if s.n_pos == 0:
        raise DegenerateLabels("average precision needs at least one positive")
    order = np.argsort(-s.scores, kind="stable")
    hits = s.labels[order].astype(np.float64)
    cum_hits = np.cumsum(hits)
    precision = cum_hits / np.arange(1, hits.size + 1)
    return float(precision[hits > 0].sum() / s.n_pos)


def fpr_at_95tpr(s: BinaryScoredSet) -> float:
    """Minimum FPR over all thresholds reaching TPR >= 0.95.

    A node is predicted positive iff score >= t, for t each distinct score.
    The lowest one predicts every node positive, so TPR 1.0 is always
    reached; the +infinity threshold (predict nothing) reaches TPR 0 and
    never enters the minimum.
    """
    _require_both_classes(s)
    order = np.argsort(-s.scores, kind="stable")
    sorted_scores = s.scores[order]
    sorted_labels = s.labels[order]
    tp = np.cumsum(sorted_labels)
    fp = np.cumsum(~sorted_labels)
    # last index of each distinct score = counts with threshold at that score
    last = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))
    tpr = tp[last] / s.n_pos
    fpr = fp[last] / s.n_neg
    return float(fpr[tpr >= 0.95].min())


def micro_f1(p: KPlusOnePrediction) -> float:
    """Micro-averaged F1; identical to accuracy for single-label predictions."""
    if p.predicted.size == 0:
        raise EmptyPredictions("no predictions to score")
    return float(np.mean(p.predicted == p.gold))


def macro_f1(p: KPlusOnePrediction) -> float:
    """Unweighted mean of per-class F1 over all n_classes classes.

    A class absent from both gold and prediction has F1 = 0 and still
    counts in the mean.
    """
    if p.predicted.size == 0:
        raise EmptyPredictions("no predictions to score")
    total = 0.0
    for c in range(p.n_classes):
        tp = int(np.sum((p.predicted == c) & (p.gold == c)))
        fp = int(np.sum((p.predicted == c) & (p.gold != c)))
        fn = int(np.sum((p.predicted != c) & (p.gold == c)))
        denom = 2 * tp + fp + fn
        total += (2.0 * tp / denom) if denom else 0.0
    return total / p.n_classes


def assemble_kplus1(probs: np.ndarray, energies: np.ndarray,
                    tau: float) -> np.ndarray:
    """K+1 predictions from K-column probs: each node's argmax class, or
    the OOD bucket K = probs.shape[1] where energy.detect flags the node
    (-E_i <= tau).

    Raises ValueError when tau is not finite.
    """
    probs = np.asarray(probs, dtype=np.float64)
    pred = probs.argmax(axis=1).astype(np.int64)
    pred[detect(energies, DetectorConfig(tau))] = probs.shape[1]
    return pred


def sweep_threshold(energies: np.ndarray, probs: np.ndarray, gold: np.ndarray,
                    n_classes: int, grid=None):
    """Evaluate K+1 micro-F1 at every tau in the grid.

    Returns (best_tau, table) where table is a list of (tau, micro_f1) in
    grid order; ties resolve to the smallest tau. The default grid spans
    1.0 to 2.0 in steps of 0.05.

    A library function; evaluation does not call it. Its gold labels must
    contain OOD nodes for the choice to mean anything: on an ID-only split
    micro-F1 never rises with tau, so the smallest tau always wins.
    """
    grid = ENERGY_TAU_GRID if grid is None else np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("threshold grid must be non-empty")
    gold = np.asarray(gold, dtype=np.int64)
    table = []
    best_tau, best_f1 = None, -1.0
    for tau in grid:
        pred = assemble_kplus1(probs, energies, float(tau))
        f1 = micro_f1(KPlusOnePrediction(pred, gold, n_classes))
        table.append((float(tau), f1))
        if f1 > best_f1:
            best_tau, best_f1 = float(tau), f1
    return best_tau, table

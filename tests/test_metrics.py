import numpy as np
import pytest

from oodhg import BinaryScoredSet, KPlusOnePrediction, aupr, auroc, fpr_at_95tpr, macro_f1, micro_f1, sweep_threshold
from oodhg.errors import (
    DegenerateLabels,
    EmptyPredictions,
    LengthMismatch,
    NonFiniteScore,
)
from oodhg.metrics import ENERGY_TAU_GRID, assemble_kplus1


# ----------------------------------------------------------------------
# brute-force oracles

def pairwise_auroc(scores, labels):
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (pos.size * neg.size)


def rank_walk_aupr(scores, labels):
    order = np.argsort(-scores, kind="stable")
    hits = labels[order]
    ap, seen = 0.0, 0
    for rank, hit in enumerate(hits, start=1):
        if hit:
            seen += 1
            ap += seen / rank
    return ap / labels.sum()


def threshold_sweep_fpr95(scores, labels):
    best = None
    for t in list(np.unique(scores)) + [np.inf]:
        pred = scores >= t
        tpr = np.sum(pred & labels) / labels.sum()
        fpr = np.sum(pred & ~labels) / (~labels).sum()
        if tpr >= 0.95 and (best is None or fpr < best):
            best = fpr
    return 1.0 if best is None else best


def confusion_f1s(pred, gold, n_classes):
    f1s = []
    for c in range(n_classes):
        tp = np.sum((pred == c) & (gold == c))
        fp = np.sum((pred == c) & (gold != c))
        fn = np.sum((pred != c) & (gold == c))
        f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    return f1s


def _random_scored(rng, n, tie_prob=0.3):
    scores = rng.standard_normal(n)
    if rng.random() < tie_prob:
        scores = np.round(scores, 1)  # provoke ties
    labels = rng.random(n) < rng.uniform(0.2, 0.8)
    if not labels.any():
        labels[0] = True
    if labels.all():
        labels[0] = False
    return BinaryScoredSet(scores, labels)


class TestBinaryScoredSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(NonFiniteScore, match="score 1"):
            BinaryScoredSet([0.5, bad, 1.0], [True, False, False])

    @pytest.mark.parametrize("scores, labels", [
        ([0.5, 1.0], [True]), ([[0.5, 1.0]], [[True, False]])])
    def test_unequal_or_not_1d_rejected(self, scores, labels):
        with pytest.raises(LengthMismatch, match="equal-length 1-D"):
            BinaryScoredSet(scores, labels)


class TestAuroc:
    def test_perfect_ranking(self):
        s = BinaryScoredSet([3.0, 2.0, 1.0, 0.0], [True, True, False, False])
        assert auroc(s) == 1.0

    def test_full_ties(self):
        s = BinaryScoredSet([1.0, 1.0, 1.0, 1.0], [True, False, True, False])
        assert auroc(s) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            s = _random_scored(rng, int(rng.integers(4, 30)))
            assert abs(auroc(s) - pairwise_auroc(s.scores, s.labels)) <= 1e-12

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            auroc(BinaryScoredSet([1.0, 2.0], [True, True]))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        s = _random_scored(rng, 25, tie_prob=0.0)
        warped = BinaryScoredSet(np.exp(s.scores) + 3 * s.scores, s.labels)
        assert abs(auroc(s) - auroc(warped)) <= 1e-12

    def test_flip_labels_negate_scores_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = _random_scored(rng, 20)
            flipped = BinaryScoredSet(-s.scores, ~s.labels)
            assert abs(auroc(s) - auroc(flipped)) <= 1e-12


class TestAupr:
    def test_perfect_ranking(self):
        s = BinaryScoredSet([3.0, 2.0, 1.0], [True, True, False])
        assert aupr(s) == 1.0

    def test_single_positive_ranked_last(self):
        n = 8
        scores = np.arange(n, dtype=float)[::-1]
        labels = np.zeros(n, dtype=bool)
        labels[-1] = True
        assert aupr(BinaryScoredSet(scores, labels)) == 1.0 / n

    def test_matches_rank_walk_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            s = _random_scored(rng, int(rng.integers(4, 30)))
            assert abs(aupr(s) - rank_walk_aupr(s.scores, s.labels)) <= 1e-12

    def test_needs_a_positive(self):
        with pytest.raises(DegenerateLabels):
            aupr(BinaryScoredSet([1.0, 2.0], [False, False]))


class TestFprAt95Tpr:
    def test_perfectly_separated(self):
        s = BinaryScoredSet([5.0, 4.0, 1.0, 0.0], [True, True, False, False])
        assert fpr_at_95tpr(s) == 0.0

    def test_constant_scores_flag_everything(self):
        s = BinaryScoredSet(np.ones(10), np.arange(10) % 2 == 0)
        assert fpr_at_95tpr(s) == 1.0

    def test_matches_threshold_sweep_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            s = _random_scored(rng, int(rng.integers(4, 40)))
            assert fpr_at_95tpr(s) == threshold_sweep_fpr95(s.scores, s.labels)

    def test_non_increasing_when_positives_raised(self):
        rng = np.random.default_rng(5)
        s = _random_scored(rng, 30, tie_prob=0.0)
        prev = fpr_at_95tpr(s)
        scores = s.scores.copy()
        for _ in range(4):
            scores = scores + s.labels * 0.5
            cur = fpr_at_95tpr(BinaryScoredSet(scores, s.labels))
            assert cur <= prev + 1e-12
            prev = cur

    def test_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = _random_scored(rng, 15)
            for metric in (auroc, aupr, fpr_at_95tpr):
                v = metric(s)
                assert 0.0 <= v <= 1.0


class TestF1:
    def test_identity_prediction(self):
        p = KPlusOnePrediction([0, 1, 2, 2], [0, 1, 2, 2], 3)
        assert micro_f1(p) == 1.0
        assert macro_f1(p) == 1.0

    def test_hand_confusion_case(self):
        # two classes, class 1 entirely misclassified as class 0
        pred = np.array([0, 0, 0, 0])
        gold = np.array([0, 0, 1, 1])
        p = KPlusOnePrediction(pred, gold, 2)
        assert micro_f1(p) == 0.5
        # class 0: tp=2 fp=2 fn=0 -> 2/3; class 1: 0
        expected = np.mean(confusion_f1s(pred, gold, 2))
        assert abs(macro_f1(p) - expected) <= 1e-15
        assert macro_f1(p) < micro_f1(p)

    def test_single_class_gold_perfect_prediction(self):
        pred = np.zeros(5, dtype=int)
        gold = np.zeros(5, dtype=int)
        p = KPlusOnePrediction(pred, gold, n_classes=3)
        assert micro_f1(p) == 1.0
        # absent classes contribute zero: (1 + 0 + 0) / 3
        assert abs(macro_f1(p) - np.mean(confusion_f1s(pred, gold, 3))) <= 1e-15
        assert macro_f1(p) == pytest.approx(1.0 / 3.0)

    def test_micro_equals_accuracy(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(2, 6))
            pred = rng.integers(0, k, n)
            gold = rng.integers(0, k, n)
            p = KPlusOnePrediction(pred, gold, k)
            assert micro_f1(p) == np.mean(pred == gold)

    def test_macro_matches_confusion_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(2, 6))
            pred = rng.integers(0, k, n)
            gold = rng.integers(0, k, n)
            got = macro_f1(KPlusOnePrediction(pred, gold, k))
            assert abs(got - np.mean(confusion_f1s(pred, gold, k))) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptyPredictions):
            micro_f1(KPlusOnePrediction([], [], 2))

    def test_macro_empty_rejected(self):
        with pytest.raises(EmptyPredictions):
            macro_f1(KPlusOnePrediction([], [], 2))

    @pytest.mark.parametrize("predicted, gold", [
        ([0, 1], [0]), ([[0, 1]], [[0, 1]])])
    def test_unequal_or_not_1d_rejected(self, predicted, gold):
        with pytest.raises(LengthMismatch, match="equal-length 1-D"):
            KPlusOnePrediction(predicted, gold, 2)


class TestSweepThreshold:
    def test_default_grid_has_21_points(self):
        assert ENERGY_TAU_GRID.size == 21
        assert ENERGY_TAU_GRID[0] == 1.0
        assert ENERGY_TAU_GRID[-1] == 2.0
        np.testing.assert_allclose(np.diff(ENERGY_TAU_GRID), 0.05, atol=1e-12)

    def test_singleton_grid(self):
        energies = np.array([-3.0, -0.5])
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        gold = np.array([0, 2])
        tau, table = sweep_threshold(energies, probs, gold, 3, grid=[1.3])
        assert tau == 1.3
        assert len(table) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep_threshold(np.array([-3.0]), np.array([[0.9, 0.1]]),
                            np.array([0]), 3, grid=[])

    def test_recovers_planted_threshold(self):
        # ID nodes sit at -E = 1.61, OOD at -E = 1.18: any tau in
        # [1.18, 1.61) flags exactly the OOD nodes, so the best grid point
        # is 1.20 (ties resolve to the smallest tau)
        gold = np.array([0, 1, 2, 0, 1, 2])
        energies = np.where(gold == 2, -1.18, -1.61)
        probs = np.full((6, 2), 0.5)
        probs[gold == 0, 0] = 0.9
        probs[gold == 0, 1] = 0.1
        probs[gold == 1, 0] = 0.1
        probs[gold == 1, 1] = 0.9
        tau, table = sweep_threshold(energies, probs, gold, 3)
        assert abs(tau - 1.20) < 1e-9
        best_f1 = max(f1 for _, f1 in table)
        assert best_f1 == 1.0

    def test_assemble_boundary_is_ood(self):
        probs = np.array([[1.0, 0.0]])
        pred = assemble_kplus1(probs, np.array([-1.45]), 1.45)
        assert pred[0] == 2

import math

import numpy as np
import pytest

from oodhg import DetectorConfig, PropagationConfig, detect, fuse, msp_score, propagate
from oodhg.energy import check_row_stochastic, logit_pass
from oodhg.errors import (
    EmptyLogits,
    EmptyPathSet,
    LengthMismatch,
    NotADistribution,
    NotRowStochastic,
    ShapeMismatch,
)
from oodhg.sparse import SparseRowMatrix


def _random_row_stochastic(rng, n):
    arr = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    arr[np.arange(n), rng.integers(0, n, n)] += 1.0
    return arr / arr.sum(axis=1, keepdims=True)


class TestEnergyScores:
    def test_uniform_logits(self):
        e = logit_pass(np.zeros((1, 4))).energy
        np.testing.assert_allclose(e, [-math.log(4)], atol=1e-12)

    def test_single_class_identity(self):
        e = logit_pass(np.array([[3.7], [-2.0]])).energy
        np.testing.assert_allclose(e, [-3.7, 2.0], atol=1e-15)

    def test_dominant_logit(self):
        e = logit_pass(np.array([[10.0, 0.0, 0.0, 0.0]])).energy
        expected = -(10.0 + math.log1p(3.0 * math.exp(-10.0)))
        np.testing.assert_allclose(e, [expected], atol=1e-12)
        assert abs(e[0] - (-10.000136)) < 1e-5

    def test_no_overflow_on_large_logits(self):
        e = logit_pass(np.array([[1000.0, 0.0]])).energy
        assert np.isfinite(e[0])
        np.testing.assert_allclose(e, [-1000.0], atol=1e-9)

    def test_shift_covariance(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((20, 5))
        for c in (-3.0, 0.25, 11.0):
            np.testing.assert_allclose(logit_pass(h + c).energy,
                                       logit_pass(h).energy - c, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 40])
    def test_logit_pass_is_bitwise_the_row_reduction_form(self, k):
        """logit_pass takes the row maximum column by column; the reference
        is the np.max/np.sum row reduction it replaced."""
        rng = np.random.default_rng(k)
        logits = rng.standard_normal((64, k)) * 30.0
        logits[1] = 2.5                              # every entry tied
        logits[2, : (k + 1) // 2] = 7.0              # tied maxima
        logits[3, 0] = np.inf
        logits[4, -1] = -np.inf
        logits[5] = -np.inf
        logits[6, k // 2] = np.inf
        logits[6, 0] = -np.inf
        logits[7] = -0.0
        logits[7, k // 2] = 0.0
        with np.errstate(invalid="ignore"):
            got = logit_pass(logits)
            row_max = np.max(logits, axis=1)
            shifted = logits - row_max[:, None]
            exp = np.exp(shifted)
            sums = np.sum(exp, axis=1)
            want = (shifted, exp / sums[:, None], np.log(sums),
                    -(row_max + np.log(sums)))
        for a, b in zip((got.shifted, got.probs, got.log_sum, got.energy), want):
            assert a.tobytes() == b.tobytes()

    def test_zero_classes_rejected(self):
        with pytest.raises(EmptyLogits):
            logit_pass(np.zeros((3, 0)))


class TestMspScore:
    def test_uniform(self):
        assert msp_score(np.full((1, 4), 0.25))[0] == 0.25

    def test_one_hot(self):
        assert msp_score(np.array([[0.0, 1.0, 0.0]]))[0] == 1.0

    def test_direct_max(self):
        assert msp_score(np.array([[0.5, 0.3, 0.2]]))[0] == 0.5

    def test_not_a_distribution(self):
        with pytest.raises(NotADistribution):
            msp_score(np.array([[0.5, 0.6]]))

    def test_needs_two_dimensions(self):
        with pytest.raises(NotADistribution, match=r"got \(3,\)"):
            msp_score(np.full(3, 1 / 3))

    def test_negative_entry_is_named(self):
        # the row sums to 1, so only the entry check can reject it
        with pytest.raises(NotADistribution, match=r"entry \(0, 1\) is -0.5"):
            msp_score(np.array([[1.5, -0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_named(self, bad):
        probs = np.array([[0.5, 0.5], [bad, 1.0]])
        with pytest.raises(NotADistribution, match=rf"entry \(1, 0\) is {bad}"):
            msp_score(probs)


class TestPropagate:
    def test_gamma_one_is_identity(self):
        a = SparseRowMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        e0 = np.array([3.0, -1.0])
        out = propagate(e0, a, PropagationConfig(gamma=1.0, steps=7))
        np.testing.assert_array_equal(out, e0)

    def test_zero_steps_is_identity(self):
        a = SparseRowMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        e0 = np.array([3.0, -1.0])
        out = propagate(e0, a, PropagationConfig(gamma=0.5, steps=0))
        np.testing.assert_array_equal(out, e0)

    def test_swap_example(self):
        a = SparseRowMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = propagate(np.array([0.0, 2.0]), a, PropagationConfig(0.5, 1))
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-15)

    def test_matches_dense_power_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = 30
            dense = _random_row_stochastic(rng, n)
            e0 = rng.standard_normal(n)
            a = SparseRowMatrix.from_dense(dense)
            got = propagate(e0, a, PropagationConfig(0.5, 8))
            m = 0.5 * np.eye(n) + 0.5 * dense
            expected = np.linalg.matrix_power(m, 8) @ e0
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = 17
            a = SparseRowMatrix.from_dense(_random_row_stochastic(rng, n))
            e0 = rng.standard_normal(n) * 5
            for steps in (1, 3, 9):
                out = propagate(e0, a, PropagationConfig(0.3, steps))
                assert out.min() >= e0.min() - 1e-12
                assert out.max() <= e0.max() + 1e-12

    def test_constant_fixed_point(self):
        rng = np.random.default_rng(7)
        a = SparseRowMatrix.from_dense(_random_row_stochastic(rng, 12))
        out = propagate(np.full(12, 2.5), a, PropagationConfig(0.4, 6))
        np.testing.assert_allclose(out, 2.5, atol=1e-12)

    def test_shape_mismatch(self):
        a = SparseRowMatrix.from_dense(np.ones((2, 3)) / 3)
        with pytest.raises(ShapeMismatch):
            propagate(np.zeros(2), a, PropagationConfig(0.5, 1))
        square = SparseRowMatrix.from_dense(np.eye(3))
        with pytest.raises(ShapeMismatch):
            propagate(np.zeros(2), square, PropagationConfig(0.5, 1))

    def test_not_row_stochastic(self):
        a = SparseRowMatrix.from_dense(np.array([[0.5, 0.4], [0.0, 1.0]]))
        with pytest.raises(NotRowStochastic):
            propagate(np.zeros(2), a, PropagationConfig(0.5, 1))

    def test_negative_entry_is_not_row_stochastic(self):
        # rows sum to 1, so only the sign check refuses it
        a = SparseRowMatrix.from_dense(np.array([[1.5, -0.5], [0.0, 1.0]]))
        with pytest.raises(NotRowStochastic) as info:
            check_row_stochastic(a)
        assert str(info.value) == "matrix has negative entries"

    def test_negative_entry_is_reported_before_a_bad_row_sum(self):
        # row 0 sums to 0.5 and holds a negative entry: the sign is named
        a = SparseRowMatrix.from_dense(np.array([[1.0, -0.5], [0.0, 1.0]]))
        with pytest.raises(NotRowStochastic) as info:
            check_row_stochastic(a)
        assert str(info.value) == "matrix has negative entries"

    def test_empty_rows_allowed_by_validation(self):
        # a user-supplied matrix may carry empty rows; only nonempty rows
        # must sum to one
        a = SparseRowMatrix.from_dense(np.array([[0.0, 0.0], [1.0, 0.0]]))
        out = propagate(np.array([4.0, 0.0]), a, PropagationConfig(0.5, 1))
        np.testing.assert_allclose(out, [2.0, 2.0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PropagationConfig(0.0, 1)
        with pytest.raises(ValueError):
            PropagationConfig(1.2, 1)
        with pytest.raises(ValueError):
            PropagationConfig(0.5, -1)


class TestFuse:
    def test_single_path_identity(self):
        e = np.array([1.0, 2.0])
        np.testing.assert_array_equal(fuse([e]), e)

    def test_two_path_symmetry(self):
        out = fuse([np.array([0.0, 2.0]), np.array([2.0, 0.0])])
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(8)
        vs = [rng.standard_normal(9) for _ in range(3)]
        np.testing.assert_array_equal(fuse(vs), (vs[0] + vs[1] + vs[2]) / 3.0)

    @pytest.mark.parametrize("paths", [1, 2, 3])
    def test_is_bitwise_the_mean_of_the_stack(self, paths):
        rng = np.random.default_rng(paths)
        vs = [rng.standard_normal(50) * 10.0 ** rng.integers(-3, 4, 50)
              for _ in range(paths)]
        vs[0][:2] = -0.0
        assert fuse(vs).tobytes() == np.mean(np.stack(vs), axis=0).tobytes()

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        vs = [rng.standard_normal(6) for _ in range(4)]
        np.testing.assert_allclose(fuse(vs), fuse(vs[::-1]), atol=1e-12)

    def test_empty_path_set(self):
        with pytest.raises(EmptyPathSet):
            fuse([])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            fuse([np.zeros(2), np.zeros(3)])


class TestDetect:
    def test_low_energy_is_id(self):
        assert not detect(np.array([-5.0]), DetectorConfig(1.45))[0]

    def test_zero_energy_is_ood(self):
        assert detect(np.array([0.0]), DetectorConfig(1.45))[0]

    def test_boundary_is_ood(self):
        assert detect(np.array([-1.45]), DetectorConfig(1.45))[0]

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(10)
        e = rng.standard_normal(50) * 3
        for t1, t2 in [(-1.0, 0.5), (0.5, 2.0), (-3.0, 3.0)]:
            s1 = detect(e, DetectorConfig(t1))
            s2 = detect(e, DetectorConfig(t2))
            assert np.all(s2[s1])  # OOD under the smaller tau stays OOD

    def test_tau_must_be_finite(self):
        with pytest.raises(ValueError):
            DetectorConfig(float("nan"))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodhg.energy import check_row_stochastic
from oodhg.errors import NegativeValue, ShapeMismatch, ValidationError
from oodhg.sparse import SparseRowMatrix, pair_keys

from conftest import dense_row_normalize


def _random_sparse(rng, n_rows, n_cols, density=0.3, negative=False):
    arr = rng.random((n_rows, n_cols))
    arr[rng.random((n_rows, n_cols)) > density] = 0.0
    if negative:
        arr -= 0.5
    return arr


def _argsort_from_edge_pairs(n_rows, n_cols, pairs):
    """The construction from_edge_pairs used before it sorted the keys
    themselves: a stable argsort of the keys, then three gathers."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size == 0:
        return SparseRowMatrix(n_rows, n_cols, np.zeros(n_rows + 1, np.int64),
                               np.zeros(0, np.int64), np.zeros(0, np.float64))
    rows, cols = pairs[:, 0], pairs[:, 1]
    keys = pair_keys(n_rows, n_cols, rows, cols)
    order = np.argsort(keys, kind="stable")
    rows, cols, keys = rows[order], cols[order], keys[order]
    keep = np.concatenate([[True], keys[1:] != keys[:-1]])
    rows, cols = rows[keep], cols[keep]
    offsets = np.zeros(n_rows + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=offsets[1:])
    return SparseRowMatrix(n_rows, n_cols, offsets, cols,
                           np.ones(cols.size, np.float64))


def _built(build, *args):
    m = build(*args)
    return m.row_offsets.tobytes(), m.col_indices.tobytes(), m.values.tobytes()


def test_from_edge_pairs_matches_the_argsort_construction():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n_rows, n_cols = (int(v) for v in rng.integers(1, 40, 2))
        m = int(rng.integers(0, 3 * max(n_rows, n_cols)))
        pairs = np.column_stack([rng.integers(0, n_rows, m),
                                 rng.integers(0, n_cols, m)])
        if trial % 3 == 0:
            # a mirrored relation: sorted by the other end
            pairs = pairs[np.argsort(pairs[:, 1], kind="stable")]
        if trial % 5 == 0:
            pairs = np.unique(pairs, axis=0)[::-1]
        if trial % 4 == 1:
            # already in key order, without duplicates
            pairs = np.unique(pairs, axis=0)
        elif trial % 4 == 3:
            # already in key order, every pair twice
            pairs = np.repeat(pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))], 2,
                              axis=0)
        args = (n_rows, n_cols, pairs)
        assert (_built(SparseRowMatrix.from_edge_pairs, *args)
                == _built(_argsort_from_edge_pairs, *args))
    for n_rows, n_cols in [(0, 0), (3, 0), (0, 4), (5, 5)]:
        args = (n_rows, n_cols, np.zeros((0, 2), np.int64))
        assert (_built(SparseRowMatrix.from_edge_pairs, *args)
                == _built(_argsort_from_edge_pairs, *args))


class TestConstruction:
    def test_from_edge_pairs_counts(self):
        m = SparseRowMatrix.from_edge_pairs(3, 2, [(0, 0), (1, 0), (2, 1)])
        assert m.shape == (3, 2)
        assert m.nnz == 3
        assert m.to_dense().sum() == 3

    def test_duplicate_pairs_union(self):
        m = SparseRowMatrix.from_edge_pairs(2, 2, [(0, 1), (0, 1), (1, 0)])
        assert m.nnz == 2
        assert m.to_dense()[0, 1] == 1.0

    @settings(max_examples=100, deadline=None)
    @given(n_rows=st.integers(1, 6), n_cols=st.integers(1, 6), data=st.data())
    def test_union_of_pairs_matches_dense_count(self, n_rows, n_cols, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n_rows - 1),
                                             st.integers(0, n_cols - 1)),
                                   max_size=20))
        counts = np.zeros((n_rows, n_cols))
        for r, c in pairs:
            counts[r, c] += 1
        m = SparseRowMatrix.from_edge_pairs(n_rows, n_cols, pairs)
        np.testing.assert_array_equal(m.to_dense(), (counts > 0).astype(float))

    @pytest.mark.parametrize("pairs, needle", [
        ([(2, 0)], "row index"), ([(-1, 0)], "row index"),
        ([(0, 2)], "column index"), ([(0, -1)], "column index"),
    ])
    def test_out_of_range_pair_rejected(self, pairs, needle):
        with pytest.raises(ValidationError, match=needle):
            SparseRowMatrix.from_edge_pairs(2, 2, pairs)

    def test_pair_keys_refuse_shapes_beyond_int64(self):
        keys = pair_keys(2 ** 31, 2 ** 32 - 1, [2 ** 31 - 1], [2 ** 32 - 2])
        assert keys.dtype == np.int64 and keys[0] == 2 ** 63 - 2 ** 31 - 1
        with pytest.raises(ValidationError, match="int64"):
            pair_keys(2 ** 31, 2 ** 32, [0], [0])

    def test_empty(self):
        m = SparseRowMatrix.from_edge_pairs(4, 5, [])
        assert m.shape == (4, 5)
        assert m.nnz == 0
        assert np.array_equal(m.to_dense(), np.zeros((4, 5)))

    def test_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        arr = _random_sparse(rng, 7, 9)
        m = SparseRowMatrix.from_dense(arr)
        np.testing.assert_array_equal(m.to_dense(), arr)

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValidationError):
            SparseRowMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]),
                            np.array([1.0, 1.0]))

    @pytest.mark.parametrize("shape, offsets, cols, values, error, needle", [
        ((-1, 2), [], [], [], ShapeMismatch, r"negative shape \(-1, 2\)"),
        ((2, 2), [0, 1], [0], [1.0], ValidationError, r"length n_rows \+ 1"),
        ((3, 2), [0, 2, 1, 2], [0, 1], [1.0, 1.0], ValidationError, "monotone"),
        ((1, 2), [0, 1], [0], [1.0, 2.0], ValidationError, "equal length"),
    ], ids=["negative-shape", "offsets-length", "offsets-decrease",
            "values-length"])
    def test_malformed_parts_rejected(self, shape, offsets, cols, values,
                                      error, needle):
        with pytest.raises(error, match=needle):
            SparseRowMatrix(*shape, np.array(offsets, np.int64),
                            np.array(cols, np.int64), np.array(values))

    def test_from_dense_needs_two_dimensions(self):
        with pytest.raises(ShapeMismatch, match="2-D"):
            SparseRowMatrix.from_dense(np.ones(3))

    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            SparseRowMatrix(1, 2, np.array([0, 1]), np.array([2]), np.array([1.0]))

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValidationError):
            SparseRowMatrix(1, 3, np.array([0, 2]), np.array([2, 0]),
                            np.array([1.0, 1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            SparseRowMatrix(1, 1, np.array([0, 1]), np.array([0]),
                            np.array([np.inf]))


class TestRowNormalize:
    def test_symmetric_row(self):
        m = SparseRowMatrix.from_dense(np.array([[2.0, 2.0]]))
        np.testing.assert_allclose(m.row_normalize().to_dense(), [[0.5, 0.5]])

    def test_single_entry_row(self):
        m = SparseRowMatrix.from_dense(np.array([[1.0]]))
        assert m.row_normalize().to_dense()[0, 0] == 1.0

    def test_random_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            arr = _random_sparse(rng, 6, 6)
            got = SparseRowMatrix.from_dense(arr).row_normalize().to_dense()
            np.testing.assert_allclose(got, dense_row_normalize(arr), atol=1e-15)
            sums = got.sum(axis=1)
            nonempty = arr.sum(axis=1) > 0
            np.testing.assert_allclose(sums[nonempty], 1.0, atol=1e-12)
            assert np.all(sums[~nonempty] == 0.0)

    def test_negative_entry_raises(self):
        m = SparseRowMatrix.from_dense(np.array([[1.0, -0.5]]))
        with pytest.raises(NegativeValue):
            m.row_normalize()

    def test_row_with_a_gap(self):
        m = SparseRowMatrix.from_dense(np.array([[4.0, 0.0, 4.0]]))
        np.testing.assert_allclose(m.row_normalize().to_dense(), [[0.5, 0, 0.5]])

    def test_empty_rows_stay_empty(self):
        arr = np.array([[0.0, 0.0], [3.0, 1.0]])
        out = SparseRowMatrix.from_dense(arr).row_normalize()
        assert list(out.row_counts()) == [0, 2]
        assert list(out.row_sums()) == [0.0, 1.0]


class TestProducts:
    def test_matmul_matches_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = _random_sparse(rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)))
            b = _random_sparse(rng, a.shape[1], int(rng.integers(1, 20)))
            got = SparseRowMatrix.from_dense(a).matmul(
                SparseRowMatrix.from_dense(b)).to_dense()
            np.testing.assert_allclose(got, a @ b, atol=1e-13)

    def test_matmul_shape_mismatch(self):
        a = SparseRowMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ShapeMismatch):
            a.matmul(a)

    def test_matvec_shape_mismatch(self):
        a = SparseRowMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ShapeMismatch, match=r"expects shape \(3,\), got \(2,\)"):
            a.matvec(np.ones(2))

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = _random_sparse(rng, 15, 11)
            x = rng.standard_normal(11)
            got = SparseRowMatrix.from_dense(a).matvec(x)
            np.testing.assert_allclose(got, a @ x, atol=1e-13)

    def test_transpose_matches_dense(self):
        rng = np.random.default_rng(10)
        a = _random_sparse(rng, 9, 13)
        got = SparseRowMatrix.from_dense(a).transpose().to_dense()
        np.testing.assert_array_equal(got, a.T)

    def test_transpose_is_the_stable_argsort_construction(self):
        # transpose sorts the unique column-major keys; the order must be
        # the one a stable argsort of the column indices gives
        rng = np.random.default_rng(13)
        shapes = [(0, 0), (3, 0), (0, 4), (1, 1)] + [
            tuple(int(v) for v in rng.integers(1, 40, 2)) for _ in range(60)]
        for n_rows, n_cols in shapes:
            density = rng.choice([0.0, 0.05, 0.3, 1.0])
            m = SparseRowMatrix.from_dense(
                _random_sparse(rng, n_rows, n_cols, density))
            order = np.argsort(m.col_indices, kind="stable")
            rows = np.repeat(np.arange(m.n_rows), m.row_counts())
            got = m.transpose()
            assert got.shape == (n_cols, n_rows)
            assert got.row_offsets.tobytes() == np.concatenate(
                [[0], np.cumsum(np.bincount(m.col_indices,
                                            minlength=n_cols))]).tobytes()
            assert got.col_indices.tobytes() == rows[order].tobytes()
            assert got.values.tobytes() == m.values[order].tobytes()

    def test_matmul_deterministic(self):
        rng = np.random.default_rng(11)
        a = SparseRowMatrix.from_dense(_random_sparse(rng, 12, 12, density=0.5))
        b = SparseRowMatrix.from_dense(_random_sparse(rng, 12, 12, density=0.5))
        first = a.matmul(b)
        second = a.matmul(b)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.col_indices, second.col_indices)

    def test_matmul_is_the_dense_product(self):
        # an exact cancellation is a zero, and from_dense stores no zero
        row = SparseRowMatrix.from_dense([[1.0, -1.0]])
        column = SparseRowMatrix.from_dense([[1.0], [1.0]])
        product = row.matmul(column)
        assert product.shape == (1, 1)
        assert product.nnz == 0
        rng = np.random.default_rng(14)
        for _ in range(20):
            n, k, m = (int(v) for v in rng.integers(1, 15, 3))
            a = SparseRowMatrix.from_dense(_random_sparse(rng, n, k, negative=True))
            b = SparseRowMatrix.from_dense(_random_sparse(rng, k, m, negative=True))
            assert _built(a.matmul, b) == _built(
                SparseRowMatrix.from_dense, a.to_dense() @ b.to_dense())


class TestStochasticChains:
    def test_products_of_row_stochastic_stay_row_stochastic(self):
        # no empty rows: every row gets at least one entry before normalizing
        rng = np.random.default_rng(12)
        for _ in range(20):
            length = int(rng.integers(2, 6))
            n = int(rng.integers(3, 12))
            product = None
            for _ in range(length):
                arr = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
                arr[np.arange(n), rng.integers(0, n, n)] += 1.0
                m = SparseRowMatrix.from_dense(arr).row_normalize()
                product = m if product is None else product.matmul(m)
            check_row_stochastic(product)
            assert np.abs(product.row_sums() - 1.0).max() <= 1e-12

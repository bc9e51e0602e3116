"""The hop kernel against the valued SparseRowMatrix products it replaces.

HopKernel applies a hop through its 0/1 pattern and 1/deg. Its forward must
agree with hop.matvec within 1e-12, and its adjoint must be bitwise
hop.transpose().matvec, where hop is the valued
hop_matrix(...).row_normalize(), which no command forms. The hops come from
small graphs: rows and columns are often empty, a hop may have no nonzeros,
and two edge types of one signature may share pairs, which the hop unions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodhg import (
    EdgeTypeSchema,
    NodeTypeSchema,
    SynthConfig,
    TrainConfig,
    build_graph,
    evaluate,
    generate_synthetic,
    make_splits,
    train,
)
from oodhg import hetgraph, model, pipeline
from oodhg.errors import ShapeMismatch
from oodhg.hetgraph import HopKernel, hop_kernel, hop_matrix
from oodhg.sparse import SparseRowMatrix

TOL = 1e-12
finite = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True)


def _hop_graph(n_src, n_dst, first, second):
    """Graph with two s->d edge types holding the given pair lists."""
    nt = [NodeTypeSchema("s", n_src), NodeTypeSchema("d", n_dst)]
    et = [EdgeTypeSchema("e1", "s", "d"), EdgeTypeSchema("e2", "s", "d")]
    return build_graph(nt, et, {"e1": first, "e2": second}, {}, "s")


@st.composite
def hop_graphs(draw):
    n_src, n_dst = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    pair = st.tuples(st.integers(0, n_src - 1), st.integers(0, n_dst - 1))
    first = draw(st.lists(pair, unique=True, max_size=n_src * n_dst))
    # the second edge type repeats some of the first one's pairs
    shared = draw(st.lists(st.sampled_from(first), unique=True)) if first else []
    extra = draw(st.lists(pair, unique=True, max_size=n_src * n_dst))
    second = sorted(set(shared) | set(extra))
    return _hop_graph(n_src, n_dst, first, second)


def _vector(data, n):
    return np.asarray(data.draw(st.lists(finite, min_size=n, max_size=n)),
                      dtype=np.float64)


def _assert_kernel_matches(hop, kernel, x, y):
    dense = hop.to_dense()
    fwd = kernel.matvec(x)
    # a few ulps of each row's sum of |terms|
    bound = TOL * np.maximum(np.abs(dense) @ np.abs(x), 1.0)
    assert fwd.shape == (hop.n_rows,)
    assert np.all(np.abs(fwd - hop.matvec(x)) <= bound)
    want = hop.transpose().matvec(y)
    got = kernel.rmatvec(y)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(graph=hop_graphs(), data=st.data())
def test_kernel_matches_the_valued_products(graph, data):
    hop = hop_matrix(graph, "s", "d").row_normalize()
    kernel = hop_kernel(graph, "s", "d")
    assert hop_kernel(graph, "s", "d") is kernel
    _assert_kernel_matches(hop, kernel, _vector(data, hop.n_cols),
                           _vector(data, hop.n_rows))


@pytest.mark.parametrize("first, second", [
    pytest.param([], [], id="no-nonzeros"),
    pytest.param([(0, 1), (2, 1)], [], id="empty-rows-and-columns"),
    pytest.param([(0, 0), (1, 1), (2, 2)], [(0, 2), (1, 0)], id="no-empty-row"),
    pytest.param([(0, 0), (0, 2), (1, 1)], [(0, 2), (1, 1), (2, 0)],
                 id="shared-pairs"),
])
def test_kernel_on_each_kind_of_hop(first, second):
    graph = _hop_graph(3, 3, first, second)
    hop = hop_matrix(graph, "s", "d").row_normalize()
    rng = np.random.default_rng(0)
    _assert_kernel_matches(hop, hop_kernel(graph, "s", "d"),
                           rng.standard_normal(3), rng.standard_normal(3))
    if second:
        # a pair in both edge types counts once in its row's degree
        union = set(first) | set(second)
        assert hop.nnz == len(union)


def test_kernel_reads_only_the_pattern():
    valued = SparseRowMatrix.from_dense(
        np.array([[0.25, 0.0, 0.75], [0.0, 0.0, 0.0], [2.0, -1.0, 1e9]]))
    pattern = SparseRowMatrix(3, 3, valued.row_offsets, valued.col_indices,
                              np.ones(valued.nnz))
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    a, b = HopKernel(valued), HopKernel(pattern)
    assert a.matvec(x).tobytes() == b.matvec(x).tobytes()
    assert a.rmatvec(y).tobytes() == b.rmatvec(y).tobytes()
    _assert_kernel_matches(pattern.row_normalize(), b, x, y)


def test_kernel_shape_checks():
    kernel = hop_kernel(_hop_graph(3, 2, [(0, 1)], []), "s", "d")
    with pytest.raises(ShapeMismatch):
        kernel.matvec(np.zeros(3))
    with pytest.raises(ShapeMismatch):
        kernel.rmatvec(np.zeros(2))


def test_evaluate_never_builds_an_adjoint_pattern(monkeypatch):
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=20, seed=3))
    splits = make_splits(labels, 3, seed=0)
    cfg = TrainConfig(epochs=3, d_hidden=8)
    params, _ = train(graph, labels, splits, cfg)
    # a fresh graph: the kernels training built are not reused
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=20, seed=3))

    def refuse(self):
        raise AssertionError("evaluate built an adjoint pattern")

    monkeypatch.setattr(HopKernel, "_adjoint_pattern", refuse)
    report = evaluate(graph, labels, splits, params, cfg, 1.0)
    assert np.isfinite(report.energy_final).all()
    # the graph's one hop cache holds the kernels evaluation built
    assert graph._hop_cache
    assert all(isinstance(k, HopKernel) for k in graph._hop_cache.values())


def test_train_and_evaluate_never_row_normalise(monkeypatch):
    # each hop is applied as its 0/1 pattern and 1/deg through the operator;
    # no valued hop matrix, sparse product or composed matrix is formed
    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return refused

    monkeypatch.setattr(SparseRowMatrix, "row_normalize",
                        refuse("row_normalize"))
    monkeypatch.setattr(SparseRowMatrix, "matmul", refuse("matmul"))
    for module in (hetgraph, model, pipeline):
        monkeypatch.setattr(module, "compose_metapath",
                            refuse(f"{module.__name__}.compose_metapath"))
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=20, seed=3))
    splits = make_splits(labels, 3, seed=0)
    cfg = TrainConfig(epochs=3, d_hidden=8)
    params, _ = train(graph, labels, splits, cfg)
    report = evaluate(graph, labels, splits, params, cfg, 1.0)
    assert np.isfinite(report.energy_final).all()

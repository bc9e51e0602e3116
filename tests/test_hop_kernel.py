"""The hop kernel against the valued SparseRowMatrix products it replaces.

HopKernel applies a hop matrix through its 0/1 pattern and 1/deg. Its
forward and dense products must agree with hop.matvec and hop @ x within
1e-12, and its adjoint must be bitwise hop.transpose().matvec. The hops
come from hop_matrix on small graphs: rows and columns are often empty,
a hop may have no nonzeros, and two edge types of one signature may share
pairs, which the hop unions.
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
from oodhg.errors import ShapeMismatch, ValidationError
from oodhg.hetgraph import HopKernel, hop_kernel, hop_matrix, resolve_paths
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


def _vectors(data, n, d=None):
    size = n if d is None else n * d
    v = np.asarray(data.draw(st.lists(finite, min_size=size, max_size=size)),
                   dtype=np.float64)
    return v if d is None else v.reshape(n, d)


def _assert_kernel_matches(hop, kernel, x, y, xd):
    dense = hop.to_dense()
    fwd = kernel.matvec(x)
    # a few ulps of each row's sum of |terms|
    bound = TOL * np.maximum(np.abs(dense) @ np.abs(x), 1.0)
    assert fwd.shape == (hop.n_rows,)
    assert np.all(np.abs(fwd - hop.matvec(x)) <= bound)
    want = hop.transpose().matvec(y)
    got = kernel.rmatvec(y)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    prod = kernel.matmul_dense(xd)
    bound = TOL * np.maximum(np.abs(dense) @ np.abs(xd), 1.0)
    assert prod.shape == (hop.n_rows, xd.shape[1])
    assert np.all(np.abs(prod - dense @ xd) <= bound)


@settings(max_examples=300, deadline=None)
@given(graph=hop_graphs(), d=st.integers(0, 4), data=st.data())
def test_kernel_matches_the_valued_products(graph, d, data):
    hop = hop_matrix(graph, "s", "d")
    kernel = hop_kernel(graph, "s", "d")
    assert kernel.matrix is hop and hop_kernel(graph, "s", "d") is kernel
    _assert_kernel_matches(hop, kernel, _vectors(data, hop.n_cols),
                           _vectors(data, hop.n_rows),
                           _vectors(data, hop.n_cols, d))


@pytest.mark.parametrize("first, second", [
    pytest.param([], [], id="no-nonzeros"),
    pytest.param([(0, 1), (2, 1)], [], id="empty-rows-and-columns"),
    pytest.param([(0, 0), (1, 1), (2, 2)], [(0, 2), (1, 0)], id="no-empty-row"),
    pytest.param([(0, 0), (0, 2), (1, 1)], [(0, 2), (1, 1), (2, 0)],
                 id="shared-pairs"),
])
def test_kernel_on_each_kind_of_hop(first, second):
    graph = _hop_graph(3, 3, first, second)
    hop = hop_matrix(graph, "s", "d")
    rng = np.random.default_rng(0)
    _assert_kernel_matches(hop, hop_kernel(graph, "s", "d"),
                           rng.standard_normal(3), rng.standard_normal(3),
                           rng.standard_normal((3, 2)))
    if second:
        # a pair in both edge types counts once in its row's degree
        union = set(first) | set(second)
        assert hop.nnz == len(union)


def test_kernel_refuses_a_valued_matrix():
    with pytest.raises(ValidationError, match="0/1 pattern"):
        HopKernel(SparseRowMatrix.from_dense(np.array([[0.25, 0.75]])))
    with pytest.raises(ValidationError, match="0/1 pattern"):
        HopKernel(SparseRowMatrix.from_dense(np.array([[1.0, 1.0]])))


def test_kernel_shape_checks():
    kernel = hop_kernel(_hop_graph(3, 2, [(0, 1)], []), "s", "d")
    with pytest.raises(ShapeMismatch):
        kernel.matvec(np.zeros(3))
    with pytest.raises(ShapeMismatch):
        kernel.rmatvec(np.zeros(2))
    with pytest.raises(ShapeMismatch):
        kernel.matmul_dense(np.zeros((3, 1)))


def test_evaluate_never_builds_an_adjoint_pattern(monkeypatch):
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=20, seed=3))
    splits = make_splits(labels, 3, seed=0)
    feat, prop = resolve_paths(graph)
    cfg = TrainConfig(epochs=3, d_hidden=8)
    params, _ = train(graph, labels, splits, cfg, feat, prop)
    # a fresh graph: the kernels training built are not reused
    graph, labels = generate_synthetic(SynthConfig(nodes_per_class=20, seed=3))

    def refuse(self):
        raise AssertionError("evaluate built an adjoint pattern")

    monkeypatch.setattr(HopKernel, "_adjoint_pattern", refuse)
    report = evaluate(graph, labels, splits, params, cfg, 1.0)
    assert np.isfinite(report.energy_final).all()
    assert graph._kernel_cache

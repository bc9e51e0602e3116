"""Property tests of the matrix-free meta-path operator.

MetaPathOperator is the one definition of A_hat: it must match a dense
oracle of the hop chain and its two repairs, and compose_metapath must
store exactly what it computes, column by column. The random graphs are
sparse enough that intermediate nodes often have no onward edge (rows
lose mass) and target nodes often have no path instance at all (isolated
rows).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodhg import (
    EdgeTypeSchema,
    NodeTypeSchema,
    PropagationConfig,
    build_graph,
    compose_metapath,
    metapath_operator,
    propagate,
)
from oodhg import hetgraph
from oodhg.energy import propagate_transpose
from oodhg.errors import ShapeMismatch

from conftest import dense_row_normalize, random_typed_graph

TOL = 1e-12
SIGNATURES = [("t", "u"), ("u", "t"), ("u", "v"), ("v", "t")]
# square paths get the self-loop repair; t->u->v ends at another type
SQUARE_PATHS = [("t", "u", "t"), ("t", "u", "v", "t")]
PATHS = SQUARE_PATHS + [("t", "u", "v")]

graph_seeds = st.integers(0, 2**32 - 1)
type_counts = st.fixed_dictionaries(
    {"t": st.integers(1, 30), "u": st.integers(1, 30), "v": st.integers(1, 30)})
edge_probs = st.floats(0.02, 0.5)
property_settings = settings(max_examples=60, deadline=None)


def _graph(seed, counts, prob):
    rng = np.random.default_rng(seed)
    graph, dense = random_typed_graph(rng, counts, SIGNATURES, prob, "t")
    return graph, dense, rng


def dense_operator(dense, seq) -> np.ndarray:
    """A_hat from dense hops, with the operator's two repairs."""
    out = dense_row_normalize(dense[(seq[0], seq[1])])
    for hop in zip(seq[1:-1], seq[2:]):
        out = out @ dense_row_normalize(dense[hop])
    sums = out.sum(axis=1)
    lossy = (sums > 0) & (np.abs(sums - 1.0) > 1e-9)
    out[lossy] /= sums[lossy, None]
    if seq[0] == seq[-1]:
        empty = np.flatnonzero(sums == 0)
        out[empty, empty] = 1.0
    return out


@property_settings
@given(graph_seeds, type_counts, edge_probs)
def test_matvec_and_rmatvec_match_dense_oracle(seed, counts, prob):
    graph, dense, rng = _graph(seed, counts, prob)
    for seq in PATHS:
        op = metapath_operator(graph, seq)
        expected = dense_operator(dense, seq)
        assert op.shape == expected.shape
        x = rng.standard_normal(op.n_cols) * 3
        y = rng.standard_normal(op.n_rows) * 3
        np.testing.assert_allclose(op.matvec(x), expected @ x, rtol=0, atol=TOL)
        np.testing.assert_allclose(op.rmatvec(y), expected.T @ y, rtol=0, atol=TOL)


@property_settings
@given(graph_seeds, type_counts, edge_probs)
def test_adjoint_identity(seed, counts, prob):
    graph, _, rng = _graph(seed, counts, prob)
    for seq in PATHS:
        op = metapath_operator(graph, seq)
        x = rng.standard_normal(op.n_cols)
        y = rng.standard_normal(op.n_rows)
        ax, aty = op.matvec(x), op.rmatvec(y)
        lhs, rhs = ax @ y, x @ aty
        scale = np.abs(ax) @ np.abs(y) + np.abs(x) @ np.abs(aty)
        assert abs(lhs - rhs) <= TOL * max(scale, 1e-300)


@property_settings
@given(graph_seeds, type_counts, edge_probs)
def test_rows_sum_to_one_after_repairs(seed, counts, prob):
    graph, dense, _ = _graph(seed, counts, prob)
    for seq in PATHS:
        op = metapath_operator(graph, seq)
        sums = op.matvec(np.ones(op.n_cols))
        if seq[0] == seq[-1]:
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=TOL)
        else:
            # no self-loop repair: rows without a path instance stay empty
            reached = dense_operator(dense, seq).sum(axis=1) > 0
            np.testing.assert_allclose(sums, reached.astype(float), rtol=0, atol=TOL)
        dev, low = op.stochastic_stats()
        assert dev <= TOL and low >= 0.0


@property_settings
@given(graph_seeds, type_counts, edge_probs, st.floats(0.05, 0.95),
       st.integers(1, 6))
def test_propagation_matches_composed_reference(seed, counts, prob, gamma, steps):
    graph, _, rng = _graph(seed, counts, prob)
    cfg = PropagationConfig(gamma, steps)
    for seq in SQUARE_PATHS:
        op = metapath_operator(graph, seq)
        composed = compose_metapath(graph, seq)
        e0 = rng.standard_normal(op.n_rows) * 3
        np.testing.assert_allclose(propagate(e0, op, cfg),
                                   propagate(e0, composed, cfg), rtol=0, atol=TOL)
        np.testing.assert_allclose(propagate_transpose(e0, op, cfg),
                                   propagate_transpose(e0, composed, cfg),
                                   rtol=0, atol=TOL)


@property_settings
@given(graph_seeds, type_counts, edge_probs, st.integers(0, 4))
def test_matmul_dense_columns_are_matvec_bitwise(seed, counts, prob, d):
    graph, _, rng = _graph(seed, counts, prob)
    for seq in PATHS:
        op = metapath_operator(graph, seq)
        x = rng.standard_normal((op.n_cols, d)) * 3
        got = op.matmul_dense(x)
        assert got.shape == (op.n_rows, d)
        for j in range(d):
            assert got[:, j].tobytes() == op.matvec(x[:, j]).tobytes()


def test_compose_columns_are_the_operator_bitwise():
    """On this graph a product of valued hop matrices rounds differently
    from the operator in some entries of both paths."""
    rng = np.random.default_rng(0)
    graph, _ = random_typed_graph(rng, {"t": 12, "u": 9, "v": 7}, SIGNATURES,
                                  0.3, "t")
    for seq in PATHS:
        op = metapath_operator(graph, seq)
        composed = compose_metapath(graph, seq).to_dense()
        for j, unit in enumerate(np.eye(op.n_cols)):
            assert composed[:, j].tobytes() == op.matvec(unit).tobytes()


def test_compose_does_not_depend_on_the_block_width(monkeypatch):
    rng = np.random.default_rng(5)
    graph, _ = random_typed_graph(rng, {"t": 20, "u": 15, "v": 9}, SIGNATURES,
                                  0.2, "t")
    # every path is narrower than one default block
    whole = {seq: compose_metapath(graph, seq) for seq in PATHS}
    for block in (1, 2, 7):
        monkeypatch.setattr(hetgraph, "COMPOSE_BLOCK", block)
        for seq in PATHS:
            got = compose_metapath(graph, seq)
            for name in ("row_offsets", "col_indices", "values"):
                assert (getattr(got, name).tobytes()
                        == getattr(whole[seq], name).tobytes())


def test_both_repairs_are_applied():
    """Target 0 reaches dangling aux node 2 (half its mass is lost) and
    targets 2 and 4 have no path instance (self-loops)."""
    nt = [NodeTypeSchema("t", 5, 2), NodeTypeSchema("a", 3, 0)]
    et = [EdgeTypeSchema("t_a", "t", "a"), EdgeTypeSchema("a_t", "a", "t")]
    edges = {"t_a": [(0, 0), (0, 2), (1, 1), (2, 2), (3, 0)],
             "a_t": [(0, 1), (0, 3), (1, 0)]}
    graph = build_graph(nt, et, edges, {"t": np.zeros((5, 2))}, "t")
    op = metapath_operator(graph, ("t", "a", "t"))
    e = np.array([-1.0, 0.5, 2.0, -3.0, 4.0])
    composed = compose_metapath(graph, ("t", "a", "t"))
    np.testing.assert_allclose(op.matvec(e), composed.matvec(e), rtol=0, atol=TOL)
    out = op.matvec(e)
    assert out[0] == pytest.approx((e[1] + e[3]) / 2)   # rescaled to sum 1
    assert out[2] == e[2] and out[4] == e[4]            # self-loops


def test_shape_checks():
    rng = np.random.default_rng(0)
    graph, _ = random_typed_graph(rng, {"t": 4, "u": 3, "v": 2}, SIGNATURES,
                                  0.5, "t")
    op = metapath_operator(graph, ("t", "u", "v"))
    with pytest.raises(ShapeMismatch):
        op.matvec(np.zeros(4))
    with pytest.raises(ShapeMismatch):
        op.rmatvec(np.zeros(2))
    with pytest.raises(ShapeMismatch):
        op.matmul_dense(np.zeros((4, 1)))
    with pytest.raises(ShapeMismatch):
        propagate(np.zeros(4), op, PropagationConfig(0.5, 1))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodhg import (
    EdgeTypeSchema,
    MetaPath,
    NodeTypeSchema,
    build_graph,
    candidate_metapaths,
    compose_metapath,
    metapath_features,
)
from oodhg.hetgraph import hop_matrix, resolve_paths
from oodhg.errors import (
    DimensionMismatch,
    FeaturelessEndType,
    IndexOutOfRange,
    InvalidPath,
    UnknownType,
    ValidationError,
)

from conftest import dense_row_normalize, random_typed_graph


def _ap_graph(ap_pairs, n_a=3, n_p=2, pa_pairs=None):
    node_types = [NodeTypeSchema("A", n_a), NodeTypeSchema("P", n_p)]
    edge_types = [EdgeTypeSchema("AP", "A", "P")]
    edges = {"AP": np.asarray(ap_pairs)}
    if pa_pairs is not None:
        edge_types.append(EdgeTypeSchema("PA", "P", "A"))
        edges["PA"] = np.asarray(pa_pairs)
    return build_graph(node_types, edge_types, edges, None, "A")


class TestBuildGraph:
    def test_two_type_construction(self):
        g = _ap_graph([(0, 0), (1, 0), (2, 1)])
        assert len(g.edges["AP"]) == 3
        assert g.target_count == 3

    def test_endpoint_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            _ap_graph([(3, 0)])

    def test_dblp_shaped_schema_accepted(self):
        # 4 node types, 26218 nodes in total, 3 relations plus reverses
        node_types = [NodeTypeSchema("author", 4057),
                      NodeTypeSchema("paper", 14328),
                      NodeTypeSchema("term", 7813),
                      NodeTypeSchema("venue", 20)]
        edge_types = [EdgeTypeSchema("AP", "author", "paper"),
                      EdgeTypeSchema("PA", "paper", "author"),
                      EdgeTypeSchema("TP", "term", "paper"),
                      EdgeTypeSchema("PT", "paper", "term"),
                      EdgeTypeSchema("VP", "venue", "paper"),
                      EdgeTypeSchema("PV", "paper", "venue")]
        g = build_graph(node_types, edge_types, {}, None, "author")
        assert sum(s.count for s in g.node_types) == 26218

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            _ap_graph([(0, 0), (0, 0)])

    def test_edge_type_too_large_for_pair_keys_rejected(self):
        node_types = [NodeTypeSchema("A", 2 ** 32), NodeTypeSchema("B", 2 ** 31)]
        with pytest.raises(ValidationError, match="int64"):
            build_graph(node_types, [EdgeTypeSchema("AB", "A", "B")],
                        {"AB": [(0, 0)]}, None, "A")

    def test_unknown_target(self):
        with pytest.raises(UnknownType):
            build_graph([NodeTypeSchema("A", 1)], [], {}, None, "B")

    def test_unknown_edge_endpoint_type(self):
        with pytest.raises(UnknownType):
            build_graph([NodeTypeSchema("A", 1)],
                        [EdgeTypeSchema("AB", "A", "B")], {}, None, "A")

    def test_feature_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_graph([NodeTypeSchema("A", 2, 3)], [], {},
                        {"A": np.zeros((2, 2))}, "A")

    def test_missing_features_for_featured_type(self):
        with pytest.raises(ValidationError, match="missing feature"):
            build_graph([NodeTypeSchema("A", 2, 3)], [], {}, None, "A")

    def test_features_on_featureless_type(self):
        with pytest.raises(DimensionMismatch):
            build_graph([NodeTypeSchema("A", 2, 0)], [], {},
                        {"A": np.zeros((2, 1))}, "A")

    def test_count_below_one(self):
        with pytest.raises(ValidationError):
            build_graph([NodeTypeSchema("A", 0)], [], {}, None, "A")

    @pytest.mark.parametrize("edit, error, message", [
        ({"edges": {"AP": [(0, 2)]}}, IndexOutOfRange,
         "edge type 'AP': dst index 2 outside [0, 2) for type 'P'"),
        ({"node_types": [NodeTypeSchema("A", 3, -1), NodeTypeSchema("P", 2)]},
         ValidationError, "node type 'A' has negative feature_dim"),
        ({"edge_types": [EdgeTypeSchema("AP", "A", "P"),
                         EdgeTypeSchema("AP", "P", "A")]},
         ValidationError, "duplicate edge type names"),
        ({"edges": {"PA": [(0, 0)]}}, UnknownType,
         "edges given for undeclared edge type 'PA'"),
        ({"features": {"Q": np.zeros((1, 1))}}, UnknownType,
         "features given for unknown node type 'Q'"),
    ], ids=["dst-out-of-range", "negative-feature-dim", "repeated-edge-type",
            "undeclared-edge-type", "unknown-feature-type"])
    def test_refused_input_is_named(self, edit, error, message):
        args = {"node_types": [NodeTypeSchema("A", 3), NodeTypeSchema("P", 2)],
                "edge_types": [EdgeTypeSchema("AP", "A", "P")],
                "edges": {"AP": [(0, 0)]}, "features": {},
                "target_type": "A"} | edit
        with pytest.raises(error) as info:
            build_graph(**args)
        assert type(info.value) is error and str(info.value) == message


class TestAdjacency:
    """hop_matrix: the 0/1 pattern of the edges between two node types."""

    def test_direct_construction(self):
        g = _ap_graph([(0, 0), (1, 0), (2, 1)])
        m = hop_matrix(g, "A", "P")
        assert m.shape == (3, 2)
        assert m.to_dense().sum() == 3

    def test_empty_edge_list(self):
        g = _ap_graph([])
        assert np.array_equal(hop_matrix(g, "A", "P").to_dense(), np.zeros((3, 2)))

    def test_random_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        mask = rng.random((10, 8)) < 0.3
        g = _ap_graph(np.argwhere(mask), n_a=10, n_p=8)
        np.testing.assert_array_equal(hop_matrix(g, "A", "P").to_dense(),
                                      mask.astype(float))

    def test_unknown_edge_type(self):
        g = _ap_graph([(0, 0)])
        with pytest.raises(InvalidPath, match="no declared edge type from 'P' to 'A'"):
            hop_matrix(g, "P", "A")


class TestComposeMetapath:
    def test_single_hop_equals_normalized_adjacency(self):
        g = _ap_graph([(0, 0), (1, 0), (2, 1)], pa_pairs=[(0, 0), (0, 1), (1, 2)])
        composed = compose_metapath(g, ["A", "P"])
        expected = hop_matrix(g, "A", "P").row_normalize()
        np.testing.assert_array_equal(composed.to_dense(), expected.to_dense())

    def test_apa_two_author_example(self):
        g = _ap_graph([(0, 0), (1, 0)], n_a=2, n_p=1, pa_pairs=[(0, 0), (0, 1)])
        composed = compose_metapath(g, ["A", "P", "A"])
        np.testing.assert_allclose(composed.to_dense(),
                                   [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_isolated_target_gets_self_loop(self):
        g = _ap_graph([(0, 0), (1, 0)], n_a=3, n_p=1, pa_pairs=[(0, 0), (0, 1)])
        dense = compose_metapath(g, ["A", "P", "A"]).to_dense()
        np.testing.assert_array_equal(dense[2], [0.0, 0.0, 1.0])

    def test_missing_hop_edge_type(self):
        g = _ap_graph([(0, 0)])
        with pytest.raises(InvalidPath):
            compose_metapath(g, ["A", "P", "A"])  # no P->A relation declared

    def test_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(100)
        for _ in range(25):
            counts = {"t": int(rng.integers(2, 50)), "u": int(rng.integers(2, 50)),
                      "v": int(rng.integers(2, 50))}
            graph, dense = random_typed_graph(
                rng, counts,
                [("t", "u"), ("u", "v"), ("v", "t"), ("u", "t")],
                edge_prob=float(rng.uniform(0.05, 0.4)), target_type="t")
            for seq in [("t", "u", "t"), ("t", "u", "v", "t")]:
                got = compose_metapath(graph, seq).to_dense()
                expected = np.eye(counts["t"])
                for hop in zip(seq[:-1], seq[1:]):
                    expected = expected @ dense_row_normalize(dense[hop])
                # contract repairs: rescale rows that lost mass to dangling
                # intermediates, then unit self-loops on all-zero rows
                sums = expected.sum(axis=1)
                lossy = (sums > 0) & (np.abs(sums - 1.0) > 1e-9)
                expected[lossy] /= sums[lossy, None]
                empty = np.flatnonzero(sums == 0)
                expected[empty, :] = 0.0
                expected[empty, empty] = 1.0
                np.testing.assert_allclose(got, expected, atol=1e-10)
                np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)

    def test_union_of_parallel_edge_types(self):
        # two relations with the same signature behave as one merged hop
        node_types = [NodeTypeSchema("P", 3)]
        edge_types = [EdgeTypeSchema("cites", "P", "P"),
                      EdgeTypeSchema("cited_by", "P", "P")]
        edges = {"cites": [(0, 1)], "cited_by": [(1, 0), (0, 1)]}
        g = build_graph(node_types, edge_types, edges, None, "P")
        dense = compose_metapath(g, ["P", "P"]).to_dense()
        np.testing.assert_allclose(dense[0], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(dense[1], [1.0, 0.0, 0.0])


class TestPathSettings:
    """build_graph keeps a dataset's meta-path settings on the graph, and
    refuses any it could not train on, for library and loaded input alike."""

    def _build(self, **settings):
        return build_graph(
            [NodeTypeSchema("A", 2), NodeTypeSchema("P", 2)],
            [EdgeTypeSchema("AP", "A", "P"), EdgeTypeSchema("PA", "P", "A")],
            {"AP": [(0, 0)], "PA": [(0, 0)]}, None, "A", **settings)

    def test_settings_are_kept_as_given(self):
        graph = self._build(metapaths=[["A", "P", "A"], ("A", "P")],
                            max_hops=3)
        assert graph.metapaths == (MetaPath(("A", "P", "A")), MetaPath(("A", "P")))
        assert graph.max_hops == 3
        unset = self._build()
        assert unset.metapaths is None and unset.max_hops is None

    @pytest.mark.parametrize("settings, error, message", [
        ({"metapaths": []}, ValidationError,
         "metapaths must list at least one meta-path"),
        ({"metapaths": [("A", "P", "A"), ["A", "P", "A"]]}, ValidationError,
         "metapaths[1] repeats the meta-path A->P->A"),
        ({"max_hops": 1}, ValidationError,
         "max_hops must be an integer >= 2, got 1"),
        ({"max_hops": 0, "metapaths": [("A", "P", "A")]}, ValidationError,
         "max_hops must be an integer >= 2, got 0"),
        ({"max_hops": 3.0}, ValidationError,
         "max_hops must be an integer >= 2, got 3.0"),
        ({"max_hops": True}, ValidationError,
         "max_hops must be an integer >= 2, got True"),
        ({"metapaths": [("A",)]}, InvalidPath,
         "metapaths[0]: meta-path needs at least 2 types, got ('A',)"),
        ({"metapaths": [("A", "P", "A"), ("A", "X", "A")]}, UnknownType,
         "metapaths[1]: unknown node type 'X'"),
        ({"metapaths": [("A", "A")]}, InvalidPath,
         "metapaths[0]: meta-path A->A: no declared edge type from 'A' to 'A'"),
    ], ids=["empty", "repeated", "max-hops-1", "max-hops-0", "max-hops-float",
            "max-hops-bool", "one-type", "unknown-type", "no-edge-type"])
    def test_refused_settings(self, settings, error, message):
        with pytest.raises(error) as info:
            self._build(**settings)
        assert type(info.value) is error
        assert str(info.value) == message


class TestCandidateMetapaths:
    def _dblp_schema(self):
        node_types = [NodeTypeSchema("A", 2), NodeTypeSchema("P", 2),
                      NodeTypeSchema("T", 2), NodeTypeSchema("V", 2)]
        edge_types = [EdgeTypeSchema("AP", "A", "P"), EdgeTypeSchema("PA", "P", "A"),
                      EdgeTypeSchema("TP", "T", "P"), EdgeTypeSchema("PT", "P", "T"),
                      EdgeTypeSchema("VP", "V", "P"), EdgeTypeSchema("PV", "P", "V")]
        return build_graph(node_types, edge_types, {}, None, "A")

    def test_dblp_two_hop_gives_apa_only(self):
        paths = candidate_metapaths(self._dblp_schema(), 2)
        assert [p.types for p in paths] == [("A", "P", "A")]

    def test_citation_enumeration_contains_known_path_family(self):
        node_types = [NodeTypeSchema("P", 2), NodeTypeSchema("A", 2),
                      NodeTypeSchema("C", 2)]
        edge_types = [EdgeTypeSchema("PA", "P", "A"), EdgeTypeSchema("AP", "A", "P"),
                      EdgeTypeSchema("PC", "P", "C"), EdgeTypeSchema("CP", "C", "P"),
                      EdgeTypeSchema("PP", "P", "P")]
        g = build_graph(node_types, edge_types, {}, None, "P")
        got = {p.types for p in candidate_metapaths(g, 5)}
        listing = {("P", "P"), ("P", "A", "P"), ("P", "C", "P"),
                   ("P", "A", "P", "P"), ("P", "C", "P", "P"),
                   ("P", "P", "A", "P"), ("P", "P", "C", "P"),
                   ("P", "A", "P", "A", "P"), ("P", "A", "P", "C", "P"),
                   ("P", "C", "P", "A", "P"), ("P", "C", "P", "C", "P")}
        assert len(listing) == 11
        assert listing <= got
        assert ("P", "A", "P") in got

    def test_no_edge_into_target_gives_empty(self):
        node_types = [NodeTypeSchema("A", 1), NodeTypeSchema("P", 1)]
        edge_types = [EdgeTypeSchema("AP", "A", "P")]
        g = build_graph(node_types, edge_types, {}, None, "A")
        assert candidate_metapaths(g, 4) == []

    def test_lexicographic_and_deterministic(self):
        g = self._dblp_schema()
        first = [p.types for p in candidate_metapaths(g, 4)]
        second = [p.types for p in candidate_metapaths(g, 4)]
        assert first == second == sorted(first)
        assert all(p[0] == "A" and p[-1] == "A" and len(p) - 1 <= 4 for p in first)

    def test_max_hops_below_two_rejected(self):
        with pytest.raises(ValidationError):
            candidate_metapaths(self._dblp_schema(), 1)

    def test_metapath_of_a_metapath_is_equal(self):
        p = MetaPath(("A", "P", "A"))
        assert MetaPath(p) == p and MetaPath(p).types == ("A", "P", "A")

    @pytest.mark.parametrize("max_hops", [0, 1])
    def test_resolve_paths_never_replaces_a_given_max_hops(self, max_hops):
        with pytest.raises(ValidationError, match="max_hops must be >= 2"):
            resolve_paths(self._dblp_schema(), None, max_hops)

    def test_resolve_paths_never_replaces_a_given_empty_path_list(self):
        with pytest.raises(InvalidPath, match="no meta-path starts at the target"):
            resolve_paths(self._dblp_schema(), [])

    def test_resolve_paths_needs_a_target_to_target_path(self):
        graph = build_graph(
            [NodeTypeSchema("A", 3), NodeTypeSchema("P", 2, 1)],
            [EdgeTypeSchema("AP", "A", "P"), EdgeTypeSchema("PA", "P", "A")],
            {"AP": [(0, 0)], "PA": [(0, 0)]}, {"P": np.ones((2, 1))}, "A")
        with pytest.raises(InvalidPath) as info:
            resolve_paths(graph, [("A", "P")])
        assert str(info.value) == ("no target-to-target meta-path available "
                                   "for energy propagation")


class TestMetapathFeatures:
    def test_constant_feature_single_hop(self):
        node_types = [NodeTypeSchema("A", 3), NodeTypeSchema("P", 2, 2)]
        edge_types = [EdgeTypeSchema("AP", "A", "P")]
        features = {"P": np.array([[1.0, 0.0], [1.0, 0.0]])}
        g = build_graph(node_types, edge_types, {"AP": [(0, 0), (1, 1)]},
                        features, "A")
        out = metapath_features(g, ["A", "P"])
        np.testing.assert_array_equal(out[0], [1.0, 0.0])
        np.testing.assert_array_equal(out[1], [1.0, 0.0])
        np.testing.assert_array_equal(out[2], [0.0, 0.0])  # isolated: zero row

    def test_ap_worked_example(self):
        node_types = [NodeTypeSchema("A", 2), NodeTypeSchema("P", 2, 2)]
        edge_types = [EdgeTypeSchema("AP", "A", "P")]
        features = {"P": np.array([[1.0, 0.0], [0.0, 1.0]])}
        g = build_graph(node_types, edge_types,
                        {"AP": [(0, 0), (0, 1), (1, 1)]}, features, "A")
        out = metapath_features(g, ["A", "P"])
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.0, 1.0]], atol=1e-15)

    def test_featureless_end_type(self):
        g = _ap_graph([(0, 0)])
        with pytest.raises(FeaturelessEndType):
            metapath_features(g, ["A", "P"])

    def test_memoised_and_read_only(self):
        rng = np.random.default_rng(201)
        graph, _ = random_typed_graph(
            rng, {"t": 6, "u": 4}, [("t", "u"), ("u", "t")], 0.5, "t",
            feature_dims={"t": 3})
        path = ["t", "u", "t"]
        first = metapath_features(graph, path)
        assert metapath_features(graph, path) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(200)
        for _ in range(10):
            counts = {"t": 12, "u": 9, "v": 7}
            graph, dense = random_typed_graph(
                rng, counts, [("t", "u"), ("u", "v")], 0.3, "t",
                feature_dims={"v": 4})
            got = metapath_features(graph, ["t", "u", "v"])
            expected = (dense_row_normalize(dense[("t", "u")])
                        @ dense_row_normalize(dense[("u", "v")])
                        @ graph.features["v"])
            np.testing.assert_allclose(got, expected, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 6), n_cols=st.integers(1, 6),
           d=st.integers(1, 4))
    def test_one_hop_is_bitwise_the_gather_and_reduceat_form(
            self, data, n_rows, n_cols, d):
        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True)
        mask = np.asarray(data.draw(st.lists(
            st.lists(st.booleans(), min_size=n_cols, max_size=n_cols),
            min_size=n_rows, max_size=n_rows)), dtype=bool)
        x = np.asarray(data.draw(st.lists(finite, min_size=n_cols * d,
                                          max_size=n_cols * d)),
                       dtype=np.float64).reshape(n_cols, d)
        graph = build_graph(
            [NodeTypeSchema("s", n_rows), NodeTypeSchema("d", n_cols, d)],
            [EdgeTypeSchema("sd", "s", "d")], {"sd": np.argwhere(mask)},
            {"d": x}, "s")
        m = hop_matrix(graph, "s", "d").row_normalize()
        # the (nnz, d) form: gather x's rows, sum each matrix row, then scale
        # it by 1 / its nonzero count
        want = np.zeros((n_rows, d))
        if m.nnz:
            starts = m.row_offsets[:-1]
            counts = m.row_counts()
            nonempty = counts > 0
            want[nonempty] = (np.add.reduceat(x[m.col_indices],
                                              starts[nonempty], axis=0)
                              * (1.0 / counts[nonempty])[:, None])
        got = metapath_features(graph, ["s", "d"])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oodhg import (
    EdgeTypeSchema,
    MetaPath,
    NodeTypeSchema,
    SynthConfig,
    build_graph,
    data,
    generate_synthetic,
    load_dataset,
    make_splits,
    save_dataset,
)
from oodhg.data import load_path_config
from oodhg.errors import (
    FractionOverflow,
    MissingFile,
    OodClassMissing,
    ParseError,
    UnknownType,
    ValidationError,
)

from conftest import random_typed_graph


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestMakeSplits:
    def test_protocol_counts(self):
        labels = np.array([9] * 10 + [0] * 30 + [1] * 30 + [2] * 30)
        splits = make_splits(labels, ood_class=9, seed=0)
        assert splits.train_ids.size == 24
        assert splits.val_ids.size == 6
        assert splits.test_ids.size == 70
        ood_nodes = set(np.flatnonzero(labels == 9))
        assert ood_nodes <= set(splits.test_ids)
        assert not ood_nodes & (set(splits.train_ids) | set(splits.val_ids))

    def test_deterministic(self):
        labels = np.arange(50) % 4
        a = make_splits(labels, 3, seed=7)
        b = make_splits(labels, 3, seed=7)
        np.testing.assert_array_equal(a.train_ids, b.train_ids)
        np.testing.assert_array_equal(a.val_ids, b.val_ids)
        np.testing.assert_array_equal(a.test_ids, b.test_ids)
        c = make_splits(labels, 3, seed=8)
        assert not np.array_equal(a.train_ids, c.train_ids)

    def test_partition_covers_everything_once(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            n = int(rng.integers(20, 120))
            labels = rng.integers(0, 4, n)
            labels[0] = 3  # ensure the held-out class occurs
            splits = make_splits(labels, 3, seed=seed)
            merged = np.concatenate(
                [splits.train_ids, splits.val_ids, splits.test_ids])
            np.testing.assert_array_equal(np.sort(merged), np.arange(n))
            assert not np.any(labels[splits.train_ids] == 3)
            assert not np.any(labels[splits.val_ids] == 3)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 450, 3000])
    def test_one_call_draw_is_the_scalar_fisher_yates_loop(self, n):
        """_fisher_yates draws every swap index in one integers call; the
        reference is the scalar loop it replaced, which must give the same
        permutation and leave the generator in the same state."""
        def scalar_loop(rng, arr):
            out = arr.copy()
            for i in range(out.size - 1, 0, -1):
                j = int(rng.integers(0, i + 1))
                out[i], out[j] = out[j], out[i]
            return out

        arr = np.arange(n, dtype=np.int64) * 7 + 3
        for seed in range(20):
            one_call = np.random.Generator(np.random.Philox(seed))
            scalar = np.random.Generator(np.random.Philox(seed))
            got = data._fisher_yates(one_call, arr)
            want = scalar_loop(scalar, arr)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert one_call.integers(0, 2 ** 62) == scalar.integers(0, 2 ** 62)

    def test_fraction_overflow_when_ood_dominates(self):
        labels = np.array([1] * 75 + [0] * 25)
        with pytest.raises(FractionOverflow):
            make_splits(labels, ood_class=1, seed=0)

    @pytest.mark.parametrize("ids, message", [
        (([0, 1], [2], [3, -1]), "^negative node id -1$"),
        (([0, 1], [2], [3, 1]), "^splits overlap$"),
        (([0, 0], [], [3]), "^splits overlap$")],
        ids=["negative", "across-splits", "within-a-split"])
    def test_splits_refuse_a_negative_or_repeated_id(self, ids, message):
        # a negative id would index labels from the end, and a repeated
        # one would score a training node as a test node
        with pytest.raises(ValidationError, match=message):
            data.Splits(*ids, ood_class=2)

    def test_missing_ood_class(self):
        with pytest.raises(OodClassMissing):
            make_splits(np.zeros(10, dtype=int), ood_class=5)


class TestGenerator:
    def test_label_marginals_exact(self):
        cfg = SynthConfig(n_id_classes=4, nodes_per_class=13, seed=5)
        _, labels = generate_synthetic(cfg)
        counts = np.bincount(labels)
        np.testing.assert_array_equal(counts, [13] * 5)

    def test_same_seed_byte_identical_dataset(self, tmp_path):
        for sub in ("a", "b"):
            graph, labels = generate_synthetic(SynthConfig(nodes_per_class=20, seed=9))
            save_dataset(tmp_path / sub, graph, labels)
        assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")

    def test_blocked_edge_coins_match_the_full_matrix_draw(self, tmp_path, monkeypatch):
        cfg = SynthConfig(nodes_per_class=11, n_aux_types=3, seed=6)
        k, npc = cfg.n_id_classes, cfg.nodes_per_class
        n_target = (k + 1) * npc
        labels = np.repeat(np.arange(k + 1), npc)
        communities = np.repeat(np.arange(k + 1), max(npc // 3, 1))
        # the draw sequence of generate_synthetic with one coin matrix per
        # auxiliary type
        rng = np.random.Generator(np.random.Philox(cfg.seed))
        rng.integers(0, k, size=npc)
        rng.standard_normal((n_target, cfg.feature_dim))
        prob = np.where(labels[:, None] == communities[None, :],
                        cfg.intra_edge_prob, cfg.inter_edge_prob)
        expected = [np.argwhere(rng.random((n_target, communities.size)) < prob)
                    for _ in range(cfg.n_aux_types)]

        trees = []
        # 5 rows per block leaves a ragged last block; the default is one block
        for cells in (5 * communities.size, data.COIN_BLOCK_CELLS):
            monkeypatch.setattr(data, "COIN_BLOCK_CELLS", cells)
            graph, got_labels = generate_synthetic(cfg)
            for a, pairs in enumerate(expected):
                np.testing.assert_array_equal(graph.edges[f"target_aux{a}"], pairs)
            out = tmp_path / str(cells)
            save_dataset(out, graph, got_labels)
            trees.append(_tree_bytes(out))
        assert trees[0] == trees[1]

    def test_homophily_exceeds_null_rate(self):
        # two-hop (target-aux-target) pairs agree on class more often than
        # random pairing would
        cfg = SynthConfig(seed=0)  # default acceptance configuration
        graph, labels = generate_synthetic(cfg)
        n_t = graph.target_count
        match = total = 0
        for a in range(cfg.n_aux_types):
            fwd = graph.edges[f"target_aux{a}"]
            by_aux = {}
            for t, x in fwd:
                by_aux.setdefault(int(x), []).append(int(t))
            for members in by_aux.values():
                for i in members:
                    for j in members:
                        if i < j:
                            total += 1
                            match += int(labels[i] == labels[j])
        counts = np.bincount(labels)
        null_rate = float((counts * (counts - 1)).sum() / (n_t * (n_t - 1)))
        assert total > 0
        assert match / total > null_rate + 0.1

    def test_zero_shift_makes_ood_features_exchangeable(self):
        # with shift 0 every held-out node draws from one of the ID class
        # distributions, so per-class feature means coincide
        cfg = SynthConfig(nodes_per_class=400, ood_shift=0.0, seed=3)
        graph, labels = generate_synthetic(cfg)
        feats = graph.features["target"]
        id_norm = np.linalg.norm(feats[labels < 3], axis=1).mean()
        ood_norm = np.linalg.norm(feats[labels == 3], axis=1).mean()
        assert abs(id_norm - ood_norm) < 0.15


class TestDatasetIO:
    def test_mini_fixture_loads(self, mini_dataset_dir):
        graph, labels, splits = load_dataset(mini_dataset_dir)
        assert graph.target_count == 5
        assert labels.size == 5
        assert splits is None
        assert load_path_config(mini_dataset_dir) == (None, 2)

    def test_roundtrip_csv_exact(self, tmp_path, monkeypatch):
        synth, synth_labels = generate_synthetic(
            SynthConfig(nodes_per_class=15, seed=2))
        synth_splits = make_splits(synth_labels, 3, seed=2)
        # two featured types and the empty edge type v__t
        rng = np.random.default_rng(11)
        typed, _ = random_typed_graph(
            rng, {"t": 6, "u": 4, "v": 3}, [("t", "u"), ("u", "t"), ("t", "v")],
            0.5, "t", feature_dims={"t": 3, "u": 2})
        typed = build_graph(
            typed.node_types,
            [*typed.edge_types, EdgeTypeSchema("v__t", "v", "t")],
            {**typed.edges, "v__t": np.empty((0, 2), dtype=np.int64)},
            typed.features, "t", metapaths=[["t", "u", "t"], ["t", "v", "t"]])
        # values whose shortest repr is long, subnormal, signed zero or at
        # the edge of the float64 range; 9007199254740993.0 reads as 2**53
        extremes = np.array([
            [-0.0, 5e-324], [2.5e-310, 1.7976931348623157e+308],
            [-1.7976931348623157e+308, 1e22], [1e23, 9007199254740993.0]])
        extreme = build_graph(
            [NodeTypeSchema("t", 4, 2)], [EdgeTypeSchema("t__t", "t", "t")],
            {"t__t": [[0, 1], [1, 0], [2, 3]]}, {"t": extremes}, "t",
            max_hops=3)
        cases = [(synth, synth_labels, synth_splits),
                 (typed, rng.integers(0, 3, 6), None),
                 (extreme, np.array([0, 1, 0, 1]), None)]
        for i, (graph, labels, splits) in enumerate(cases):
            root = save_dataset(tmp_path / str(i), graph, labels, splits)
            with monkeypatch.context() as patch:
                _no_text_parse(patch)
                served = load_dataset(root)
            assert _drop_sidecars(root)
            for g2, l2, s2 in (served, load_dataset(root)):
                assert g2.edges.keys() == graph.edges.keys()
                for name, pairs in graph.edges.items():
                    np.testing.assert_array_equal(g2.edges[name], pairs)
                assert g2.features.keys() == graph.features.keys()
                for name, mat in graph.features.items():
                    np.testing.assert_array_equal(g2.features[name].view(np.int64),
                                                  mat.view(np.int64))
                np.testing.assert_array_equal(labels, l2)
                assert g2.metapaths == graph.metapaths
                assert g2.max_hops == graph.max_hops
                if splits is None:
                    assert s2 is None
                else:
                    np.testing.assert_array_equal(splits.train_ids, s2.train_ids)
                    assert s2.ood_class == 3

    def test_save_refuses_a_directory_holding_a_dataset(self, tmp_path):
        # otherwise seed 1's csv features and splits.json would load with
        # seed 2's edges
        g1, l1 = generate_synthetic(SynthConfig(nodes_per_class=5, seed=1))
        save_dataset(tmp_path / "d", g1, l1, make_splits(l1, 3, seed=1))
        before = _tree_bytes(tmp_path / "d")
        g2, l2 = generate_synthetic(SynthConfig(nodes_per_class=5, seed=2))
        with pytest.raises(ValidationError) as info:
            save_dataset(tmp_path / "d", g2, l2)
        assert str(info.value) == (f"{tmp_path / 'd'} already holds a dataset "
                                   f"(schema.json); save into a new directory")
        assert _tree_bytes(tmp_path / "d") == before

    def test_missing_schema(self, tmp_path):
        with pytest.raises(MissingFile):
            load_dataset(tmp_path)

    def test_edge_schema_with_unknown_type_names_the_file(self, tmp_path, mini_dataset_dir):
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        schema = json.loads((dst / "schema.json").read_text())
        schema["edge_types"].append({"name": "ghost", "src": "user", "dst": "nowhere"})
        (dst / "schema.json").write_text(json.dumps(schema))
        with pytest.raises(UnknownType) as info:
            load_dataset(dst)
        assert str(info.value) == (
            f"{dst / 'schema.json'}: edge type 'ghost' references unknown "
            f"node type 'nowhere'")

    @pytest.mark.parametrize("text, line", [
        pytest.param("0\t0\n9\t0\n", 2, id="no-blank-line"),
        # blank lines hold no data row
        pytest.param("0\t0\n\n9\t0\n", 3, id="blank-line"),
        pytest.param("0\t0\r\n \r\n1\t1\r\n9\t0\r\n", 4, id="crlf-whitespace-line"),
    ])
    def test_out_of_range_edge_names_file_and_line(self, tmp_path, mini_dataset_dir,
                                                   text, line):
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        (dst / "edges" / "user_item.tsv").write_bytes(text.encode())
        with pytest.raises(ValidationError, match=rf"user_item\.tsv:{line}: endpoint"):
            load_dataset(dst)

    def test_out_of_range_edge_message_prints_plain_integers(self, tmp_path,
                                                             mini_dataset_dir):
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        path = dst / "edges" / "user_item.tsv"
        path.write_text("0\t0\n9\t0\n")
        with pytest.raises(ValidationError) as info:
            load_dataset(dst)
        assert str(info.value) == (
            f"{path}:2: endpoint (9, 0) outside [0,5) x [0,3)")

    @pytest.mark.parametrize("text, message", [
        pytest.param("0\t0\n\n9\t0\n", "node id 9 outside [0, 5)",
                     id="out-of-range"),
        pytest.param("0\t0\n\n0\t1\n", "duplicate label for node 0",
                     id="duplicate"),
    ])
    def test_bad_label_names_file_line_after_blank_line(
            self, tmp_path, mini_dataset_dir, text, message):
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        path = dst / "labels.tsv"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            load_dataset(dst)
        assert str(info.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("name", [
        "edges/user_item.tsv", "features/user.csv", "labels.tsv",
        "schema.json", "splits.json"])
    def test_file_that_is_not_utf8_is_parse_error(self, tmp_path,
                                                  mini_dataset_dir, name):
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        path = dst / name
        if name == "splits.json":
            path.write_text('{"train": [0], "val": [], "test": [1], '
                            '"ood_class": 2}')
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + b"\xff" + raw[4:])
        with pytest.raises(ParseError) as info:
            load_dataset(dst)
        assert str(info.value) == (
            f"{path}: byte 4 is not valid UTF-8 (invalid start byte)")

    def test_bad_byte_past_the_first_read_chunk_names_its_file_offset(
            self, tmp_path, mini_dataset_dir):
        # text-mode reads decode in chunks of 8 KiB and more; the offset
        # must be the byte's place in the file, not in its chunk
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        path = dst / "edges" / "user_item.tsv"
        path.write_bytes(b"0\t0\n" * 5000 + b"\xff\n")
        with pytest.raises(ParseError) as info:
            load_dataset(dst)
        assert str(info.value) == (
            f"{path}: byte 20000 is not valid UTF-8 (invalid start byte)")

    @pytest.mark.parametrize("name, text, line", [
        ("edges/user_item.tsv", "0\t0\n\n0\t99999999999999999999\n", 3),
        ("edges/user_item.tsv", "-9223372036854775809\t0\n", 1),
        ("labels.tsv", "0\t0\n1\t9223372036854775808\n", 2),
    ])
    def test_id_outside_int64_is_parse_error(self, tmp_path, mini_dataset_dir,
                                             name, text, line):
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        (dst / name).write_text(text)
        with pytest.raises(ParseError, match=rf"{name.split('/')[-1]}:{line}: "
                                             "integer field outside the int64"):
            load_dataset(dst)

    def test_non_integer_edge_is_parse_error(self, tmp_path, mini_dataset_dir):
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        (dst / "edges" / "user_item.tsv").write_text("0\tx\n")
        with pytest.raises(ParseError, match=r"user_item\.tsv:1"):
            load_dataset(dst)

    def test_missing_label_row_rejected(self, tmp_path, mini_dataset_dir):
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        (dst / "labels.tsv").write_text("0\t0\n1\t0\n")
        with pytest.raises(ValidationError, match="labels.tsv"):
            load_dataset(dst)

    def test_overlapping_splits_rejected(self, tmp_path, mini_dataset_dir):
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        (dst / "splits.json").write_text(json.dumps(
            {"train": [0, 1], "val": [1], "test": [2, 3, 4], "ood_class": 2}))
        with pytest.raises(ValidationError, match="overlap"):
            load_dataset(dst)

    def test_citation_shaped_directory_accepted(self, tmp_path):
        # four node types, three relations plus reverses, author target,
        # labels over four classes
        d = tmp_path / "dblp_like"
        (d / "edges").mkdir(parents=True)
        schema = {
            "node_types": [
                {"name": "author", "count": 8, "feature_dim": 0},
                {"name": "paper", "count": 6, "feature_dim": 0},
                {"name": "term", "count": 4, "feature_dim": 0},
                {"name": "venue", "count": 2, "feature_dim": 0}],
            "edge_types": [
                {"name": "AP", "src": "author", "dst": "paper"},
                {"name": "PA", "src": "paper", "dst": "author"},
                {"name": "PT", "src": "paper", "dst": "term"},
                {"name": "TP", "src": "term", "dst": "paper"},
                {"name": "PV", "src": "paper", "dst": "venue"},
                {"name": "VP", "src": "venue", "dst": "paper"}],
            "target_type": "author",
            "max_hops": 2,
        }
        (d / "schema.json").write_text(json.dumps(schema))
        ap = [(i, i % 6) for i in range(8)]
        (d / "edges" / "AP.tsv").write_text(
            "".join(f"{a}\t{p}\n" for a, p in ap))
        (d / "edges" / "PA.tsv").write_text(
            "".join(f"{p}\t{a}\n" for a, p in ap))
        for name in ("PT", "TP", "PV", "VP"):
            (d / "edges" / f"{name}.tsv").write_text("")
        (d / "labels.tsv").write_text(
            "".join(f"{i}\t{i % 4}\n" for i in range(8)))
        graph, labels, _ = load_dataset(d)
        assert graph.target_type == "author"
        assert len(graph.node_types) == 4
        assert np.unique(labels).size == 4

    @pytest.mark.parametrize("max_hops, message", [
        (0, "{schema}: max_hops must be an integer >= 2, got 0"),
        (1, "{schema}: max_hops must be an integer >= 2, got 1"),
        (2.0, "{schema}: 'max_hops' must be an integer, got 2.0"),
        (True, "{schema}: 'max_hops' must be an integer, got True"),
        ("2", "{schema}: 'max_hops' must be an integer, got '2'")],
        ids=["0", "1", "2.0", "True", "2"])
    def test_schema_max_hops_must_be_an_integer_of_two_or_more(
            self, tmp_path, max_hops, message):
        root = _gen(tmp_path / "d", "--per-class", "10")
        _edit_schema(root, lambda s: s.update(max_hops=max_hops))
        with pytest.raises(ValidationError) as info:
            load_dataset(root)
        assert str(info.value) == message.format(root=root,
                                                 schema=root / "schema.json")

    @pytest.mark.parametrize("metapaths, message", [
        (5, "{schema}: 'metapaths' must be a list, got 5"),
        ("target", "{schema}: 'metapaths' must be a list, got 'target'"),
        ([], "{schema}: metapaths must list at least one meta-path"),
        ([["target", 3]], "{schema}: 'metapaths[0][1]' must be a string, got 3"),
        ([("target", "aux0", "target"), 7],
         "{schema}: 'metapaths[1]' must be a list, got 7"),
        ([("target", "aux0", "target"), ("target", "aux0", "target")],
         "{schema}: metapaths[1] repeats the meta-path target->aux0->target")],
        ids=["number", "string", "empty", "non-string-type", "non-list-path",
             "repeated-path"])
    def test_schema_metapaths_must_be_lists_of_type_names(self, tmp_path,
                                                          metapaths, message):
        root = _gen(tmp_path / "d", "--per-class", "10")
        _edit_schema(root, lambda s: s.update(metapaths=metapaths))
        with pytest.raises(ValidationError) as info:
            load_dataset(root)
        assert str(info.value) == message.format(root=root,
                                                 schema=root / "schema.json")

    def test_explicit_metapaths_override_enumeration(self, tmp_path):
        from oodhg.pipeline import resolve_paths
        root = _gen(tmp_path / "d", "--per-class", "10")
        _edit_schema(root, lambda s: s.update(
            metapaths=[["target", "aux1", "target"]]))
        graph, _, _ = load_dataset(root)
        assert graph.metapaths == (MetaPath(("target", "aux1", "target")),)
        assert graph.max_hops == 2
        feat, prop = resolve_paths(graph, graph.metapaths, graph.max_hops)
        assert [p.types for p in prop] == [("target", "aux1", "target")]
        assert [p.types for p in feat] == [("target", "aux1", "target")]

    def test_save_of_a_loaded_dataset_keeps_its_path_settings(self, tmp_path):
        root = _gen(tmp_path / "d", "--per-class", "10")
        _edit_schema(root, lambda s: s.update(
            metapaths=[["target", "aux0", "target"]], max_hops=3))
        data._write_json(root / "schema.json",
                         json.loads((root / "schema.json").read_text()))
        graph, labels, _ = load_dataset(root)
        copy = save_dataset(tmp_path / "copy", graph, labels)
        assert ((copy / "schema.json").read_bytes()
                == (root / "schema.json").read_bytes())
        assert load_path_config(copy) == ([("target", "aux0", "target")], 3)

    @pytest.mark.parametrize("max_hops", [None, 2])
    def test_save_writes_max_hops_only_when_the_graph_sets_it(self, tmp_path,
                                                               max_hops):
        graph, labels = generate_synthetic(SynthConfig(nodes_per_class=5))
        assert graph.max_hops == 2 and graph.metapaths is None
        graph = build_graph(graph.node_types, graph.edge_types, graph.edges,
                            graph.features, graph.target_type,
                            max_hops=max_hops)
        root = save_dataset(tmp_path / "d", graph, labels)
        schema = json.loads((root / "schema.json").read_text())
        assert schema.get("max_hops") == max_hops
        assert "metapaths" not in schema

    def test_numpy_integer_max_hops_round_trips(self, tmp_path):
        graph, labels = generate_synthetic(SynthConfig(nodes_per_class=5))
        graph = build_graph(graph.node_types, graph.edge_types, graph.edges,
                            graph.features, graph.target_type,
                            max_hops=np.int64(3))
        root = save_dataset(tmp_path / "d", graph, labels)
        assert load_dataset(root)[0].max_hops == 3


# ----------------------------------------------------------------------
# the numpy table reader against the line-by-line reference parsers

property_settings = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _outcome(parse, *args):
    """The parsed array, or the type and message of what parse raised."""
    try:
        return parse(*args)
    except Exception as exc:  # the exception is the outcome under test
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


@st.composite
def _int_field(draw):
    value = draw(st.one_of(st.integers(-3, 12), st.integers(-2 ** 63, 2 ** 63 - 1)))
    digits = str(abs(value))
    if len(digits) > 1 and draw(st.integers(0, 4)) == 0:
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]  # Python's int() reads 1_0
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    pad = st.sampled_from(["", "", " ", "  "])
    return draw(pad) + sign + draw(st.sampled_from(["", "", "0"])) + digits + draw(pad)


_pair = st.tuples(_int_field(), _int_field()).map("\t".join)
_pair_lines = st.one_of(_pair, _pair, _pair, st.just(""),
                        st.sampled_from([" ", "\t", "  \t ", "\x0b", "\x0c"]))
# lines loadtxt refuses, or reads otherwise than Python's int() unless the
# reader sends them to the reference parser
_ODD_PAIR_LINES = [
    "7", "1\t2\t3", "x\t1", "1.0\t2", "1e3\t2", "\t1\t2", "1\t\t2", "1 2\t3",
    "99999999999999999999\t0", "0\t-9223372036854775809", "9223372036854775808\t0",
    "9223372036854775807\t-9223372036854775808",
    "\u01fe1\t2", "1\u01ff\t2", "1\x1c\t2", "2\t1\x1f", "\u0661\t2", "\ufeff1\t2",
    "1\x00\t2", "1\t" + "0" * 4301,
    # int() refuses more than 4300 digits, leading zeros included
    "0" * 4299 + "1\t2", "0" * 4282 + "1" * 19 + "\t2",
]
_ODD_FEATURE_LINES = [
    "1,2", "1,2,3,4", "1,,2", "1_0,2,3", "nan,inf,-Infinity", "1e400,1e-400,-0.0",
    "0x1p3,1,2", "\u01fe,1,2", "1\x1c,2,3", "\u0661.5,1,2", "1\x00,2,3",
]


def _int_pair_outcomes(path, text):
    path.write_bytes(text.encode())
    return (_outcome(data._parse_int_pair_file, path),
            _outcome(data._parse_lines, path, np.int64, "\t", 2))


def _feature_outcomes(dir_path, text):
    """(_load_features, reference) outcomes of a 3-column features/t.csv."""
    path = dir_path / "t.csv"
    path.write_bytes(text.encode())
    want = _outcome(data._parse_lines, path, np.float64, ",", 3)
    count = want.shape[0] if isinstance(want, np.ndarray) else 0
    return _outcome(data._load_features, dir_path, "t", count, 3), want


class TestTableReaders:
    @pytest.mark.parametrize("odd", _ODD_PAIR_LINES)
    def test_odd_int_pair_line_matches_the_line_parser(self, tmp_path, odd):
        _assert_same_outcome(*_int_pair_outcomes(tmp_path / "p.tsv",
                                                 f"0\t1\n{odd}\n2\t3\n"))

    @pytest.mark.parametrize("odd", _ODD_FEATURE_LINES)
    def test_odd_feature_line_matches_the_line_parser(self, tmp_path, odd):
        _assert_same_outcome(*_feature_outcomes(tmp_path, f"0,1,2\n{odd}\n3,4,5\n"))

    @property_settings
    @given(lines=st.lists(_pair_lines, max_size=8),
           odd=st.one_of(st.none(), st.tuples(st.integers(0, 8),
                                              st.sampled_from(_ODD_PAIR_LINES))),
           newline=st.sampled_from(["\n", "\r\n", "\r"]),
           final_newline=st.booleans())
    def test_int_pair_file_matches_the_line_parser(self, tmp_path, lines, odd,
                                                   newline, final_newline):
        if odd is not None:
            lines.insert(odd[0], odd[1])
        text = newline.join(lines) + (newline if final_newline and lines else "")
        _assert_same_outcome(*_int_pair_outcomes(tmp_path / "p.tsv", text))

    @property_settings
    @given(values=st.lists(st.lists(
               st.floats(allow_nan=False, allow_infinity=False, width=64),
               min_size=3, max_size=3), max_size=6),
           seed=st.integers(0, 2 ** 32 - 1),
           pad=st.sampled_from(["", " ", "\t"]),
           odd=st.one_of(st.none(), st.sampled_from(_ODD_FEATURE_LINES)))
    def test_feature_csv_matches_the_line_parser(self, tmp_path, values, seed,
                                                 pad, odd):
        rng = np.random.default_rng(seed)
        # subnormals, and values spread over the exponent range
        values.append(list(rng.integers(1, 2 ** 52, 3).astype(np.uint64)
                           .view(np.float64) * rng.choice([-1.0, 1.0], 3)))
        values.append(list(rng.standard_normal(3) * 10.0 ** rng.integers(-300, 300, 3)))
        lines = [",".join(pad + repr(float(v)) + pad for v in row) for row in values]
        if odd is not None:
            lines.insert(len(lines) // 2, odd)
        _assert_same_outcome(*_feature_outcomes(tmp_path, "\n".join(lines) + "\n"))

    def test_empty_and_blank_files_read_as_no_rows(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        for text in ("", "\n", " \n\t\r\n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pairs = data._parse_int_pair_file(path)
            assert pairs.shape == (0, 2) and pairs.dtype == np.int64


def _gen(root: Path, *args: str) -> Path:
    """A dataset directory written by the gen command."""
    from oodhg.cli import main
    assert main(["gen", "--seed", "5", *args, "-o", str(root)]) == 0
    return root


def _tables(root: Path) -> dict:
    """dtype, shape and bytes of every table of a dataset directory, as the
    readers return them."""
    schema = json.loads((root / "schema.json").read_text())
    tables = {p.relative_to(root).as_posix(): data._parse_int_pair_file(p)
              for p in [*sorted((root / "edges").glob("*.tsv")),
                        root / "labels.tsv"]}
    for t in schema["node_types"]:
        if t["feature_dim"]:
            tables[t["name"]] = data._load_features(
                root / "features", t["name"], t["count"], t["feature_dim"])
    return {k: (v.dtype, v.shape, v.tobytes()) for k, v in tables.items()}


def _drop_sidecars(root: Path) -> list[Path]:
    sidecars = sorted(root.rglob("*.bin"))
    for p in sidecars:
        p.unlink()
    return sidecars


def _no_text_parse(monkeypatch):
    """Make np.loadtxt fail with an error no reader catches, so a read that
    parses text instead of taking its sidecar fails."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")
    monkeypatch.setattr(data.np, "loadtxt", refuse)


class TestSidecars:
    @pytest.mark.parametrize("args", [
        ["--per-class", "10"],
        ["--per-class", "150"],
        # every edge type empty
        ["--per-class", "10", "--intra", "0", "--inter", "0"],
    ], ids=["10", "150", "no-edges"])
    def test_sidecar_gives_what_the_parse_gives(self, tmp_path, monkeypatch, args):
        root = _gen(tmp_path / "d", *args)
        with monkeypatch.context() as patch:
            _no_text_parse(patch)
            served = _tables(root)
        sidecars = _drop_sidecars(root)
        text_tables = [p for p in root.rglob("*") if p.suffix in (".tsv", ".csv")]
        assert len(sidecars) == len(text_tables)
        assert served == _tables(root)

    def test_text_edited_to_the_same_length_is_parsed(self, tmp_path):
        root = _gen(tmp_path / "d", "--per-class", "10")
        path = root / "edges" / "target_aux0.tsv"
        lines = path.read_bytes().splitlines(keepends=True)
        # two aux ids of one target node, as long as each other, trade places
        i = next(i for i in range(len(lines) - 1)
                 if lines[i].split(b"\t")[0] == lines[i + 1].split(b"\t")[0]
                 and len(lines[i]) == len(lines[i + 1]))
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
        edited = b"".join(lines)
        assert len(edited) == path.stat().st_size
        path.write_bytes(edited)
        graph, _, _ = load_dataset(root)
        _drop_sidecars(root)
        want = data._parse_int_pair_file(path)
        assert want[i, 1] > want[i + 1, 1]
        np.testing.assert_array_equal(graph.edges["target_aux0"], want)

    @pytest.mark.parametrize("damage", [
        "bad-magic", "truncated-payload", "wrong-width", "header-only",
        "short-header", "unreadable"])
    def test_damaged_sidecar_falls_back_to_the_parse_silently(
            self, tmp_path, monkeypatch, capsys, damage):
        root = _gen(tmp_path / "d", "--per-class", "10")
        capsys.readouterr()
        sidecar = root / "features" / "target.csv.bin"
        blob = sidecar.read_bytes()
        sidecar.unlink()
        want = data._load_features(root / "features", "target", 40, 16)
        head = data._SIDECAR.size
        magic, size, crc, rows, cols = data._SIDECAR.unpack(blob[:head])
        if damage == "bad-magic":
            blob = b"X" + blob[1:]
        elif damage == "truncated-payload":
            blob = blob[:-8]
        elif damage == "wrong-width":
            # as many items as the table holds, split at another width
            blob = data._SIDECAR.pack(magic, size, crc, rows // 2, cols * 2) + blob[head:]
        elif damage == "header-only":
            blob = blob[:head]
        elif damage == "short-header":
            blob = blob[:head - 1]
        if damage == "unreadable":
            sidecar.mkdir()
        else:
            sidecar.write_bytes(blob)
        calls = []
        real = np.loadtxt
        monkeypatch.setattr(data.np, "loadtxt",
                            lambda path, *a, **k: calls.append(path) or real(path, *a, **k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph, _, _ = load_dataset(root)
        assert calls == [root / "features" / "target.csv"]
        assert capsys.readouterr() == ("", "")
        np.testing.assert_array_equal(graph.features["target"], want)

    @pytest.mark.parametrize("keep_sidecars", [True, False])
    def test_load_leaves_the_directory_unchanged(self, tmp_path, keep_sidecars):
        root = _gen(tmp_path / "d", "--per-class", "10")
        if not keep_sidecars:
            _drop_sidecars(root)
        before = _tree_bytes(root)
        load_dataset(root)
        load_path_config(root)
        assert _tree_bytes(root) == before

    def test_gen_made_dataset_loads_without_parsing_text(self, tmp_path, monkeypatch):
        root = _gen(tmp_path / "d", "--per-class", "10")
        want = load_dataset(root)
        _no_text_parse(monkeypatch)
        graph, labels, _ = load_dataset(root)
        for name, pairs in want[0].edges.items():
            np.testing.assert_array_equal(graph.edges[name], pairs)
        np.testing.assert_array_equal(graph.features["target"],
                                      want[0].features["target"])
        np.testing.assert_array_equal(labels, want[1])


def _edit_schema(root: Path, edit) -> None:
    schema = json.loads((root / "schema.json").read_text())
    edit(schema)
    (root / "schema.json").write_text(json.dumps(schema))


def _repeat_first_edge(root: Path) -> None:
    path = root / "edges" / "target_aux0.tsv"
    text = path.read_text()
    path.write_text(text + text.splitlines()[0] + "\n")


def _nan_first_feature(root: Path) -> None:
    path = root / "features" / "target.csv"
    first, rest = path.read_text().split(",", 1)
    path.write_text("nan," + rest)


@pytest.mark.parametrize("corrupt, message", [
    (_repeat_first_edge,
     "duplicate (src, dst) pair in edge type 'target_aux0'"),
    (_nan_first_feature, "non-finite feature value for node type 'target'"),
], ids=["repeated-edge", "nan-feature"])
def test_graph_level_load_error_names_the_dataset(tmp_path, corrupt, message):
    """An error build_graph raises over the tables reaches the caller of
    load_dataset with the dataset directory in front and its class
    unchanged."""
    root = _gen(tmp_path / "d", "--per-class", "10")
    _drop_sidecars(root)
    corrupt(root)
    with pytest.raises(ValidationError) as info:
        load_dataset(root)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"{root}: {message}"



@pytest.mark.parametrize("load, edit, message", [
    # aux0 keeps its edges, whose ids a count of 0 puts out of range
    pytest.param(load_dataset, lambda s: s["node_types"][1].update(count=0),
                 "node type 'aux0' must have count >= 1", id="zero-count"),
    pytest.param(load_dataset,
                 lambda s: s["node_types"].append(s["node_types"][1]),
                 "duplicate node type names", id="repeated-type"),
    pytest.param(load_path_config, lambda s: s.update(max_hops=1),
                 "max_hops must be an integer >= 2, got 1",
                 id="path-config-max-hops-1"),
    pytest.param(load_path_config, lambda s: s.update(
        metapaths=[["target", "aux0", "target"]] * 2),
                 "metapaths[1] repeats the meta-path target->aux0->target",
                 id="path-config-repeated-path"),
])
def test_schema_rule_error_names_the_schema_before_any_table_is_read(
        tmp_path, monkeypatch, load, edit, message):
    """A rule that reads no table is checked on schema.json alone, by
    load_dataset and load_path_config alike, and its error starts with
    that file's path."""
    root = _gen(tmp_path / "d", "--per-class", "10")
    _edit_schema(root, edit)
    reads = []
    real = data._read_table
    monkeypatch.setattr(data, "_read_table",
                        lambda path, *a: reads.append(path) or real(path, *a))
    with pytest.raises(ValidationError) as info:
        load(root)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"{root / 'schema.json'}: {message}"
    assert reads == []

def _assign_labels_loop(path, pairs, n_target):
    """The row-by-row label assignment that data._assign_labels must match."""
    labels = np.zeros(n_target, dtype=np.int64)
    seen = np.zeros(n_target, dtype=bool)
    for row, (node_id, value) in enumerate(pairs, start=1):
        if not (0 <= node_id < n_target):
            raise ValidationError(f"{path}:{row}: node id {node_id} "
                                  f"outside [0, {n_target})")
        if value < 0:
            raise ValidationError(f"{path}:{row}: negative label {value} "
                                  f"for node {node_id}")
        if seen[node_id]:
            raise ValidationError(f"{path}:{row}: duplicate label for "
                                  f"node {node_id}")
        labels[node_id] = value
        seen[node_id] = True
    if not seen.all():
        raise ValidationError(f"{path}: no label for target node "
                              f"{int(np.flatnonzero(~seen)[0])}")
    return labels


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_target=st.integers(1, 5),
       rows=st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 2)), max_size=10))
def test_label_assignment_matches_the_row_loop(tmp_path, n_target, rows):
    pairs = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    # errors name the file line; without blank lines it is the data row
    path = tmp_path / "labels.tsv"
    path.write_text(data._int_pair_text(pairs))
    _assert_same_outcome(
        _outcome(data._assign_labels, path, pairs, n_target),
        _outcome(_assign_labels_loop, path, pairs, n_target))

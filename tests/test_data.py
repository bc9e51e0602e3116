import json
from pathlib import Path

import numpy as np
import pytest

from oodhg import SynthConfig, data, generate_synthetic, load_dataset, make_splits, save_dataset
from oodhg.data import load_path_config
from oodhg.errors import (
    FractionOverflow,
    MissingFile,
    OodClassMissing,
    ParseError,
    ValidationError,
)


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

    def test_fraction_overflow_when_ood_dominates(self):
        labels = np.array([1] * 75 + [0] * 25)
        with pytest.raises(FractionOverflow):
            make_splits(labels, ood_class=1, seed=0)

    def test_fractions_must_sum_below_one(self):
        with pytest.raises(FractionOverflow):
            make_splits(np.array([0, 1]), 1, train_frac=0.8, val_frac=0.3)

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

    def test_roundtrip_csv_exact(self, tmp_path):
        graph, labels = generate_synthetic(SynthConfig(nodes_per_class=15, seed=2))
        splits = make_splits(labels, 3, seed=2)
        save_dataset(tmp_path / "d", graph, labels, splits)
        g2, l2, s2 = load_dataset(tmp_path / "d")
        np.testing.assert_array_equal(graph.features["target"], g2.features["target"])
        np.testing.assert_array_equal(labels, l2)
        np.testing.assert_array_equal(splits.train_ids, s2.train_ids)
        assert s2.ood_class == 3

    def test_f32_roundtrip_bitwise(self, tmp_path):
        graph, labels = generate_synthetic(SynthConfig(nodes_per_class=15, seed=4))
        save_dataset(tmp_path / "d1", graph, labels, feature_format="f32")
        g2, l2, _ = load_dataset(tmp_path / "d1")
        save_dataset(tmp_path / "d2", g2, l2, feature_format="f32")
        a = (tmp_path / "d1" / "features" / "target.f32").read_bytes()
        b = (tmp_path / "d2" / "features" / "target.f32").read_bytes()
        assert a == b

    def test_missing_schema(self, tmp_path):
        with pytest.raises(MissingFile):
            load_dataset(tmp_path)

    def test_edge_schema_with_unknown_type_names_the_file(self, tmp_path, mini_dataset_dir):
        import shutil
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        schema = json.loads((dst / "schema.json").read_text())
        schema["edge_types"].append({"name": "ghost", "src": "user", "dst": "nowhere"})
        (dst / "schema.json").write_text(json.dumps(schema))
        with pytest.raises(ValidationError, match="schema.json"):
            load_dataset(dst)

    def test_out_of_range_edge_names_file_and_line(self, tmp_path, mini_dataset_dir):
        import shutil
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        (dst / "edges" / "user_item.tsv").write_text("0\t0\n9\t0\n")
        with pytest.raises(ValidationError, match=r"user_item\.tsv:2"):
            load_dataset(dst)

    def test_non_integer_edge_is_parse_error(self, tmp_path, mini_dataset_dir):
        import shutil
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        (dst / "edges" / "user_item.tsv").write_text("0\tx\n")
        with pytest.raises(ParseError, match=r"user_item\.tsv:1"):
            load_dataset(dst)

    def test_missing_label_row_rejected(self, tmp_path, mini_dataset_dir):
        import shutil
        dst = tmp_path / "bad"
        shutil.copytree(mini_dataset_dir, dst)
        (dst / "labels.tsv").write_text("0\t0\n1\t0\n")
        with pytest.raises(ValidationError, match="labels.tsv"):
            load_dataset(dst)

    def test_overlapping_splits_rejected(self, tmp_path, mini_dataset_dir):
        import shutil
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

    def test_explicit_metapaths_override_enumeration(self, tmp_path):
        from oodhg.pipeline import resolve_paths
        graph, labels = generate_synthetic(SynthConfig(nodes_per_class=10, seed=1))
        save_dataset(tmp_path / "d", graph, labels,
                     schema_extra={"metapaths": [["target", "aux1", "target"]]})
        g2, _, _ = load_dataset(tmp_path / "d")
        metapaths, max_hops = load_path_config(tmp_path / "d")
        assert metapaths == [("target", "aux1", "target")]
        feat, prop = resolve_paths(g2, metapaths, max_hops)
        assert [p.types for p in prop] == [("target", "aux1", "target")]
        assert [p.types for p in feat] == [("target", "aux1", "target")]

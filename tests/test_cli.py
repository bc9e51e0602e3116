import argparse
import ast
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodhg import cli, hetgraph
from oodhg.cli import main
from oodhg.model import TRAIN_CONFIG_KINDS
from oodhg.pipeline import load_checkpoint

GEN = ["gen", "--classes", "3", "--per-class", "25", "--seed", "7"]
FAST = ["--epochs", "5", "--hidden", "8"]


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def dataset(tmp_path) -> Path:
    out = tmp_path / "data"
    assert main(GEN + ["-o", str(out)]) == 0
    return out


class TestGen:
    def test_same_flags_identical_directories(self, tmp_path):
        assert main(GEN + ["-o", str(tmp_path / "a")]) == 0
        assert main(GEN + ["-o", str(tmp_path / "b")]) == 0
        assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")

    def test_output_validates_under_loader(self, dataset):
        from oodhg import load_dataset
        graph, labels, _ = load_dataset(dataset)
        assert graph.target_count == 100
        assert labels.max() == 3

    def test_refuses_nonempty_directory(self, dataset, capsys):
        assert main(GEN + ["-o", str(dataset)]) == 2
        assert "not empty" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_shift_is_one_line_error(self, tmp_path, capsys, value):
        out = tmp_path / "data"
        assert main(GEN + ["--shift", value, "-o", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: ood_shift must be finite, got {value}"]
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--classes", "1"], "n_id_classes must be >= 2, got 1"),
        (["--per-class", "0"],
         "nodes_per_class, n_aux_types, feature_dim must be >= 1"),
        (["--intra", "1.5"], "edge probability 1.5 outside [0, 1]"),
        (["--shift", "-1"], "ood_shift must be >= 0, got -1.0"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["classes", "per-class", "intra", "shift", "seed"])
    def test_refused_config_value_is_one_line_error(self, tmp_path, capsys,
                                                    flags, message):
        out = tmp_path / "data"
        assert main(GEN + flags + ["-o", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_takes_no_feature_format(self, tmp_path):
        """Features are written only as csv."""
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as exc:
            main(GEN + ["--feature-format", "f32", "-o", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestTrain:
    def test_missing_ood_class_is_an_error(self, dataset, tmp_path, capsys):
        code = main(["train", "--data", str(dataset),
                     "--out", str(tmp_path / "run")] + FAST)
        assert code == 2
        assert "--ood-class" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 745. GiB for an array with shape "
                     "(1000, 100000000000) and data type float64"),
         "error: out of memory: Unable to allocate 745. GiB for an array "
         "with shape (1000, 100000000000) and data type float64"),
        (MemoryError(), "error: out of memory")], ids=["numpy", "bare"])
    def test_out_of_memory_is_one_line_error(self, dataset, tmp_path, capsys,
                                              monkeypatch, exc, line):
        # the command's training call raises; nothing is allocated for real
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "train", fail)
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--hidden", "100000000000", "--epochs", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    def test_defaults_mirror_protocol(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--seed", "0", "--out", str(out)]) == 0
        ckpt = json.loads((out / "checkpoint.json").read_text())
        assert ckpt["format"] == "oodhg-ckpt-v1"
        assert ckpt["train_config"]["learning_rate"] == 1e-3
        assert ckpt["train_config"]["epochs"] == 50
        assert ckpt["train_config"]["m_in"] == -3.0
        history = json.loads((out / "history.json").read_text())
        assert len(history["epochs"]) == 50

    def test_outputs_and_checkpoint_roundtrip(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--out", str(out)] + FAST) == 0
        for name in ("checkpoint.json", "history.json", "splits.json"):
            assert (out / name).is_file()
        ckpt = load_checkpoint(out / "checkpoint.json")
        assert ckpt.params.n_classes == 3
        assert [p.types for p in ckpt.params.prop_paths] == [
            ("target", "aux0", "target"), ("target", "aux1", "target")]

    def test_library_train_uses_the_schema_paths_as_the_cli_does(
            self, dataset, tmp_path):
        from oodhg import TrainConfig, load_dataset, make_splits, train
        from oodhg.pipeline import save_checkpoint
        schema = json.loads((dataset / "schema.json").read_text())
        schema["metapaths"] = [["target", "aux0", "target"]]
        (dataset / "schema.json").write_text(json.dumps(schema))
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--out", str(run)] + FAST) == 0
        graph, labels, _ = load_dataset(dataset)
        cfg = TrainConfig(epochs=5, d_hidden=8)
        params, _ = train(graph, labels, make_splits(labels, 3, seed=0), cfg)
        save_checkpoint(tmp_path / "library.json", params, cfg, 3)
        assert [p.types for p in params.prop_paths] == [
            ("target", "aux0", "target")]
        assert ((tmp_path / "library.json").read_bytes()
                == (run / "checkpoint.json").read_bytes())

    @pytest.mark.parametrize("command", [
        ["train", "--ood-class", "3", "--out", "run"] + FAST,
        ["ablate", "--ood-class", "3", "--seeds", "0"] + FAST,
        ["sweep", "--ood-class", "3", "--param", "gamma", "--grid", "0.5",
         "--seeds", "0"] + FAST,
        ["bench"],
    ], ids=["train", "ablate", "sweep", "bench"])
    def test_each_command_reads_the_schema_once(self, dataset, tmp_path,
                                                monkeypatch, command):
        from oodhg import data
        reads = []
        real = data._read_schema
        monkeypatch.setattr(data, "_read_schema",
                            lambda root: reads.append(root) or real(root))
        # bench reads the schema once whatever it times; only bench reads
        # the grid
        monkeypatch.setattr(cli, "_BENCH_STEPS", (1, 2))
        monkeypatch.chdir(tmp_path)
        assert main(command[:1] + ["--data", str(dataset)] + command[1:]) == 0
        assert reads == [dataset]

    @pytest.mark.parametrize("label", [-1, -2])
    def test_negative_label_is_one_line_error(self, dataset, tmp_path, capsys,
                                              label):
        path = dataset / "labels.tsv"
        lines = path.read_text().splitlines()
        node = lines[4].split("\t")[0]
        lines[4] = f"{node}\t{label}"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--out", str(out)] + FAST) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}:5: negative label {label} for node {node}"]
        assert not out.exists()

    def test_config_file_and_flag_precedence(self, dataset, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epochs": 3, "alpha": 0.25}))
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--config", str(cfg_file), "--alpha", "0.75",
                     "--out", str(out)]) == 0
        ckpt = json.loads((out / "checkpoint.json").read_text())
        assert ckpt["train_config"]["epochs"] == 3       # from file
        assert ckpt["train_config"]["alpha"] == 0.75     # flag wins

    def test_config_echo_replays_byte_for_byte(self, dataset, tmp_path):
        first = tmp_path / "first"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--lr", "0.05", "--seed", "4", "--out", str(first)]
                    + FAST) == 0
        echo = json.loads((first / "history.json").read_text())["config_echo"]
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(echo["train_config"]))
        replay = tmp_path / "replay"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--config", str(cfg_file), "--out", str(replay)]) == 0
        assert ((replay / "checkpoint.json").read_bytes()
                == (first / "checkpoint.json").read_bytes())

    @pytest.mark.parametrize("content, needle", [
        ({"lr": 0.05}, "'lr'"),
        ({"epochs": 2.5}, "'epochs'"),
        ([1, 2], "JSON object"),
        ({"seeds": [3, 4]}, "'seeds'"),
        ({"seed": -1}, "cfg.json: seed must be >= 0, got -1"),
        (b"{", "cfg.json: invalid JSON"),
        (b"\xff", "cfg.json: byte 0 is not valid UTF-8"),
    ])
    def test_bad_config_file_is_one_line_error(self, dataset, tmp_path,
                                               capsys, content, needle):
        cfg_file = tmp_path / "cfg.json"
        if isinstance(content, bytes):
            cfg_file.write_bytes(content)
        else:
            cfg_file.write_text(json.dumps(content))
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--config", str(cfg_file),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and needle in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_is_one_line_error(self, dataset, tmp_path,
                                                        capsys, value):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--lr", value, "--out", str(out)] + FAST) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: learning_rate must be finite, got {value}"]
        assert not out.exists()

    # eval reads a checkpoint's seed only when it fits int64
    @pytest.mark.parametrize("seed, message", [
        ("-1", "seed must be >= 0, got -1"),
        (str(2 ** 63), f"seed must be < 2**63, got {2 ** 63}"),
    ], ids=["negative", "beyond-int64"])
    def test_seed_outside_int64_range_is_one_line_error(
            self, dataset, tmp_path, capsys, seed, message):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--seed", seed, "--out", str(out)] + FAST) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_label_only_in_the_test_split_is_one_line_error(
            self, tmp_path, capsys, command):
        # with 2 nodes per class, seed 1's split trains on node 2 only and
        # leaves class 0 to the test split, where eval could not score it
        data, out = tmp_path / "data", tmp_path / "run"
        assert main(["gen", "--classes", "2", "--per-class", "2",
                     "--seed", "1", "-o", str(data)]) == 0
        capsys.readouterr()
        assert main([command, "--data", str(data), "--ood-class", "2",
                     "--epochs", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: test label 0 is neither a train/val class nor the "
            "held-out class 2"]
        assert not out.exists()

    def test_divergent_training_stops_without_checkpoint(self, dataset,
                                                         tmp_path, capsys):
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--data", str(dataset), "--ood-class", "3",
                         "--lr", "1e300", "--epochs", "5",
                         "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "diverged at epoch" in err
        assert not (out / "checkpoint.json").exists()


class TestEval:
    @pytest.fixture
    def trained(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--out", str(out)] + FAST) == 0
        return out

    def test_metrics_schema_and_scores_rows(self, dataset, trained, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--ckpt", str(trained / "checkpoint.json"),
                     "--data", str(dataset), "--ood-class", "3",
                     "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        for key in ("auroc", "aupr", "fpr95", "micro_f1", "macro_f1", "tau",
                    "n_train", "n_val", "n_test", "n_ood", "config_echo"):
            assert key in metrics
        assert metrics["tau"] == 1.0
        assert metrics["config_echo"]["tau_source"] == "default"
        lines = (out / "scores.tsv").read_text().strip().splitlines()
        assert len(lines) - 1 == metrics["n_test"]
        assert lines[0] == "node_id\tenergy\tmax_softmax\tpredicted\tgold"
        # every row must be machine-readable plain decimals
        for line in lines[1:]:
            node, energy, soft, pred, gold = line.split("\t")
            int(node), float(energy), float(soft), int(pred), int(gold)
        raw = (out / "raw_energy.tsv").read_text().strip().splitlines()
        assert len(raw) - 1 == 100  # every target node
        for line in raw[1:]:
            node, e_raw, e_final = line.split("\t")
            int(node), float(e_raw), float(e_final)

    def test_explicit_tau_honored_verbatim(self, dataset, trained, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--ckpt", str(trained / "checkpoint.json"),
                     "--data", str(dataset), "--ood-class", "3",
                     "--tau", "1.45", "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["tau"] == 1.45
        assert metrics["config_echo"]["tau_source"] == "flag"

    def test_stdout_prints_tau_as_given(self, dataset, trained, tmp_path,
                                        capsys):
        """A tau below 0.005 is not rounded to 0.00 on stdout."""
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(trained / "checkpoint.json"),
                     "--data", str(dataset), "--tau", "0.004",
                     "--out", str(tmp_path / "eval")]) == 0
        assert capsys.readouterr().out.startswith("tau=0.004 ")

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_is_one_line_error(self, dataset, trained,
                                              tmp_path, capsys, tau):
        assert main(["eval", "--ckpt", str(trained / "checkpoint.json"),
                     "--data", str(dataset), "--ood-class", "3",
                     "--tau", tau, "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "tau must be finite" in err

    def test_byte_identical_reruns(self, dataset, trained, tmp_path):
        outs = []
        for sub in ("e1", "e2"):
            out = tmp_path / sub
            assert main(["eval", "--ckpt", str(trained / "checkpoint.json"),
                         "--data", str(dataset), "--ood-class", "3",
                         "--out", str(out)]) == 0
            outs.append((out / "metrics.json").read_bytes())
        assert outs[0] == outs[1]

    def test_schema_path_settings_are_checked_on_load(self, dataset, trained,
                                                       tmp_path, capsys):
        schema = json.loads((dataset / "schema.json").read_text())
        schema["metapaths"] = [["target", "aux0", "target"]] * 2
        (dataset / "schema.json").write_text(json.dumps(schema))
        assert main(["eval", "--ckpt", str(trained / "checkpoint.json"),
                     "--data", str(dataset), "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {dataset}: metapaths[1] repeats the meta-path "
            f"target->aux0->target"]

    def test_held_out_class_defaults_to_the_checkpoints(self, dataset,
                                                        trained, tmp_path):
        outs = []
        for sub, flag in (("flag", ["--ood-class", "3"]), ("default", [])):
            out = tmp_path / sub
            assert main(["eval", "--ckpt", str(trained / "checkpoint.json"),
                         "--data", str(dataset), "--out", str(out)]
                        + flag) == 0
            outs.append((out / "scores.tsv").read_bytes())
        assert outs[0] == outs[1]


class TestAblate:
    def test_four_arms(self, dataset, tmp_path, capsys):
        out = tmp_path / "ab"
        assert main(["ablate", "--data", str(dataset), "--ood-class", "3",
                     "--seeds", "0,1", "--out", str(out)] + FAST) == 0
        payload = json.loads((out / "ablation.json").read_text())
        arms = [row["arm"] for row in payload["arms"]]
        assert arms == ["no_ep_no_le", "no_le", "no_ep", "full"]
        for row in payload["arms"]:
            assert len(row["per_seed"]) == 2
            assert "std" in row["summary"]["auroc"]

    def test_per_seed_rows_follow_the_given_seed_order(self, dataset,
                                                        tmp_path):
        def ablate(seeds):
            out = tmp_path / seeds.replace(",", "_")
            assert main(["ablate", "--data", str(dataset), "--ood-class", "3",
                         "--seeds", seeds, "--out", str(out)] + FAST) == 0
            return json.loads((out / "ablation.json").read_text())

        both = ablate("1,0")
        assert both["config_echo"]["seeds"] == [1, 0]
        singles = [ablate(s) for s in ("1", "0")]
        for i, arm in enumerate(both["arms"]):
            rows = [one["arms"][i]["per_seed"][0] for one in singles]
            assert rows[0] != rows[1]
            assert arm["per_seed"] == rows

    def test_rejects_degenerate_alpha(self, dataset, tmp_path, capsys):
        assert main(["ablate", "--data", str(dataset), "--ood-class", "3",
                     "--alpha", "1.0"] + FAST) == 2
        assert "alpha" in capsys.readouterr().err

    def test_rejects_zero_steps(self, dataset, capsys):
        assert main(["ablate", "--data", str(dataset), "--ood-class", "3",
                     "--steps", "0"] + FAST) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: ablate needs steps >= 1 so the propagation arms differ"]

    def test_rejects_gamma_one(self, dataset, capsys):
        """At gamma 1 propagation returns its input, so full would equal
        no_ep and no_le would equal no_ep_no_le."""
        assert main(["ablate", "--data", str(dataset), "--ood-class", "3",
                     "--gamma", "1"] + FAST) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: ablate needs gamma < 1 so the propagation arms differ"]

    @pytest.mark.parametrize("command", [
        ["ablate"], ["sweep", "--param", "gamma", "--grid", "0.3,0.7"]],
        ids=["ablate", "sweep-gamma"])
    def test_each_seeds_splits_are_made_once_before_training(
            self, dataset, monkeypatch, command):
        events = []
        real_splits, real_train = cli.make_splits, cli.train

        def splits(*args, seed, **kwargs):
            events.append(("splits", seed))
            return real_splits(*args, seed=seed, **kwargs)

        def training(*args, **kwargs):
            events.append(("train",))
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "make_splits", splits)
        monkeypatch.setattr(cli, "train", training)
        assert main(command + ["--data", str(dataset), "--ood-class", "3",
                               "--seeds", "4,1"] + FAST) == 0
        assert events[:3] == [("splits", 4), ("splits", 1), ("train",)]
        assert events.count(("train",)) == len(events) - 2

    @pytest.mark.parametrize("command, out_file", [
        (["ablate"], "ablation.json"),
        (["sweep", "--param", "alpha", "--grid", "0.5,1.0"], "sweep.json"),
    ], ids=["ablate", "sweep-alpha"])
    def test_alpha_one_points_train_without_propagating(
            self, dataset, tmp_path, monkeypatch, command, out_file):
        """With alpha 1 the energy term has weight 0, so its steps cannot
        change the parameters: such points train with steps 0, and their
        rows are those of trainings that propagate."""
        real_train = cli.train
        calls = []

        def recorded(graph, labels, splits, cfg, *args, **kwargs):
            calls.append((cfg.alpha, cfg.steps))
            return real_train(graph, labels, splits, cfg, *args, **kwargs)

        def propagating(graph, labels, splits, cfg, *args, **kwargs):
            if cfg.alpha == 1.0:
                cfg = dataclasses.replace(cfg, steps=2)
            return real_train(graph, labels, splits, cfg, *args, **kwargs)

        argv = command + ["--data", str(dataset), "--ood-class", "3",
                          "--seeds", "0,1", "--steps", "2"] + FAST
        monkeypatch.setattr(cli, "train", recorded)
        assert main(argv + ["--out", str(tmp_path / "fast")]) == 0
        assert {steps for alpha, steps in calls if alpha == 1.0} == {0}
        assert (0.5, 2) in calls
        monkeypatch.setattr(cli, "train", propagating)
        assert main(argv + ["--out", str(tmp_path / "slow")]) == 0
        assert ((tmp_path / "fast" / out_file).read_bytes()
                == (tmp_path / "slow" / out_file).read_bytes())

    def test_bad_seeds_entry_fails_before_training(self, dataset, monkeypatch,
                                                   capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("ablate trained before checking its seeds")
        monkeypatch.setattr(cli, "train", no_training)
        assert main(["ablate", "--data", str(dataset), "--ood-class", "3",
                     "--seeds", "1,2,3,-1"] + FAST) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --seeds: seed must be >= 0, got -1"]

    def test_empty_seed_list_is_one_line_error(self, dataset, capsys):
        assert main(["ablate", "--data", str(dataset), "--ood-class", "3",
                     "--seeds", ","] + FAST) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "seed list is empty" in err

    @pytest.mark.parametrize("seeds", [3, 0, {"a": 1}, [1, "2"], [0.5], [True]])
    def test_ill_typed_config_seeds_is_one_line_error(self, dataset, tmp_path,
                                                      capsys, seeds):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seeds": seeds}))
        assert main(["ablate", "--data", str(dataset), "--ood-class", "3",
                     "--config", str(cfg_file)] + FAST) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "cfg.json: 'seeds" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_seed_fails_before_training(self, dataset, tmp_path,
                                                 monkeypatch, capsys, source):
        """A repeated seed would count one training twice in the summary."""
        def no_training(*args, **kwargs):
            raise AssertionError("ablate trained before checking its seeds")
        monkeypatch.setattr(cli, "train", no_training)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seeds": [2, 0, 2]}))
        seeds = (["--seeds", "2,0,2"] if source == "flag"
                 else ["--config", str(cfg_file)])
        assert main(["ablate", "--data", str(dataset), "--ood-class", "3"]
                    + seeds + FAST) == 2
        where = "--seeds" if source == "flag" else str(cfg_file)
        assert capsys.readouterr().err.splitlines() == [
            f"error: {where}: seed 2 is listed twice"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", [
        ["ablate"], ["sweep", "--param", "gamma", "--grid", "0.3"]],
        ids=["ablate", "sweep"])
    def test_seed_flag_under_a_seed_list_fails_before_training(
            self, dataset, tmp_path, monkeypatch, capsys, command, source):
        """The seed list picks the seeds that train, so --seed would only
        be echoed."""
        def no_training(*args, **kwargs):
            raise AssertionError("trained with an overridden --seed")
        monkeypatch.setattr(cli, "train", no_training)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seeds": [1, 2]}))
        seeds = (["--seeds", "1,2"] if source == "flag"
                 else ["--config", str(cfg_file)])
        assert main(command + ["--data", str(dataset), "--ood-class", "3",
                               "--seed", "5"] + seeds + FAST) == 2
        where = "--seeds" if source == "flag" else str(cfg_file)
        assert capsys.readouterr().err.splitlines() == [
            f"error: --seed conflicts with the seed list of {where}"]

    def test_config_seed_under_a_seed_list_is_echoed(self, dataset,
                                                     tmp_path):
        """A config file's seed stays allowed beside a seed list, so an
        echo replays as a config."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 5, "seeds": [1]}))
        out = tmp_path / "ab"
        assert main(["ablate", "--data", str(dataset), "--ood-class", "3",
                     "--config", str(cfg_file), "--out", str(out)]
                    + FAST) == 0
        echo = json.loads((out / "ablation.json").read_text())["config_echo"]
        assert echo["seeds"] == [1] and echo["train_config"]["seed"] == 5


class TestSweep:
    def test_gamma_grid(self, dataset, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--data", str(dataset), "--ood-class", "3",
                     "--param", "gamma", "--grid", "0.3,0.7",
                     "--seeds", "0", "--out", str(out)] + FAST) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert [v["value"] for v in payload["values"]] == [0.3, 0.7]
        assert payload["config_echo"]["param"] == "gamma"

    def test_default_grid_without_grid_flag(self, dataset, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--data", str(dataset), "--ood-class", "3",
                     "--param", "steps", "--seeds", "0", "--epochs", "2",
                     "--hidden", "8", "--out", str(out)]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert [v["value"] for v in payload["values"]] == [0, 1, 2, 4, 8]

    def test_steps_grid_values_are_integers(self, dataset, tmp_path, capsys):
        """--grid entries take the kind of the swept field, as the default
        grid does, in sweep.json and on stdout."""
        out = tmp_path / "sw"
        assert main(["sweep", "--data", str(dataset), "--ood-class", "3",
                     "--param", "steps", "--grid", "0,2", "--seeds", "0",
                     "--out", str(out)] + FAST) == 0
        payload = json.loads((out / "sweep.json").read_text())
        grid = payload["config_echo"]["grid"]
        values = [v["value"] for v in payload["values"]]
        assert grid == values == [0, 2]
        assert all(type(v) is int for v in grid + values)
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0] == "sweep over steps: 0  2"
        assert stdout[1].startswith("  steps=0: ")

    def test_default_gamma_grid_matches_axis(self, dataset, tmp_path):
        from oodhg.cli import _SWEEP_DEFAULT_GRIDS
        assert _SWEEP_DEFAULT_GRIDS["gamma"] == [
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

    def test_tau_sweep_trains_once_per_seed(self, dataset, tmp_path,
                                            monkeypatch):
        from oodhg import TrainConfig, load_dataset, make_splits
        from oodhg.pipeline import summarize_metric_rows
        calls = {"train": 0, "evaluate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(cli, "train", counted("train", cli.train))
        monkeypatch.setattr(cli, "evaluate", counted("evaluate", cli.evaluate))
        out = tmp_path / "sw"
        taus = [1.0, 1.5, 2.0]
        assert main(["sweep", "--data", str(dataset), "--ood-class", "3",
                     "--param", "tau", "--grid", "1.0,1.5,2.0",
                     "--seeds", "0,1", "--out", str(out)] + FAST) == 0
        assert calls == {"train": 2, "evaluate": 2}

        # reference: one evaluate per tau, as the sweep once ran
        monkeypatch.undo()
        graph, labels, _ = load_dataset(dataset)
        tables = []
        for seed in (0, 1):
            cfg = TrainConfig(epochs=5, d_hidden=8, seed=seed)
            splits = make_splits(labels, 3, seed=seed)
            params, _ = cli.train(graph, labels, splits, cfg)
            reports = [cli.evaluate(graph, labels, splits, params, cfg, tau)
                       for tau in taus]
            tables.append([{k: r.metrics[k] for k in cli._HEADLINE}
                           | {"tau": r.tau} for r in reports])
        reference = []
        for i, tau in enumerate(taus):
            rows = [table[i] for table in tables]
            reference.append({"value": tau, "per_seed": rows,
                              "summary": summarize_metric_rows(rows)})
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["values"] == json.loads(json.dumps(reference))

    @pytest.mark.parametrize("flags, needle", [
        (["--param", "gamma", "--seeds", ","], "seed list is empty"),
        (["--param", "steps", "--grid", ""], "--grid lists no value"),
        (["--param", "gamma", "--seeds", "0,abc"],
         "--seeds entry must be an integer, got 'abc'"),
    ])
    def test_empty_list_is_one_line_error(self, dataset, capsys, flags,
                                          needle):
        assert main(["sweep", "--data", str(dataset), "--ood-class", "3"]
                    + flags + FAST) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and needle in err


    @pytest.mark.parametrize("param, grid, needle", [
        ("tau", "1.0,nan", "tau must be finite"),
        ("gamma", "0.5,0", "gamma must be in (0, 1], got 0.0"),
        ("steps", "2,-1", "steps must be >= 0, got -1"),
        ("steps", "1.5", "--grid entry must be an integer, got '1.5'"),
        ("steps", "2.0", "--grid entry must be an integer, got '2.0'"),
        ("alpha", "0.5,2", "alpha must be in [0, 1], got 2.0"),
        ("m_in", "0,nan", "m_in must be finite, got nan"),
        ("gamma", "0.3,abc", "--grid entry must be a number, got 'abc'"),
    ], ids=["tau", "gamma", "steps", "steps-fraction", "steps-float",
            "alpha", "m_in", "not-a-number"])
    def test_non_finite_tau_grid_fails_before_training(
            self, dataset, monkeypatch, capsys, param, grid, needle):
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained before checking its grid")
        monkeypatch.setattr(cli, "train", no_training)
        assert main(["sweep", "--data", str(dataset), "--ood-class", "3",
                     "--param", param, "--grid", grid,
                     "--seeds", "0"] + FAST) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and needle in err

    @pytest.mark.parametrize("param, grid, value", [
        ("gamma", "0.3,0.7,0.30", "0.3"),
        ("steps", "2,0,2", "2"),
        ("tau", "1,1.0", "1.0"),
    ], ids=["gamma", "steps", "tau"])
    def test_repeated_grid_value_fails_before_training(
            self, dataset, monkeypatch, capsys, param, grid, value):
        """Values are compared in the swept field's kind, so tau 1 and
        1.0 are one value; a repeat would train and write it twice."""
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained before checking its grid")
        monkeypatch.setattr(cli, "train", no_training)
        assert main(["sweep", "--data", str(dataset), "--ood-class", "3",
                     "--param", param, "--grid", grid,
                     "--seeds", "0"] + FAST) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --grid: value {value} is listed twice"]

    @pytest.mark.parametrize("param, flag, value", [
        ("gamma", "--gamma", "0.3"),
        ("steps", "--steps", "1"),
        ("alpha", "--alpha", "0.5"),
        ("m_in", "--m-in", "-2"),
    ], ids=["gamma", "steps", "alpha", "m_in"])
    @pytest.mark.parametrize("grid", [[], ["--grid", "0.5"]],
                             ids=["default-grid", "grid"])
    def test_swept_fields_flag_fails_before_training(
            self, dataset, monkeypatch, capsys, param, flag, value, grid):
        """Every point sets the swept field from the grid, so its flag
        would only be echoed."""
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained with an overridden flag")
        monkeypatch.setattr(cli, "train", no_training)
        assert main(["sweep", "--data", str(dataset), "--ood-class", "3",
                     "--param", param, flag, value, "--seeds", "0"]
                    + grid + FAST) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {flag} conflicts with --param {param}, whose values "
            f"come from the grid"]

    @pytest.mark.parametrize("param, grid, field, value, need", [
        ("gamma", "0.3,0.7", "steps", 0, "steps >= 1"),
        ("steps", "1,2", "gamma", 1.0, "gamma < 1"),
        ("m_in", "-3,-1", "alpha", 1.0, "alpha < 1"),
    ], ids=["gamma", "steps", "m_in"])
    def test_inert_param_fails_before_training(
            self, dataset, tmp_path, monkeypatch, capsys, param, grid, field,
            value, need):
        """With steps 0 or gamma 1 nothing propagates, and with alpha 1
        the energy loss, and so m_in, has no weight: every point would
        train and score alike. The base is set by flag, then by --config."""
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained a grid whose points match")
        monkeypatch.setattr(cli, "train", no_training)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({field: value}))
        for base in ([cli._FLAGS[field], str(value)],
                     ["--config", str(cfg_file)]):
            assert main(["sweep", "--data", str(dataset), "--ood-class", "3",
                         "--param", param, "--grid", grid, "--seeds", "0,1"]
                        + base + FAST) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: sweep --param {param} needs {need} "
                f"so its points differ"]


class TestParser:
    @staticmethod
    def _actions(command: str) -> list:
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return sub.choices[command]._actions

    @pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
    def test_train_config_fields_are_the_flags_dests_and_types(self, command):
        """Each TrainConfig field is set by exactly one flag, whose dest is
        the field and whose type is the field's kind."""
        actions = self._actions(command)
        for field, kind in TRAIN_CONFIG_KINDS.items():
            setters = [a for a in actions if a.dest == field]
            assert len(setters) == 1, field
            assert setters[0].option_strings and setters[0].type is kind

    def test_sweep_params_are_the_default_grids(self):
        param = next(a for a in self._actions("sweep") if a.dest == "param")
        assert list(param.choices) == list(cli._SWEEP_DEFAULT_GRIDS)


class TestSettledStop:
    """ablate and sweep end each training at its first epoch with validation
    micro-F1 1.0; their outputs are those of trainings run to the end."""

    # at learning rate 0.05, seed 2 settles in every arm and seed 1 in none
    FLAGS = ["--seeds", "1,2", "--epochs", "12", "--hidden", "8",
             "--lr", "0.05"]

    @pytest.mark.parametrize("command, out_file", [
        (["ablate"], "ablation.json"),
        (["sweep", "--param", "gamma", "--grid", "0.3,0.7"], "sweep.json"),
    ], ids=["ablate", "sweep-gamma"])
    def test_same_bytes_as_full_trainings(self, dataset, tmp_path,
                                          monkeypatch, command, out_file):
        real_train = cli.train
        lengths = []

        def recorded(*args, **kwargs):
            params, history = real_train(*args, **kwargs)
            lengths.append(len(history))
            return params, history

        def full(*args, stop_when_settled=False):
            return recorded(*args)

        argv = command + ["--data", str(dataset), "--ood-class", "3"] + self.FLAGS
        monkeypatch.setattr(cli, "train", recorded)
        assert main(argv + ["--out", str(tmp_path / "stopped")]) == 0
        stopped = lengths[:]
        lengths.clear()
        monkeypatch.setattr(cli, "train", full)
        assert main(argv + ["--out", str(tmp_path / "full")]) == 0
        assert set(lengths) == {12}
        assert min(stopped) < 12 and max(stopped) == 12
        assert ((tmp_path / "stopped" / out_file).read_bytes()
                == (tmp_path / "full" / out_file).read_bytes())


class TestBench:
    def test_report_fields_and_cold_at_least_warm(self, dataset, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--data", str(dataset), "--out", str(out)]) == 0
        report = json.loads((out / "bench.json").read_text())
        assert report["n_target"] == 100
        assert set(report["propagate_warm_s"]) == {"1", "2", "4", "8"}
        assert report["compose_cold_s"] >= report["propagate_warm_s"]["1"]

    def test_builds_on_a_fresh_graph(self, dataset, monkeypatch):
        """The cold builds never empty or fill the graph the dataset gave."""
        loaded, seen = [], []
        load, kernel = cli.load_dataset, hetgraph.hop_kernel

        def recording_load(path):
            graph, labels, splits = load(path)
            loaded.append(graph)
            return graph, labels, splits

        def recording_kernel(graph, src, dst):
            seen.append(graph)
            return kernel(graph, src, dst)

        monkeypatch.setattr(cli, "load_dataset", recording_load)
        monkeypatch.setattr(hetgraph, "hop_kernel", recording_kernel)
        # every cold build is the same whatever the grid; two steps suffice
        monkeypatch.setattr(cli, "_BENCH_STEPS", (1, 2))
        assert main(["bench", "--data", str(dataset)]) == 0
        assert len(loaded) == 1 and seen
        assert all(graph is not loaded[0] for graph in seen)

    def test_takes_no_ood_class(self, dataset):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--data", str(dataset), "--ood-class", "99"])
        assert exc.value.code == 2

    def test_takes_no_gamma(self, dataset):
        """Every gamma in (0, 1) does the same hop work, so bench times its
        default 0.5 and has no flag for it."""
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--data", str(dataset), "--gamma", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--k-list", "1"], ["--repeats", "1"]],
                             ids=["k-list", "repeats"])
    def test_takes_no_grid_flags(self, dataset, flags):
        """bench times one fixed grid of steps and repeats."""
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--data", str(dataset)] + flags)
        assert exc.value.code == 2


class TestOodClassWithSplitsFile:
    """A given --ood-class must be the held-out class of the dataset's
    splits.json, and for eval that of its checkpoint; it is never silently
    ignored."""

    @pytest.fixture
    def split_dataset(self, tmp_path):
        from oodhg import (SynthConfig, generate_synthetic, make_splits,
                           save_dataset)
        graph, labels = generate_synthetic(SynthConfig(nodes_per_class=20))
        return save_dataset(tmp_path / "data", graph, labels,
                            make_splits(labels, 3, seed=0))

    def _one_line_error(self, capsys, flag):
        assert capsys.readouterr().err.splitlines() == [
            f"error: held-out class {flag} differs from held-out class 3 of "
            "the dataset's splits.json"]

    def test_train(self, split_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(split_dataset), "--ood-class",
                     "2", "--out", str(out)] + FAST) == 2
        self._one_line_error(capsys, 2)
        assert not out.exists()

    def test_ablate(self, split_dataset, tmp_path, capsys):
        out = tmp_path / "ab"
        assert main(["ablate", "--data", str(split_dataset), "--ood-class",
                     "1", "--seeds", "0", "--out", str(out)] + FAST) == 2
        self._one_line_error(capsys, 1)
        assert not out.exists()

    def test_eval(self, split_dataset, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(split_dataset),
                     "--out", str(run)] + FAST) == 0
        ckpt = str(run / "checkpoint.json")
        assert load_checkpoint(ckpt).ood_class == 3
        capsys.readouterr()
        # the flag is checked against the checkpoint, before the dataset
        assert main(["eval", "--ckpt", ckpt, "--data", str(split_dataset),
                     "--ood-class", "2", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --ood-class 2 differs from held-out class 3 of the "
            f"checkpoint {ckpt}"]
        # without the flag, a checkpoint that holds out another class than
        # the splits file is reported as before
        ckpt_json = json.loads(Path(ckpt).read_text())
        ckpt_json["ood_class"] = 2
        Path(ckpt).write_text(json.dumps(ckpt_json))
        assert main(["eval", "--ckpt", ckpt, "--data", str(split_dataset),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: held-out class 2 differs from held-out class 3 of the "
            "dataset's splits.json"]


class TestNegativeListValues:
    """A list flag whose first value is negative takes it as the "=" form
    does; argparse alone would read "-5,-1" as an unknown flag."""

    def test_space_and_equals_forms_write_the_same_sweep(self, dataset,
                                                         tmp_path):
        base = ["sweep", "--data", str(dataset), "--ood-class", "3",
                "--param", "m_in", "--seeds", "0"] + FAST
        assert main(base + ["--grid", "-5,-1",
                            "--out", str(tmp_path / "space")]) == 0
        assert main(base + ["--grid=-5,-1",
                            "--out", str(tmp_path / "equals")]) == 0
        assert ((tmp_path / "space" / "sweep.json").read_bytes()
                == (tmp_path / "equals" / "sweep.json").read_bytes())

    @pytest.mark.parametrize("argv, message", [
        (["ablate", "--ood-class", "3", "--seeds", "-1,2"],
         "error: --seeds: seed must be >= 0, got -1"),
    ], ids=["ablate-seeds"])
    def test_negative_entry_is_the_value_error(self, dataset, capsys, argv,
                                               message):
        assert main(argv[:1] + ["--data", str(dataset)] + argv[1:]) == 2
        assert capsys.readouterr().err.splitlines() == [message]


def _feature_path_from_aux0(ckpt):
    """Feature path 0, and the projection that reads it, go aux0->target."""
    ckpt["feature_paths"][0] = ["aux0", "target"]
    ckpt["params"]["projections"][0]["path"] = ["aux0", "target"]


class TestCheckpointFormat:
    def test_wrong_format_tag_rejected(self, dataset, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "other-v9"}))
        assert main(["eval", "--ckpt", str(bad), "--data", str(dataset),
                     "--ood-class", "3", "--out", str(tmp_path / "o")]) == 2
        assert "oodhg-ckpt-v1" in capsys.readouterr().err

    def test_mismatched_ood_class_rejected(self, dataset, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--out", str(run)] + FAST) == 0
        ckpt = run / "checkpoint.json"
        capsys.readouterr()
        # 9 is no label at all; either is checked against the checkpoint
        for flag in ("2", "9"):
            assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset),
                         "--ood-class", flag,
                         "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: --ood-class {flag} differs from held-out class 3 "
                f"of the checkpoint {ckpt}"]
        assert not (tmp_path / "o").exists()

    def test_schema_metapaths_are_not_read(self, dataset, tmp_path):
        """eval scores along the checkpoint's own paths."""
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--out", str(run)] + FAST) == 0
        ckpt = str(run / "checkpoint.json")
        assert main(["eval", "--ckpt", ckpt, "--data", str(dataset),
                     "--out", str(tmp_path / "a")]) == 0
        # a schema with no feature path, on which train exits 2
        schema = json.loads((dataset / "schema.json").read_text())
        schema["metapaths"] = [["target", "aux0"]]
        (dataset / "schema.json").write_text(json.dumps(schema))
        assert main(["eval", "--ckpt", ckpt, "--data", str(dataset),
                     "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "scores.tsv").read_bytes()
                == (tmp_path / "b" / "scores.tsv").read_bytes())


    @pytest.mark.parametrize("corrupt, needle", [
        (lambda c: c["params"].pop("out_bias"), "'params.out_bias' is missing"),
        (lambda c: [row.append(0.0) for row in c["params"]["out_weight"]],
         "'params.out_weight' has shape"),
        (lambda c: c.update(prop_paths=[]), "no target-to-target meta-path"),
        (_feature_path_from_aux0,
         "feature meta-path aux0->target must start at target type 'target'"),
        (lambda c: c.update(prop_paths=[["target", "aux0"]]),
         "propagation meta-path target->aux0 must start and end at 'target'"),
    ])
    def test_corrupt_checkpoint_is_one_line_error(self, dataset, tmp_path,
                                                  capsys, corrupt, needle):
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--out", str(run)] + FAST) == 0
        ckpt = json.loads((run / "checkpoint.json").read_text())
        corrupt(ckpt)
        (run / "checkpoint.json").write_text(json.dumps(ckpt))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(run / "checkpoint.json"),
                     "--data", str(dataset), "--ood-class", "3",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and needle in err


    def test_run_directory_as_checkpoint_is_one_line_error(
            self, dataset, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--out", str(run)] + FAST) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(run), "--data", str(dataset),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {run} is not a file"]

    @pytest.mark.parametrize("content, needle", [
        (None, "not found"),
        (b"{", "invalid JSON (Expecting property name"),
        (b"\xff\xfe", "byte 0 is not valid UTF-8"),
    ], ids=["missing", "not-json", "not-utf8"])
    def test_unreadable_checkpoint_is_one_line_error(self, dataset, tmp_path,
                                                     capsys, content, needle):
        ckpt = tmp_path / "checkpoint.json"
        if content is not None:
            ckpt.write_bytes(content)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset),
                     "--ood-class", "3", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {ckpt}") and needle in err


class TestErrors:
    def test_bad_dataset_path(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--ood-class", "3", "--out", str(tmp_path / "o")]) == 2
        assert "schema.json" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["edges/target_aux0.tsv", "labels.tsv"])
    def test_id_outside_int64_is_one_line_error(self, dataset, tmp_path,
                                                capsys, name):
        with (dataset / name).open("a") as fh:
            fh.write("0\t99999999999999999999\n")
        assert main(["train", "--data", str(dataset), "--ood-class", "3",
                     "--out", str(tmp_path / "o")] + FAST) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{name}:" in err

    def test_file_that_is_not_utf8_is_one_line_error(self, mini_dataset_dir,
                                                     tmp_path, capsys):
        dst = tmp_path / "mini"
        shutil.copytree(mini_dataset_dir, dst)
        path = dst / "edges" / "user_item.tsv"
        path.write_bytes(b"0\t0\n\xff\t1\n")
        assert main(["train", "--data", str(dst), "--ood-class", "2",
                     "--out", str(tmp_path / "o")] + FAST) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: byte 4 is not valid UTF-8 (invalid start byte)"]

    @pytest.mark.parametrize("argv", [
        ["train", "--ood-class", "3", "--out", "run"],
        ["eval", "--ckpt", "checkpoint.json", "--out", "eval"],
        ["ablate", "--ood-class", "3"],
        ["sweep", "--ood-class", "3", "--param", "gamma"],
        ["bench"],
    ], ids=lambda argv: argv[0])
    def test_data_is_required(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--data" in capsys.readouterr().err


# ----------------------------------------------------------------------
# every JSON input is read under one type policy (data._read_json)

@pytest.fixture(scope="module")
def json_inputs(tmp_path_factory) -> Path:
    """A small dataset, a checkpoint trained on it and its splits.json."""
    root = tmp_path_factory.mktemp("json_inputs")
    assert main(["gen", "--per-class", "20", "--seed", "1",
                 "-o", str(root / "data")]) == 0
    assert main(["train", "--data", str(root / "data"), "--ood-class", "3",
                 "--out", str(root / "run")] + FAST) == 0
    return root


def _mutated(json_inputs: Path, work: Path, name: str, keys: list, value):
    """(file, argv) of a run whose JSON input name holds value at the key
    path keys, or is value when keys is empty. name is "schema.json" or
    "splits.json" of a copy of the dataset (which then holds splits.json),
    a copy of "checkpoint.json", which eval reads, or "cfg.json", an empty
    --config file of train."""
    data = json_inputs / "data"
    if name in ("schema.json", "splits.json"):
        data = work / "data"
        shutil.copytree(json_inputs / "data", data)
        shutil.copy(json_inputs / "run" / "splits.json", data)
        path = data / name
    elif name == "checkpoint.json":
        path = work / name
        shutil.copy(json_inputs / "run" / name, path)
    else:
        path = work / name
        path.write_text("{}")
    doc = json.loads(path.read_text())
    if keys:
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
    else:
        doc = value
    path.write_text(json.dumps(doc))
    if name == "checkpoint.json":
        argv = ["eval", "--ckpt", str(path), "--data", str(data)]
    else:
        argv = ["train", "--data", str(data), "--ood-class", "3"] + FAST
        if name == "cfg.json":
            argv += ["--config", str(path)]
    return path, argv + ["--out", str(work / "out")]


MUTATIONS = [
    ("schema.json", ["node_types", 0, "count"], 80.9,
     "'node_types[0].count' must be an integer, got 80.9"),
    ("schema.json", ["node_types", 0, "feature_dim"], 16.5,
     "'node_types[0].feature_dim' must be an integer, got 16.5"),
    ("schema.json", ["node_types", 0, "count"], "80",
     "'node_types[0].count' must be an integer, got '80'"),
    ("schema.json", ["node_types", 0, "name"], 7,
     "'node_types[0].name' must be a string, got 7"),
    ("schema.json", [], 5, "top level must be a JSON object, got 5"),
    ("schema.json", ["target_type"], ["target"],
     "'target_type' must be a string, got ['target']"),
    ("splits.json", ["train", 0], 0.9,
     "'train[0]' must be an integer, got 0.9"),
    ("splits.json", ["train", 0], True,
     "'train[0]' must be an integer, got True"),
    ("splits.json", ["train", 0], "5",
     "'train[0]' must be an integer, got '5'"),
    ("splits.json", ["ood_class"], 3.5,
     "'ood_class' must be an integer, got 3.5"),
    ("splits.json", ["ood_class"], "3",
     "'ood_class' must be an integer, got '3'"),
    ("splits.json", ["test", 0], 2 ** 64,
     "'test[0]' must be an integer that fits int64, got 18446744073709551616"),
    ("splits.json", [], 5, "top level must be a JSON object, got 5"),
    ("checkpoint.json", ["params", "out_bias", 0], "0.12",
     "'params.out_bias[0]' must be a finite number, got '0.12'"),
    ("checkpoint.json", ["params", "out_bias", 0], True,
     "'params.out_bias[0]' must be a finite number, got True"),
    ("checkpoint.json", ["train_config", "learning_rate"], float("inf"),
     "'train_config.learning_rate' must be a finite number, got inf"),
    ("cfg.json", ["epochs"], True, "'epochs' must be an integer, got True"),
    # a key the format does not name is an error, never silently ignored
    ("schema.json", ["node_types", 0, "feature_dims"], 16,
     "'node_types[0]' has unknown key 'feature_dims'; expected one of "
     "['count', 'feature_dim', 'name']"),
    ("schema.json", ["max_hop"], 4,
     "top level has unknown key 'max_hop'; expected one of ['edge_types', "
     "'max_hops', 'metapaths', 'node_types', 'target_type']"),
    ("splits.json", ["folds"], 5,
     "top level has unknown key 'folds'; expected one of ['ood_class', "
     "'test', 'train', 'val']"),
    ("checkpoint.json", ["extra"], 1,
     "top level has unknown key 'extra'; expected one of ['feature_paths', "
     "'format', 'id_class_values', 'ood_class', 'params', 'prop_paths', "
     "'train_config']"),
    ("cfg.json", ["epoch"], 5,
     "top level has unknown key 'epoch'; expected one of ['alpha', "
     "'d_hidden', 'epochs', 'gamma', 'learning_rate', 'm_in', 'seed', "
     "'steps']"),
    # a well-typed value that TrainConfig rejects still names the file
    ("checkpoint.json", ["train_config", "epochs"], 0,
     "'train_config': epochs must be >= 1, got 0"),
    ("cfg.json", ["alpha"], 2.0, "alpha must be in [0, 1], got 2.0"),
    # a well-typed value that the rest of the input contradicts
    ("splits.json", ["train", 0], 999, "node id outside [0, 80)"),
    ("schema.json", ["target_type"], "nope", "target_type 'nope' not declared"),
    ("checkpoint.json", ["params", "projections"], [],
     "checkpoint has 0 projections for 2 feature paths"),
    ("checkpoint.json", ["params", "projections", 0, "path"],
     ["target", "aux1", "target"],
     "'params.projections[0].path' does not match feature path "
     "target->aux0->target"),
    ("checkpoint.json", ["params", "hidden_weight", 0], [0.0],
     "'params.hidden_weight' has rows of unequal length"),
]


@pytest.mark.parametrize("name, keys, value, message", MUTATIONS, ids=[
    f"{name}:{'.'.join(map(str, keys)) or 'top'}={value!r}"
    for name, keys, value, _ in MUTATIONS])
def test_ill_typed_json_value_is_one_line_error(json_inputs, tmp_path, capsys,
                                                name, keys, value, message):
    path, argv = _mutated(json_inputs, tmp_path, name, keys, value)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]


def _drop_last_feature_row(data: Path) -> str:
    path = data / "features" / "target.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    return f"{path}: 79 rows for 80 nodes of type 'target'"


def _no_feature_file(data: Path) -> str:
    path = data / "features" / "target.csv"
    path.unlink()
    return f"{path} not found"


def _f32_features_only(data: Path) -> str:
    """Replace the csv and its sidecar by the raw float32 file that earlier
    versions could write, which is not read."""
    path = data / "features" / "target.csv"
    path.unlink()
    (data / "features" / "target.csv.bin").unlink()
    (data / "features" / "target.f32").write_bytes(bytes(80 * 16 * 4))
    return f"{path} not found"


def _narrow_features(data: Path) -> str:
    """Keep the first 8 of the 16 feature columns the checkpoint reads."""
    schema = json.loads((data / "schema.json").read_text())
    schema["node_types"][0]["feature_dim"] = 8
    (data / "schema.json").write_text(json.dumps(schema))
    path = data / "features" / "target.csv"
    path.write_text("".join(",".join(line.split(",")[:8]) + "\n"
                            for line in path.read_text().splitlines()))
    return "feature dim 8 does not match projection (16, 8)"


@pytest.mark.parametrize("edit, command", [
    (_drop_last_feature_row, "eval"), (_no_feature_file, "eval"),
    (_narrow_features, "eval"), (_f32_features_only, "train"),
    (_f32_features_only, "eval")], ids=[
    "csv-row-missing", "no-file", "feature-dim", "f32-only-train",
    "f32-only-eval"])
def test_unreadable_features_are_one_line_error(json_inputs, tmp_path,
                                                capsys, edit, command):
    data = tmp_path / "data"
    shutil.copytree(json_inputs / "data", data)
    message = edit(data)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = (["train", "--ood-class", "3"] if command == "train" else
            ["eval", "--ckpt", str(json_inputs / "run" / "checkpoint.json")])
    assert main(argv + ["--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def _leaves(doc, keys=()):
    """(key path, value) of doc and of everything it holds; of a list only
    its first two elements, to keep long arrays from crowding the rest."""
    yield list(keys), doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, keys + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc[:2]):
            yield from _leaves(value, keys + (i,))


# a JSON value of every type; a number field also takes integers, and a
# null optional key is absent, so neither counts as another type there;
# an integer field takes no float, not even 2.0
_JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-2 ** 70, 2 ** 70),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "str": st.text(max_size=5),
    "list": st.lists(st.integers(0, 3), max_size=3),
    "dict": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
_OPTIONAL_KEYS = {"max_hops", "feature_dim"}


def _kind(value) -> str:
    return {type(None): "null", bool: "bool", int: "int", float: "float",
            str: "str", list: "list", dict: "dict"}[type(value)]


@st.composite
def _retyped_fields(draw, json_inputs):
    name = draw(st.sampled_from(["schema.json", "splits.json",
                                 "checkpoint.json"]))
    source = (json_inputs / "run" / name if name != "schema.json"
              else json_inputs / "data" / name)
    keys, old = draw(st.sampled_from(list(_leaves(json.loads(
        source.read_text())))))
    excluded = {_kind(old)} | ({"int"} if _kind(old) == "float" else set())
    if keys and keys[-1] in _OPTIONAL_KEYS:
        excluded.add("null")
    kind = draw(st.sampled_from(sorted(set(_JSON_KINDS) - excluded)))
    return name, keys, draw(_JSON_KINDS[kind])


def test_any_retyped_json_field_is_one_line_error(json_inputs, tmp_path):
    counter = iter(range(10 ** 6))

    @settings(max_examples=60, deadline=None)
    @given(case=_retyped_fields(json_inputs))
    def check(case):
        work = tmp_path / str(next(counter))
        work.mkdir()
        _, argv = _mutated(json_inputs, work, *case)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code == 2 and len(err.getvalue().splitlines()) == 1, case

    check()


ROOT = Path(__file__).resolve().parents[1]


def _child_env() -> dict:
    """This environment with the source tree first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_train_bytes_do_not_depend_on_the_blas_thread_count(dataset,
                                                            tmp_path):
    """The same train in a process whose OpenBLAS runs one thread and in one
    whose OpenBLAS runs two writes the same checkpoint and history bytes."""
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "oodhg.cli", "train", "--data", str(dataset),
             "--ood-class", "3", "--out", str(out)] + FAST,
            capture_output=True, text=True, timeout=120,
            env=_child_env() | {"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("checkpoint.json", "history.json")])
    assert outputs[0] == outputs[1]


def _console_script() -> tuple[str, str]:
    """(module, function) that pyproject.toml installs as the oodhg command."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^oodhg = "([\w.]+):(\w+)"$', text, re.M)
    return target.group(1), target.group(2)


def _run_entry(entry: str, argv) -> subprocess.CompletedProcess:
    """The oodhg command started as python -m oodhg.cli ("module") or the
    way the installed console script calls its target ("script"), with its
    stdout block-buffered, as a pipe's is unless PYTHONUNBUFFERED is set."""
    if entry == "module":
        cmd = [sys.executable, "-m", "oodhg.cli"]
    else:
        module, func = _console_script()
        cmd = [sys.executable, "-c",
               f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'oodhg'; sys.exit({func}())"]
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(cmd + list(argv), capture_output=True, text=True,
                          timeout=120, env=env)


def test_both_entry_points_exit_through_cli_run():
    """The console script and python -m oodhg.cli share one exit path."""
    assert _console_script() == ("oodhg.cli", "run")
    tree = ast.parse((ROOT / "src" / "oodhg" / "cli.py").read_text(
        encoding="utf-8"))
    guard = next(node for node in tree.body if isinstance(node, ast.If))
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    run()"


@pytest.mark.parametrize("entry", ["module", "script"])
def test_entry_point_writes_what_an_in_process_run_writes(entry, dataset,
                                                          tmp_path, capsys):
    """The command exits without interpreter teardown; it still writes
    every output byte and every buffered stdout line."""
    argv = ["ablate", "--data", str(dataset), "--ood-class", "3",
            "--seeds", "0,1"] + FAST
    assert main(argv + ["--out", str(tmp_path / "in")]) == 0
    want = capsys.readouterr().out
    proc = _run_entry(entry, argv + ["--out", str(tmp_path / "child")])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == want and len(want.splitlines()) == 5
    assert _tree_bytes(tmp_path / "child") == _tree_bytes(tmp_path / "in")


@pytest.mark.parametrize("entry", ["module", "script"])
def test_entry_point_error_is_one_line_and_exit_2(entry, tmp_path):
    proc = _run_entry(entry, ["train", "--data", str(tmp_path / "missing"),
                              "--ood-class", "3", "--out",
                              str(tmp_path / "run")])
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


def test_config_value_a_flag_overrides_is_never_read(dataset, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epochs": 0}))
    assert main(["train", "--data", str(dataset), "--ood-class", "3",
                 "--config", str(cfg_file), "--out", str(tmp_path / "run")]
                + FAST) == 0


def test_commands_import_neither_numpy_ma_nor_concurrent_futures(tmp_path):
    """A fresh train, eval, ablate or sweep process leaves out numpy.ma
    (np.unique's first call imports it), concurrent.futures (it pulls in
    logging and queue, and every command runs its seeds one after another),
    numpy.random and hashlib. Splits and initial weights are drawn from
    oodhg.philox, not numpy.random, whose bit_generator imports secrets and
    so hashlib, which loads OpenSSL (about 3.6 MB of RSS); the dataset
    sidecars are checked with zlib.crc32. A process that only loads a
    dataset does not even compile oodhg.philox."""
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    assert main(["gen", "--per-class", "10", "-o", data]) == 0
    left_out = ("numpy.ma", "concurrent.futures", "numpy.random", "hashlib")
    probe = ("import sys\n"
             "from oodhg.cli import main\n"
             "code = main(sys.argv[1:])\n"
             f"print(code, [m for m in {left_out!r} if m in sys.modules])\n")
    for argv in (
            ["train", "--data", data, "--ood-class", "3", "--out", run] + FAST,
            ["eval", "--ckpt", run + "/checkpoint.json", "--data", data,
             "--out", str(tmp_path / "eval")],
            ["ablate", "--data", data, "--ood-class", "3", "--seeds", "0,1"]
            + FAST,
            ["sweep", "--data", data, "--ood-class", "3", "--param", "gamma",
             "--grid", "0.3,0.7", "--seeds", "0,1"] + FAST):
        proc = subprocess.run([sys.executable, "-c", probe, *argv],
                              capture_output=True, text=True,
                              env=_child_env(), timeout=120)
        assert proc.stdout.splitlines()[-1] == "0 []", (argv, proc.stderr)
    load = ("import sys\n"
            "from oodhg.data import load_dataset, load_path_config\n"
            "load_dataset(sys.argv[1])\n"
            "load_path_config(sys.argv[1])\n"
            f"print([m for m in {left_out + ('oodhg.philox',)!r}"
            " if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", load, data],
                          capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.stdout.splitlines()[-1] == "[]", proc.stderr


def test_setup_probe_reads_a_generated_dataset(tmp_path):
    data = tmp_path / "data"
    assert main(["gen", "--per-class", "10", "-o", str(data)]) == 0
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(data)],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "40"

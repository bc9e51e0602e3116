"""Command-line interface.

Subcommands: gen (synthetic dataset), train, eval, ablate, sweep, bench.
Flag precedence is CLI flag > --config JSON file > built-in default, and
every output embeds the resolved configuration under "config_echo" for
provenance. Outputs are deterministic for fixed flags and seed; only the
bench report contains wall-clock numbers. OODHG_THREADS caps how many
seeds run in parallel (default 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .data import (
    SynthConfig,
    generate_synthetic,
    load_dataset,
    load_path_config,
    make_splits,
    save_dataset,
)
from .energy import PropagationConfig, propagate
from .errors import OodhgError, ValidationError
from .hetgraph import metapath_operator
from .metrics import ENERGY_TAU_GRID
from .model import TrainConfig, id_class_values, train
from .pipeline import (
    DEFAULT_TAU,
    evaluate,
    load_checkpoint,
    resolve_paths,
    run_experiment,
    save_checkpoint,
    summarize_metric_rows,
)

_SWEEP_DEFAULT_GRIDS = {
    "gamma": [round(0.1 * i, 1) for i in range(1, 10)],
    "steps": [0, 1, 2, 4, 8],
    "alpha": [round(0.1 * i, 1) for i in range(0, 11)],
    "m_in": [-5.0, -4.0, -3.0, -2.0, -1.0, 0.0],
    "tau": [float(t) for t in ENERGY_TAU_GRID],
}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _resolve(args, config_file: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config_file:
        return config_file[key]
    return default


_TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig))


def _load_config_file(args) -> dict:
    """The --config JSON object; its keys are TrainConfig field names, the
    vocabulary of config_echo.train_config, plus "seeds"."""
    if getattr(args, "config", None) is None:
        return {}
    config = json.loads(Path(args.config).read_text())
    if not isinstance(config, dict):
        raise ValidationError(f"{args.config}: config must be a JSON object")
    allowed = _TRAIN_KEYS + ("seeds",)
    for key in config:
        if key not in allowed:
            raise ValidationError(
                f"{args.config}: unknown config key {key!r}; expected one "
                f"of {sorted(allowed)}")
    return config


def _train_config(args, config_file: dict) -> TrainConfig:
    values = {k: v for k, v in config_file.items() if k in _TRAIN_KEYS}
    for key in _TRAIN_KEYS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return TrainConfig.from_dict(values)


def _parse_gen_spec(spec: str) -> SynthConfig:
    """Parse "classes=3,per_class=60,seed=7,..." into a SynthConfig."""
    mapping = {
        "classes": ("n_id_classes", int),
        "per_class": ("nodes_per_class", int),
        "aux_types": ("n_aux_types", int),
        "feature_dim": ("feature_dim", int),
        "intra": ("intra_edge_prob", float),
        "inter": ("inter_edge_prob", float),
        "shift": ("ood_shift", float),
        "seed": ("seed", int),
    }
    kwargs = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"--gen entry {item!r} is not key=value")
        key, value = item.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in mapping:
            raise ValueError(f"--gen has unknown key {key!r}; "
                             f"choose from {sorted(mapping)}")
        field, cast = mapping[key]
        kwargs[field] = cast(value)
    return SynthConfig(**kwargs)


def _load_graph(args):
    """Graph, labels, file splits (or None), and resolved meta-paths."""
    data = getattr(args, "data", None)
    gen = getattr(args, "gen", None)
    if (data is None) == (gen is None):
        raise ValueError("exactly one of --data and --gen is required")
    if data is not None:
        graph, labels, splits = load_dataset(data)
        metapaths, max_hops = load_path_config(data)
        source = {"data": str(data)}
    else:
        graph, labels = generate_synthetic(_parse_gen_spec(gen))
        splits, metapaths, max_hops = None, None, 2
        source = {"gen": gen}
    feat, prop = resolve_paths(graph, metapaths, max_hops)
    return graph, labels, splits, feat, prop, source


def _splits_for_seed(args, labels, file_splits, seed: int):
    """File splits when present; otherwise derived from --ood-class and seed."""
    if file_splits is not None:
        return file_splits
    ood = getattr(args, "ood_class", None)
    if ood is None:
        raise ValueError("--ood-class is required when the dataset has no "
                         "splits.json; it has no default")
    return make_splits(labels, int(ood), seed=seed)


def _seed_list(args, config_file: dict) -> list[int]:
    seeds = _resolve(args, config_file, "seeds", None)
    if seeds is None:
        return [int(_resolve(args, config_file, "seed", 0))]
    if isinstance(seeds, str):
        return [int(s) for s in seeds.split(",") if s.strip()]
    return [int(s) for s in seeds]


def _map_seeds(fn, seeds: list[int]) -> list:
    workers = int(os.environ.get("OODHG_THREADS", "1"))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, seeds))
    else:
        results = [fn(s) for s in seeds]
    return [r for _, r in sorted(zip(seeds, results), key=lambda t: t[0])]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------------
# commands

def cmd_gen(args) -> int:
    out = Path(args.out)
    if out.exists() and any(out.iterdir()):
        raise ValueError(f"output directory {out} is not empty")
    cfg = SynthConfig(
        n_id_classes=args.classes, nodes_per_class=args.per_class,
        n_aux_types=args.aux_types, feature_dim=args.feature_dim,
        intra_edge_prob=args.intra, inter_edge_prob=args.inter,
        ood_shift=args.shift, seed=args.seed)
    graph, labels = generate_synthetic(cfg)
    save_dataset(out, graph, labels, feature_format=args.feature_format,
                 schema_extra={"max_hops": 2})
    n_edges = sum(len(v) for v in graph.edges.values())
    print(f"wrote {out}: {graph.target_count} target nodes, "
          f"{args.aux_types} aux types, {n_edges} edges, "
          f"held-out class {args.classes}")
    return 0


def cmd_train(args) -> int:
    config_file = _load_config_file(args)
    graph, labels, file_splits, feat, prop, source = _load_graph(args)
    cfg = _train_config(args, config_file)
    splits = _splits_for_seed(args, labels, file_splits, cfg.seed)
    params, history = train(graph, labels, splits, cfg, feat, prop)
    id_values = id_class_values(labels, splits.train_ids, splits.val_ids)

    out = _out_dir(args)
    save_checkpoint(out / "checkpoint.json", params, cfg, id_values,
                    splits.ood_class, feat, prop)
    echo = {"command": "train", **source, "train_config": cfg.to_dict(),
            "feature_paths": [list(p.types) for p in feat],
            "prop_paths": [list(p.types) for p in prop]}
    _write_json(out / "history.json",
                {"config_echo": echo, "epochs": history.as_dicts()})
    _write_json(out / "splits.json", {
        "train": [int(i) for i in splits.train_ids],
        "val": [int(i) for i in splits.val_ids],
        "test": [int(i) for i in splits.test_ids],
        "ood_class": int(splits.ood_class)})
    last = history.records[-1]
    print(f"trained {cfg.epochs} epochs: loss {last.total_loss:.4f}, "
          f"val micro-F1 {last.val_micro_f1:.4f}; wrote {out}/checkpoint.json")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    graph, labels, file_splits, _, _, source = _load_graph(args)
    splits = _splits_for_seed(args, labels, file_splits, ckpt.config.seed)
    if splits.ood_class != ckpt.ood_class:
        raise ValueError(
            f"checkpoint was trained with held-out class {ckpt.ood_class} "
            f"but the dataset splits designate {splits.ood_class}")
    seen = id_class_values(labels, splits.train_ids, splits.val_ids)
    if not np.array_equal(seen, ckpt.id_class_values):
        raise ValueError(
            f"checkpoint class set {ckpt.id_class_values.tolist()} does not "
            f"match the dataset's train/val classes {seen.tolist()}")
    tau = DEFAULT_TAU if args.tau is None else args.tau
    report = evaluate(graph, labels, splits, ckpt.params, ckpt.config,
                      ckpt.feature_paths, ckpt.prop_paths, tau)

    id_values = ckpt.id_class_values
    k = id_values.size
    to_label = np.append(id_values, ckpt.ood_class)

    out = _out_dir(args)
    echo = {"command": "eval", **source, "ckpt": str(args.ckpt),
            "tau_source": "default" if args.tau is None else "flag",
            "train_config": ckpt.config.to_dict()}
    gold = np.asarray(labels, dtype=np.int64)
    _write_json(out / "metrics.json", {
        "auroc": report.metrics["auroc"],
        "aupr": report.metrics["aupr"],
        "fpr95": report.metrics["fpr95"],
        "micro_f1": report.metrics["micro_f1"],
        "macro_f1": report.metrics["macro_f1"],
        "tau": report.tau,
        "n_train": int(splits.train_ids.size),
        "n_val": int(splits.val_ids.size),
        "n_test": int(splits.test_ids.size),
        "n_ood": int(np.sum(gold[splits.test_ids] == ckpt.ood_class)),
        "config_echo": echo})

    lines = ["node_id\tenergy\tmax_softmax\tpredicted\tgold\n"]
    for pos, node in enumerate(report.test_ids):
        pred_label = int(to_label[report.predicted[pos]])
        lines.append(f"{int(node)}\t{float(report.energy_final[node])!r}\t"
                     f"{float(report.max_softmax[node])!r}\t{pred_label}\t"
                     f"{int(gold[node])}\n")
    (out / "scores.tsv").write_text("".join(lines))

    raw = ["node_id\tenergy_raw\tenergy_final\n"]
    raw.extend(f"{i}\t{float(report.energy_raw[i])!r}\t"
               f"{float(report.energy_final[i])!r}\n"
               for i in range(graph.target_count))
    (out / "raw_energy.tsv").write_text("".join(raw))

    m = report.metrics
    print(f"tau={report.tau:.2f} auroc={m['auroc']:.4f} aupr={m['aupr']:.4f} "
          f"fpr95={m['fpr95']:.4f} micro_f1={m['micro_f1']:.4f} "
          f"macro_f1={m['macro_f1']:.4f}; wrote {out}/metrics.json")
    return 0


_HEADLINE = ("auroc", "aupr", "fpr95", "micro_f1", "macro_f1", "auroc_msp")


def _experiment_row(graph, labels, file_splits, args, cfg, feat, prop) -> dict:
    splits = _splits_for_seed(args, labels, file_splits, cfg.seed)
    _, _, report = run_experiment(graph, labels, splits, cfg, feat, prop)
    return {k: report.metrics[k] for k in _HEADLINE} | {"tau": report.tau}


def cmd_ablate(args) -> int:
    config_file = _load_config_file(args)
    graph, labels, file_splits, feat, prop, source = _load_graph(args)
    base = _train_config(args, config_file)
    if base.alpha >= 1.0:
        raise ValueError("ablate needs alpha < 1 so the energy-loss arms differ")
    if base.steps < 1:
        raise ValueError("ablate needs steps >= 1 so the propagation arms differ")
    seeds = _seed_list(args, config_file)
    arms = [
        ("no_ep_no_le", {"alpha": 1.0, "steps": 0}),
        ("no_le", {"alpha": 1.0, "steps": base.steps}),
        ("no_ep", {"alpha": base.alpha, "steps": 0}),
        ("full", {"alpha": base.alpha, "steps": base.steps}),
    ]
    results = []
    for name, overrides in arms:
        def one(seed, overrides=overrides):
            cfg = dataclasses.replace(base, seed=seed, **overrides)
            return _experiment_row(graph, labels, file_splits, args, cfg,
                                   feat, prop)
        rows = _map_seeds(one, seeds)
        results.append({"arm": name, **overrides,
                        "per_seed": rows,
                        "summary": summarize_metric_rows(rows)})

    echo = {"command": "ablate", **source, "train_config": base.to_dict(),
            "seeds": seeds}
    payload = {"config_echo": echo, "arms": results}
    if args.out:
        _write_json(_out_dir(args) / "ablation.json", payload)
    header = "arm          " + "  ".join(f"{k:>16}" for k in _HEADLINE)
    print(header)
    for row in results:
        cells = "  ".join(
            f"{row['summary'][k]['mean']:.4f} +-{row['summary'][k]['std']:.4f}"
            for k in _HEADLINE)
        print(f"{row['arm']:<13}{cells}")
    return 0


def cmd_sweep(args) -> int:
    config_file = _load_config_file(args)
    graph, labels, file_splits, feat, prop, source = _load_graph(args)
    base = _train_config(args, config_file)
    seeds = _seed_list(args, config_file)
    param = args.param
    if args.grid is not None:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    else:
        grid = _SWEEP_DEFAULT_GRIDS[param]
    rows_per_value = []
    if param == "tau":
        def one(seed):
            cfg = dataclasses.replace(base, seed=seed)
            splits = _splits_for_seed(args, labels, file_splits, seed)
            params, _ = train(graph, labels, splits, cfg, feat, prop)
            return [
                {**{k: r.metrics[k] for k in _HEADLINE}, "tau": r.tau}
                for r in (evaluate(graph, labels, splits, params, cfg,
                                   feat, prop, tau=v) for v in grid)]
        per_seed_tables = _map_seeds(one, seeds)
        for i, value in enumerate(grid):
            rows = [table[i] for table in per_seed_tables]
            rows_per_value.append({"value": value, "per_seed": rows,
                                   "summary": summarize_metric_rows(rows)})
    else:
        field = {"gamma": "gamma", "steps": "steps", "alpha": "alpha",
                 "m_in": "m_in"}[param]
        for value in grid:
            cast = int(value) if field == "steps" else float(value)

            def one(seed, cast=cast):
                cfg = dataclasses.replace(base, seed=seed, **{field: cast})
                return _experiment_row(graph, labels, file_splits, args,
                                       cfg, feat, prop)
            rows = _map_seeds(one, seeds)
            rows_per_value.append({"value": value, "per_seed": rows,
                                   "summary": summarize_metric_rows(rows)})

    echo = {"command": "sweep", **source, "param": param, "grid": grid,
            "train_config": base.to_dict(), "seeds": seeds}
    payload = {"config_echo": echo, "values": rows_per_value}
    if args.out:
        _write_json(_out_dir(args) / "sweep.json", payload)
    print(f"sweep over {param}: " + "  ".join(f"{r['value']}" for r in rows_per_value))
    for row in rows_per_value:
        s = row["summary"]
        print(f"  {param}={row['value']}: auroc {s['auroc']['mean']:.4f}"
              f" +-{s['auroc']['std']:.4f}, micro_f1 {s['micro_f1']['mean']:.4f}")
    return 0


def _median_time(fn, repeats: int, min_sample_s: float = 0.015) -> float:
    """Median per-call time; fast calls are batched so every timing sample
    spans at least min_sample_s of wall clock."""
    fn()  # warm caches and allocators outside the timed region
    t0 = time.perf_counter()
    fn()
    est = max(time.perf_counter() - t0, 1e-9)
    inner = max(1, int(np.ceil(min_sample_s / est)))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return float(np.median(times))


def cmd_bench(args) -> int:
    graph, labels, _, feat, prop, source = _load_graph(args)
    k_list = [int(v) for v in args.k_list.split(",") if v.strip()]
    repeats = args.repeats

    def build_all():
        graph.clear_caches()
        return [metapath_operator(graph, p) for p in prop]

    # compose_cold_s keeps its key: it times the operator build from an
    # empty hop cache, the setup propagation pays before its first matvec
    cold = _median_time(build_all, repeats)
    a_hats = build_all()

    # deterministic stand-in energies; the cost model does not depend on values
    e0 = np.linspace(-5.0, 5.0, graph.target_count)
    warm = {}
    for k in k_list:
        cfg = PropagationConfig(gamma=args.gamma if args.gamma is not None else 0.5,
                                steps=k)

        def run_all(cfg=cfg):
            for a in a_hats:
                propagate(e0, a, cfg)

        warm[str(k)] = _median_time(run_all, repeats)

    report = {
        "config_echo": {"command": "bench", **source, "k_list": k_list,
                        "repeats": repeats},
        "n_target": graph.target_count,
        "paths": [str(p) for p in prop],
        "compose_cold_s": cold,
        "propagate_warm_s": warm,
    }
    if len(k_list) >= 2:
        lo, hi = str(min(k_list)), str(max(k_list))
        report["warm_ratio_max_over_min"] = warm[hi] / warm[lo]
    if args.out:
        _write_json(_out_dir(args) / "bench.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# parser

def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--gen", help="inline synthetic spec, e.g. "
                   "classes=3,per_class=60,seed=7")
    p.add_argument("--ood-class", dest="ood_class", type=int,
                   help="label value of the held-out class (required when "
                   "the dataset has no splits.json)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--m-in", type=float, dest="m_in")
    p.add_argument("--gamma", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden", type=int, dest="d_hidden")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodhg",
        description="Energy-based OOD node detection on heterogeneous graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset directory")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-class", dest="per_class", type=int, default=150)
    p.add_argument("--aux-types", dest="aux_types", type=int, default=2)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=16)
    p.add_argument("--intra", type=float, default=0.07)
    p.add_argument("--inter", type=float, default=0.0035)
    p.add_argument("--shift", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feature-format", dest="feature_format",
                   choices=("csv", "f32"), default="csv")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train and write a checkpoint")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    _add_data_flags(p)
    p.add_argument("--tau", type=float, help="detector threshold: a node is "
                   f"OOD when -E <= tau (default {DEFAULT_TAU}; the validation "
                   "split holds no held-out-class nodes to tune it on)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the four component arms")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="grid over one hyperparameter")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--param", required=True,
                   choices=("gamma", "steps", "alpha", "m_in", "tau"))
    p.add_argument("--grid", help="comma-separated values")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="time operator build vs warm propagation")
    _add_data_flags(p)
    p.add_argument("--k-list", dest="k_list", default="1,2,4,8")
    p.add_argument("--gamma", type=float)
    p.add_argument("--repeats", type=int, default=9)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OodhgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

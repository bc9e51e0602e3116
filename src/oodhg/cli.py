"""Command-line interface.

Subcommands: gen (synthetic dataset), train, eval, ablate, sweep, bench.
Flag precedence is CLI flag > --config JSON file > built-in default, and
every output embeds the resolved configuration under "config_echo" for
provenance. Outputs are deterministic for fixed flags and seed; only the
bench report contains wall-clock numbers. OODHG_THREADS, an integer >= 1
(default 1), caps how many seeds run in parallel.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from .data import (
    OptionalKey,
    SynthConfig,
    _read_document,
    _typed,
    _write_json,
    generate_synthetic,
    load_dataset,
    make_splits,
    save_dataset,
)
from .energy import DetectorConfig, PropagationConfig, propagate
from .errors import OodhgError, ValidationError
from .hetgraph import metapath_operator, resolve_paths
from .metrics import ENERGY_TAU_GRID
from .model import TRAIN_CONFIG_KINDS, TrainConfig, train
from .pipeline import (
    DEFAULT_TAU,
    evaluate,
    load_checkpoint,
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


def _load_config_file(args) -> dict:
    """The --config JSON object; its keys are TrainConfig field names, the
    vocabulary of config_echo.train_config, plus "seeds" for the commands
    that take --seeds. Every key is optional."""
    if getattr(args, "config", None) is None:
        return {}
    kinds = TRAIN_CONFIG_KINDS | ({"seeds": [int]} if hasattr(args, "seeds")
                                  else {})
    path = Path(args.config)
    return _typed(_read_document(path),
                  {key: OptionalKey(kind) for key, kind in kinds.items()}, path)


def _train_config(args, config_file: dict) -> TrainConfig:
    """TrainConfig of the flags over the --config values over the defaults.
    A flag's bad value is a ValueError naming the field; the flags are
    checked first, so any later error is a file value's and names the
    file."""
    flags = {key: getattr(args, key) for key in TRAIN_CONFIG_KINDS
             if getattr(args, key, None) is not None}
    TrainConfig(**flags)
    try:
        return TrainConfig(**{
            k: v for k, v in config_file.items() if k in TRAIN_CONFIG_KINDS}
            | flags)
    except ValueError as exc:
        raise ValidationError(f"{args.config}: {exc}") from None


def _number(text: str, kind: type, what: str):
    """text read as int() or float() reads it; a ValueError naming what
    when it is not one."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(
            f"{what} must be {noun}, got {text.strip()!r}") from None


def _number_list(flag: str, text: str, kind: type) -> list:
    """The comma-separated values of a list flag such as --seeds, --grid or
    --k-list; blank entries are skipped."""
    return [_number(v, kind, f"{flag} entry") for v in text.split(",")
            if v.strip()]


# gen flag (with "-" for "_") -> SynthConfig field; each flag takes the
# type and default of its field
_GEN_KEYS = {
    "classes": "n_id_classes",
    "per_class": "nodes_per_class",
    "aux_types": "n_aux_types",
    "feature_dim": "feature_dim",
    "intra": "intra_edge_prob",
    "inter": "inter_edge_prob",
    "shift": "ood_shift",
    "seed": "seed",
}
_SYNTH_DEFAULTS = SynthConfig()


def _splits_for_seed(ood_class, labels, file_splits, seed: int):
    """File splits when present; otherwise made for ood_class and seed. An
    ood_class given with file splits must be the one they hold out."""
    if file_splits is not None:
        if ood_class is not None and ood_class != file_splits.ood_class:
            raise ValueError(
                f"held-out class {ood_class} differs from held-out class "
                f"{file_splits.ood_class} of the dataset's splits.json")
        return file_splits
    if ood_class is None:
        raise ValueError("--ood-class is required when the dataset has no "
                         "splits.json; it has no default")
    return make_splits(labels, ood_class, seed=seed)


def _seed_list(args, config_file: dict, base: TrainConfig) -> list[int]:
    """The --seeds entries, else the --config file's "seeds", else
    [base.seed]. Each is checked as base's seed before any training, and a
    bad one is an error naming the flag or the file."""
    if args.seeds is not None:
        seeds, source = _number_list("--seeds", args.seeds, int), "--seeds"
    else:
        seeds, source = config_file.get("seeds", [base.seed]), args.config
    if not seeds:
        raise ValueError("the seed list is empty")
    for seed in seeds:
        try:
            dataclasses.replace(base, seed=seed)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
    return seeds


def _map_seeds(fn, seeds: list[int]) -> list:
    """[fn(s) for s in seeds], in the order given, on OODHG_THREADS threads."""
    raw = os.environ.get("OODHG_THREADS", "1")
    workers = int(raw) if raw.isdecimal() else 0
    if workers < 1:
        raise ValueError(f"OODHG_THREADS must be an integer >= 1, got {raw!r}")
    if workers == 1:
        return [fn(s) for s in seeds]
    # imported here: concurrent.futures pulls in logging and queue, which a
    # sequential run never needs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seeds))


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
    cfg = SynthConfig(**{field: getattr(args, key)
                         for key, field in _GEN_KEYS.items()})
    graph, labels = generate_synthetic(cfg)
    save_dataset(out, graph, labels)
    n_edges = sum(len(v) for v in graph.edges.values())
    print(f"wrote {out}: {graph.target_count} target nodes, "
          f"{cfg.n_aux_types} aux types, {n_edges} edges, "
          f"held-out class {cfg.n_id_classes}")
    return 0


def cmd_train(args) -> int:
    config_file = _load_config_file(args)
    graph, labels, file_splits = load_dataset(args.data)
    cfg = _train_config(args, config_file)
    splits = _splits_for_seed(args.ood_class, labels, file_splits, cfg.seed)
    params, history = train(graph, labels, splits, cfg)

    out = _out_dir(args)
    save_checkpoint(out / "checkpoint.json", params, cfg, splits.ood_class)
    echo = {"command": "train", "data": str(args.data),
            "train_config": cfg.to_dict(),
            "feature_paths": [list(p.types) for p in params.paths],
            "prop_paths": [list(p.types) for p in params.prop_paths]}
    _write_json(out / "history.json",
                {"config_echo": echo, "epochs": history.as_dicts()})
    _write_json(out / "splits.json", splits.to_dict())
    last = history.records[-1]
    print(f"trained {cfg.epochs} epochs: loss {last.total_loss:.4f}, "
          f"val micro-F1 {last.val_micro_f1:.4f}; wrote {out}/checkpoint.json")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    if args.ood_class not in (None, ckpt.ood_class):
        raise ValueError(
            f"--ood-class {args.ood_class} differs from held-out class "
            f"{ckpt.ood_class} of the checkpoint {args.ckpt}")
    # scored along the checkpoint's own paths; the graph's path settings
    # are checked as they load, and not used
    graph, labels, file_splits = load_dataset(args.data)
    splits = _splits_for_seed(ckpt.ood_class, labels, file_splits,
                              ckpt.config.seed)
    tau = DEFAULT_TAU if args.tau is None else args.tau
    report = evaluate(graph, labels, splits, ckpt.params, ckpt.config, tau)

    to_label = np.append(ckpt.params.classes, ckpt.ood_class).tolist()

    out = _out_dir(args)
    echo = {"command": "eval", "data": str(args.data), "ckpt": str(args.ckpt),
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

    # each final energy is formatted once, for both tables
    final = [repr(e) for e in report.energy_final.tolist()]
    softmax, gold_of = report.max_softmax.tolist(), gold.tolist()
    lines = ["node_id\tenergy\tmax_softmax\tpredicted\tgold\n"]
    lines.extend(f"{node}\t{final[node]}\t{softmax[node]!r}\t{to_label[pred]}\t"
                 f"{gold_of[node]}\n" for node, pred
                 in zip(report.test_ids.tolist(), report.predicted.tolist()))
    (out / "scores.tsv").write_text("".join(lines))

    raw = ["node_id\tenergy_raw\tenergy_final\n"]
    raw.extend(f"{i}\t{e!r}\t{final[i]}\n"
               for i, e in enumerate(report.energy_raw.tolist()))
    (out / "raw_energy.tsv").write_text("".join(raw))

    m = report.metrics
    print(f"tau={report.tau:.2f} auroc={m['auroc']:.4f} aupr={m['aupr']:.4f} "
          f"fpr95={m['fpr95']:.4f} micro_f1={m['micro_f1']:.4f} "
          f"macro_f1={m['macro_f1']:.4f}; wrote {out}/metrics.json")
    return 0


_HEADLINE = ("auroc", "aupr", "fpr95", "micro_f1", "macro_f1", "auroc_msp")


def _grid(args, data, base: TrainConfig, seeds: list[int],
          points: list[dict], taus: list[float]) -> list[dict]:
    """Per-seed headline rows and their summary for each (point, tau) pair,
    point-major. A point is a dict of TrainConfig overrides on base.

    The taus, every point's TrainConfig and every seed's splits are checked
    before any training, so a bad grid value or split fails at once; the
    splits depend only on the seed, so every point shares them. Each point
    trains and evaluates each seed once, seeds in parallel under
    OODHG_THREADS, and reads the taus off that one report with
    EvalReport.at.
    """
    graph, labels, file_splits = data
    taus = [DetectorConfig(t).tau for t in taus]
    configs = [dataclasses.replace(base, **overrides) for overrides in points]
    seed_splits = {seed: _splits_for_seed(args.ood_class, labels,
                                          file_splits, seed)
                   for seed in dict.fromkeys(seeds)}
    cells = []
    for cfg in configs:
        def one(seed):
            run = dataclasses.replace(cfg, seed=seed)
            splits = seed_splits[seed]
            # at alpha = 1 steps cannot change the parameters, only the scores
            fit = dataclasses.replace(run, steps=0) if run.alpha == 1 else run
            params, _ = train(graph, labels, splits, fit,
                              stop_when_settled=True)
            report = evaluate(graph, labels, splits, params, run, taus[0])
            return [{k: r.metrics[k] for k in _HEADLINE} | {"tau": r.tau}
                    for r in map(report.at, taus)]
        cells += [{"per_seed": list(rows),
                   "summary": summarize_metric_rows(rows)}
                  for rows in zip(*_map_seeds(one, seeds))]
    return cells


def cmd_ablate(args) -> int:
    config_file = _load_config_file(args)
    data = load_dataset(args.data)
    base = _train_config(args, config_file)
    if base.alpha >= 1.0:
        raise ValueError("ablate needs alpha < 1 so the energy-loss arms differ")
    if base.steps < 1:
        raise ValueError("ablate needs steps >= 1 so the propagation arms differ")
    if base.gamma == 1.0:
        raise ValueError("ablate needs gamma < 1 so the propagation arms differ")
    seeds = _seed_list(args, config_file, base)
    arms = [
        ("no_ep_no_le", {"alpha": 1.0, "steps": 0}),
        ("no_le", {"alpha": 1.0, "steps": base.steps}),
        ("no_ep", {"alpha": base.alpha, "steps": 0}),
        ("full", {"alpha": base.alpha, "steps": base.steps}),
    ]
    cells = _grid(args, data, base, seeds, [o for _, o in arms], [DEFAULT_TAU])
    results = [{"arm": name, **overrides, **cell}
               for (name, overrides), cell in zip(arms, cells)]

    echo = {"command": "ablate", "data": str(args.data),
            "train_config": base.to_dict(), "seeds": seeds}
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


def _sweep_value(param: str, value):
    """A grid value as the TrainConfig field param holds it."""
    if param == "steps" and not float(value).is_integer():
        raise ValueError(f"steps must be an integer, got {value}")
    return int(value) if param == "steps" else float(value)


def cmd_sweep(args) -> int:
    config_file = _load_config_file(args)
    data = load_dataset(args.data)
    base = _train_config(args, config_file)
    seeds = _seed_list(args, config_file, base)
    param = args.param
    if args.grid is not None:
        grid = _number_list("--grid", args.grid, float)
        if not grid:
            raise ValueError("--grid lists no value")
    else:
        grid = _SWEEP_DEFAULT_GRIDS[param]
    taus = grid if param == "tau" else [DEFAULT_TAU]
    points = ([{}] if param == "tau" else
              [{param: _sweep_value(param, v)} for v in grid])
    rows_per_value = [{"value": value, **cell} for value, cell
                      in zip(grid, _grid(args, data, base, seeds, points, taus))]

    echo = {"command": "sweep", "data": str(args.data), "param": param,
            "grid": grid, "train_config": base.to_dict(), "seeds": seeds}
    payload = {"config_echo": echo, "values": rows_per_value}
    if args.out:
        _write_json(_out_dir(args) / "sweep.json", payload)
    print(f"sweep over {param}: " + "  ".join(f"{r['value']}" for r in rows_per_value))
    for row in rows_per_value:
        s = row["summary"]
        print(f"  {param}={row['value']}: auroc {s['auroc']['mean']:.4f}"
              f" +-{s['auroc']['std']:.4f}, micro_f1 {s['micro_f1']['mean']:.4f}")
    return 0


_MIN_SAMPLE_S = 0.015


def _median_time(fn, repeats: int) -> float:
    """Median per-call time; fast calls are batched so every timing sample
    spans at least _MIN_SAMPLE_S of wall clock."""
    fn()  # warm caches and allocators outside the timed region
    t0 = time.perf_counter()
    fn()
    est = max(time.perf_counter() - t0, 1e-9)
    inner = max(1, int(np.ceil(_MIN_SAMPLE_S / est)))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return float(np.median(times))


def cmd_bench(args) -> int:
    graph, _, _ = load_dataset(args.data)
    prop = resolve_paths(graph, graph.metapaths, graph.max_hops)[1]
    k_list = _number_list("--k-list", args.k_list, int)
    if not k_list:
        raise ValueError("--k-list lists no value")
    repeats = args.repeats
    if repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {repeats}")
    # every gamma in (0, 1) does the same hop work per step
    configs = [PropagationConfig(gamma=0.5, steps=k) for k in k_list]

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
    for k, cfg in zip(k_list, configs):
        def run_all(cfg=cfg):
            for a in a_hats:
                propagate(e0, a, cfg)

        warm[str(k)] = _median_time(run_all, repeats)

    report = {
        "config_echo": {"command": "bench", "data": str(args.data),
                        "k_list": k_list, "repeats": repeats},
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

def _add_data_flags(p: argparse.ArgumentParser, splits: bool = True) -> None:
    p.add_argument("--data", required=True, help="dataset directory")
    if splits:
        p.add_argument("--ood-class", dest="ood_class", type=int,
                       help="label value of the held-out class (required without "
                       "splits.json; eval takes the checkpoint's and rejects "
                       "any other)")


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
    for key, field in _GEN_KEYS.items():
        default = getattr(_SYNTH_DEFAULTS, field)
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       type=type(default), default=default)
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
    _add_data_flags(p, splits=False)
    p.add_argument("--k-list", dest="k_list", default="1,2,4,8")
    p.add_argument("--repeats", type=int, default=9)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)
    # "-" and a digit start a value: "--grid -5,-1" parses as "--grid=-5,-1"
    for p in [parser, *sub.choices.values()]:
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OodhgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the allocation; a bare MemoryError has none
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the oodhg CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from its
src/ directory. oodhg is treated as a black box: the benchmark generates the
workload's dataset from --seed, then runs the CLI commands a user runs, each
in a fresh process and one at a time, and checks what they write. See
perfbench/README.md for the workloads, the metrics and what each one
should move.

With --trace 0 the end-to-end metrics are reported. With --trace 1 every
timed command runs twice, once as is and once under tracer.py, and the
per-layer metrics come from the traced copy. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle import DenseOracle, read_raw_energy
from tracer import covered_seconds, span_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

# BLAS runs single-threaded in every process: the same on both sides of a
# comparison, and steadier than two threads fighting a shared 2-core box
BLAS_THREADS = "1"
SETUP_MIN_REPEATS = 5   # and repeated until SETUP_SECONDS have passed
SETUP_SECONDS = 3.0
MIN_OPS = 2            # the first op is the byte reference for the rest
ABLATE_SEEDS = 5
CMD_TIMEOUT_S = 150
OOD_CLASS = "3"        # gen --classes 3 holds out label 3
ENERGY_TOL = 1e-12


# name -> (gen --per-class, what one timed op runs); the reason for each
# workload is its "why" in BENCHMARK.json
WORKLOADS = {
    "e2e-large": (1000, "train+eval"),
    "ablate-small": (150, "ablate"),
    "score-large": (1000, "eval"),
}

LAYERS = ("data", "hetgraph", "sparse", "energy", "model", "pipeline",
          "metrics", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OODHG_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    code: int
    trace: dict | None = None
    last_line: str = ""        # of the command's output, kept for failures

    def exit_problems(self) -> list[str]:
        return [] if self.code == 0 else [f"exit {self.code}: {self.last_line}"]


def spawn(argv, cwd: Path, env: dict, log: Path) -> Proc:
    """Run argv to completion; wall clock and the child's own peak RSS."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=fh)
        timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode)


@dataclass
class Run:
    """State of one benchmark invocation on one workload."""

    name: str
    seed: int
    work: Path
    trace: bool
    env: dict = field(default_factory=child_env)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)
    oracle: DenseOracle | None = None
    quality: tuple | None = None
    cmd_walls: dict = field(default_factory=dict)

    @property
    def per_class(self) -> int:
        return WORKLOADS[self.name][0]

    @property
    def op_kind(self) -> str:
        return WORKLOADS[self.name][1]

    def command(self, args, traced=False, kind=None) -> Proc:
        spans = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args]
        else:
            argv = [sys.executable, "-m", "oodhg.cli", *args]
        log = self.work / "commands.log"
        proc = spawn(argv, self.work, self.env, log)
        if proc.code != 0:
            lines = log.read_text(errors="replace").strip().splitlines()
            proc.last_line = lines[-1] if lines else ""
        if traced and spans.is_file():
            proc.trace = json.loads(spans.read_text())
            spans.unlink()
        if kind is not None and not traced:
            self.cmd_walls.setdefault(kind, []).append(proc.wall_s)
        return proc

    def outcome(self, what: str, problems: list[str], count: int = 1) -> None:
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend(f"{what}: {p}" for p in problems)

    def same_bytes(self, key: str, path: Path) -> list[str]:
        """Compare a written file with the one the first op wrote."""
        if not path.is_file():
            return [f"{path.name} missing"]
        data = path.read_bytes()
        if self.reference.setdefault(key, data) != data:
            return [f"{path.name} differs from the first run of seed {self.seed}"]
        return []

    def fresh(self, rel: str) -> str:
        shutil.rmtree(self.work / rel, ignore_errors=True)
        return rel

    # -- preparation ------------------------------------------------------

    def prepare(self) -> Proc:
        gen = self.command(["gen", "--per-class", str(self.per_class),
                            "--seed", str(self.seed), "-o", "data"],
                           traced=self.trace)
        self.outcome("gen", gen.exit_problems())
        if self.op_kind == "eval":
            ckpt = self.command(self.train_args("ckpt"))
            self.outcome("train", ckpt.exit_problems())
        if self.failed:
            raise BenchError("preparation failed: " + "; ".join(self.problems))
        return gen

    def train_args(self, out: str) -> list[str]:
        return ["train", "--data", "data", "--ood-class", OOD_CLASS,
                "--seed", str(self.seed), "--out", self.fresh(out)]

    def measure_setup(self) -> list[float]:
        walls = []
        expect = str(SRC / "oodhg" / "__init__.py")
        while len(walls) < SETUP_MIN_REPEATS or sum(walls) < SETUP_SECONDS:
            log = self.work / "setup.out"
            log.unlink(missing_ok=True)
            proc = spawn([sys.executable, str(HERE / "setup_probe.py"), "data"],
                         self.work, self.env, log)
            out = log.read_text().split()
            problems = [] if proc.code == 0 else [f"exit {proc.code}"]
            if not problems and (not out or out[0] != expect):
                problems.append(f"imported oodhg from {out[:1]}, not {expect}")
            self.outcome("setup", problems)
            walls.append(proc.wall_s)
        return walls

    # -- one timed operation ----------------------------------------------

    def op(self, traced: bool) -> list[Proc]:
        kind = self.op_kind
        if kind == "train+eval":
            train = self.command(self.train_args("run"), traced, "train")
            problems = train.exit_problems()
            if not problems:
                for name in ("checkpoint.json", "splits.json"):
                    problems += self.same_bytes(name, self.work / "run" / name)
            self.outcome("train", problems)
            return [train, self.eval_command("run/checkpoint.json", traced)]
        if kind == "eval":
            return [self.eval_command("ckpt/checkpoint.json", traced)]
        return [self.ablate_command(traced)]

    def eval_command(self, ckpt: str, traced: bool) -> Proc:
        out = self.fresh("eval")
        proc = self.command(["eval", "--ckpt", ckpt, "--data", "data",
                             "--ood-class", OOD_CLASS, "--out", out], traced, "eval")
        problems = proc.exit_problems()
        if not problems:
            for name in ("metrics.json", "scores.tsv"):
                problems += self.same_bytes(name, self.work / out / name)
        if not problems:
            err = self.energy_error(self.work / ckpt, self.work / out / "raw_energy.tsv")
            if not err <= ENERGY_TOL:
                problems.append(f"post-propagation energy off the dense "
                                f"recomputation by {err:.3g}")
            m = json.loads((self.work / out / "metrics.json").read_text())
            self.quality = (m["auroc"], m["micro_f1"])
        self.outcome("eval", problems)
        return proc

    def energy_error(self, ckpt_path: Path, raw_path: Path) -> float:
        ckpt = json.loads(ckpt_path.read_text())
        if self.oracle is None:
            self.oracle = DenseOracle(self.work / "data", ckpt["prop_paths"])
        raw, final = read_raw_energy(raw_path)
        cfg = ckpt["train_config"]
        expected = self.oracle.propagate(raw, cfg["gamma"], cfg["steps"])
        return float(np.max(np.abs(expected - final)))

    def ablate_command(self, traced: bool) -> Proc:
        seeds = [self.seed + i for i in range(ABLATE_SEEDS)]
        out = self.fresh("ablate")
        proc = self.command(["ablate", "--data", "data", "--ood-class", OOD_CLASS,
                             "--seeds", ",".join(map(str, seeds)), "--out", out],
                            traced, "ablate")
        arms = ("no_ep_no_le", "no_le", "no_ep", "full")
        trainings = len(arms) * len(seeds)
        if proc.code != 0:
            self.outcome("ablate", proc.exit_problems(), trainings)
            return proc
        result = self.work / out / "ablation.json"
        if not result.is_file():
            self.outcome("ablate", ["ablation.json missing"], trainings)
            return proc
        by_arm = {a["arm"]: a for a in json.loads(result.read_text())["arms"]}
        for arm in arms:
            rows = by_arm.get(arm, {}).get("per_seed", [])
            for i, seed in enumerate(seeds):
                what = f"ablate arm {arm} seed {seed}"
                if i >= len(rows):
                    self.outcome(what, ["missing"])
                    continue
                row = json.dumps(rows[i], sort_keys=True).encode()
                key = f"ablate/{arm}/{seed}"
                same = self.reference.setdefault(key, row) == row
                self.outcome(what, [] if same else ["row differs from the first run"])
        if "full" in by_arm:
            full = by_arm["full"]["summary"]
            self.quality = (full["auroc"]["mean"], full["micro_f1"]["mean"])
        return proc


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ----------------------------------------------------------------------
# per-layer metrics from the traces of one op

# spans reported as <name>_s (total seconds per op) and <name>_calls
TIMED_SPANS = ("data.load", "data.splits", "hetgraph.compose",
               "hetgraph.features", "sparse.matmul", "sparse.transpose",
               "sparse.matvec", "energy.propagate", "energy.propagate_t",
               "model.forward", "pipeline.evaluate", "pipeline.save_checkpoint",
               "pipeline.load_checkpoint", "metrics.sweep")


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer values of one op from the traces of its processes."""
    stats: dict[str, dict] = {}
    counters: dict[str, float] = {}
    digests: list[str] = []
    for t in traces:
        for name, s in span_stats(t["spans"]).items():
            agg = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in agg:
                agg[k] += s[k]
        for k, v in t["counters"].items():
            counters[k] = counters.get(k, 0) + v
        digests += t["digests"]

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in TIMED_SPANS:
        m[name + "_s"] = stat(name, "total_s")
        m[name + "_calls"] = stat(name, "calls")
    trainings = stat("model.train", "calls")
    m.update({
        "hetgraph.compose_hit_ratio": ratio(counters.get("compose_hits", 0),
                                            stat("hetgraph.compose", "calls")),
        "hetgraph.composed_nnz": counters.get("composed_nnz", 0),
        "hetgraph.hop_nnz": counters.get("hop_nnz", 0),
        "sparse.matvec_nnz": counters.get("matvec_nnz", 0),
        "sparse.matvec_bytes_computed": counters.get("matvec_bytes", 0),
        "model.train_s": ratio(stat("model.train", "total_s"), trainings),
        "model.train_self_s": stat("model.train", "self_s"),
        "model.trainings": trainings,
        "model.epochs": counters.get("epochs", 0),
        "model.distinct_trainings_ratio": ratio(len(set(digests)), trainings),
        "pipeline.evaluate_self_s": stat("pipeline.evaluate", "self_s"),
        "pipeline.checkpoint_bytes": counters.get("checkpoint_bytes", 0),
        "metrics.sweep_moved_ratio": ratio(counters.get("sweeps_moved", 0),
                                           stat("metrics.sweep", "calls")),
        "cli.self_s": stat("cli", "self_s"),
    })
    return m


def coverage(traces: list[dict]) -> dict[str, float]:
    """Seconds of each layer's spans (union of intervals), summed over the
    op's processes, plus the groups the README makes claims about."""
    spans = [t["spans"] for t in traces]
    out = {layer: sum(covered_seconds(s, [layer]) for s in spans)
           for layer in LAYERS}
    out["energy+hetgraph+sparse"] = sum(
        covered_seconds(s, ["energy.", "hetgraph.", "sparse."]) for s in spans)
    return out


# ----------------------------------------------------------------------
# one workload

def median(values) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 units: dict[str, str]) -> dict:
    """Prepare, measure and check one workload; units names the metrics to
    report, as BENCHMARK.json lists them for this mode."""
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    run = Run(name, seed, work, trace)
    try:
        gen = run.prepare()
        if trace:
            values, report = traced_loop(run, seconds, gen, units)
        else:
            values, report = timed_loop(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    return {"correct": run.failed == 0 and not run.problems,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics, "report": report, "problems": run.problems}


def timed_loop(run: Run, seconds: float):
    setup = run.measure_setup()
    op_walls, rss = [], []
    start = time.perf_counter()
    while len(op_walls) < MIN_OPS or time.perf_counter() - start < seconds:
        procs = run.op(traced=False)
        op_walls.append(sum(p.wall_s for p in procs))
        rss.append(max(p.rss_mb for p in procs))
    values = {
        "setup_s": median(setup), "op_s": median(op_walls),
        "peak_rss_mb": max(rss), "ok_frac": 1.0 - run.failed / run.attempted,
    }
    report = [f"setup_s: median {values['setup_s']:.4f} s over {len(setup)} setups"]
    report.append(f"op_s ({run.op_kind}): median {values['op_s']:.4f} s "
                  f"over {len(op_walls)} ops")
    for kind, walls in run.cmd_walls.items():
        report.append(f"  {kind}: median {median(walls):.4f} s over {len(walls)} commands")
    report.append(f"peak_rss_mb: {values['peak_rss_mb']:.1f} (max over the op commands)")
    report.append(quality_line(run))
    return values, report


def quality_line(run: Run) -> str:
    if run.quality is None:
        return "quality: no successful op"
    return (f"quality (deterministic for a training seed): auroc "
            f"{run.quality[0]:.6f}, micro_f1 {run.quality[1]:.6f}")


def traced_loop(run: Run, seconds: float, gen: Proc, units: dict[str, str]):
    plain, traced, per_op, shares = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(sum(p.wall_s for p in run.op(traced=False)))
        procs = run.op(traced=True)
        wall = sum(p.wall_s for p in procs)
        traced.append(wall)
        traces = [p.trace for p in procs if p.trace is not None]
        if len(traces) != len(procs):
            run.problems.append("a traced command wrote no spans")
            continue
        per_op.append(layer_metrics(traces))
        shares.append({k: v / wall for k, v in coverage(traces).items()})
    if not per_op:
        raise BenchError("no traced op completed: " + "; ".join(run.problems))

    values = {}
    for name in units.keys() & per_op[0].keys():
        # counts of work, not timings, must repeat exactly from op to op
        if units[name] != "s":
            seen = {op[name] for op in per_op}
            if len(seen) > 1:
                run.problems.append(f"{name} differs between identical ops: {sorted(seen)}")
            values[name] = per_op[0][name]
        else:
            values[name] = median(op[name] for op in per_op)
    gen_stats = span_stats(gen.trace["spans"]) if gen.trace else {}
    values["data.gen_s"] = gen_stats.get("data.gen", {}).get("total_s", 0.0)
    values["data.save_s"] = gen_stats.get("data.save", {}).get("total_s", 0.0)
    values["data.dataset_bytes"] = sum(
        f.stat().st_size for f in (run.work / "data").rglob("*") if f.is_file())
    for kind in ("train", "eval", "ablate"):
        walls = run.cmd_walls.get(kind)
        values[f"cmd.{kind}_s"] = median(walls) if walls else 0.0
    # without one good eval there is no quality to report; the run is then
    # already marked incorrect
    values["metrics.auroc"], values["metrics.micro_f1"] = run.quality or (0.0, 0.0)
    values["trace.wall_s"] = median(traced)
    values["trace.overhead_frac"] = median(traced) / median(plain) - 1.0

    report = [f"traced ops: {len(traced)}, untraced ops: {len(plain)}; "
              f"traced op median {median(traced):.4f} s, untraced "
              f"{median(plain):.4f} s", quality_line(run)]
    report.append("share of traced op wall time covered by each layer's spans:")
    for key in shares[0]:
        report.append(f"  {key:<28} {median(s[key] for s in shares):6.1%}")
    wall = values["trace.wall_s"]
    report.append(f"  {'model.train_self+forward':<28} "
                  f"{(values['model.train_self_s'] + values['model.forward_s']) / wall:6.1%}")
    report.append(f"  {'data.load+hetgraph.compose':<28} "
                  f"{(values['data.load_s'] + values['hetgraph.compose_s']) / wall:6.1%}")
    return values, report


# ----------------------------------------------------------------------
# provenance

def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = None
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    if caches:
        try:
            llc = (caches[-1] / "size").read_text().strip()
        except OSError:
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = res.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "last_level_cache": llc, "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS), "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seeds": {"dataset": seed, "train": seed,
                  "ablate": [seed + i for i in range(ABLATE_SEEDS)]},
    }


# ----------------------------------------------------------------------

def result_line(res: dict) -> str:
    return json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oodhg" / "cli.py").is_file():
        print(f"error: no oodhg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    results = {}
    for name in names:
        print(f"workload {name}: {why.get(name, 'not gated, see perfbench/README.md')}",
              flush=True)
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), units)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for line in res["report"]:
            print("  " + line)
        for problem in res["problems"]:
            print(f"  FAILED {problem}")
        results[name] = res

    if args.workload != "all":
        print(result_line(results[args.workload]))
        return 0
    print(f"{'metric':<36}" + "".join(f"{n:>16}" for n in names))
    for metric, unit in units.items():
        cells = "".join(f"{results[n]['metrics'][metric]['value']:>16.6g}" for n in names)
        print(f"{metric + ' (' + unit + ')':<36}{cells}")
    print(json.dumps({n: json.loads(result_line(r)) for n, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

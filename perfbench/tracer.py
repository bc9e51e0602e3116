"""Run one oodhg CLI command with spans around the calls into each layer.

    python3 perfbench/tracer.py SPANS_JSON -- <oodhg arguments>

The program is not modified: before the command runs, the public functions
the CLI reaches are replaced, in the namespaces that call them, by wrappers
that record a span (name, start, end, parent) and a few exact counts. Spans
stay in memory and are written to SPANS_JSON when the command ends. The
exit code is the command's own.

The second half of this file turns recorded spans into per-span totals,
self times and interval coverage; it does not import oodhg.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path


class Recorder:
    """Spans and counters of one process; single-threaded by construction."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.digests: list[str] = []
        self._seen: dict[str, dict[int, object]] = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def first_sighting(self, kind: str, obj) -> bool:
        """True the first time obj is returned under kind. The object is kept
        alive so its id cannot be reused by a later one."""
        seen = self._seen.setdefault(kind, {})
        if id(obj) in seen:
            return False
        seen[id(obj)] = obj
        return True

    def wrap(self, name: str, fn, after=None):
        """fn inside a span called name; after(result, *args) runs once the
        span has closed. A call made directly inside a span of the same name
        (the public forward calling forward_from_features) adds no span."""
        rec = self

        def wrapper(*args, **kwargs):
            if rec._stack and rec.spans[rec._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            rec.spans.append([name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1])
            rec._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[idx][1] = start
                rec.spans[idx][2] = end
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "digests": self.digests}, fh)


def install(rec: Recorder):
    """Patch the call sites train, eval, ablate and gen go through; returns
    the wrapped CLI entry point."""
    from oodhg import cli, hetgraph, model, pipeline
    from oodhg.metrics import ENERGY_TAU_GRID
    from oodhg.sparse import SparseRowMatrix

    def on_compose(result, *args, **kwargs):
        if rec.first_sighting("compose", result):
            rec.add("composed_nnz", result.nnz)
        else:
            rec.add("compose_hits")

    def on_matvec(result, mat, *args, **kwargs):
        rec.add("matvec_nnz", mat.nnz)
        # values, column indices and gathered inputs per nonzero; offsets
        # and output per row; all 8-byte words
        rec.add("matvec_bytes", 8 * (3 * mat.nnz + 2 * mat.n_rows + 1))

    def on_train(result, *args, **kwargs):
        params, history = result
        h = hashlib.sha256()
        for arr in params.param_list():
            h.update(arr.tobytes())
        rec.digests.append(h.hexdigest())
        rec.add("epochs", len(history))

    def on_sweep(result, *args, **kwargs):
        grid = args[4] if len(args) > 4 else kwargs.get("grid")
        low = float(min(ENERGY_TAU_GRID if grid is None else grid))
        rec.add("sweeps_moved", 1 if result[0] > low else 0)

    def on_save_checkpoint(result, *args, **kwargs):
        rec.add("checkpoint_bytes", result.stat().st_size)

    def on_load_checkpoint(result, *args, **kwargs):
        rec.add("checkpoint_bytes", Path(args[0]).stat().st_size)

    sites = [
        (cli, "load_dataset", "data.load", None),
        (cli, "make_splits", "data.splits", None),
        (cli, "generate_synthetic", "data.gen", None),
        (cli, "save_dataset", "data.save", None),
        (cli, "train", "model.train", on_train),
        (cli, "evaluate", "pipeline.evaluate", None),
        (cli, "save_checkpoint", "pipeline.save_checkpoint", on_save_checkpoint),
        (cli, "load_checkpoint", "pipeline.load_checkpoint", on_load_checkpoint),
        (pipeline, "compose_metapath", "hetgraph.compose", on_compose),
        (pipeline, "propagate", "energy.propagate", None),
        (pipeline, "forward", "model.forward", None),
        (pipeline, "train", "model.train", on_train),
        (pipeline, "evaluate", "pipeline.evaluate", None),
        (pipeline, "sweep_threshold", "metrics.sweep", on_sweep),
        (model, "compose_metapath", "hetgraph.compose", on_compose),
        (model, "metapath_features", "hetgraph.features", None),
        (model, "propagate", "energy.propagate", None),
        (model, "propagate_transpose", "energy.propagate_t", None),
        (model, "forward_from_features", "model.forward", None),
        (SparseRowMatrix, "matmul", "sparse.matmul", None),
        (SparseRowMatrix, "transpose", "sparse.transpose", None),
        (SparseRowMatrix, "matvec", "sparse.matvec", on_matvec),
    ]
    for owner, attr, name, after in sites:
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), after))

    # hop matrices are counted, not timed: their build is part of compose
    # and feature aggregation, whose spans already cover it
    hop = hetgraph.hop_matrix

    def counted_hop(*args, **kwargs):
        result = hop(*args, **kwargs)
        if rec.first_sighting("hop", result):
            rec.add("hop_nnz", result.nnz)
        return result

    hetgraph.hop_matrix = counted_hop
    return rec.wrap("cli", cli.main)


# ----------------------------------------------------------------------
# analysis of recorded spans (parent side)

def span_stats(spans) -> dict[str, dict]:
    """name -> {"calls", "total_s", "self_s"}; self time is a span's duration
    minus the durations of its direct children."""
    out: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += (end - start) - child_time[i]
    return out


def covered_seconds(spans, prefixes) -> float:
    """Length of the union of the intervals of spans whose name starts with
    one of prefixes."""
    intervals = sorted((s[1], s[2]) for s in spans
                       if s[0].startswith(tuple(prefixes)))
    total, cur_start, cur_end = 0.0, None, None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <oodhg arguments>", file=sys.stderr)
        return 2
    rec = Recorder()
    entry = install(rec)
    try:
        code = entry(argv[2:])
    finally:
        rec.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

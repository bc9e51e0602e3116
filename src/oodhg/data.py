"""Dataset ingestion, split construction, and a synthetic benchmark generator.

Directory format:
    schema.json   node_types: [{name, count, feature_dim}], edge_types:
                  [{name, src, dst}], target_type, plus optional metapaths
                  (explicit type-name sequences) and max_hops (used for
                  enumeration when metapaths is absent); the graph carries
                  these two, and build_graph checks them.
    edges/<edge_type>.tsv      one "src<TAB>dst" pair of 0-based ids per line.
    features/<node_type>.csv   count x feature_dim decimal floats.
    labels.tsv                 one "node_id<TAB>label" per target node.
    splits.json (optional)     {train, val, test, ood_class}.
    <table>.bin (optional)     beside each .tsv and .csv table that
                               save_dataset writes: the parsed table, with
                               the byte length and CRC-32 of its text.

The text files are the record. A load takes a table from its sidecar only
when the sidecar was written for exactly the text file's current bytes,
at the table's width, and holds the whole table; otherwise, silently, it
parses the text (see _cached_table). Every check after the read runs on
the table either way, and a load never writes.

Every JSON file, here or elsewhere, is read by _read_json under one type
policy (see _typed); a value of another type is a ValidationError naming
the file and key path, never truncated or coerced.

Text files are read as Python's int() and float() read each field, and
blank lines are skipped; ids and labels must fit int64. numpy's C reader
parses them, and one line-by-line reference parser (_parse_lines), for
edge, label and feature tables alike, takes over for any file that reader
refuses or could read differently and for any blank file, so a bad field
is reported as a ParseError naming its file and line. An out-of-range
edge endpoint and an out-of-range or repeated label name their file line
too. Text and JSON files are UTF-8; any other bytes are a ParseError
naming the file.

Splits follow the transductive protocol: every node of the held-out class
goes to the test set; the remaining nodes are shuffled by a seeded Philox
generator with an explicit Fisher-Yates pass (stated so the permutation can
be reproduced in any language) and cut at fractions of the total target
count. For the n remaining nodes the pass swaps position i with position
j_i = integers(0, i + 1) for i = n - 1 down to 1, in that order. All n - 1
draws are made by one integers call with the array of bounds n, ..., 2,
which consumes the generator's stream exactly as n - 1 scalar calls do.
The generator is the in-package philox.PhiloxGenerator, bitwise numpy's
Generator(Philox(seed)); generate_synthetic still draws from numpy.random,
whose standard_normal is numpy's ziggurat sampler.
"""

from __future__ import annotations

import io
import json
import math
import reprlib
import struct
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    FractionOverflow,
    MissingFile,
    OodClassMissing,
    OodhgError,
    ParseError,
    ValidationError,
)
from .hetgraph import (
    DEFAULT_MAX_HOPS,
    EdgeTypeSchema,
    HeteroGraph,
    NodeTypeSchema,
    build_graph,
)
from .sparse import sorted_distinct

# distance of each in-distribution class mean from the origin (one-hot axis
# per class); the held-out class is pulled back toward the origin by
# ood_shift, so shift 0 makes it indistinguishable from its hidden class
CLASS_SEP = 3.0

# make_splits' train and val sizes, as fractions of all target nodes
TRAIN_FRAC = 0.24
VAL_FRAC = 0.06

# edge coins are drawn this many (target, aux) cells at a time, so the
# generator's coin buffer stays near 8 MB however large the graph grows
COIN_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class Splits:
    """Disjoint train/val/test node ids plus the held-out class label;
    a negative or repeated id is a ValidationError."""

    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray
    ood_class: int

    def __post_init__(self):
        for name in ("train_ids", "val_ids", "test_ids"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.int64))
        ids = np.concatenate([self.train_ids, self.val_ids, self.test_ids])
        if ids.size and ids.min() < 0:
            raise ValidationError(f"negative node id {ids.min()}")
        if sorted_distinct(ids).size != ids.size:
            raise ValidationError("splits overlap")

    def to_dict(self) -> dict:
        """The splits.json payload."""
        return {"train": self.train_ids.tolist(), "val": self.val_ids.tolist(),
                "test": self.test_ids.tolist(), "ood_class": int(self.ood_class)}


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic heterogeneous benchmark."""

    n_id_classes: int = 3
    nodes_per_class: int = 150
    n_aux_types: int = 2
    feature_dim: int = 16
    intra_edge_prob: float = 0.07
    inter_edge_prob: float = 0.0035
    ood_shift: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.n_id_classes < 2:
            raise ValueError(f"n_id_classes must be >= 2, got {self.n_id_classes}")
        if self.nodes_per_class < 1 or self.n_aux_types < 1 or self.feature_dim < 1:
            raise ValueError("nodes_per_class, n_aux_types, feature_dim must be >= 1")
        for p in (self.intra_edge_prob, self.inter_edge_prob):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"edge probability {p} outside [0, 1]")
        if self.ood_shift < 0:
            raise ValueError(f"ood_shift must be >= 0, got {self.ood_shift}")
        if not math.isfinite(self.ood_shift):
            raise ValueError(f"ood_shift must be finite, got {self.ood_shift}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _fisher_yates(rng, arr: np.ndarray) -> np.ndarray:
    """Classic Fisher-Yates shuffle driven by rng.integers, back to front:
    position i swaps with j_i = integers(0, i + 1) for i = n - 1 down to 1,
    every j_i drawn by one call. rng is a PhiloxGenerator or a numpy
    Generator."""
    n = arr.size
    out = arr.tolist()
    js = rng.integers(0, np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), js):
        out[i], out[j] = out[j], out[i]
    return np.array(out, dtype=arr.dtype)


def make_splits(labels: np.ndarray, ood_class: int, seed: int = 0) -> Splits:
    """Deterministic splits with every held-out-class node in the test set.

    Cut sizes are floor(fraction * total node count) for TRAIN_FRAC and
    VAL_FRAC, so the fractions are taken against all target nodes, not just
    the in-distribution ones.

    Raises OodClassMissing when ood_class never occurs, FractionOverflow
    when the non-held-out nodes cannot fill the train and val quotas.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if not np.any(labels == ood_class):
        raise OodClassMissing(f"class {ood_class} does not occur in the labels")
    n_train = int(n * TRAIN_FRAC + 1e-9)
    n_val = int(n * VAL_FRAC + 1e-9)
    non_ood = np.flatnonzero(labels != ood_class)
    if n_train + n_val > non_ood.size:
        raise FractionOverflow(
            f"need {n_train + n_val} non-held-out nodes for train+val, "
            f"only {non_ood.size} available")
    # imported here: only make_splits and train draw from it, and a process
    # that draws nothing need not compile it
    from .philox import PhiloxGenerator
    perm = _fisher_yates(PhiloxGenerator(seed), non_ood)
    train = np.sort(perm[:n_train])
    val = np.sort(perm[n_train:n_train + n_val])
    rest = perm[n_train + n_val:]
    test = np.sort(np.concatenate([rest, np.flatnonzero(labels == ood_class)]))
    return Splits(train, val, test, int(ood_class))


def _edge_coins(rng: np.random.Generator, labels: np.ndarray,
                communities: np.ndarray, intra: float, inter: float) -> np.ndarray:
    """(target, aux) pairs whose coin came up, in row-major order.

    Draws the n_target x n_aux coin matrix in blocks of whole rows. The
    stream is consumed in the same order as one full-matrix draw, so the
    edges are identical; only the peak buffer is smaller.
    """
    n_target, n_aux = labels.size, communities.size
    rows = max(1, COIN_BLOCK_CELLS // n_aux)
    blocks = []
    for start in range(0, n_target, rows):
        stop = min(start + rows, n_target)
        prob = np.where(labels[start:stop, None] == communities[None, :],
                        intra, inter)
        hits = np.argwhere(rng.random((stop - start, n_aux)) < prob)
        hits[:, 0] += start
        blocks.append(hits)
    return np.concatenate(blocks).astype(np.int64)


def generate_synthetic(cfg: SynthConfig) -> tuple[HeteroGraph, np.ndarray]:
    """Planted-community heterogeneous graph with one held-out class.

    Target nodes come in K+1 equal blocks: classes 0..K-1 are ID, class K is
    held out. Features are unit-variance Gaussians; class c centers on
    CLASS_SEP * e_c, while each held-out node picks a hidden ID class and
    centers on (CLASS_SEP - ood_shift) * e_hidden, drifting toward the
    origin as the shift grows. Each auxiliary type carries one community per
    class; a target-aux edge appears with intra_edge_prob when the target's
    class matches the aux community and inter_edge_prob otherwise, and every
    relation is declared in both directions. Two-hop target neighbourhoods
    are therefore class-aligned, including among held-out nodes. The graph
    enumerates its meta-paths within DEFAULT_MAX_HOPS hops.

    Draw order from the single Philox(seed) stream: hidden classes, feature
    noise, then edge coins per auxiliary type, one uniform per (target, aux)
    cell in row-major order. Equal seeds give identical datasets byte for
    byte.
    """
    k = cfg.n_id_classes
    npc = cfg.nodes_per_class
    n_target = (k + 1) * npc
    labels = np.repeat(np.arange(k + 1, dtype=np.int64), npc)
    rng = np.random.Generator(np.random.Philox(cfg.seed))

    hidden = rng.integers(0, k, size=npc)
    axis = labels % cfg.feature_dim
    scale = np.full(n_target, CLASS_SEP)
    axis[labels == k] = hidden % cfg.feature_dim
    scale[labels == k] = CLASS_SEP - cfg.ood_shift
    means = np.zeros((n_target, cfg.feature_dim))
    means[np.arange(n_target), axis] = scale
    features = means + rng.standard_normal((n_target, cfg.feature_dim))

    aux_per_comm = max(npc // 3, 1)
    n_aux = (k + 1) * aux_per_comm
    communities = np.repeat(np.arange(k + 1), aux_per_comm)

    node_types = [NodeTypeSchema("target", n_target, cfg.feature_dim)]
    edge_types = []
    edges = {}
    for a in range(cfg.n_aux_types):
        aux_name = f"aux{a}"
        node_types.append(NodeTypeSchema(aux_name, n_aux, 0))
        pairs = _edge_coins(rng, labels, communities,
                            cfg.intra_edge_prob, cfg.inter_edge_prob)
        fwd = f"target_{aux_name}"
        rev = f"{aux_name}_target"
        edge_types.append(EdgeTypeSchema(fwd, "target", aux_name))
        edge_types.append(EdgeTypeSchema(rev, aux_name, "target"))
        edges[fwd] = pairs
        edges[rev] = pairs[:, ::-1]
    graph = build_graph(node_types, edge_types, edges,
                        {"target": features}, "target",
                        max_hops=DEFAULT_MAX_HOPS)
    return graph, labels


# ----------------------------------------------------------------------
# directory io

def _int_pair_text(pairs: np.ndarray) -> str:
    """One "a<TAB>b" line per row of an (m, 2) integer array."""
    flat = np.asarray(pairs, dtype=np.int64).reshape(-1).tolist()
    return ("{}\t{}\n" * (len(flat) // 2)).format(*flat)


def save_dataset(dir_path, graph: HeteroGraph, labels=None,
                 splits=None) -> Path:
    """Write a dataset directory; the inverse of load_dataset.

    schema.json holds the graph's metapaths and max_hops where they are
    set. Feature csv files store each float via repr, so load_dataset gives
    the features back bitwise. Each text table gets a binary sidecar
    beside it (see _write_table). Raises ValidationError when dir_path
    already holds a schema.json: the old dataset's files would outlive the
    ones this call replaces.
    """
    root = Path(dir_path)
    if (root / "schema.json").exists():
        raise ValidationError(f"{root} already holds a dataset (schema.json); "
                              f"save into a new directory")
    root.mkdir(parents=True, exist_ok=True)
    schema = {
        "node_types": [
            {"name": s.name, "count": s.count, "feature_dim": s.feature_dim}
            for s in graph.node_types],
        "edge_types": [
            {"name": s.name, "src": s.src_type, "dst": s.dst_type}
            for s in graph.edge_types],
        "target_type": graph.target_type,
    }
    if graph.metapaths is not None:
        schema["metapaths"] = [list(p.types) for p in graph.metapaths]
    if graph.max_hops is not None:
        schema["max_hops"] = graph.max_hops
    _write_json(root / "schema.json", schema)

    edge_dir = root / "edges"
    edge_dir.mkdir(exist_ok=True)
    for s in graph.edge_types:
        pairs = graph.edges[s.name]
        _write_table(edge_dir / f"{s.name}.tsv", _int_pair_text(pairs), pairs)

    feat_dir = root / "features"
    feat_dir.mkdir(exist_ok=True)
    for s in graph.node_types:
        if s.feature_dim == 0:
            continue
        mat = graph.features[s.name]
        text = "".join(",".join(repr(float(v)) for v in row) + "\n"
                       for row in mat)
        _write_table(feat_dir / f"{s.name}.csv", text, mat)

    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        pairs = np.column_stack([np.arange(labels.size, dtype=np.int64), labels])
        _write_table(root / "labels.tsv", _int_pair_text(pairs), pairs)
    if splits is not None:
        _write_json(root / "splits.json", splits.to_dict())
    return root


def _open_text(path: Path) -> io.StringIO:
    """path's text as text mode reads it, each CRLF and lone CR read as a
    newline. The bytes are decoded in one pass, so a byte that is not UTF-8
    is a ParseError naming its offset in the file."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not valid UTF-8 "
                         f"({exc.reason})") from None
    return io.StringIO(text, newline=None)


_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _require_file(path: Path) -> None:
    """MissingFile unless path is a regular file (or a link to one)."""
    if not path.is_file():
        raise MissingFile(f"{path} is not a file" if path.exists()
                          else f"{path} not found")


@dataclass(frozen=True)
class OptionalKey:
    """Spec of an object key that may be absent; null counts as absent."""

    kind: object


def _typed(value, spec, file: Path, at: tuple = ()):
    """value, at key path at of file, checked against spec and converted:

        int          an integer that fits int64, never a bool
        float        a finite integer or float, read as a float
        str          a string; a str instance: exactly that string
        [spec]       a list whose every element matches spec
        {key: spec}  an object holding every key and no other, save that
                     an OptionalKey may be absent or null (and is then
                     left out)

    A mismatch is a ValidationError naming file and the key path, e.g.
    "splits.json: 'train[0]' must be an integer, got 0.9".
    """
    if spec is int:
        if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
            return value
        noun = "an integer" + (" that fits int64" if type(value) is int else "")
    elif spec is float:
        if (type(value) is float and math.isfinite(value)
                or type(value) is int and abs(value) <= sys.float_info.max):
            return float(value)
        noun = "a finite number"
    elif spec is str or type(spec) is str:
        if type(value) is str and (spec is str or value == spec):
            return value
        noun = "a string" if spec is str else repr(spec)
    elif type(spec) is list:
        if type(value) is list:
            return [_typed(v, spec[0], file, (*at, i)) for i, v in enumerate(value)]
        noun = "a list"
    elif type(value) is dict:
        unknown = [key for key in value if key not in spec]
        if unknown:
            raise _mismatch(file, at, f"has unknown key {unknown[0]!r}; "
                            f"expected one of {sorted(spec)}")
        out = {}
        for key, kind in spec.items():
            if type(kind) is OptionalKey:
                if value.get(key) is None:
                    continue
                kind = kind.kind
            if key not in value:
                raise _mismatch(file, (*at, key), "is missing")
            out[key] = _typed(value[key], kind, file, (*at, key))
        return out
    else:
        noun = "a JSON object"
    raise _mismatch(file, at, f"must be {noun}, got {reprlib.repr(value)}")


def _mismatch(file: Path, at: tuple, problem: str) -> ValidationError:
    """"file: 'a.b[0].c' problem" for at = ("a", "b", 0, "c")."""
    path = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in at)
    where = repr(path.removeprefix(".")) if at else "top level"
    return ValidationError(f"{file}: {where} {problem}")


def _read_document(path: Path):
    """The JSON document at path, unchecked."""
    _require_file(path)
    text = _open_text(path)
    try:
        return json.load(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None


def _read_json(path: Path, spec):
    """The JSON document at path, checked against spec by _typed."""
    return _typed(_read_document(path), spec, path)


def _write_json(path: Path, payload) -> None:
    """The one JSON artifact format: sorted keys, two-space indent, final
    newline."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# the bytes on which numpy's C reader parses a field exactly as Python's
# int() and float() do: its digit test misreads code points above 255, and
# its whitespace test admits \x1c-\x1f, which Python's parsers refuse
_PLAIN_TEXT = b"\t\n\r" + bytes(range(0x20, 0x7F))


# a sidecar <table>.bin opens with this header: the magic, then the byte
# length and zlib.crc32 of the text file it was written with, then the
# table's rows and cols; the table follows in C order, little-endian
_SIDECAR = struct.Struct("<8sqqqq")
_SIDECAR_MAGIC = b"OODHGTB1"


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".bin")


def _write_table(path: Path, text: str, table: np.ndarray) -> None:
    """Write text to path and the table it was formatted from, which parses
    back from text exactly, to path's sidecar."""
    raw = text.encode("utf-8")
    path.write_bytes(raw)
    with _sidecar(path).open("wb") as fh:
        fh.write(_SIDECAR.pack(_SIDECAR_MAGIC, len(raw), zlib.crc32(raw),
                               *table.shape))
        fh.write(np.ascontiguousarray(
            table, dtype=table.dtype.newbyteorder("<")).tobytes())


def _cached_table(path: Path, raw: bytes, dtype, width: int):
    """The table path's sidecar holds for exactly the bytes raw, or None
    when the sidecar is missing, unreadable, written for other bytes or
    another width, or holds the wrong number of items.

    The CRC guards against a text file edited after it was written, not
    against a deliberate forgery: whoever can edit one file can edit both.
    """
    try:
        with _sidecar(path).open("rb") as fh:
            head = fh.read(_SIDECAR.size)
            if len(head) != _SIDECAR.size:
                return None
            magic, size, crc, rows, cols = _SIDECAR.unpack(head)
            if (magic != _SIDECAR_MAGIC or size != len(raw) or cols != width
                    or crc != zlib.crc32(raw)):
                return None
            table = np.fromfile(fh, dtype=np.dtype(dtype).newbyteorder("<"))
    except OSError:
        return None
    if table.size != rows * cols:
        return None
    return table.astype(dtype, copy=False).reshape(rows, cols)


def _read_table(path: Path, dtype, delimiter: str, width: int) -> np.ndarray:
    """(rows, width) table of a delimited text file, read by np.loadtxt
    unless its sidecar holds the table for exactly these bytes.

    _parse_lines, the line-by-line reference parser, decides every file the
    C reader refuses, reads at another width, or might read differently,
    and every blank file, on which loadtxt would warn. The reference
    accepts more (Python int/float syntax such as "1_0", whitespace-only
    lines) and names the file line of a bad field, which loadtxt's row
    numbers cannot give. Where loadtxt returns the table, the reference
    returns the same values.
    """
    _require_file(path)
    raw = path.read_bytes()
    table = _cached_table(path, raw, dtype, width)
    if table is not None:
        return table
    # int() refuses a field of more than get_int_max_str_digits() digits,
    # leading zeros included; one that still fits int64 has at most 19
    # digits after its zeros, so it holds a run of limit - 18 zeros
    limit = sys.get_int_max_str_digits()
    if (not raw.strip() or raw.translate(None, _PLAIN_TEXT)
            or (limit and b"0" * (limit - 18) in raw)):
        return _parse_lines(path, dtype, delimiter, width)
    try:
        table = np.loadtxt(path, dtype=dtype, delimiter=delimiter, ndmin=2,
                           comments=None)
    except ValueError:
        return _parse_lines(path, dtype, delimiter, width)
    if table.shape[1] == width:
        return table
    return _parse_lines(path, dtype, delimiter, width)


def _text_lines(path: Path):
    """(1-based line number, stripped line) for every non-blank line of a
    UTF-8 text file; ParseError naming the file when it is not UTF-8."""
    lines = _open_text(path).readlines()
    return [(n, line.strip()) for n, line in enumerate(lines, start=1)
            if line.strip()]


def _parse_lines(path: Path, dtype, delimiter: str, width: int) -> np.ndarray:
    """Reference parser of a delimited table: width fields on each line,
    blank lines skipped. A field of an int64 table is read by int() and
    must fit int64; any other field is read by float()."""
    integer = np.dtype(dtype).kind == "i"
    read = int if integer else float
    rows = []
    for lineno, line in _text_lines(path):
        parts = line.split(delimiter)
        if len(parts) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} fields, "
                             f"got {len(parts)}")
        try:
            row = [read(v) for v in parts]
        except ValueError:
            noun = "non-integer" if integer else "non-numeric"
            raise ParseError(f"{path}:{lineno}: {noun} field") from None
        if integer and not all(_INT64_MIN <= v <= _INT64_MAX for v in row):
            raise ParseError(f"{path}:{lineno}: integer field outside "
                             "the int64 range")
        rows.append(row)
    return np.asarray(rows, dtype=dtype).reshape(-1, width)


def _parse_int_pair_file(path: Path) -> np.ndarray:
    return _read_table(path, np.int64, "\t", 2)


def _data_line(path: Path, row: int) -> int:
    """1-based line of path holding its row-th (0-based) data row; blank
    lines hold no row."""
    return _text_lines(path)[row][0]


def _load_features(feat_dir: Path, name: str, count: int, dim: int) -> np.ndarray:
    path = feat_dir / f"{name}.csv"
    mat = _read_table(path, np.float64, ",", dim)
    if mat.shape[0] != count:
        raise ValidationError(f"{path}: {mat.shape[0]} rows for "
                              f"{count} nodes of type {name!r}")
    return mat


def _assign_labels(path: Path, pairs: np.ndarray, n_target: int) -> np.ndarray:
    """labels[node_id] = value for each (node_id, value) row of path.

    Rows apply in file order, so the error raised is the one at the first
    bad row, named by its line in path: a node id outside [0, n_target), a
    negative label, or a node that an earlier row already labelled. Then
    every target node must hold a label.
    """
    ids, values = pairs[:, 0], pairs[:, 1]
    outside = (ids < 0) | (ids >= n_target)
    # a row is a duplicate when an earlier row names its node; rows after
    # the first error never apply, so only rows before the first outside id
    # matter and outside ids can be left out here
    inside = np.flatnonzero(~outside)
    order = inside[np.argsort(ids[inside], kind="stable")]
    duplicate = np.zeros(ids.size, dtype=bool)
    duplicate[order[1:][ids[order[1:]] == ids[order[:-1]]]] = True
    bad = np.flatnonzero(outside | (values < 0) | duplicate)
    if bad.size:
        row = int(bad[0])
        node_id = int(ids[row])
        where = f"{path}:{_data_line(path, row)}"
        if outside[row]:
            raise ValidationError(f"{where}: node id {node_id} "
                                  f"outside [0, {n_target})")
        if values[row] < 0:
            raise ValidationError(f"{where}: negative label {int(values[row])} "
                                  f"for node {node_id}")
        raise ValidationError(f"{where}: duplicate label for node {node_id}")
    seen = np.zeros(n_target, dtype=bool)
    seen[ids] = True
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise ValidationError(f"{path}: no label for target node {missing}")
    labels = np.empty(n_target, dtype=np.int64)
    labels[ids] = values
    return labels


_SCHEMA = {
    "node_types": [{"name": str, "count": int, "feature_dim": OptionalKey(int)}],
    "edge_types": [{"name": str, "src": str, "dst": str}],
    "target_type": str,
    "metapaths": OptionalKey([[str]]),
    "max_hops": OptionalKey(int),
}

def _read_schema(root: Path) -> dict:
    """schema.json of the directory root, read against _SCHEMA and checked:
    every type its node and edge types name is declared. build_graph checks
    the meta-path settings."""
    path = root / "schema.json"
    schema = _read_json(path, _SCHEMA)
    declared = {e["name"] for e in schema["node_types"]}
    for e in schema["edge_types"]:
        for end in (e["src"], e["dst"]):
            if end not in declared:
                raise ValidationError(
                    f"{path}: edge type {e['name']!r} references "
                    f"unknown node type {end!r}")
    if schema["target_type"] not in declared:
        raise ValidationError(
            f"{path}: target_type {schema['target_type']!r} not declared")
    return schema


def load_dataset(dir_path) -> tuple[HeteroGraph, np.ndarray, Splits | None]:
    """Load and validate a dataset directory.

    Returns (graph, labels, splits) with splits None when splits.json is
    absent. Every error names the dataset. An error found in reading one
    file starts with that file's path, and with its line or key where one
    applies. An error build_graph raises over the tables read or the
    meta-path settings (a repeated (src, dst) pair in an edge type, a node
    type count < 1, a repeated type name, a non-finite feature value, a
    meta-path it refuses) keeps its class and starts with the dataset
    directory.
    """
    root = Path(dir_path)
    schema = _read_schema(root)
    node_types = [NodeTypeSchema(e["name"], e["count"], e.get("feature_dim", 0))
                  for e in schema["node_types"]]
    edge_types = [EdgeTypeSchema(e["name"], e["src"], e["dst"])
                  for e in schema["edge_types"]]
    declared = {s.name: s for s in node_types}

    edges = {}
    for s in edge_types:
        path = root / "edges" / f"{s.name}.tsv"
        pairs = _parse_int_pair_file(path)
        n_src = declared[s.src_type].count
        n_dst = declared[s.dst_type].count
        if pairs.size:
            bad = np.flatnonzero((pairs[:, 0] < 0) | (pairs[:, 0] >= n_src) |
                                 (pairs[:, 1] < 0) | (pairs[:, 1] >= n_dst))
            if bad.size:
                raise ValidationError(
                    f"{path}:{_data_line(path, int(bad[0]))}: endpoint "
                    f"{tuple(pairs[bad[0]].tolist())} outside [0,{n_src}) x "
                    f"[0,{n_dst})")
        edges[s.name] = pairs

    features = {}
    for s in node_types:
        if s.feature_dim > 0:
            features[s.name] = _load_features(root / "features", s.name,
                                              s.count, s.feature_dim)

    try:
        graph = build_graph(node_types, edge_types, edges, features,
                            schema["target_type"], schema.get("metapaths"),
                            schema.get("max_hops"))
    except OodhgError as exc:
        raise type(exc)(f"{root}: {exc}") from None

    labels_path = root / "labels.tsv"
    pairs = _parse_int_pair_file(labels_path)
    n_target = graph.target_count
    labels = _assign_labels(labels_path, pairs, n_target)

    splits = None
    splits_path = root / "splits.json"
    if splits_path.exists():
        payload = _read_json(splits_path, {
            "train": [int], "val": [int], "test": [int], "ood_class": int})
        all_ids = np.asarray(payload["train"] + payload["val"] + payload["test"],
                             dtype=np.int64)
        if all_ids.size and (all_ids.min() < 0 or all_ids.max() >= n_target):
            raise ValidationError(f"{splits_path}: node id outside [0, {n_target})")
        try:
            splits = Splits(payload["train"], payload["val"], payload["test"],
                            payload["ood_class"])
        except ValidationError as exc:
            raise ValidationError(f"{splits_path}: {exc}") from None
    return graph, labels, splits


def load_path_config(dir_path) -> tuple[list[tuple[str, ...]] | None, int | None]:
    """Optional meta-path settings from schema.json: (metapaths, max_hops),
    None where absent, read and type-checked as load_dataset reads them;
    build_graph's checks of them run only in load_dataset, whose graph
    carries them. perfbench's setup probe is the one caller outside the
    tests."""
    schema = _read_schema(Path(dir_path))
    metapaths = schema.get("metapaths")
    if metapaths is not None:
        metapaths = [tuple(seq) for seq in metapaths]
    return metapaths, schema.get("max_hops")

"""Typed heterogeneous graphs and meta-path adjacency operators.

A graph holds typed node sets, one directed edge list per declared edge type,
and optional per-type feature matrices. Meta-paths are node-type sequences;
the adjacency of one is the product of the row-normalized per-hop
adjacencies, a row-stochastic matrix between the endpoint types. A graph
also carries its dataset's meta-path settings, an explicit metapaths list
and the max_hops of the enumeration, which build_graph checks; from those,
resolve_paths alone decides which meta-paths a model uses.

Propagation never forms that product: metapath_operator applies the cached
hops right to left (and their adjoints left to right), which costs the hops'
nnz per product instead of the far denser composed matrix. That operator is
the one definition of A_hat, repairs included. compose_metapath, the tests'
dense reference, stores it column by column from the operator's matvecs of
unit vectors.

Every hop is H = diag(1/deg) B for the 0/1 pattern B that hop_matrix
returns, applied through the HopKernel built from B: a segment sum over B
and one scale by 1/deg per row, with no multiply per nonzero and no valued
transpose; nothing here row-normalises B into a valued matrix. One
function, _chain, applies a path's hops right to left, for MetaPathOperator
and for metapath_features (one feature column at a time). A hop's adjoint
is bitwise H.transpose().matvec; its forward sums before it scales and so
rounds differently from the valued SparseRowMatrix products, within a few
ulps.

A graph's nodes, edges and features do not change after construction. Hop
kernels and meta-path feature tables are memoised lazily on the graph.
Memoised feature tables are read-only arrays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    FeaturelessEndType,
    IndexOutOfRange,
    InvalidPath,
    OodhgError,
    ShapeMismatch,
    UnknownType,
    ValidationError,
)
from .sparse import (
    RowLayout,
    SparseRowMatrix,
    column_major_keys,
    pair_keys,
    row_layout,
    segment_sum,
    sorted_distinct,
)


@dataclass(frozen=True)
class NodeTypeSchema:
    """One node type: its name, node count, and feature width (0 = featureless)."""

    name: str
    count: int
    feature_dim: int = 0


@dataclass(frozen=True)
class EdgeTypeSchema:
    """One directed edge type between two declared node types.

    Reverse relations are separate edge types; nothing is mirrored implicitly.
    """

    name: str
    src_type: str
    dst_type: str


@dataclass(frozen=True)
class MetaPath:
    """Ordered node-type sequence of length >= 2; hop count is len - 1."""

    types: tuple[str, ...]

    def __init__(self, types):
        if isinstance(types, MetaPath):
            types = types.types
        object.__setattr__(self, "types", tuple(types))
        if len(self.types) < 2:
            raise InvalidPath(f"meta-path needs at least 2 types, got {self.types}")

    def hops(self) -> list[tuple[str, str]]:
        return list(zip(self.types[:-1], self.types[1:]))

    def __str__(self) -> str:
        return "->".join(self.types)


class HeteroGraph:
    """Validated heterogeneous graph whose data does not change; hop
    kernels and meta-path feature tables are memoised on it as they are
    first used.

    Build through build_graph; the constructor trusts its inputs. Edge lists
    are (m, 2) int64 arrays of indices local to each endpoint type. Feature
    matrices are float64 with shape (count, feature_dim). metapaths and
    max_hops are the dataset's meta-path settings, which build_graph sets
    once it has checked them; None where the dataset sets none.
    """

    def __init__(self, node_types, edge_types, edges, features, target_type):
        self.node_types: tuple[NodeTypeSchema, ...] = tuple(node_types)
        self.edge_types: tuple[EdgeTypeSchema, ...] = tuple(edge_types)
        self.edges: dict[str, np.ndarray] = dict(edges)
        self.features: dict[str, np.ndarray] = dict(features)
        self.target_type: str = target_type
        self.metapaths: tuple[MetaPath, ...] | None = None
        self.max_hops: int | None = None
        self._nodes_by_name = {s.name: s for s in self.node_types}
        pair_index: dict[tuple[str, str], list[str]] = {}
        for s in self.edge_types:
            pair_index.setdefault((s.src_type, s.dst_type), []).append(s.name)
        self._pair_index = pair_index
        self._hop_cache: dict[tuple[str, str], HopKernel] = {}
        self._feature_cache: dict[tuple[str, ...], np.ndarray] = {}

    # -- schema lookups -------------------------------------------------

    def node_schema(self, name: str) -> NodeTypeSchema:
        try:
            return self._nodes_by_name[name]
        except KeyError:
            raise UnknownType(f"unknown node type {name!r}") from None

    def node_count(self, name: str) -> int:
        return self.node_schema(name).count

    def feature_dim(self, name: str) -> int:
        return self.node_schema(name).feature_dim

    @property
    def target_count(self) -> int:
        return self.node_count(self.target_type)

    def edge_type_names_between(self, src: str, dst: str) -> list[str]:
        return self._pair_index.get((src, dst), [])


def _checked_max_hops(max_hops) -> int:
    """max_hops as a Python int; a ValidationError unless it is an integer
    >= 2 of any integer type (a bool is 0 or 1, a float such as 3.0 none)."""
    try:
        hops = operator.index(max_hops)
    except TypeError:
        hops = 0
    if hops < 2:
        raise ValidationError(
            f"max_hops must be an integer >= 2, got {max_hops!r}")
    return hops


def build_graph(node_types, edge_types, edges, features, target_type,
                metapaths=None, max_hops=None) -> HeteroGraph:
    """Validate schemas, edges, features and meta-path settings, and
    assemble a HeteroGraph.

    Args:
        node_types: iterable of NodeTypeSchema.
        edge_types: iterable of EdgeTypeSchema.
        edges: mapping edge-type name -> iterable of (src, dst) index pairs.
        features: mapping node-type name -> (count, feature_dim) matrix;
            None when no type has features.
        target_type: name of the node type under classification.
        metapaths: type-name sequences the models of this graph use, or
            None to enumerate them (see resolve_paths).
        max_hops: hop limit of that enumeration, or None for
            DEFAULT_MAX_HOPS; any integer type, stored as a Python int.

    Raises:
        UnknownType: an edge schema, edges key, features key, target_type or
            meta-path names an undeclared type.
        IndexOutOfRange: an edge endpoint index is >= its type's count.
        DimensionMismatch: a feature matrix has the wrong shape.
        InvalidPath: a meta-path has fewer than 2 types, or a hop with no
            declared edge type.
        ValidationError: duplicate names, duplicate edge pairs, count < 1,
            missing features for a featured type, non-finite features, an
            edge type whose count(src) * count(dst) does not fit int64, an
            empty metapaths, a meta-path listed twice, or a max_hops that
            is not an integer >= 2 (a bool or a float such as 3.0 is not).
    """
    node_types = tuple(node_types)
    edge_types = tuple(edge_types)
    features = dict(features or {})
    edges = dict(edges or {})

    names = [s.name for s in node_types]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate node type names")
    for s in node_types:
        if s.count < 1:
            raise ValidationError(f"node type {s.name!r} must have count >= 1")
        if s.feature_dim < 0:
            raise ValidationError(f"node type {s.name!r} has negative feature_dim")
    by_name = {s.name: s for s in node_types}

    edge_names = [s.name for s in edge_types]
    if len(set(edge_names)) != len(edge_names):
        raise ValidationError("duplicate edge type names")
    for s in edge_types:
        for end in (s.src_type, s.dst_type):
            if end not in by_name:
                raise UnknownType(
                    f"edge type {s.name!r} references unknown node type {end!r}")

    if target_type not in by_name:
        raise UnknownType(f"target_type {target_type!r} is not a declared node type")

    declared = set(edge_names)
    for key in edges:
        if key not in declared:
            raise UnknownType(f"edges given for undeclared edge type {key!r}")
    checked_edges: dict[str, np.ndarray] = {}
    for s in edge_types:
        pairs = np.asarray(edges.get(s.name, np.zeros((0, 2))), dtype=np.int64)
        pairs = pairs.reshape(-1, 2)
        n_src = by_name[s.src_type].count
        n_dst = by_name[s.dst_type].count
        if pairs.size:
            if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= n_src:
                bad = pairs[(pairs[:, 0] < 0) | (pairs[:, 0] >= n_src)][0]
                raise IndexOutOfRange(
                    f"edge type {s.name!r}: src index {bad[0]} outside "
                    f"[0, {n_src}) for type {s.src_type!r}")
            if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= n_dst:
                bad = pairs[(pairs[:, 1] < 0) | (pairs[:, 1] >= n_dst)][0]
                raise IndexOutOfRange(
                    f"edge type {s.name!r}: dst index {bad[1]} outside "
                    f"[0, {n_dst}) for type {s.dst_type!r}")
            keys = pair_keys(n_src, n_dst, pairs[:, 0], pairs[:, 1])
            if sorted_distinct(keys).size != keys.size:
                raise ValidationError(f"duplicate (src, dst) pair in edge type {s.name!r}")
        checked_edges[s.name] = pairs

    checked_features: dict[str, np.ndarray] = {}
    for key in features:
        if key not in by_name:
            raise UnknownType(f"features given for unknown node type {key!r}")
    for s in node_types:
        if s.feature_dim == 0:
            if s.name in features:
                raise DimensionMismatch(
                    f"node type {s.name!r} is featureless but features were given")
            continue
        if s.name not in features:
            raise ValidationError(f"missing feature matrix for node type {s.name!r}")
        mat = np.asarray(features[s.name], dtype=np.float64)
        if mat.shape != (s.count, s.feature_dim):
            raise DimensionMismatch(
                f"features for {s.name!r} have shape {mat.shape}, "
                f"expected ({s.count}, {s.feature_dim})")
        if not np.all(np.isfinite(mat)):
            raise ValidationError(f"non-finite feature value for node type {s.name!r}")
        checked_features[s.name] = mat

    graph = HeteroGraph(node_types, edge_types, checked_edges,
                        checked_features, target_type)
    graph.max_hops = None if max_hops is None else _checked_max_hops(max_hops)
    if metapaths is not None:
        paths = []
        for i, seq in enumerate(metapaths):
            try:
                path = validate_metapath(graph, seq)
            except OodhgError as exc:
                raise type(exc)(f"metapaths[{i}]: {exc}") from None
            if path in paths:
                raise ValidationError(f"metapaths[{i}] repeats the meta-path {path}")
            paths.append(path)
        if not paths:
            raise ValidationError("metapaths must list at least one meta-path")
        graph.metapaths = tuple(paths)
    return graph


def hop_matrix(graph: HeteroGraph, src: str, dst: str) -> SparseRowMatrix:
    """0/1 pattern of the hop between two node types.

    When several edge types share the (src, dst) signature their edge sets
    are unioned: the hop relates the types, not any single relation name.
    Not memoised; hop_kernel builds it once per cached kernel.
    """
    names = graph.edge_type_names_between(src, dst)
    if not names:
        raise InvalidPath(f"no declared edge type from {src!r} to {dst!r}")
    pairs = np.concatenate([graph.edges[n].reshape(-1, 2) for n in names])
    return SparseRowMatrix.from_edge_pairs(
        graph.node_count(src), graph.node_count(dst), pairs)


class HopKernel:
    """Products with one hop H = diag(1/deg) B, applied through the 0/1
    pattern B and the diagonal scale.

    The constructor reads only the pattern of the matrix it is given (its
    row offsets and column indices, never its values) and works out
    degrees[r] as the nonzero count of row r. The products are:

        H x   = (1/deg) * rowsum(x[cols])        (forward)
        H^T y = rowsum((y * (1/deg))[rows^T])    (adjoint)

    with rowsum sparse.segment_sum over the row layout of the pattern or of
    its transpose, whose nonzeros sparse.column_major_keys orders as
    SparseRowMatrix.transpose does. The adjoint multiplies the same two
    factors per nonzero and sums them in the same order as
    H.transpose().matvec(y), so it is bitwise that product. The forward
    sums before it scales, so it rounds differently from H.matvec, within a
    few ulps. A product with a dense matrix is the forward of each column.
    The adjoint pattern is built on the first rmatvec: evaluation never
    applies an adjoint and never pays for it.
    Build with hop_kernel, which memoises one kernel per hop on the graph.
    """

    def __init__(self, pattern: SparseRowMatrix):
        self.n_rows, self.n_cols = pattern.shape
        degrees = pattern.row_counts()
        self._inv_deg = np.divide(1.0, degrees, out=np.zeros(self.n_rows),
                                  where=degrees > 0)
        self._cols = pattern.col_indices
        self._layout = row_layout(degrees)
        self._adjoint = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H @ x."""
        if x.shape != (self.n_cols,):
            raise ShapeMismatch(f"matvec expects shape ({self.n_cols},), got {x.shape}")
        out = segment_sum(x[self._cols], self._layout)
        out *= self._inv_deg
        return out

    def _adjoint_pattern(self) -> tuple[np.ndarray, RowLayout]:
        """(row index per nonzero of H^T, row layout of H^T), built once."""
        if self._adjoint is None:
            keys, layout_t = column_major_keys(self._layout.offsets,
                                               self._cols, self.n_cols)
            self._adjoint = (np.sort(keys) % self.n_rows, layout_t)
        return self._adjoint

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """H.T @ y, bitwise H.transpose().matvec(y)."""
        if y.shape != (self.n_rows,):
            raise ShapeMismatch(f"rmatvec expects shape ({self.n_rows},), got {y.shape}")
        rows_t, layout_t = self._adjoint_pattern()
        return segment_sum((y * self._inv_deg)[rows_t], layout_t)


def hop_kernel(graph: HeteroGraph, src: str, dst: str) -> HopKernel:
    """The HopKernel of hop_matrix(graph, src, dst), memoised on the graph."""
    key = (src, dst)
    cached = graph._hop_cache.get(key)
    if cached is None:
        cached = HopKernel(hop_matrix(graph, src, dst))
        graph._hop_cache[key] = cached
    return cached


def validate_metapath(graph: HeteroGraph, path) -> MetaPath:
    """Check every node type exists and every hop has a declared edge type."""
    path = MetaPath(path)
    for t in path.types:
        graph.node_schema(t)
    for src, dst in path.hops():
        if not graph.edge_type_names_between(src, dst):
            raise InvalidPath(
                f"meta-path {path}: no declared edge type from {src!r} to {dst!r}")
    return path


def _chain(hops, x: np.ndarray) -> np.ndarray:
    """H_1 (H_2 (... (H_k x))) for hops H_1 ... H_k: the hops' matvecs
    applied right to left, so no product of hops is formed."""
    for hop in reversed(hops):
        x = hop.matvec(x)
    return x


# a composed row whose sum drifts from 1 beyond this lost real mass to a
# dangling intermediate node (float noise stays orders of magnitude below)
LOST_MASS_TOL = 1e-9


class MetaPathOperator:
    """The propagation matrix A_hat of one meta-path, applied as the
    row-normalized hop chain H_1 ... H_k without forming the product.

        A_hat x = scale * (H_1 (H_2 (... (H_k x)))) + loop * x

    Two repairs make A_hat row-stochastic by construction, on any graph.
    They are diagonal terms fixed at build time from the chain applied to a
    ones vector: scale is 1 / (row sum) on rows that lost mass to a
    dangling intermediate node and 1 elsewhere, and loop is 1 on rows that
    are empty when the path starts and ends at the same type (such rows of
    the chain give 0, so A_hat x copies x there). Every other nonempty row
    already sums to 1 within LOST_MASS_TOL, and every entry is a product
    of positive 1/deg factors, so energy.propagate checks no operator built
    here. Each H_i is applied through its HopKernel. Build with
    metapath_operator.
    """

    def __init__(self, path: MetaPath, hops: list[HopKernel]):
        self.hops = tuple(hops)
        self.n_rows = self.hops[0].n_rows
        self.n_cols = self.hops[-1].n_cols
        sums = _chain(self.hops, np.ones(self.n_cols))
        lossy = (sums > 0) & (np.abs(sums - 1.0) > LOST_MASS_TOL)
        self._scale = np.where(lossy, 1.0 / np.where(sums > 0, sums, 1.0), 1.0)
        # entries are positive, so a chain row sums to 0 only if it is empty
        self._loops = (np.flatnonzero(sums == 0)
                       if path.types[0] == path.types[-1]
                       else np.zeros(0, np.int64))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A_hat @ x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ShapeMismatch(f"matvec expects shape ({self.n_cols},), got {x.shape}")
        out = _chain(self.hops, x) * self._scale
        out[self._loops] = x[self._loops]
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A_hat.T @ y: the hops' adjoints applied in reverse order, each
        bitwise H_i.transpose().matvec. A hop kernel builds its adjoint
        pattern on the first call, and evaluation never makes one."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n_rows,):
            raise ShapeMismatch(f"rmatvec expects shape ({self.n_rows},), got {y.shape}")
        g = y * self._scale
        for hop in self.hops:
            g = hop.rmatvec(g)
        g[self._loops] += y[self._loops]
        return g


def metapath_operator(graph: HeteroGraph, path) -> MetaPathOperator:
    """Matrix-free propagation operator of one meta-path.

    Reuses the graph's cached hop kernels; the operator itself is not
    cached.
    """
    path = validate_metapath(graph, path)
    return MetaPathOperator(path, [hop_kernel(graph, *hop) for hop in path.hops()])


def compose_metapath(graph: HeteroGraph, path) -> SparseRowMatrix:
    """A_hat of metapath_operator(graph, path) as a SparseRowMatrix, exact
    zeros dropped: column j is the operator's matvec of the j-th unit
    vector. A dense reference for the tests; no command calls it."""
    op = metapath_operator(graph, path)
    return SparseRowMatrix.from_dense(
        np.stack([op.matvec(u) for u in np.eye(op.n_cols)], axis=1))


def candidate_metapaths(graph: HeteroGraph, max_hops: int) -> list[MetaPath]:
    """All type sequences of <= max_hops hops that start and end at the target.

    Every consecutive pair must be a declared edge-type signature. The result
    is sorted lexicographically by type sequence and is deterministic.
    max_hops must be an integer >= 2, as build_graph requires.
    """
    max_hops = _checked_max_hops(max_hops)
    successors: dict[str, list[str]] = {}
    for (src, dst) in graph._pair_index:
        successors.setdefault(src, []).append(dst)
    for src in successors:
        successors[src] = sorted(set(successors[src]))
    target = graph.target_type
    found: list[tuple[str, ...]] = []

    def extend(seq: tuple[str, ...]) -> None:
        if len(seq) >= 2 and seq[-1] == target:
            found.append(seq)
        if len(seq) - 1 >= max_hops:
            return
        for nxt in successors.get(seq[-1], ()):
            extend(seq + (nxt,))

    extend((target,))
    return [MetaPath(seq) for seq in sorted(found)]


# hop limit of the candidate enumeration when a dataset sets none
DEFAULT_MAX_HOPS = 2


def resolve_paths(graph: HeteroGraph, metapaths=None, max_hops: int | None = None):
    """The meta-paths a model uses: (feature paths, propagation paths).

    metapaths, unless None, are used as given; otherwise the
    target-to-target candidates within max_hops hops are enumerated,
    DEFAULT_MAX_HOPS when max_hops is None.
    Feature paths start at the target and end at a featured type;
    propagation paths start and end at the target. Either list may be
    empty: model.feature_tables and model.propagation_operators own the
    rules that need one.
    """
    if metapaths is not None:
        paths = [validate_metapath(graph, seq) for seq in metapaths]
    else:
        paths = candidate_metapaths(
            graph, DEFAULT_MAX_HOPS if max_hops is None else max_hops)
    target = graph.target_type
    prop = [p for p in paths
            if p.types[0] == target and p.types[-1] == target]
    feat = [p for p in paths
            if p.types[0] == target and graph.feature_dim(p.types[-1]) > 0]
    return feat, prop


def metapath_features(graph: HeteroGraph, path) -> np.ndarray:
    """Features of the path's end type aggregated back to the start type.

    Computes (product of row-normalized hop adjacencies) @ features(end).
    Zero rows are left as zeros here, not self-loop repaired: a node with no
    path instances simply aggregates nothing. Each feature column goes
    through _chain, the hop chain MetaPathOperator applies, so no product
    of hops is formed. The table is memoised on the graph and returned
    read-only; every call for one path returns equal values.
    """
    path = validate_metapath(graph, path)
    cached = graph._feature_cache.get(path.types)
    if cached is not None:
        return cached
    end = path.types[-1]
    if graph.feature_dim(end) == 0:
        raise FeaturelessEndType(
            f"meta-path {path} ends at featureless type {end!r}")
    hops = [hop_kernel(graph, *hop) for hop in path.hops()]
    columns = np.ascontiguousarray(graph.features[end].T)
    # column j of the (n, d) table is row j of the stack; .T copies nothing
    out = np.stack([_chain(hops, column) for column in columns]).T
    out.flags.writeable = False
    graph._feature_cache[path.types] = out
    return out

from pathlib import Path

import numpy as np
import pytest

from oodhg import EdgeTypeSchema, NodeTypeSchema, build_graph

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def mini_dataset_dir() -> Path:
    return FIXTURES / "mini"


def random_typed_graph(rng: np.random.Generator, type_counts: dict,
                       edge_signatures: list[tuple[str, str]], edge_prob: float,
                       target_type: str, feature_dims: dict | None = None):
    """Random heterogeneous graph plus dense 0/1 adjacency per signature.

    The dense matrices come straight from the sampled pair sets, so tests
    can build oracle products without touching the sparse code path.
    """
    feature_dims = feature_dims or {}
    node_types = [NodeTypeSchema(name, count, feature_dims.get(name, 0))
                  for name, count in type_counts.items()]
    edge_types = []
    edges = {}
    dense = {}
    for src, dst in edge_signatures:
        name = f"{src}__{dst}"
        edge_types.append(EdgeTypeSchema(name, src, dst))
        mask = rng.random((type_counts[src], type_counts[dst])) < edge_prob
        edges[name] = np.argwhere(mask)
        dense[(src, dst)] = mask.astype(np.float64)
    features = {name: rng.standard_normal((type_counts[name], dim))
                for name, dim in feature_dims.items() if dim > 0}
    graph = build_graph(node_types, edge_types, edges, features, target_type)
    return graph, dense


def dense_row_normalize(mat: np.ndarray) -> np.ndarray:
    """Oracle row normalization: nonzero rows scaled to sum 1."""
    sums = mat.sum(axis=1, keepdims=True)
    return np.divide(mat, sums, out=np.zeros_like(mat), where=sums > 0)


def target_aux_graph(feature_dim=3, metapaths=(("target", "aux0"),)):
    """(graph, labels): 40 target and 8 aux0 nodes with edges both ways,
    every target node linked; labels cycle through 0, 1 and 2. Both types
    carry feature_dim features, none at 0. With the default metapaths the
    graph has a feature path and no target-to-target path."""
    rng = np.random.default_rng(0)
    mask = rng.random((40, 8)) < 0.3
    mask[np.arange(40), np.arange(40) % 8] = True
    pairs = np.argwhere(mask)
    counts = {"target": 40, "aux0": 8}
    node_types = [NodeTypeSchema(name, n, feature_dim)
                  for name, n in counts.items()]
    edge_types = [EdgeTypeSchema("target_aux0", "target", "aux0"),
                  EdgeTypeSchema("aux0_target", "aux0", "target")]
    edges = {"target_aux0": pairs, "aux0_target": pairs[:, ::-1]}
    features = {name: rng.standard_normal((n, feature_dim))
                for name, n in counts.items() if feature_dim}
    graph = build_graph(node_types, edge_types, edges, features, "target",
                        metapaths=metapaths)
    return graph, np.arange(40) % 3

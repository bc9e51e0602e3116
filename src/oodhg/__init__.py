"""Energy-based out-of-distribution node detection on heterogeneous graphs."""

from . import errors
from .data import Splits, SynthConfig, generate_synthetic, load_dataset, make_splits, save_dataset
from .energy import (
    DetectorConfig,
    PropagationConfig,
    detect,
    fuse,
    msp_score,
    propagate,
)
from .hetgraph import (
    EdgeTypeSchema,
    HeteroGraph,
    MetaPath,
    MetaPathOperator,
    NodeTypeSchema,
    build_graph,
    candidate_metapaths,
    compose_metapath,
    metapath_features,
    metapath_operator,
)
from .metrics import (
    BinaryScoredSet,
    KPlusOnePrediction,
    aupr,
    auroc,
    fpr_at_95tpr,
    macro_f1,
    micro_f1,
    sweep_threshold,
)
from .model import (
    EncoderParams,
    TrainConfig,
    TrainHistory,
    forward,
    gradients,
    loss_total,
    train,
)
from .pipeline import evaluate, load_checkpoint, run_experiment, save_checkpoint
from .sparse import SparseRowMatrix

__version__ = "0.1.0"

__all__ = [
    "BinaryScoredSet", "DetectorConfig", "EdgeTypeSchema", "EncoderParams",
    "HeteroGraph", "KPlusOnePrediction", "MetaPath", "MetaPathOperator",
    "NodeTypeSchema", "PropagationConfig", "SparseRowMatrix", "Splits",
    "SynthConfig", "TrainConfig", "TrainHistory", "aupr", "auroc",
    "build_graph", "candidate_metapaths", "compose_metapath", "detect",
    "errors", "evaluate", "forward", "fpr_at_95tpr", "fuse",
    "generate_synthetic", "gradients", "load_checkpoint", "load_dataset",
    "loss_total", "macro_f1", "make_splits", "metapath_features",
    "metapath_operator", "micro_f1", "msp_score", "propagate",
    "run_experiment", "save_checkpoint", "save_dataset", "sweep_threshold",
    "train",
]

"""Energy scores, meta-path energy propagation, fusion, and the detector.

The energy of a node is the negative log-sum-exp of its logits; higher
energy means more likely out-of-distribution. Propagation blends each
node's energy with the mean energy of its meta-path neighbours,
E <- gamma * E + (1 - gamma) * A_hat E, a convex combination whenever
A_hat is row-stochastic. Per-path results are fused by averaging, and the
detector flags node i when -E_i <= tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    EmptyLogits,
    EmptyPathSet,
    LengthMismatch,
    NotADistribution,
    NotRowStochastic,
    ShapeMismatch,
)
from .sparse import SparseRowMatrix

if TYPE_CHECKING:
    from .hetgraph import MetaPathOperator

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PropagationConfig:
    """Mixing weight gamma in (0, 1] and the number of propagation steps.

    gamma = 1.0 disables neighbour mixing; steps = 0 disables propagation
    entirely. Both leave the input energies unchanged.
    """

    gamma: float
    steps: int

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")


@dataclass(frozen=True)
class DetectorConfig:
    """Decision threshold tau applied to the negative energy."""

    tau: float

    def __post_init__(self):
        if not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")


def energy_scores(logits: np.ndarray) -> np.ndarray:
    """Per-row energy -logsumexp(logits), max-shifted for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] == 0:
        raise EmptyLogits(f"logits must be (n, k) with k >= 1, got shape {logits.shape}")
    m = logits.max(axis=1)
    return -(m + np.log(np.exp(logits - m[:, None]).sum(axis=1)))


def msp_score(probs: np.ndarray) -> np.ndarray:
    """Maximum softmax probability per row; a higher value means more ID."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] == 0:
        raise NotADistribution(f"probs must be (n, k) with k >= 1, got {probs.shape}")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL) or probs.min() < 0:
        i = int(np.argmax(np.abs(sums - 1.0)))
        raise NotADistribution(f"row {i} sums to {sums[i]}, expected 1")
    return probs.max(axis=1)


def check_row_stochastic(a_hat: SparseRowMatrix | MetaPathOperator,
                         tol: float = ROW_SUM_TOL) -> None:
    """Raise NotRowStochastic unless nonempty rows sum to 1 within tol."""
    dev, low = a_hat.stochastic_stats()
    if low < 0.0:
        raise NotRowStochastic("matrix has negative entries")
    if dev > tol:
        raise NotRowStochastic(
            f"a nonempty row sums to 1 +- {dev:.3g}, expected 1 +- {tol}")


def propagate(e0: np.ndarray, a_hat: SparseRowMatrix | MetaPathOperator,
              config: PropagationConfig) -> np.ndarray:
    """Apply E <- gamma E + (1 - gamma) A_hat E for config.steps iterations.

    a_hat is a SparseRowMatrix or a hetgraph.MetaPathOperator; it must be
    square and row-stochastic (validated on entry, within 1e-9). With
    gamma = 1 or steps = 0 the input is returned unchanged.
    """
    e = np.asarray(e0, dtype=np.float64)
    if a_hat.n_rows != a_hat.n_cols:
        raise ShapeMismatch(f"propagation matrix must be square, got {a_hat.shape}")
    if e.shape != (a_hat.n_rows,):
        raise ShapeMismatch(
            f"energy vector shape {e.shape} does not match matrix {a_hat.shape}")
    check_row_stochastic(a_hat)
    if config.steps == 0 or config.gamma == 1.0:
        return e.copy()
    gamma = config.gamma
    for _ in range(config.steps):
        e = gamma * e + (1.0 - gamma) * a_hat.matvec(e)
    return e


def propagate_transpose(g: np.ndarray,
                        a_hat: SparseRowMatrix | MetaPathOperator,
                        config: PropagationConfig) -> np.ndarray:
    """Adjoint of propagate(., a_hat, config), applied to a gradient.

    Takes the same operator as propagate and applies a_hat.rmatvec; no
    stochasticity check is done since column sums are unconstrained.
    """
    g = np.asarray(g, dtype=np.float64)
    if config.steps == 0 or config.gamma == 1.0:
        return g.copy()
    gamma = config.gamma
    for _ in range(config.steps):
        g = gamma * g + (1.0 - gamma) * a_hat.rmatvec(g)
    return g


def fuse(per_path: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of per-path energy vectors."""
    if len(per_path) == 0:
        raise EmptyPathSet("no per-path energy vectors to fuse")
    arrs = [np.asarray(e, dtype=np.float64) for e in per_path]
    n = arrs[0].shape
    for i, a in enumerate(arrs[1:], start=1):
        if a.shape != n:
            raise LengthMismatch(f"vector 0 has shape {n}, vector {i} has {a.shape}")
    return np.mean(np.stack(arrs), axis=0)


def detect(energies: np.ndarray, config: DetectorConfig) -> np.ndarray:
    """Boolean OOD flags: node i is flagged iff -E_i <= tau (boundary is OOD)."""
    energies = np.asarray(energies, dtype=np.float64)
    return -energies <= config.tau

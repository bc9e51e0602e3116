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

import numpy as np

from .errors import (
    EmptyLogits,
    EmptyPathSet,
    LengthMismatch,
    NotADistribution,
    NotRowStochastic,
    ShapeMismatch,
)
from .hetgraph import MetaPathOperator
from .sparse import SparseRowMatrix

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


@dataclass(frozen=True)
class LogitPass:
    """Row statistics of one (n, k) logit matrix from a single max, shift,
    exp and row-sum pass; the softmax, the raw energy and log-softmax
    entries are all read from them.

    Attributes:
        shifted: (n, k) logits minus their row maximum.
        probs: (n, k) row softmax exp(shifted) / row sum.
        log_sum: (n,) log of the row sums of exp(shifted).
        energy: (n,) raw energy -(row max + log_sum).
    """

    shifted: np.ndarray
    probs: np.ndarray
    log_sum: np.ndarray
    energy: np.ndarray

    @classmethod
    def empty(cls, n: int, k: int) -> "LogitPass":
        """Uninitialised buffers for logit_pass(..., out=)."""
        return cls(np.empty((n, k)), np.empty((n, k)), np.empty(n), np.empty(n))

    def log_probs(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """log softmax at the entries (rows[i], cols[i])."""
        return self.shifted[rows, cols] - self.log_sum[rows]


def logit_pass(logits: np.ndarray, out: LogitPass | None = None) -> LogitPass:
    """Max-shifted softmax and energy statistics of every logit row, written
    into out's buffers when given (shaped like the logits)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] == 0:
        raise EmptyLogits(f"logits must be (n, k) with k >= 1, got shape {logits.shape}")
    if out is None:
        out = LogitPass.empty(*logits.shape)
    # energy holds the row maximum until the last step; k - 1 column-wise
    # maxima make fewer, cheaper calls than a row reduction for the few
    # classes a head has, and a maximum is exact in any order
    np.copyto(out.energy, logits[:, 0])
    for j in range(1, logits.shape[1]):
        np.maximum(out.energy, logits[:, j], out=out.energy)
    np.subtract(logits, out.energy[:, None], out=out.shifted)
    np.exp(out.shifted, out=out.probs)
    np.add.reduce(out.probs, axis=1, out=out.log_sum)
    np.divide(out.probs, out.log_sum[:, None], out=out.probs)
    np.log(out.log_sum, out=out.log_sum)
    np.add(out.energy, out.log_sum, out=out.energy)
    np.negative(out.energy, out=out.energy)
    return out


def msp_score(probs: np.ndarray) -> np.ndarray:
    """Maximum softmax probability per row; a higher value means more ID."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] == 0:
        raise NotADistribution(f"probs must be (n, k) with k >= 1, got {probs.shape}")
    bad = ~np.isfinite(probs) | (probs < 0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NotADistribution(
            f"entry ({i}, {j}) is {probs[i, j]}, expected a finite value >= 0")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        i = int(np.argmax(np.abs(sums - 1.0)))
        raise NotADistribution(f"row {i} sums to {sums[i]}, expected 1")
    return probs.max(axis=1)


def check_row_stochastic(a_hat: SparseRowMatrix) -> None:
    """Raise NotRowStochastic unless a_hat's entries are >= 0 and its
    nonempty rows sum to 1 within ROW_SUM_TOL."""
    if a_hat.nnz and a_hat.values.min() < 0.0:
        raise NotRowStochastic("matrix has negative entries")
    nonempty = a_hat.row_counts() > 0
    dev = float(np.abs(a_hat.row_sums()[nonempty] - 1.0).max(initial=0.0))
    if dev > ROW_SUM_TOL:
        raise NotRowStochastic(
            f"a nonempty row sums to 1 +- {dev:.3g}, expected 1 +- {ROW_SUM_TOL}")


def _iterate(x: np.ndarray, apply, config: PropagationConfig) -> np.ndarray:
    """x after config.steps updates x <- gamma x + (1 - gamma) apply(x); a
    copy of x when gamma = 1 or steps = 0."""
    if config.steps == 0 or config.gamma == 1.0:
        return x.copy()
    gamma = config.gamma
    for _ in range(config.steps):
        x = gamma * x + (1.0 - gamma) * apply(x)
    return x


def propagate(e0: np.ndarray, a_hat: SparseRowMatrix | MetaPathOperator,
              config: PropagationConfig) -> np.ndarray:
    """Apply E <- gamma E + (1 - gamma) A_hat E for config.steps iterations.

    a_hat is a square SparseRowMatrix or hetgraph.MetaPathOperator. A
    MetaPathOperator is row-stochastic by construction; a SparseRowMatrix
    is checked on entry (check_row_stochastic). With gamma = 1 or steps = 0
    the input is returned unchanged.
    """
    e = np.asarray(e0, dtype=np.float64)
    if a_hat.n_rows != a_hat.n_cols:
        raise ShapeMismatch(f"propagation matrix must be square, got {a_hat.shape}")
    if e.shape != (a_hat.n_rows,):
        raise ShapeMismatch(
            f"energy vector shape {e.shape} does not match matrix {a_hat.shape}")
    if isinstance(a_hat, SparseRowMatrix):
        check_row_stochastic(a_hat)
    return _iterate(e, a_hat.matvec, config)


def propagate_transpose(g: np.ndarray,
                        a_hat: SparseRowMatrix | MetaPathOperator,
                        config: PropagationConfig) -> np.ndarray:
    """Adjoint of propagate(., a_hat, config), applied to a gradient.

    Takes the same operator as propagate and applies a_hat.rmatvec; no
    stochasticity check is done since column sums are unconstrained.
    """
    return _iterate(np.asarray(g, dtype=np.float64), a_hat.rmatvec, config)


def fuse(per_path: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of per-path energy vectors: their running sum in
    list order, starting from zero, divided by their count. That is how
    np.mean reduces a stack of them along its first axis, so a -0.0 entry
    comes out as 0.0 the same way."""
    if len(per_path) == 0:
        raise EmptyPathSet("no per-path energy vectors to fuse")
    arrs = [np.asarray(e, dtype=np.float64) for e in per_path]
    n = arrs[0].shape
    for i, a in enumerate(arrs[1:], start=1):
        if a.shape != n:
            raise LengthMismatch(f"vector 0 has shape {n}, vector {i} has {a.shape}")
    total = np.zeros(n)
    for a in arrs:
        total += a
    total /= len(arrs)
    return total


def detect(energies: np.ndarray, config: DetectorConfig) -> np.ndarray:
    """Boolean OOD flags: node i is flagged iff -E_i <= tau (boundary is OOD)."""
    energies = np.asarray(energies, dtype=np.float64)
    return -energies <= config.tau

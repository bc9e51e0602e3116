"""Compressed sparse row matrices for adjacency chains.

Implements construction from edge pairs, row normalization, CSR*CSR and
CSR*vector products, and transposition. These are the general, valued
products, which only the tests use as references: propagation, feature
tables and compose_metapath apply each hop's 0/1 pattern, as
from_edge_pairs builds it, through hetgraph.HopKernel, which never reads
the values.
All values are 64-bit floats. Products are accumulated row by row with a
sparse (concatenate, sort, segment-reduce) accumulator, never through a dense
intermediate, and the summation order inside every output row is fixed, so
results are bitwise reproducible for a given input.

This module alone does CSR index arithmetic, for SparseRowMatrix and
HopKernel both: row_layout turns row counts into offsets and the starts of
the nonempty rows, segment_sum sums values over each row of a layout, and
column_major_keys gives the nonzero order and row layout of a transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NegativeValue, ShapeMismatch, ValidationError


@dataclass(frozen=True)
class SparseRowMatrix:
    """CSR matrix with strictly increasing column indices inside each row.

    Attributes:
        n_rows, n_cols: matrix shape.
        row_offsets: int64 array of length n_rows + 1, monotone.
        col_indices: int64 array of length nnz, in [0, n_cols).
        values: float64 array of length nnz, all finite.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_offsets",
                           np.ascontiguousarray(self.row_offsets, dtype=np.int64))
        object.__setattr__(self, "col_indices",
                           np.ascontiguousarray(self.col_indices, dtype=np.int64))
        object.__setattr__(self, "values",
                           np.ascontiguousarray(self.values, dtype=np.float64))
        self._validate()

    def _validate(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise ShapeMismatch(f"negative shape ({self.n_rows}, {self.n_cols})")
        off = self.row_offsets
        if off.shape != (self.n_rows + 1,):
            raise ValidationError("row_offsets must have length n_rows + 1")
        if off[0] != 0 or off[-1] != self.col_indices.size:
            raise ValidationError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(off) < 0):
            raise ValidationError("row_offsets must be monotone non-decreasing")
        if self.values.shape != self.col_indices.shape:
            raise ValidationError("values and col_indices must have equal length")
        nnz = self.col_indices.size
        if nnz:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.n_cols:
                raise ValidationError("column index out of [0, n_cols)")
            # strictly increasing inside each row: check neighbouring pairs
            # except those that straddle a row boundary
            d = np.diff(self.col_indices)
            inside = np.ones(nnz - 1, dtype=bool)
            bounds = off[1:-1]
            bounds = bounds[(bounds > 0) & (bounds < nnz)]
            inside[bounds - 1] = False
            if np.any(d[inside] <= 0):
                raise ValidationError("column indices must be strictly increasing per row")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("matrix values must be finite")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_edge_pairs(cls, n_rows: int, n_cols: int,
                        pairs) -> "SparseRowMatrix":
        """Binary matrix with a 1.0 at every (row, col) pair; a pair given
        more than once is stored once. The pairs are ordered by sorting
        their pair_keys (skipped when they are already in order), which are
        split back into rows and columns.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        keys = ascending(pair_keys(n_rows, n_cols, pairs[:, 0], pairs[:, 1]))
        dup = keys[1:] == keys[:-1]
        if dup.any():
            keys = keys[np.concatenate([[True], ~dup])]
        # floor division by a scalar is several times faster than divmod
        rows = keys // n_cols
        cols = keys - rows * n_cols
        offsets = row_layout(np.bincount(rows, minlength=n_rows)).offsets
        return cls(n_rows, n_cols, offsets, cols, np.ones(cols.size, np.float64))

    @classmethod
    def from_dense(cls, arr) -> "SparseRowMatrix":
        """CSR view of a dense array, dropping exact zeros."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatch("from_dense expects a 2-D array")
        rows, cols = np.nonzero(arr)
        offsets = row_layout(np.bincount(rows, minlength=arr.shape[0])).offsets
        return cls(arr.shape[0], arr.shape[1], offsets,
                   cols.astype(np.int64), arr[rows, cols])

    # ------------------------------------------------------------------
    # inspection

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.col_indices.size)

    def row_counts(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def row_sums(self) -> np.ndarray:
        return segment_sum(self.values, row_layout(self.row_counts()))

    def stochastic_stats(self) -> tuple[float, float]:
        """(max |row sum - 1| over nonempty rows, min value)."""
        sums = self.row_sums()
        nonempty = self.row_counts() > 0
        dev = float(np.abs(sums[nonempty] - 1.0).max()) if nonempty.any() else 0.0
        low = float(self.values.min()) if self.nnz else 0.0
        return (dev, low)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), np.float64)
        rows = np.repeat(np.arange(self.n_rows), self.row_counts())
        out[rows, self.col_indices] = self.values
        return out

    # ------------------------------------------------------------------
    # algebra

    def row_normalize(self) -> "SparseRowMatrix":
        """Scale every nonempty row to sum 1; empty rows stay empty.

        Raises NegativeValue if any entry is negative.
        """
        if self.nnz and self.values.min() < 0:
            i = int(np.argmin(self.values))
            raise NegativeValue(f"negative entry {self.values[i]} at data index {i}")
        sums = self.row_sums()
        safe = np.where(sums > 0, sums, 1.0)
        scaled = self.values / np.repeat(safe, self.row_counts())
        return SparseRowMatrix(self.n_rows, self.n_cols, self.row_offsets,
                               self.col_indices, scaled)

    def transpose(self) -> "SparseRowMatrix":
        keys, layout = column_major_keys(self.row_offsets, self.col_indices,
                                         self.n_cols)
        order = np.argsort(keys)
        return SparseRowMatrix(self.n_cols, self.n_rows, layout.offsets,
                               keys[order] % self.n_rows, self.values[order])

    # called by no command; kept because perfbench/tracer.py patches it by name
    def matmul(self, other: "SparseRowMatrix") -> "SparseRowMatrix":
        """Sparse product self @ other, row by row (Gustavson style).

        For each output row the contributing entries are concatenated,
        stably sorted by column, and segment-summed, so the accumulation
        order is a pure function of the operands.
        """
        if self.n_cols != other.n_rows:
            raise ShapeMismatch(
                f"cannot multiply {self.shape} by {other.shape}")
        out_offsets = np.zeros(self.n_rows + 1, np.int64)
        out_cols: list[np.ndarray] = []
        out_vals: list[np.ndarray] = []
        b_off, b_cols, b_vals = other.row_offsets, other.col_indices, other.values
        for i in range(self.n_rows):
            s, e = self.row_offsets[i], self.row_offsets[i + 1]
            if s == e:
                out_offsets[i + 1] = out_offsets[i]
                continue
            ks = self.col_indices[s:e]
            a = self.values[s:e]
            starts, ends = b_off[ks], b_off[ks + 1]
            lens = ends - starts
            total = int(lens.sum())
            if total == 0:
                out_offsets[i + 1] = out_offsets[i]
                continue
            block = np.repeat(np.arange(ks.size), lens)
            within = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
            idx = starts[block] + within
            cat_cols = b_cols[idx]
            cat_vals = b_vals[idx] * a[block]
            order = np.argsort(cat_cols, kind="stable")
            sc, sv = cat_cols[order], cat_vals[order]
            group = np.empty(total, dtype=bool)
            group[0] = True
            group[1:] = sc[1:] != sc[:-1]
            grp_starts = np.flatnonzero(group)
            out_cols.append(sc[grp_starts])
            out_vals.append(np.add.reduceat(sv, grp_starts))
            out_offsets[i + 1] = out_offsets[i] + grp_starts.size
        cols = (np.concatenate(out_cols) if out_cols
                else np.zeros(0, np.int64))
        vals = (np.concatenate(out_vals) if out_vals
                else np.zeros(0, np.float64))
        return SparseRowMatrix(self.n_rows, other.n_cols, out_offsets, cols, vals)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ShapeMismatch(f"matvec expects shape ({self.n_cols},), got {x.shape}")
        return segment_sum(self.values * x[self.col_indices],
                           row_layout(self.row_counts()))

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Product self.T @ y."""
        return self.transpose().matvec(y)


class RowLayout(NamedTuple):
    """Where the rows of a CSR array lie: offsets (n_rows + 1 of them), the
    offsets at which the nonempty rows start, and the mask of the nonempty
    rows, None when no row is empty."""

    offsets: np.ndarray
    starts: np.ndarray
    nonempty: np.ndarray | None


def row_layout(counts) -> RowLayout:
    """The RowLayout of rows that hold counts[r] nonzeros each."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.zeros(counts.size + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    nonempty = counts > 0
    return RowLayout(offsets, offsets[:-1][nonempty],
                     None if nonempty.all() else nonempty)


def segment_sum(values: np.ndarray, layout: RowLayout) -> np.ndarray:
    """Sum of values over each row of layout, in a fixed order per row; an
    empty row sums to 0. With no empty row the sums are returned as
    np.add.reduceat makes them, with no zero-fill or scatter."""
    sums = np.add.reduceat(values, layout.starts)
    if layout.nonempty is None:
        return sums
    out = np.zeros(layout.nonempty.size)
    out[layout.nonempty] = sums
    return out


def column_major_keys(row_offsets: np.ndarray, col_indices: np.ndarray,
                      n_cols: int) -> tuple[np.ndarray, RowLayout]:
    """(keys, layout) of the transpose of a CSR pattern: the key
    col * n_rows + row of each nonzero, which is pair_keys of the
    transpose, and the RowLayout of the transpose's n_cols rows.

    The keys are unique, so any sort of them orders the nonzeros by column
    and then by row, which is the transpose's order and the permutation a
    stable argsort of col_indices gives; key % n_rows is the row.
    """
    n_rows = row_offsets.size - 1
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(row_offsets))
    return (pair_keys(n_cols, n_rows, col_indices, rows),
            row_layout(np.bincount(col_indices, minlength=n_cols)))


def pair_keys(n_rows: int, n_cols: int, rows: np.ndarray,
              cols: np.ndarray) -> np.ndarray:
    """Row-major int64 key row * n_cols + col of each (row, col) pair.

    Pairs are equal exactly when their keys are, and sorting the keys orders
    the pairs by row and then by column. Raises ValidationError when an index
    lies outside the n_rows x n_cols shape, or when n_rows * n_cols does not
    fit int64, so a key can never wrap.
    """
    if int(n_rows) * int(n_cols) >= 2 ** 63:
        raise ValidationError(
            f"a {n_rows} x {n_cols} shape is too large for int64 pair keys")
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValidationError("row index out of [0, n_rows)")
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValidationError("column index out of [0, n_cols)")
    return rows * n_cols + cols


def ascending(keys: np.ndarray) -> np.ndarray:
    """keys in non-decreasing order: keys itself when it already is, as a
    relation written in row-major order is, else np.sort(keys)."""
    if np.any(keys[1:] < keys[:-1]):
        return np.sort(keys)
    return keys


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending, as np.unique gives
    them; np.unique is avoided because its first call imports numpy.ma."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]

"""Linear algebra for the solver cores: a dense solve and a sparse one.

The stacked node/loop systems mix O(1) continuity rows with loop rows whose
derivative entries reach 1e9, so every solve divides each row by its largest
entry, on a copy, never changing the caller's arrays.  `solve_linear` then
calls numpy's LAPACK solver (LU with partial pivoting) on a dense system.
`solve_sparse` takes a symmetric positive definite system on its nonzero
pattern (`SparsePattern`): it orders the rows by BFS level sets from a
pseudo-peripheral row (George and Liu, *Computer Solution of Large Sparse
Positive Definite Systems*, 1981), merges consecutive levels into blocks of
at least MIN_BLOCK_ROWS rows, and eliminates the block-tridiagonal system
that results with one dense LAPACK solve per block; the pattern keeps the
ordering and the maps that scatter its values into the blocks.
LAPACK does not report its pivots, so a system counts as singular when it
meets an exactly zero pivot, or when the row-scaled solution x̂ is not
finite or exceeds the row-scaled right side b̂ by more than 1e12, since
‖x̂‖∞/‖b̂‖∞ bounds κ∞ from below; both solvers say so in the same words.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# ‖x̂‖∞·SINGULAR_TOL > ‖b̂‖∞ proves κ∞ > 1/SINGULAR_TOL: singular.
SINGULAR_TOL = 1e-12

# `solve_sparse` merges consecutive BFS levels into blocks of at least this
# many rows, so that each block's dense solve outweighs its Python overhead.
MIN_BLOCK_ROWS = 32


class SingularSystemError(ValueError):
    """Raised when a system is singular or indistinguishable from it."""


def solve_linear(matrix, rhs) -> np.ndarray:
    """Solve A·x = b by LAPACK LU with partial pivoting after row equilibration.

    The caller's arrays are left as they are: the rows are divided on a
    copy.  Raises SingularSystemError for a zero row, an exactly zero pivot,
    a non-finite solution, or 1e-12·‖x̂‖∞ > ‖b̂‖∞ on the row-scaled system,
    which flags only condition numbers κ∞ above 1e12.  The inf-norm residual
    stays below 1e-8·(1 + |b|_inf) for the well-conditioned systems in scope.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    _check_square(a, b)
    # Each row's largest |entry|, without an |a| temporary.  The scales are
    # >= 0; a row's NaN or inf reaches its scale.
    scale = np.maximum(a.max(axis=1, initial=-np.inf), -a.min(axis=1, initial=np.inf))
    _check_scale(scale, b)
    a = a / scale[:, None]
    b = b / scale
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"singular system: {exc}") from None
    return _checked(x, b)


def _check_scale(scale: np.ndarray, b: np.ndarray) -> None:
    """Raise for a system whose rows' largest |entries| are `scale` and
    right side `b`: ValueError if either holds a value that is not finite,
    SingularSystemError for a zero row."""
    if not (np.isfinite(scale.max(initial=1.0)) and np.isfinite(b).all()):
        raise ValueError("system contains non-finite entries")
    if scale.min(initial=1.0) == 0.0:
        raise SingularSystemError(f"row {int(scale.argmin())} of the system matrix is zero")


def _checked(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`x`, the solution of a row-scaled system with right side `b`, unless
    it is not finite or 1e-12·‖x‖∞ > ‖b‖∞ (κ∞ above 1e12)."""
    x_norm, b_norm = np.abs(x).max(initial=0.0), np.abs(b).max(initial=0.0)
    if not np.isfinite(x_norm) or SINGULAR_TOL * x_norm > b_norm:
        raise SingularSystemError(
            f"singular system: solution norm {x_norm:.3e} against right "
            f"side {b_norm:.3e} (condition number above 1e12)")
    return x


class SparsePattern:
    """The nonzero positions of a symmetric `size` × `size` matrix, as flat
    indices row·size + column, distinct and ascending: a matrix on the
    pattern is the values at those positions, in that order.  A pattern
    keeps, once derived, its block ordering for `solve_sparse`."""

    def __init__(self, positions: np.ndarray, size: int):
        self.positions, self.size = positions, size

    @cached_property
    def rows(self) -> np.ndarray:
        return self.positions // self.size

    @cached_property
    def row_starts(self) -> np.ndarray:
        """Where each row's positions start, and the end of the last."""
        return np.searchsorted(self.rows, np.arange(self.size + 1))

    def dense(self, values: np.ndarray) -> np.ndarray:
        """The `size` × `size` matrix with `values` on the pattern, zero elsewhere."""
        out = np.zeros(self.size * self.size)
        out[self.positions] = values
        return out.reshape(self.size, self.size)

    def row_scales(self, values: np.ndarray) -> np.ndarray:
        """Each row's largest |value|, 0 for a row with no position."""
        scale, starts = np.zeros(self.size), self.row_starts
        filled = np.flatnonzero(starts[1:] > starts[:-1])
        if len(filled):
            scale[filled] = np.maximum.reduceat(np.abs(values), starts[filled])
        return scale

    def _levels(self) -> np.ndarray:
        """Each row's BFS level, counted on through the components in turn,
        each from a pseudo-peripheral row: the last-level row of least
        degree, from the component's first row on, while that lengthens
        the BFS (George and Liu 1979)."""
        starts, columns = self.row_starts, self.positions % self.size
        degree = np.diff(starts)

        def sweep(root: int) -> tuple[np.ndarray, int]:
            level = np.full(self.size, -1)
            level[root], frontier, depth = 0, np.array([root]), 0
            while True:
                counts = degree[frontier]
                ends = np.cumsum(counts)
                reach = columns[np.repeat(starts[frontier] - ends + counts, counts)
                                + np.arange(ends[-1])]
                level[reach[level[reach] < 0]] = depth + 1
                frontier = np.flatnonzero(level == depth + 1)
                if not len(frontier):
                    return level, depth
                depth += 1

        levels, offset = np.full(self.size, -1), 0
        while (levels < 0).any():
            root = int(np.argmax(levels < 0))
            level, height = sweep(root)
            while True:
                last = np.flatnonzero(level == height)
                candidate = int(last[np.argmin(degree[last])])
                farther, reach = sweep(candidate)
                if reach <= height:
                    break
                level, height = farther, reach
            levels[level >= 0] = level[level >= 0] + offset
            offset += height + 1
        return levels

    @cached_property
    def blocks(self) -> tuple[np.ndarray, list[tuple[int, int, int, int, int]],
                              np.ndarray, np.ndarray]:
        """How `solve_sparse` lays the system out, one block at a time: the
        rows in block order; per block its (first row in that order, rows,
        rows before, rows after, end of its values), where block i's rows
        are [coupling to block i-1 | diagonal block | right side | coupling
        to block i+1] and its values run in `take` from the end of the
        block before to its own; the pattern values in block order
        (`take`); and the flat offset of each in its block (`at`).  BFS
        levels couple only to their neighbours, so blocks of consecutive
        levels do too."""
        levels = self._levels()
        order = np.argsort(levels, kind="stable")
        bounds = [0]
        for end in np.cumsum(np.bincount(levels)).tolist():
            if end - bounds[-1] >= MIN_BLOCK_ROWS:
                bounds.append(end)
        if bounds[-1] < self.size:    # the last levels join the block before them
            bounds[-1:] = [self.size] if len(bounds) > 1 else [0, self.size]
        rows = np.diff(bounds)
        before, after = np.append(0, rows[:-1]), np.append(rows[1:], 0)
        place = np.argsort(order)                  # each row's place in `order`
        block = np.repeat(np.arange(len(rows)), rows)[place]
        local = place - np.asarray(bounds[:-1], dtype=np.intp)[block]
        r, c = self.rows, self.positions % self.size
        br, bc = block[r], block[c]
        column = local[c] + np.where(bc < br, 0, before[br] + np.where(bc > br, rows[br] + 1, 0))
        take = np.argsort(br, kind="stable")
        at = (local[r] * (before + rows + 1 + after)[br] + column)[take]
        ends = np.cumsum(np.bincount(br, minlength=len(rows)))
        return (order, list(zip(bounds[:-1], rows.tolist(), before.tolist(), after.tolist(),
                                ends.tolist())), take, at)


def solve_sparse(pattern: SparsePattern, values, rhs) -> np.ndarray:
    """Solve A·x = b for a symmetric positive definite A with `values` on
    `pattern`, by block elimination in the pattern's level-set order.

    The rows are divided by their largest |entry| on a copy, as in
    `solve_linear`.  Block by block, the Schur complement S of the diagonal
    block is solved once against its coupling to the next block and its
    right side, stacked; back-substitution then needs no second solve.
    Raises ValueError for values that are not finite and
    SingularSystemError where `solve_linear` would: a zero row, an exactly
    zero pivot, a solution that is not finite or κ∞ above 1e12.
    """
    values, b = np.asarray(values, dtype=float), np.asarray(rhs, dtype=float)
    if values.shape != pattern.positions.shape or b.shape != (pattern.size,):
        raise ValueError(f"values {values.shape} or right side {b.shape} do not fit the "
                         f"pattern: {len(pattern.positions)} positions, {pattern.size} rows")
    if not np.isfinite(values).all():
        raise ValueError("system contains non-finite entries")
    scale = pattern.row_scales(values)
    _check_scale(scale, b)
    b = b / scale
    if not pattern.size:
        return b
    order, blocks, take, at = pattern.blocks
    values, ordered = (values / scale[pattern.rows])[take], b[order]
    solved, start = [], 0   # per block, S⁻¹ [right side | coupling to the next block]
    for first, rows, before, after, end in blocks:
        block = np.zeros((rows, before + rows + 1 + after))
        np.put(block, at[start:end], values[start:end])
        block[:, before + rows] = ordered[first:first + rows]
        start = end
        if solved:
            update = block[:, :before] @ solved[-1]
            block[:, before:before + rows] -= update[:, 1:]
            block[:, before + rows] -= update[:, 0]
        try:
            solved.append(np.linalg.solve(block[:, before:before + rows],
                                          block[:, before + rows:]))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"singular system: {exc}") from None
    parts = [solved[-1][:, 0]]
    for step in reversed(solved[:-1]):
        parts.append(step[:, 0] - step[:, 1:] @ parts[-1])
    x = np.empty(pattern.size)
    x[order] = np.concatenate(parts[::-1])
    return _checked(x, b)


def condition_estimate(matrix) -> float:
    """1-norm condition number of the matrix; diagnostic only."""
    a = np.asarray(matrix, dtype=float)
    _check_square(a, np.zeros(a.shape[0]))
    if not np.isfinite(a).all():
        raise ValueError("system contains non-finite entries")
    try:
        return float(np.linalg.cond(a, 1))
    except np.linalg.LinAlgError:
        return float("inf")


def _check_square(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(
            f"rhs length {b.shape} does not match matrix size {a.shape[0]}")

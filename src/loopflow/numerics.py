"""Dense linear algebra for the solver cores.

The stacked node/loop systems mix O(1) continuity rows with loop rows whose
derivative entries reach 1e9, so every solve divides each row by its largest
entry and then calls numpy's LAPACK solver (LU with partial pivoting).
`solve_linear` is the one place that divides: it never changes the caller's
arrays, and always divides a copy.
LAPACK does not report its pivots, so a system counts as singular when it
meets an exactly zero pivot, or when the row-scaled solution x̂ is not
finite or exceeds the row-scaled right side b̂ by more than 1e12, since
‖x̂‖∞/‖b̂‖∞ bounds κ∞ from below.  A system is a plain (matrix, rhs) pair
of arrays, dense on purpose: a solve's loop system has one row per loop,
and node-loop's stacked system, on its first pass from a given start, one
per pipe.
"""

from __future__ import annotations

import numpy as np

# ‖x̂‖∞·SINGULAR_TOL > ‖b̂‖∞ proves κ∞ > 1/SINGULAR_TOL: singular.
SINGULAR_TOL = 1e-12


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
    # >= 0; a row's NaN or inf reaches its scale and `top`.
    scale = np.maximum(a.max(axis=1, initial=-np.inf), -a.min(axis=1, initial=np.inf))
    top, low = scale.max(initial=1.0), scale.min(initial=1.0)
    if not (np.isfinite(top) and np.isfinite(b).all()):
        raise ValueError("system contains non-finite entries")
    if low == 0.0:
        raise SingularSystemError(f"row {int(scale.argmin())} of the system matrix is zero")
    a = a / scale[:, None]
    b = b / scale

    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"singular system: {exc}") from None
    x_norm, b_norm = np.abs(x).max(initial=0.0), np.abs(b).max(initial=0.0)
    if not np.isfinite(x_norm) or SINGULAR_TOL * x_norm > b_norm:
        raise SingularSystemError(
            f"singular system: solution norm {x_norm:.3e} against right "
            f"side {b_norm:.3e} (condition number above 1e12)")
    return x


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

"""Small exact linear algebra over Q / Q(i) scalars."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .fields import Scalar


def _rref(rows: List[List[Scalar]]) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def solve_linear(rows: List[List[Scalar]], rhs: List[Scalar]) -> Optional[List[Scalar]]:
    """One exact solution of rows * x = rhs (free unknowns set to 0), or
    None when the system is inconsistent."""
    if not rows:
        return []
    n = len(rows[0])
    mat, pivots = _rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if n in pivots:
        return None  # pivot in the rhs column
    solution = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        solution[c] = mat[r][n]
    return solution

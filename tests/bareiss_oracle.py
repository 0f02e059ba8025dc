"""Fraction-free Bareiss elimination on polynomial entries, kept as the
tests' independent oracle for ``poly_matrix_det``, which samples the
determinant on an integer kernel and interpolates it instead."""

from __future__ import annotations

from typing import List

from conchoidal.errors import InternalError
from conchoidal.multipoly import MultiPoly, poly_exact_div


def det_bareiss_poly(rows: List[List[MultiPoly]]) -> MultiPoly:
    """Fraction-free Bareiss on polynomial entries; divisions are exact.
    The tests' independent oracle for poly_matrix_det."""
    n = len(rows)
    sample = rows[0][0]
    one = MultiPoly.constant(1, sample.vars, sample.field)
    mat = [[e for e in row] for row in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if mat[k][k].is_zero():
            for i in range(k + 1, n):
                if not mat[i][k].is_zero():
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(sample.vars, sample.field)
        pivot = mat[k][k]
        for i in range(k + 1, n):
            mik = mat[i][k]
            for j in range(k + 1, n):
                num = pivot * mat[i][j] - mik * mat[k][j]
                q = poly_exact_div(num, prev)
                if q is None:
                    raise InternalError("Bareiss division was not exact")
                mat[i][j] = q
            mat[i][k] = MultiPoly.zero(sample.vars, sample.field)
        prev = pivot
    det = mat[n - 1][n - 1]
    return det if sign > 0 else -det

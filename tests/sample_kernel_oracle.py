"""The per-sample determinant kernel that the batched kernel of
``resultant`` replaced, kept as the tests' differential oracle: each grid
sample is one integer matrix and one Python call.  ``_det_int`` is
fraction-free Bareiss over Z on one matrix, ``_hybrid_bezout`` the hybrid
Bezout matrix of two integer value lists, ``_sample_det`` the
pseudo-remainder reduced sample at nominal degrees m != n (the identity is
proved in ``resultant._resultants``), ``_sample`` the sample at any
nominal degrees m, n >= 1, and ``_dets_on_line`` the samples of one grid
line, reduced at its prefix (``_at_prefix``), one Horner evaluation
(``_horner``) and one ``det`` call each."""

from __future__ import annotations

from typing import List

from conchoidal.errors import InternalError


def _at_prefix(part: dict, prefix: tuple) -> List[int]:
    """Ascending coefficients in the last variable of p(prefix, t), p given
    as {exponent: c}."""
    out = [0] * (max((e[-1] for e in part), default=-1) + 1)
    for e, c in part.items():
        for x, a in zip(prefix, e):
            c *= x ** a
        out[e[-1]] += c
    return out


def _horner(coeffs, t: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * t + c
    return total


def _det_int(rows) -> int:
    """Fraction-free Bareiss over Z; every division is exact."""
    mat = [list(r) for r in rows]
    n = len(mat)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not mat[k][k]:
            for i in range(k + 1, n):
                if mat[i][k]:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = mat[k][k]
        tail_k = mat[k][k + 1:]
        for i in range(k + 1, n):
            row = mat[i]
            m = row[k]
            if m:
                row[k + 1:] = [(pivot * a - m * b) // prev for a, b in zip(row[k + 1:], tail_k)]
            elif pivot != prev:
                row[k + 1:] = [pivot * a // prev for a in row[k + 1:]]
        prev = pivot
    return sign * mat[n - 1][n - 1]


def _dets_on_line(parts: List[dict], prefix: tuple, ts, det) -> list:
    """[det(values) for t in ts], values being the integer polynomials
    ``parts``, each {exponent: c}, at prefix + (t,); they are reduced once
    at the prefix and evaluated by Horner in the last variable."""
    dense = [_at_prefix(p, prefix) for p in parts]
    return [det([_horner(c, t) if c else 0 for c in dense]) for t in ts]


def _hybrid_bezout(fc: List[int], gc: List[int]) -> List[List[int]]:
    """The m-square hybrid Bezout matrix of the ascending integer
    coefficient lists fc, gc at nominal degrees m >= 1 and n <= m
    (Diaz-Toca and Gonzalez-Vega 2004), columns ascending; its determinant
    is resultant_nominal(fc, gc).  The rows are g, u g, ..., u^(m-n-1) g,
    then H_1, ..., H_n with H_k = u H_(k-1) + a_(m-k+1) g~ - b~_(m-k+1) f,
    g~ = u^(m-n) g; the top coefficient of each H_k cancels."""
    m, n = len(fc) - 1, len(gc) - 1
    gt = [0] * (m - n) + gc
    rows = [[0] * j + gc + [0] * (m - n - 1 - j) for j in range(m - n)]
    h = [0] * (m + 1)                         # u H_(k-1)
    for k in range(m, m - n, -1):
        a, b = fc[k], gt[k]
        h = [x + a * y - b * z for x, y, z in zip(h, gt, fc)]
        rows.append(h[:m])
        h = [0] + h[:m]
    return rows


def _sample_det(fc: List[int], gc: List[int]) -> int:
    """resultant_nominal(fc, gc) of ascending integer value lists at nominal
    degrees m != n, both >= 1, from one _det_int call on a matrix of size
    at most min(m, n).

    The first-column rule and the pseudo-remainder identity are proved in
    ``resultant._resultants``; a remainder is an InternalError."""
    m, n = len(fc) - 1, len(gc) - 1
    lead = -1 if m > n and m * n % 2 else 1
    if m > n:
        fc, gc, m, n = gc, fc, n, m
    while m and not fc[m]:
        lead *= gc[n] if n % 2 == 0 else -gc[n]
        m -= 1
    if not m:
        return lead * fc[0] ** (n - 1) * _det_int([[fc[0]]])
    a = fc[m]
    f, r, p = fc[:m + 1], list(gc), 1
    # step k only changes the window r[k-m:k]; the entries below it are
    # scaled lazily: r[k-m] joins the window at step k, having missed the
    # n - k scalings by a of the earlier steps, and takes p = a^(n-k) then
    for k in range(n, m - 1, -1):
        s = k - m
        r[s] *= p
        c = r[k]
        r[s:k] = [a * x - c * y for x, y in zip(r[s:k], f)]
        p *= a
    det = _det_int(_hybrid_bezout(f, r[:m]))
    divisor = p ** (m - 1)
    quotient = det // divisor
    if quotient * divisor != det:
        raise InternalError("pseudo-remainder sample not divisible")
    return lead * quotient


def _sample(fc: List[int], gc: List[int]) -> int:
    """resultant_nominal(fc, gc) of integer value lists at nominal degrees
    m, n >= 1, as the per-sample kernel took it."""
    m, n = len(fc) - 1, len(gc) - 1
    return _det_int(_hybrid_bezout(fc, gc)) if m == n else _sample_det(fc, gc)

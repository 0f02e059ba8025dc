"""The Z[i] determinant kernel that packing Gaussian integers into Z
replaced, kept as the tests' differential oracle: every value is an
(re, im) pair of ints, and every step is written out in pair arithmetic.
``_det_gauss`` is fraction-free Bareiss over Z[i], ``_hybrid_bezout_gauss``
the hybrid Bezout matrix of two pair lists, and ``_sample_det_gauss`` the
pseudo-remainder reduced sample of ``resultant._sample_det`` over Z[i]."""

from __future__ import annotations

from conchoidal.errors import InternalError


def _det_gauss(rows) -> tuple:
    """Fraction-free Bareiss over Z[i] on (re, im) int pairs; every division
    by the previous pivot q is exact, done as multiplication by conj(q)
    followed by integer division by |q|^2."""
    mat = [list(r) for r in rows]
    n = len(mat)
    sign = 1
    qr, qi = 1, 0
    for k in range(n - 1):
        if mat[k][k] == (0, 0):
            for i in range(k + 1, n):
                if mat[i][k] != (0, 0):
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return (0, 0)
        kr, ki = mat[k][k]
        norm = qr * qr + qi * qi
        tail_k = mat[k][k + 1:]
        for i in range(k + 1, n):
            row = mat[i]
            mr, mi = row[k]
            new = []
            for (ar, ai), (br, bi) in zip(row[k + 1:], tail_k):
                sr = kr * ar - ki * ai - mr * br + mi * bi
                si = kr * ai + ki * ar - mr * bi - mi * br
                new.append(((sr * qr + si * qi) // norm, (si * qr - sr * qi) // norm))
            row[k + 1:] = new
        qr, qi = kr, ki
    re, im = mat[n - 1][n - 1]
    return (re, im) if sign > 0 else (-re, -im)


def _hybrid_bezout_gauss(fc, gc):
    """The m-square hybrid Bezout matrix of the ascending Z[i] pair lists
    fc, gc at nominal degrees m >= 1 and n <= m, columns ascending; its
    determinant is the resultant at those nominal degrees."""
    m, n = len(fc) - 1, len(gc) - 1
    zero = (0, 0)
    gt = [zero] * (m - n) + gc
    rows = [[zero] * j + gc + [zero] * (m - n - 1 - j) for j in range(m - n)]
    h = [zero] * (m + 1)                      # u H_(k-1)
    for k in range(m, m - n, -1):
        (ar, ai), (br, bi) = fc[k], gt[k]
        h = [(x + ar * y - ai * yi - br * z + bi * zi, xi + ar * yi + ai * y - br * zi - bi * z)
             for (x, xi), (y, yi), (z, zi) in zip(h, gt, fc)]
        rows.append(h[:m])
        h = [zero] + h[:m]
    return rows


def _sample_det_gauss(fc, gc):
    """The resultant of ascending Z[i] pair lists at nominal degrees
    m != n, both >= 1, as an (re, im) pair, from one ``_det_gauss`` call on
    a matrix of size at most min(m, n): the first-column rule while the
    shorter list's top value is zero, else one pseudo-remainder step and
    the hybrid Bezout determinant, divided exactly by a power of that top
    value (the identity is proved in ``resultant._sample_det``)."""
    m, n = len(fc) - 1, len(gc) - 1
    negate = m > n and m * n % 2
    if m > n:
        fc, gc, m, n = gc, fc, n, m
    lr, li = -1 if negate else 1, 0          # the first-column factors
    while m and fc[m] == (0, 0):
        gr, gi = gc[n] if n % 2 == 0 else (-gc[n][0], -gc[n][1])
        lr, li = lr * gr - li * gi, lr * gi + li * gr
        m -= 1
    if not m:
        ar, ai = fc[0]
        for _ in range(n - 1):
            lr, li = lr * ar - li * ai, lr * ai + li * ar
        dr, di = _det_gauss([[fc[0]]])
        return (lr * dr - li * di, lr * di + li * dr)
    ar, ai = fc[m]
    f, r, pr, pi = fc[:m + 1], list(gc), 1, 0
    for k in range(n, m - 1, -1):
        s = k - m
        xr, xi = r[s]
        r[s] = (pr * xr - pi * xi, pr * xi + pi * xr)
        cr, ci = r[k]
        r[s:k] = [(ar * xr - ai * xi - cr * yr + ci * yi, ar * xi + ai * xr - cr * yi - ci * yr)
                  for (xr, xi), (yr, yi) in zip(r[s:k], f)]
        pr, pi = pr * ar - pi * ai, pr * ai + pi * ar
    dr, di = _det_gauss(_hybrid_bezout_gauss(f, r[:m]))
    qr, qi = 1, 0                              # a^((n-m+1)(m-1)) = p^(m-1)
    for _ in range(m - 1):
        qr, qi = qr * pr - qi * pi, qr * pi + qi * pr
    norm = qr * qr + qi * qi                   # divide: times conj(q), over |q|^2
    nr, ni = dr * qr + di * qi, di * qr - dr * qi
    dr, di = nr // norm, ni // norm
    if dr * norm != nr or di * norm != ni:
        raise InternalError("pseudo-remainder sample not divisible")
    return (lr * dr - li * di, lr * di + li * dr)

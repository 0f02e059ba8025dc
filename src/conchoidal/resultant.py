"""The conchoid Sylvester-type matrix and exact determinants.

poly_matrix_det evaluates determinants of matrices with polynomial entries
on one exact integer kernel.  The entries are dehomogenized (z = 1) and
each row is scaled to integer coefficients, or to Gaussian-integer ones
over Q(i).  The determinant, of total degree at most D, is then sampled on
the triangular grid x0 + y0 <= D; every sample is a Z or Z[i] determinant
by fraction-free Bareiss.  Integer forward differences along x, then along
y, give its Newton form on that lattice, and Horner steps in the
falling-factorial basis turn it into monomials; the row scales are divided
out once at the end.  An off-grid residual check guards the degree bound,
and homogeneous matrices are re-homogenized to their known total degree.
Only matrices that are neither homogeneous in (x, y, z) nor bivariate fall
back to Bareiss elimination on the polynomial entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, List, Optional, Sequence

from .errors import DegreeBoundError
from .fields import FIELD_Q, FIELD_QI, GaussianRational, Scalar, im_part, re_part
from .multipoly import MultiPoly, homogeneous_decompose, merge_vars, poly_exact_div


@dataclass
class PolyMatrix:
    rows: int
    cols: int
    entries: List[MultiPoly]  # row-major

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match matrix shape")

    def at(self, i: int, j: int) -> MultiPoly:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> List[MultiPoly]:
        return self.entries[i * self.cols:(i + 1) * self.cols]


def _equation_of(curve) -> MultiPoly:
    return curve.equation if hasattr(curve, "equation") else curve


def phi_forms(F) -> List[MultiPoly]:
    """[Phi_0, ..., Phi_d] with Phi_i = (-1)^i sum_{j>=i} C(j,i) F_j z^(d-j);
    each homogeneous of degree d, and Phi_0 = F."""
    f = _equation_of(F)
    parts = homogeneous_decompose(f)          # [F_d, ..., F_0]
    d = f.total_degree()
    if d < 1:
        raise ValueError("phi forms need degree >= 1")
    vars = f.vars
    z = MultiPoly.variable("z", vars, f.field)
    out = []
    for i in range(d + 1):
        acc = MultiPoly.zero(vars, f.field)
        for j in range(i, d + 1):
            fj = parts[d - j]                  # F_j, a form of degree j in x, y
            if fj.is_zero():
                continue
            acc = acc + comb(j, i) * fj.with_vars(vars) * z ** (d - j)
        if i % 2:
            acc = -acc
        out.append(acc)
    return out


def conchoid_matrix(B, C) -> PolyMatrix:
    """The (d+delta)x(d+delta) matrix whose determinant is the conchoidal
    transform: delta rows of shifts of (Phi_d ... Phi_0), then d rows of
    shifts of (G_delta, z G_(delta-1), ..., z^delta G_0).  This exact row
    order fixes the sign of the determinant."""
    f = _equation_of(B)
    g = _equation_of(C)
    d, delta = f.total_degree(), g.total_degree()
    if d < 1 or delta < 1:
        raise ValueError("conchoid matrix needs curves of degree >= 1")
    vars = merge_vars(f.vars, g.vars)
    field_join = (f + g).field
    phis = [p.with_vars(vars).promote(field_join) for p in phi_forms(f)]
    gparts = homogeneous_decompose(g)          # [G_delta, ..., G_0]
    z = MultiPoly.variable("z", vars, field_join)
    grow = [gparts[k].with_vars(vars).promote(field_join) * z ** k for k in range(delta + 1)]
    n = d + delta
    zero = MultiPoly.zero(vars, field_join)
    entries = [zero] * (n * n)
    for r in range(delta):
        for k in range(d + 1):
            entries[r * n + r + k] = phis[d - k]
    for r in range(d):
        for k in range(delta + 1):
            entries[(delta + r) * n + r + k] = grow[k]
    return PolyMatrix(n, n, entries)


# -- scalar determinants -----------------------------------------------------


def det_scalar(rows: List[List]) -> Scalar:
    """Exact determinant of a square scalar matrix.

    Entries are ints, ``(re, im)`` int pairs standing for Gaussian integers,
    or Fractions/GaussianRationals.  Z and Z[i] matrices run fraction-free
    Bareiss and return an int or an ``(re, im)`` pair.  Rational matrices
    are row-scaled onto the same kernels and return a Fraction, or a
    GaussianRational when any entry is one."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    entries = [c for row in rows for c in row]
    if all(type(c) is int for c in entries):
        return _det_int(rows)
    if all(type(c) is tuple for c in entries):
        return _det_gauss(rows)
    gaussian = any(isinstance(c, GaussianRational) for c in entries)
    scale = 1
    scaled = []
    for row in rows:
        row_lcm = _denominator_lcm(row)
        scale *= row_lcm
        if gaussian:
            scaled.append([(_times(re_part(c), row_lcm), _times(im_part(c), row_lcm))
                           for c in row])
        else:
            scaled.append([_times(re_part(c), row_lcm) for c in row])
    if gaussian:
        re, im = _det_gauss(scaled)
        return GaussianRational(Fraction(re, scale), Fraction(im, scale))
    return Fraction(_det_int(scaled), scale)


def _denominator_lcm(scalars: Iterable) -> int:
    """Least common multiple of the denominators of the real and imaginary
    parts."""
    out = 1
    for c in scalars:
        out = lcm(out, re_part(c).denominator, im_part(c).denominator)
    return out


def _times(q: Fraction, multiple: int) -> int:
    """q * multiple, an integer because the denominator of q divides multiple."""
    return q.numerator * (multiple // q.denominator)


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


def det_bareiss_poly(rows: List[List[MultiPoly]]) -> MultiPoly:
    """Fraction-free Bareiss on polynomial entries; divisions are exact."""
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
                    raise ArithmeticError("internal: Bareiss division was not exact")
                mat[i][j] = q
            mat[i][k] = MultiPoly.zero(sample.vars, sample.field)
        prev = pivot
    det = mat[n - 1][n - 1]
    return det if sign > 0 else -det


# -- integer interpolation ------------------------------------------------------


def _falling_coefficients(values: Sequence[int]) -> List[int]:
    """c with v(t) = sum_k c[k] * t(t-1)...(t-k+1), from the samples
    v(0), v(1), ... of a polynomial with integer coefficients: the forward
    differences (Delta^k v)(0) / k!.  Step k divides every difference by k,
    which is exact for such a v and keeps the numbers small."""
    d = list(values)
    for k in range(1, len(d)):
        d[k:] = [(a - b) // k for a, b in zip(d[k:], d[k - 1:])]
    return d


def _falling_to_monomial(coeffs: Sequence[int]) -> List[int]:
    """Ascending monomial coefficients of sum_k coeffs[k] * t(t-1)...(t-k+1),
    by Horner steps out <- out * (t - k) + coeffs[k]."""
    out = [coeffs[-1]]
    for k in range(len(coeffs) - 2, -1, -1):
        out = [coeffs[k] - k * out[0]] + [a - k * b for a, b in zip(out, out[1:])] + [out[-1]]
    return out


def _interp_triangle(values: List[List[int]]) -> dict:
    """{(a, b): c} of the integer polynomial of total degree <= D through
    values[x0][y0] = p(x0, y0) for x0 + y0 <= D, D = len(values) - 1.

    Differences along x for each y0, then along y for each x-order i, give
    the Newton form sum c_ij x(x-1)..(x-i+1) y(y-1)..(y-j+1) on the
    triangular lattice; both factors are then converted to monomials."""
    D = len(values) - 1
    along_x = [_falling_coefficients([values[x0][y0] for x0 in range(D + 1 - y0)])
               for y0 in range(D + 1)]
    along_y = [_falling_to_monomial(_falling_coefficients(
        [along_x[y0][i] for y0 in range(D + 1 - i)])) for i in range(D + 1)]
    terms = {}
    for b in range(D + 1):
        column = _falling_to_monomial([along_y[i][b] for i in range(D + 1 - b)])
        for a, c in enumerate(column):
            if c:
                terms[(a, b)] = c
    return terms


def _integer_parts(e: MultiPoly, multiple: int, gaussian: bool, key) -> List[dict]:
    """multiple * e as an integer polynomial {key(exponent): c}, or as its
    (re, im) pair of integer polynomials when ``gaussian``."""
    parts = [{}, {}] if gaussian else [{}]
    for exp, c in e.terms.items():
        k = key(exp)
        for part, value in zip(parts, (re_part(c), im_part(c))):
            if value:
                part[k] = _times(value, multiple)
    return parts


def _divide_out(parts: List[dict], scale: int) -> dict:
    """{k: c / scale} from one integer coefficient map, or from its (re, im)
    pair over Z[i]."""
    if len(parts) == 1:
        return {k: Fraction(c, scale) for k, c in parts[0].items()}
    re, im = parts
    return {k: GaussianRational(Fraction(re.get(k, 0), scale), Fraction(im.get(k, 0), scale))
            for k in re.keys() | im.keys()}


def _horner(coeffs: Sequence[int], t: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * t + c
    return total


def _at_x(part: dict, x0: int) -> List[int]:
    """Ascending coefficients in y of p(x0, y), p given as {(a, b): c}."""
    ycoef = [0] * (max((b for _, b in part), default=-1) + 1)
    for (a, b), c in part.items():
        ycoef[b] += c * x0 ** a
    return ycoef


# -- polynomial matrix determinants --------------------------------------------


def _row_degrees(M: PolyMatrix) -> Optional[List[int]]:
    """Degree r_i when every nonzero entry of row i is homogeneous of the same
    degree in (x, y, z); None when the matrix does not have that shape."""
    degs = []
    for i in range(M.rows):
        row_deg = None
        for e in M.row(i):
            if e.is_zero():
                continue
            if not e.is_homogeneous():
                return None
            for v in e.vars:
                if e.uses_var(v) and v not in ("x", "y", "z"):
                    return None
            d = e.total_degree()
            if row_deg is None:
                row_deg = d
            elif row_deg != d:
                return None
        if row_deg is None:
            return [-1]  # a zero row: determinant is zero
        degs.append(row_deg)
    return degs


def _bivariate_only(M: PolyMatrix) -> bool:
    """True when no entry involves any variable outside (x, y), so the
    interpolated affine determinant already is the answer."""
    for e in M.entries:
        for v in e.vars:
            if e.uses_var(v) and v not in ("x", "y"):
                return False
    return True


def _xy_key(e: MultiPoly):
    """Exponent vector -> (deg x, deg y), dropping z (dehomogenization)."""
    xi = e.vars.index("x") if "x" in e.vars else None
    yi = e.vars.index("y") if "y" in e.vars else None
    return lambda exp: (exp[xi] if xi is not None else 0, exp[yi] if yi is not None else 0)


def poly_matrix_det(M: PolyMatrix, degree_bound: int) -> MultiPoly:
    """Exact determinant; degree_bound must be >= deg det(M)."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return MultiPoly.constant(1, ("x", "y", "z"), FIELD_Q)
    sample = M.entries[0]
    degs = _row_degrees(M)
    if degs == [-1]:
        return MultiPoly.zero(sample.vars, sample.field)
    homogeneous = degs is not None
    if not homogeneous and not _bivariate_only(M):
        return det_bareiss_poly([M.row(i) for i in range(n)])
    D = sum(degs) if homogeneous else degree_bound
    if D > degree_bound:
        raise DegreeBoundError(
            f"matrix rows force determinant degree {D} > bound {degree_bound}")
    field = FIELD_QI if any(e.field == FIELD_QI for e in M.entries) else sample.field
    gaussian = any(im_part(c) for e in M.entries for c in e.terms.values())

    # Scale each dehomogenized row to Z (or Z[i]) coefficients.
    scale = 1
    parts = []
    for i in range(n):
        row = M.row(i)
        row_lcm = _denominator_lcm(c for e in row for c in e.terms.values())
        scale *= row_lcm
        parts += [_integer_parts(e, row_lcm, gaussian, _xy_key(e)) for e in row]

    # Sample on the triangle x0 + y0 <= D, one column x = x0 at a time.
    # Entries are evaluated point by point, so memory stays at the size of
    # the input plus one value per sample.
    values = []
    for x0 in range(D + 1):
        rows = [[[_at_x(part, x0) for part in e] for e in parts[i * n:(i + 1) * n]]
                for i in range(n)]
        column = []
        for y0 in range(D + 1 - x0):
            if gaussian:
                mat = [[(_horner(re, y0), _horner(im, y0)) if re or im else (0, 0)
                        for re, im in row] for row in rows]
            else:
                mat = [[_horner(c, y0) if c else 0 for (c,) in row] for row in rows]
            column.append(det_scalar(mat))
        values.append(column)

    if gaussian:
        interpolated = [_interp_triangle([[v[p] for v in col] for col in values]) for p in (0, 1)]
    else:
        interpolated = [_interp_triangle(values)]
    det_aff = MultiPoly.make(("x", "y"), field, _divide_out(interpolated, scale))

    # Residual check at a point outside the grid.
    extra = Fraction(D + 1)
    point = {"x": extra, "y": extra, "z": Fraction(1)}
    expected = det_scalar([[e.evaluate(point) for e in M.row(i)] for i in range(n)])
    if det_aff.evaluate(point) != expected:
        raise DegreeBoundError("interpolation residual nonzero: degree bound violated")

    if not homogeneous:          # z-free matrix: the affine result is final
        return det_aff.with_vars(("x", "y", "z"))

    # Re-homogenize each monomial to the known total degree.
    out_terms = {}
    for (a, b), c in det_aff.terms.items():
        zc = D - a - b
        if zc < 0:
            raise DegreeBoundError("dehomogenized determinant exceeds the homogeneous degree")
        out_terms[(a, b, zc)] = c
    return MultiPoly.make(("x", "y", "z"), field, out_terms)


# -- Sylvester resultants ----------------------------------------------------


def sylvester_matrix_scalars(fc: List[Scalar], gc: List[Scalar]) -> List[List[Scalar]]:
    """Sylvester matrix from ascending coefficient lists taken at their
    NOMINAL degrees (leading entries may be zero).  Entries are scalars,
    ints, or (re, im) int pairs, as det_scalar takes them."""
    m = len(fc) - 1
    n = len(gc) - 1
    size = m + n
    if all(isinstance(c, int) for c in fc + gc):
        pad: object = 0
    elif all(isinstance(c, tuple) for c in fc + gc):
        pad = (0, 0)
    else:
        pad = Fraction(0)
    rows = []
    frow = list(reversed(fc))
    grow = list(reversed(gc))
    for r in range(n):
        rows.append([pad] * r + frow + [pad] * (size - r - m - 1))
    for r in range(m):
        rows.append([pad] * r + grow + [pad] * (size - r - n - 1))
    return rows


def resultant_nominal(fc: List[Scalar], gc: List[Scalar]) -> Scalar:
    """Scalar resultant of coefficient lists at nominal degrees."""
    if len(fc) - 1 <= 0 and len(gc) - 1 <= 0:
        raise ValueError("both polynomials are constant")
    if len(fc) - 1 == 0:
        return fc[0] ** (len(gc) - 1)
    if len(gc) - 1 == 0:
        return gc[0] ** (len(fc) - 1)
    return det_scalar(sylvester_matrix_scalars(fc, gc))


def sylvester_resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Classical Sylvester resultant eliminating ``var``; vanishes iff f and g
    share a root in ``var`` over the closure of the remaining function field.
    With one input of degree zero in ``var`` the usual convention
    res(f, g) = f**deg(g) (resp. g**deg(f)) applies."""
    f2, g2 = f + MultiPoly.zero(g.vars, g.field), g + MultiPoly.zero(f.vars, f.field)
    if var not in f2.vars:
        raise ValueError(f"variable {var} absent from both inputs")
    m = max(f2.degree_in(var), 0)
    n = max(g2.degree_in(var), 0)
    if m == 0 and n == 0:
        raise ValueError(f"variable {var} absent from both inputs")
    rest = tuple(v for v in f2.vars if v != var)
    fc = [c.with_vars(rest) for c in f2.coefficients_in(var)]
    gc = [c.with_vars(rest) for c in g2.coefficients_in(var)]
    if m == 0:
        return fc[0] ** n
    if n == 0:
        return gc[0] ** m
    used = [v for v in rest if any(c.uses_var(v) for c in fc + gc)]
    if not used:
        det = resultant_nominal([c.constant_value() for c in fc],
                                [c.constant_value() for c in gc])
        return MultiPoly.constant(det, rest, f2.field)
    if len(used) == 1:
        return _resultant_interp_1var(fc, gc, used[0], rest, f2.field)
    size = m + n
    zero = MultiPoly.zero(rest, f2.field)
    rows: List[List[MultiPoly]] = []
    frow = list(reversed(fc))
    grow = list(reversed(gc))
    for r in range(n):
        rows.append([zero] * r + frow + [zero] * (size - r - m - 1))
    for r in range(m):
        rows.append([zero] * r + grow + [zero] * (size - r - n - 1))
    return det_bareiss_poly(rows)


def _resultant_interp_1var(fc: List[MultiPoly], gc: List[MultiPoly], var: str,
                           rest, field) -> MultiPoly:
    """Evaluation-interpolation resultant when the coefficients involve a
    single variable: the determinant degree is bounded by row count times
    entry degree.  The coefficients are scaled to Z (or Z[i]), each sample
    at var = 0..bound is a scalar nominal-degree resultant, and integer
    differences interpolate it."""
    m, n = len(fc) - 1, len(gc) - 1
    df = max(c.degree_in(var) for c in fc)
    dg = max(c.degree_in(var) for c in gc)
    bound = n * max(df, 0) + m * max(dg, 0)
    gaussian = any(im_part(c) for p in fc + gc for c in p.terms.values())
    vi = rest.index(var)

    def integer_coeffs(polys):
        multiple = _denominator_lcm(c for p in polys for c in p.terms.values())
        return multiple, [_integer_parts(p, multiple, gaussian, lambda exp: exp[vi])
                          for p in polys]

    def sample(parts, t):
        vals = tuple(sum(c * t ** k for k, c in part.items()) for part in parts)
        return vals if gaussian else vals[0]

    lf, fu = integer_coeffs(fc)
    lg, gu = integer_coeffs(gc)
    values = [resultant_nominal([sample(p, t) for p in fu], [sample(p, t) for p in gu])
              for t in range(bound + 1)]
    samples = [[v[p] for v in values] for p in (0, 1)] if gaussian else [values]
    interpolated = [dict(enumerate(_falling_to_monomial(_falling_coefficients(s))))
                    for s in samples]
    coeffs = _divide_out(interpolated, lf ** n * lg ** m)
    out = MultiPoly.make((var,), field, {(k,): c for k, c in coeffs.items()})
    return out.with_vars(rest)

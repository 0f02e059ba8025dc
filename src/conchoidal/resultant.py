"""The conchoid coefficient lists and exact Sylvester determinants.

poly_matrix_det is the one polynomial determinant, and every resultant
goes through it: the determinant of the Sylvester matrix of two ascending
lists of polynomial coefficients at nominal degrees m, n >= 1, by the
classical evaluation-interpolation scheme on an exact integer kernel.  Each
list is scaled to integer coefficients, or to Gaussian-integer ones over
Q(i).  When every nonzero entry of each list is a form of one degree, a and
b, the determinant is homogeneous of degree D = n a + m b.  Otherwise D
is the caller's degree bound.  Each variable v gets an isobaric cap on
deg_v of the determinant (_isobaric_bound, at most D); for the conchoid
the cap in z is d delta, half of D.  In the homogeneous case a variable of
largest cap is set to 1 and put back at the end.  The determinant is
sampled on the lower set {p : |p| <= D, p_i <= cap_i} in the k remaining
variables, which holds every monomial it can have; only the m + n + 2
coefficients are evaluated, and each sample is the max(m, n) hybrid Bezout
determinant of their values, a Z or Z[i] determinant by fraction-free
Bareiss.  Integer forward differences along the first variable, then the
same interpolation on smaller lower sets in the rest, give its Newton
form, and Horner steps in the falling-factorial basis turn it into
monomials; the list scales are divided out once at the end.  An off-grid
residual, taken on the full Sylvester matrix, guards the degree.  One row
builder lays out every Sylvester matrix, and only this module calls it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, lcm
from typing import Iterable, List, Sequence, Tuple

from .errors import DegreeBoundError, InternalError
from .fields import FIELD_Q, FIELD_QI, GaussianRational, Scalar, im_part, re_part
from .multipoly import MultiPoly, homogeneous_decompose, merge_vars


def phi_forms(f: MultiPoly) -> List[MultiPoly]:
    """[Phi_0, ..., Phi_d] with Phi_i = (-1)^i sum_{j>=i} C(j,i) F_j z^(d-j);
    each homogeneous of degree d, and Phi_0 = F."""
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


def conchoid_coefficients(f: MultiPoly, g: MultiPoly) -> Tuple[List[MultiPoly], List[MultiPoly]]:
    """The ascending coefficient lists in the line parameter whose Sylvester
    determinant is the conchoidal transform of the curves f, g:
    [Phi_0, ..., Phi_d] and [z^delta G_0, ..., z G_(delta-1), G_delta].
    sylvester_rows lays them out as delta rows of shifts of
    (Phi_d ... Phi_0), then d rows of shifts of (G_delta, z G_(delta-1),
    ..., z^delta G_0); this exact row order fixes the sign."""
    d, delta = f.total_degree(), g.total_degree()
    if d < 1 or delta < 1:
        raise ValueError("conchoid coefficients need curves of degree >= 1")
    vars = merge_vars(f.vars, g.vars)
    field_join = (f + g).field
    phis = [p.with_vars(vars).promote(field_join) for p in phi_forms(f)]
    gparts = homogeneous_decompose(g)          # [G_delta, ..., G_0]
    z = MultiPoly.variable("z", vars, field_join)
    gc = [gparts[delta - h].with_vars(vars).promote(field_join) * z ** (delta - h)
          for h in range(delta + 1)]
    return phis, gc


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


def _simplex(D: int, caps: Sequence[int]):
    """Every point p of N^k, k = len(caps), with p_1 + ... + p_k <= D and
    each p_i <= caps[i], in lexicographic order: a lower set, and the whole
    simplex of degree D when no cap is below D."""
    if not caps:
        yield ()
        return
    for t in range(min(D, caps[0]) + 1):
        for rest in _simplex(D - t, caps[1:]):
            yield (t,) + rest


def _interp_simplex(values: dict, D: int, caps: Sequence[int]) -> dict:
    """{exponent: c} of the integer polynomial P in k = len(caps) variables
    whose monomials all lie in the lower set _simplex(D, caps), through
    values[p] = P(p) for every p of that set.

    Differences along the first variable at each point q of the rest give
    the Newton coefficients c_i(q), i <= min(D - |q|, caps[0]); c_i depends
    only on the values at t = 0..i.  Each c_i has its monomials in the
    lower set of degree D - i under the remaining caps, and is known on
    exactly that set of points, so it is interpolated the same way; a
    lower set of integer nodes is unisolvent for its own monomials.  The
    Newton form in the first variable is then converted to monomials."""
    if not caps:
        return {(): values[()]} if values[()] else {}
    cap, rest = caps[0], caps[1:]
    newton = {q: _falling_coefficients([values[(t,) + q]
                                        for t in range(min(D - sum(q), cap) + 1)])
              for q in _simplex(D, rest)}
    in_rest = {}           # monomial m of the rest -> Newton coefficients in the first variable
    for i in range(min(D, cap) + 1):
        order_i = {q: c[i] for q, c in newton.items() if len(c) > i}
        for m, c in _interp_simplex(order_i, D - i, rest).items():
            in_rest.setdefault(m, [0] * (min(D - sum(m), cap) + 1))[i] = c
    terms = {}
    for m, coeffs in in_rest.items():
        for a, c in enumerate(_falling_to_monomial(coeffs)):
            if c:
                terms[(a,) + m] = c
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


def _at_prefix(part: dict, prefix: tuple) -> List[int]:
    """Ascending coefficients in the last variable of p(prefix, t), p given
    as {exponent: c}."""
    out = [0] * (max((e[-1] for e in part), default=-1) + 1)
    for e, c in part.items():
        for x, a in zip(prefix, e):
            c *= x ** a
        out[e[-1]] += c
    return out


def _dets_on_line(parts, prefix: tuple, ts, gaussian: bool, build) -> list:
    """[det_scalar(build(values)) for t in ts], values being the integer
    polynomials ``parts`` at prefix + (t,).  Each part is [{exponent: c}],
    or its [re, im] pair over Z[i]; the parts are reduced once at the
    prefix and evaluated by Horner in the last variable."""
    dense = [[_at_prefix(p, prefix) for p in e] for e in parts]
    out = []
    for t in ts:
        if gaussian:
            values = [(_horner(re, t), _horner(im, t)) if re or im else (0, 0)
                      for re, im in dense]
        else:
            values = [_horner(c, t) if c else 0 for (c,) in dense]
        out.append(det_scalar(build(values)))
    return out


def _hybrid_bezout(fc: List, gc: List) -> List[List]:
    """The max(m, n)-square hybrid Bezout matrix of the ascending Z or Z[i]
    coefficient lists fc, gc at nominal degrees m, n >= 1 (Diaz-Toca and
    Gonzalez-Vega 2004), columns ascending; its determinant is
    resultant_nominal(fc, gc).  For m >= n: the rows g, u g, ...,
    u^(m-n-1) g, then H_1, ..., H_n with H_k = u H_(k-1) + a_(m-k+1) g~
    - b~_(m-k+1) f, g~ = u^(m-n) g; the top coefficient of each H_k
    cancels.  For m < n the roles swap, with the sign (-1)^(mn)."""
    m, n = len(fc) - 1, len(gc) - 1
    if m < n:
        rows = _hybrid_bezout(gc, fc)
        if m * n % 2:
            rows[0], rows[1] = rows[1], rows[0]
        return rows
    gaussian = type(fc[0]) is tuple
    zero = (0, 0) if gaussian else 0
    gt = [zero] * (m - n) + gc
    rows = [[zero] * j + gc + [zero] * (m - n - 1 - j) for j in range(m - n)]
    h = [zero] * (m + 1)                      # u H_(k-1)
    for k in range(m, m - n, -1):
        a, b = fc[k], gt[k]
        if gaussian:
            (ar, ai), (br, bi) = a, b
            h = [(x + ar * y - ai * yi - br * z + bi * zi, xi + ar * yi + ai * y - br * zi - bi * z)
                 for (x, xi), (y, yi), (z, zi) in zip(h, gt, fc)]
        else:
            h = [x + a * y - b * z for x, y, z in zip(h, gt, fc)]
        rows.append(h[:m])
        h = [zero] + h[:m]
    return rows


# -- the Sylvester determinant ---------------------------------------------------


def _interpolated_det(fc: List[MultiPoly], gc: List[MultiPoly], index: List[int], D: int,
                      caps: List[int], error) -> dict:
    """{exponent: c} of the determinant of sylvester_rows(fc, gc) in the
    variables at ``index``, the others dropped, sampled on the lower set
    _simplex(D, caps) in them.  Each list is scaled to Z (or Z[i])
    coefficients first; the scales are divided out at the end.  Each sample
    is the max(m, n) hybrid Bezout determinant of the m + n + 2 values.  The
    residual at a point off the grid comes from the full Sylvester matrix;
    if nonzero, ``error`` is raised."""
    gaussian = any(im_part(c) for e in fc + gc for c in e.terms.values())

    def key(exp):
        return tuple(exp[i] for i in index)

    m, n = len(fc) - 1, len(gc) - 1
    scale = 1
    parts = []
    for entries, count in ((fc, n), (gc, m)):       # n rows of f, m rows of g
        row_lcm = _denominator_lcm(c for e in entries for c in e.terms.values())
        scale *= row_lcm ** count
        parts += [_integer_parts(e, row_lcm, gaussian, key) for e in entries]
    k = len(index)
    values = {}
    for prefix in _simplex(D, caps[:-1]):
        ts = range(min(D - sum(prefix), caps[-1]) + 1)
        dets = _dets_on_line(parts, prefix, ts, gaussian,
                             lambda v: _hybrid_bezout(v[:m + 1], v[m + 1:]))
        values.update(zip([prefix + (t,) for t in ts], dets))
    if gaussian:
        interpolated = [_interp_simplex({p: v[j] for p, v in values.items()}, D, caps)
                        for j in (0, 1)]
    else:
        interpolated = [_interp_simplex(values, D, caps)]

    # Residual check at a point outside the grid.
    off = (D + 1,) * k
    zero = (0, 0) if gaussian else 0
    expected = _dets_on_line(parts, off[:-1], off[-1:], gaussian,
                             lambda v: sylvester_rows(v[:m + 1], v[m + 1:], zero))[0]
    got = tuple(_horner(_at_prefix(poly, off[:-1]), D + 1) for poly in interpolated)
    if got != (expected if gaussian else (expected,)):
        raise error(f"interpolation residual nonzero at degree {D}")
    return _divide_out(interpolated, scale)


def _isobaric_bound(fc: List[MultiPoly], gc: List[MultiPoly], degree) -> int:
    """n e_f + m e_g - m n, with e_f = max_i (degree(fc[i]) + i) and
    e_g = max_j (degree(gc[j]) + j) over the nonzero entries: a bound on
    degree(det sylvester_rows(fc, gc)) when ``degree`` is deg_v in one
    variable v or the total degree.

    Proof: f-row r < n holds fc[i] in column c = r + m - i, of degree
    <= e_f - i = (e_f - m - r) + c, and g-row r < m holds gc[j] in column
    c = r + n - j, of degree <= (e_g - n - r) + c.  So entry (R, c) has
    degree <= alpha_R + c for row weights alpha_R, and each term of the
    determinant, one entry in every row and every column, has degree
    <= sum_R alpha_R + sum_c c = (n e_f - mn - n(n-1)/2)
    + (m e_g - mn - m(m-1)/2) + (m+n)(m+n-1)/2 = n e_f + m e_g - mn."""
    m, n = len(fc) - 1, len(gc) - 1
    e_f, e_g = (max((degree(e) + i for i, e in enumerate(c) if e), default=0) for c in (fc, gc))
    return n * e_f + m * e_g - m * n


def poly_matrix_det(fc: List[MultiPoly], gc: List[MultiPoly], degree_bound: int) -> MultiPoly:
    """Exact determinant of sylvester_rows(fc, gc): the resultant of the
    ascending polynomial coefficient lists fc, gc at nominal degrees
    m, n >= 1, over the union of their variables; degree_bound must be >=
    its total degree.  It is sampled only on the monomials that its
    isobaric degree caps allow."""
    m, n = len(fc) - 1, len(gc) - 1
    if m < 1 or n < 1:
        raise ValueError("Sylvester determinant of a nominal degree below 1")
    vars = reduce(merge_vars, {e.vars for e in fc + gc})
    fc, gc = ([e if e.vars == vars else e.with_vars(vars) for e in c] for c in (fc, gc))
    entries = fc + gc
    used = [v for v in vars if any(e.uses_var(v) for e in entries)]
    # a, b when every nonzero entry of fc (of gc) is a form of degree a (b)
    degrees = [{e.total_degree() for e in c if e} for c in (fc, gc)]
    forms = all(len(s) < 2 for s in degrees) and all(e.is_homogeneous() for e in entries if e)
    a, b = (max(s, default=0) for s in degrees)
    D = n * a + m * b if forms and used else degree_bound
    if D > degree_bound:
        raise DegreeBoundError(
            f"coefficient lists force determinant degree {D} > bound {degree_bound}")
    # a negative bound means the determinant is 0; the residual confirms it
    caps = {v: max(0, min(D, _isobaric_bound(fc, gc, lambda e: e.degree_in(v)))) for v in used}
    # set a variable of largest cap to 1, so that the capped ones stay sampled
    hom = max(used, key=caps.get) if forms and used else None
    axes = [v for v in used if v != hom]
    field = FIELD_QI if any(e.field == FIELD_QI for e in entries) else FIELD_Q

    if axes:
        error = InternalError if hom else DegreeBoundError    # D is certain when homogeneous
        coeffs = _interpolated_det(fc, gc, [vars.index(v) for v in axes], D,
                                   [caps[v] for v in axes], error)
        det_aff = MultiPoly.make(axes, field, coeffs)
    else:                    # nothing left to sample: a scalar resultant
        point = {hom: Fraction(1)} if hom else {}
        value = resultant_nominal([e.evaluate(point) for e in fc], [e.evaluate(point) for e in gc])
        det_aff = MultiPoly.constant(value, (), field)
    if hom:                  # re-homogenize to the known total degree
        det_aff = det_aff.homogenize(hom, D)
    return det_aff.with_vars(vars)


# -- Sylvester resultants ----------------------------------------------------


def sylvester_rows(fc: List, gc: List, zero) -> List[List]:
    """Sylvester matrix of f and g from their ascending coefficient lists at
    NOMINAL degrees m and n (leading entries may be zero): n shifts of
    (f_m ... f_0), then m shifts of (g_n ... g_0), padded with ``zero``.
    The entries may be scalars or polynomials."""
    m, n = len(fc) - 1, len(gc) - 1
    frow, grow = fc[::-1], gc[::-1]
    return ([[zero] * r + frow + [zero] * (n - 1 - r) for r in range(n)]
            + [[zero] * r + grow + [zero] * (m - 1 - r) for r in range(m)])


def resultant_nominal(fc: List[Scalar], gc: List[Scalar]) -> Scalar:
    """Scalar resultant of coefficient lists at nominal degrees."""
    if len(fc) - 1 <= 0 and len(gc) - 1 <= 0:
        raise ValueError("both polynomials are constant")
    if len(fc) - 1 == 0:
        return fc[0] ** (len(gc) - 1)
    if len(gc) - 1 == 0:
        return gc[0] ** (len(fc) - 1)
    return det_scalar(sylvester_rows(fc, gc, fc[0] - fc[0]))


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
    return poly_matrix_det(fc, gc, _isobaric_bound(fc, gc, MultiPoly.total_degree))

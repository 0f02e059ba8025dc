"""The conchoid coefficient lists and exact Sylvester determinants.

poly_matrix_det is the one polynomial determinant, and every resultant
goes through it: the determinant of the Sylvester matrix of two ascending
lists of polynomial coefficients at nominal degrees m, n >= 1, by the
classical evaluation-interpolation scheme on one exact integer kernel.  Each
list goes onto one denominator (fields.integer_parts).  When every nonzero
entry of each list is a form of one degree, a and b, the determinant is
homogeneous of degree D = n a + m b, and a variable of largest cap is set
to 1 and put back at the end; otherwise D is the caller's degree bound.
Each variable v gets an isobaric cap on deg_v of the determinant
(_isobaric_bound, at most D); for the conchoid the cap in z is d delta,
half of D.  A sample is an at most min(m, n)-square integer determinant of
the values of the m + n + 2 coefficients (_resultants), and the samples of
one grid line, along a sampled variable of largest cap, are one batch
(_regroup).  Kronecker substitution packs into Z at powers of N = 2^K,
above a proven coefficient bound (_packed), either i over Q(i), where the
lower set {p : |p| <= D, p_i <= cap_i} is sampled in grid lines and
interpolated by checked Newton differences (_interpolate), or all sampled
variables but the last, whose one line gives each coefficient as base-N
digits (_packed_line).  An off-grid residual on the full Sylvester matrix
guards the degree and the sample reduction.  One row builder lays out
every Sylvester matrix, and only this module calls it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, prod
from operator import getitem, mul, sub
from typing import List, Sequence, Tuple

from .errors import DegreeBoundError, InternalError
from .fields import FIELD_Q, FIELD_QI, GaussianRational, Scalar, _make, integer_parts, onto_lcm
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
    """Exact determinant of a square matrix of ints, Fractions or
    GaussianRationals, by fraction-free Bareiss over Z (_bareiss, a batch of
    one).  An int matrix gives an int.  Otherwise each row goes onto one
    denominator by integer_parts and the result is a Fraction, or a
    GaussianRational when any entry is one; such a matrix is packed into Z
    at i -> N = _base(row norms) and its determinant unpacked, exact as
    _interpolated_det proves (_packed, _unpack)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    entries = [c for row in rows for c in row]
    if all(type(c) is int for c in entries):
        return _bareiss([[[c] for c in row] for row in rows])[0]
    gaussian = any(isinstance(c, GaussianRational) for c in entries)
    ints, scale, N = _packed([integer_parts(row) for row in rows], [1] * n)
    det = _bareiss([[[v] for v in ints[i:i + n]] for i in range(0, n * n, n)])[0]
    return _make(*_unpack(det, N), scale) if gaussian else Fraction(det, scale)


# -- batches: each value is a list, one entry per sample -------------------------


def _regroup(kernel, lists: List[List[List[int]]], flags: Sequence[int]) -> List[int]:
    """kernel(lists) for a batch whose samples s with flags[s] == 0 need a
    zero test of their own: the other samples run as one batch, each of
    these as a batch of one, and the results come back in sample order.
    ``lists`` is a list of lists of entries, each entry a list of values."""
    def run(samples):
        return kernel([[[e[s] for s in samples] for e in row] for row in lists])

    regular = [s for s, x in enumerate(flags) if x]
    out = dict(zip(regular, run(regular) if regular else []))
    out.update((s, run([s])[0]) for s, x in enumerate(flags) if not x)
    return [out[s] for s in range(len(flags))]


def _bareiss(mat: List[List[List[int]]]) -> List[int]:
    """The determinants of a batch of square integer matrices, entry (i, j)
    of sample s being mat[i][j][s], by fraction-free Bareiss; every division
    is exact.  A zero pivot in a batch of one is swapped with the first row
    below it that has a nonzero entry in its column; a batch of more than
    one with a zero pivot in some sample restarts by _regroup."""
    rows = [list(r) for r in mat]
    n, size = len(rows), len(rows[0][0])
    sign, prev = 1, [1] * size
    for k in range(n - 1):
        pivot = rows[k][k]
        if not all(pivot):
            if size > 1:
                return _regroup(_bareiss, mat, pivot)
            for i in range(k + 1, n):
                if rows[i][k][0]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return [0]
            pivot = rows[k][k]
        tail_k = rows[k][k + 1:]
        for i in range(k + 1, n):
            row = rows[i]
            col = row[k]
            row[k + 1:] = [[(p * a - c * b) // q for p, a, c, b, q in zip(pivot, x, col, y, prev)]
                           for x, y in zip(row[k + 1:], tail_k)]
        prev = pivot
    return rows[n - 1][n - 1] if sign > 0 else [-v for v in rows[n - 1][n - 1]]


# -- Gaussian integers packed into Z --------------------------------------------


def _packed(groups: Sequence[tuple], counts: Sequence[int]) -> Tuple[List[int], int, int]:
    """(ints, scale, N): the integer (re, im) parts of the groups, each a
    (pairs, L) over one denominator L (fields.integer_parts), in order, and
    packed as re + im N, N = _base of the row norms.  A group stands for
    counts[k] matrix rows, so the scale is the product of the L^count."""
    scale, pairs, norms = 1, [], []
    for (scaled, L), count in zip(groups, counts):
        scale *= L ** count
        pairs += scaled
        norms += [sum(abs(re) + abs(im) for re, im in scaled)] * count
    N = _base(norms)
    return [re + im * N for re, im in pairs], scale, N


def _base(norms: Sequence[int]) -> int:
    """N = 2^(bitlen(B) + 1) for B the product of the row l1 norms of a
    matrix, so that B < N/2 bounds every digit of its packed determinant."""
    return 1 << (prod(norms).bit_length() + 1)


def _digits(v: int, K: int) -> List[int]:
    """The balanced base-2^K digits of v, K >= 2 or v = 0, in [-2^(K-1),
    2^(K-1)) and ascending, with no division loop: 2^(K-1) added to each of
    enough digits makes them nonnegative with no carry, and each is a K-bit
    field of the sum, one shift and one mask."""
    count, half, mask = abs(v).bit_length() // K + 2, 1 << (K - 1), (1 << K) - 1
    x = v + ((1 << K * count) - 1) // mask * half
    return [(x >> s & mask) - half for s in range(0, K * count, K)]


def _unpack(v: int, N: int) -> Tuple[int, int]:
    """(re, im) of c(i) from v = c(N), c an integer polynomial whose
    coefficients have |c_j| < N/2: its digits (_digits), N^j folded to i^j."""
    d = _digits(v, N.bit_length() - 1)
    return sum(d[0::4]) - sum(d[2::4]), sum(d[1::4]) - sum(d[3::4])


# -- integer interpolation ------------------------------------------------------


def _falling_coefficients(values: Sequence[int]) -> List[int]:
    """c with v(t) = sum_k c[k] * t(t-1)...(t-k+1), from the samples
    v(0), v(1), ... of a polynomial with integer coefficients: the forward
    differences (Delta^k v)(0) / k!.  Step k divides every difference by k,
    which keeps the numbers small, and is exact for such a v whatever its
    degree: Delta^k t(t-1)...(t-j+1) = k! C(j, k) t(t-1)...(t-j+k+1), and v
    has integer coefficients in that basis, so every (Delta^k v)(s) / k! is
    an integer.  So true samples pass, and a degree bound that is too small
    still reaches the off-grid residual.  One sum per step checks the
    divisions: the differences telescope to d_last - d_(k-1) and each floor
    remainder lies in [0, k), so k times the sum of the quotients is
    d_last - d_(k-1) exactly when every division was exact; otherwise an
    InternalError is raised."""
    d = list(values)
    d[1:] = map(sub, d[1:], d)
    for k in range(2, len(d)):
        q = [x // k for x in map(sub, d[k:], d[k - 1:])]
        if k * sum(q) != d[-1] - d[k - 1]:
            raise InternalError("interpolation difference not divisible")
        d[k:] = q
    return d


def _falling_to_monomial(coeffs: Sequence[int]) -> List[int]:
    """Ascending monomial coefficients of sum_k coeffs[k] * t(t-1)...(t-k+1),
    by Horner steps out <- out * (t - k) + coeffs[k]."""
    out = [coeffs[-1]]
    for k in range(len(coeffs) - 2, -1, -1):
        out = [coeffs[k] - k * out[0]] + [a - k * b for a, b in zip(out, out[1:])] + [out[-1]]
    return out


def _table(D: int, caps: Sequence[int], line, prefix: tuple = ()) -> list:
    """A table on the lower set {p in N^k : |p| <= D, p_i <= caps[i]},
    k = len(caps) >= 1: entry i is the table of the points whose first
    coordinate is i, and at the last axis the row line(prefix, length) of
    the points prefix + (t,), t < length."""
    n = min(D, caps[0]) + 1
    if len(caps) == 1:
        return line(prefix, n)
    return [_table(D - i, caps[1:], line, prefix + (i,)) for i in range(n)]


def _combine(x: list, y: list, c: int, s: int, k: int) -> list:
    """(x + c y) / s entrywise on two tables of depth k >= 1, in the shape
    of x, its entries beyond y unchanged; where x lies inside y a zip keeps
    that shape, as rows never grow longer along an axis of a lower set.
    For s > 1 each row of quotients is checked (_interpolate)."""
    if k > 1:
        return [_combine(a, b, c, s, k - 1) for a, b in zip(x, y)] + x[len(y):]
    q = [(a + c * b) // s for a, b in zip(x, y)]
    if s > 1 and s * sum(q) != sum(x[:len(q)]) + c * sum(y[:len(q)]):
        raise InternalError("interpolation difference not divisible")
    return q + x[len(y):]


def _interpolate(table, k: int):
    """The integer polynomial P in k variables whose monomials lie in the
    lower set of a _table of its values, as a table of that shape holding
    at p the coefficient of the monomial p (at k = 0, one value).  Newton
    differences along the first axis give c_i(q) = (Delta^i P)(0, q) / i!
    on row i, the lower set of degree D - i in the rest, which holds every
    monomial of c_i and is unisolvent for them; so c_i is interpolated the
    same way, and Horner steps out <- out (t - j) + c_j in the first
    variable t give the table of each t^a.  At k = 1 these steps are
    _falling_coefficients and _falling_to_monomial.  Step s divides by s,
    exact for true samples as there; a row of quotients q of differences
    x - y is checked by s sum(q) = sum(x - y): each floor remainder
    x - y - s q lies in [0, s), so the sums agree only if all are 0, as a
    check of each division would find; otherwise InternalError."""
    if not k or not table:
        return table
    if k == 1:
        return _falling_to_monomial(_falling_coefficients(table))
    d = list(table)
    for s in range(1, len(d)):
        d[s:] = [_combine(x, y, -1, s, k - 1) for x, y in zip(d[s:], d[s - 1:])]
    c = [_interpolate(x, k - 1) for x in d]
    out = c[-1:]
    for j in range(len(c) - 2, -1, -1):
        out = [_combine(x, y, -j, 1, k - 1) for x, y in zip(c[j:j + 1] + out, out)] + out[-1:]
    return out


def _layout(parts: List[dict]) -> tuple:
    """Integer polynomials, each {(prefix exponent, line exponent): c},
    laid out once for _on_line: the prefix exponents E of them all, and for
    each its ascending coefficients in the line variable as columns over E."""
    E = sorted({e for p in parts for e, _ in p})
    return E, [[[p.get((e, a), 0) for e in E] for a in range(max((a for _, a in p), default=-1) + 1)]
               for p in parts]


def _on_line(layout: tuple, prefix: tuple, ts: Sequence[int]) -> List[List[int]]:
    """The values of the polynomials of a _layout at prefix + (t,) for t in
    ts, one list per polynomial: one table of the prefix's monomials at E,
    shared by all, reduces each to its coefficients in the line variable,
    and each Horner step in it runs for all of ts."""
    E, columns = layout
    powers = [prod(map(pow, prefix, e)) for e in E]
    out = []
    for cols in columns:
        coeffs = [sum(map(mul, col, powers)) for col in cols] or [0]
        values = [coeffs[-1]] * len(ts)
        for c in reversed(coeffs[:-1]):
            values = [v * t + c for v, t in zip(values, ts)]
        out.append(values)
    return out


def _hybrid_bezout(fc: List[List[int]], gc: List[List[int]], descending: bool = False
                   ) -> List[List[List[int]]]:
    """The m-square hybrid Bezout matrices of a batch of ascending integer
    coefficient lists fc, gc at nominal degrees m >= 1 and n <= m
    (Diaz-Toca and Gonzalez-Vega 2004); their determinants are
    resultant_nominal(fc, gc).  The rows are g, u g, ..., u^(m-n-1) g, then
    H_1, ..., H_n with H_k = u H_(k-1) + a_(m-k+1) g~ - b~_(m-k+1) f,
    g~ = u^(m-n) g; the top coefficient of each H_k cancels, so it is not
    computed.  The columns ascend, or descend, row 0 negated when that has
    the sign (-1)^(m(m-1)/2) = -1, so that Bareiss pivots first on the top
    coefficients, which have the fewest digits on a packed line."""
    m, n = len(fc) - 1, len(gc) - 1
    zero = [0] * len(fc[0])
    gt = [zero] * (m - n) + gc
    rows = [[zero] * j + gc + [zero] * (m - n - 1 - j) for j in range(m - n)]
    h = [zero] * m                            # u H_(k-1) below its top
    for k in range(m, m - n, -1):
        a, b = fc[k], gt[k]
        h = [[x + p * y - q * z for x, p, y, q, z in zip(hx, a, gy, b, fz)]
             for hx, gy, fz in zip(h, gt, fc)]
        rows.append(h)
        h = [zero] + h[:-1]
    rows = [row[::-1] for row in rows] if descending else rows
    if descending and m // 2 % 2:
        rows[0] = [[-v for v in e] for e in rows[0]]
    return rows


def _resultants(fc: List[List[int]], gc: List[List[int]], descending: bool = False) -> List[int]:
    """resultant_nominal(fc, gc) of a batch of ascending integer value lists
    at nominal degrees m, n >= 1, from one _bareiss call per batch on
    matrices of size at most min(m, n): for m = n the hybrid Bezout
    matrices, their columns in the order ``descending`` picks, else one
    pseudo-remainder step first.

    Let f be the shorter list, at degree m < n, since
    Res_(m,n)(f, g) = (-1)^(mn) Res_(n,m)(g, f):
    moving the m rows of one list past the n of the other is mn row swaps.
    Write S(f, g) for the Sylvester matrix of sylvester_rows, f-rows first
    and coefficients descending.  While f_m = 0 the first column of S is
    g_n in the first g-row, row n, and zero elsewhere; deleting that row
    and column leaves S at nominal degrees (m-1, n), so
    Res_(m,n)(f, g) = (-1)^n g_n Res_(m-1,n)(f, g), down to
    Res_(0,n)(f, g) = f_0^n, n rows of f_0 on the diagonal.  This rule runs
    batched while f_m is zero in every sample; when it is zero in some
    samples only, those go through _regroup.

    For a = f_m != 0, n - m + 1 steps r <- a r - r_k u^(k-m) f, from r = g
    at k = n down to k = m, give the pseudo-remainder r = a^(n-m+1) g - q f,
    deg q <= n - m, deg r <= m - 1.  Then
        Res_(m,n)(f, g) a^((n-m+1)(m-1)) = Res_(m,m-1)(f, r),
    the m-square hybrid Bezout determinant of f and r:
    (1) scaling the m g-rows of S by a^(n-m+1) scales Res_(m,n) by
        a^((n-m+1)m);
    (2) g-row j is u^(m-1-j) g, and u^(m-1-j) q f is a sum of the f-rows
        u^i f with i <= n - 1, so subtracting it leaves the determinant
        unchanged: a^((n-m+1)m) Res_(m,n)(f, g) = Res_(m,n)(f, r);
    (3) r has its top n - m + 1 nominal coefficients zero, so the first
        column of S(f, r) is a over zeros, and deleting the first row and
        column leaves S at nominal degrees (m, n - 1): n - m + 1 such steps
        give Res_(m,n)(f, r) = a^(n-m+1) Res_(m,m-1)(f, r).
    Dividing (1)-(3) by a^(n-m+1) gives the identity; the division by
    a^((n-m+1)(m-1)) must be exact, and a remainder is an InternalError."""
    m, n = len(fc) - 1, len(gc) - 1
    if m == n:
        return _bareiss(_hybrid_bezout(fc, gc, descending))
    lists = [fc, gc]
    sign = -1 if m > n and m * n % 2 else 1
    if m > n:
        fc, gc, m, n = gc, fc, n, m
    lead = [sign] * len(fc[0])
    while m and not any(fc[m]):
        lead = [x * y for x, y in zip(lead, gc[n])] if n % 2 == 0 else \
            [-x * y for x, y in zip(lead, gc[n])]
        m -= 1
    if not m:
        return [x * y ** n for x, y in zip(lead, fc[0])]
    a = fc[m]
    if not all(a):
        return _regroup(lambda pair: _resultants(*pair, descending), lists, a)
    f, r, p = fc[:m + 1], list(gc), [1] * len(a)
    # step k only changes the window r[k-m:k]; the entries below it are
    # scaled lazily: r[k-m] joins the window at step k, having missed the
    # n - k scalings by a of the earlier steps, and takes p = a^(n-k) then
    for k in range(n, m - 1, -1):
        s = k - m
        r[s] = [x * y for x, y in zip(r[s], p)]
        c = r[k]
        r[s:k] = [[u * x - v * y for u, x, v, y in zip(a, rx, c, fy)]
                  for rx, fy in zip(r[s:k], f)]
        p = [x * y for x, y in zip(p, a)]
    dets = _bareiss(_hybrid_bezout(f, r[:m], descending))
    divisors = [x ** (m - 1) for x in p]
    quotients = [d // x for d, x in zip(dets, divisors)]
    if any(q * x != d for q, x, d in zip(quotients, divisors, dets)):
        raise InternalError("pseudo-remainder sample not divisible")
    return [x * q for x, q in zip(lead, quotients)]


# -- the Sylvester determinant ---------------------------------------------------


def _packed_line(layout: tuple, m: int, D: int, caps: List[int], K: int, error) -> dict:
    """{(p, a): c}, the monomials p + (a,) of the det of real _layout lists
    and their coefficients, from one batch on t = 0..caps[-1], each other
    axis j at 2^(K w_j), w_j = prod_(i<j) (caps[i] + 1); a nonzero digit
    past the places of the p <= caps or at |p| + a > D raises ``error``."""
    radices = [cap + 1 for cap in caps[:-1]]
    slots = [p[::-1] for p in product(*map(range, reversed(radices)))]
    point = tuple(1 << K * prod(radices[:j]) for j in range(len(radices)))
    columns = _on_line(layout, point, range(caps[-1] + 1))
    dets = _resultants(columns[:m + 1], columns[m + 1:], descending=True)
    terms = {}
    for a, c in enumerate(_interpolate(dets, 1)):
        for j, digit in enumerate(_digits(c, K)):
            if digit:
                if j >= len(slots) or sum(slots[j]) + a > D:
                    raise error(f"packed term beyond the degree caps at degree {D}")
                terms[slots[j], a] = digit
    return terms


def _interpolated_det(fc: List[MultiPoly], gc: List[MultiPoly], index: List[int], hom, D: int,
                      caps: List[int], error) -> Tuple[dict, int, int]:
    """({exponent: v}, scale, N): the determinant of sylvester_rows(fc, gc)
    has the coefficient v / scale at each exponent, unpacked at N if N > 0,
    in the variables of the lists; its monomials lie in the lower set
    |p| <= D, p_i <= caps[i] in the variables at ``index``, and the
    variable at ``hom``, if any, is 1 there and takes back the exponent
    D - |p|.  Each list goes onto one denominator, and the scales are
    divided out at the end.  Kronecker substitution (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 8) packs one thing into Z at
    powers of N = 2^K = _base of the Sylvester row norms (_packed): i, when
    some coefficient has a nonzero im part, and then the lower set is
    sampled in grid lines and each coefficient unpacked by _unpack; else,
    for two or more sampled variables, all but the last (_packed_line), and
    N = 0 is returned.  The residual at a point off the grid comes from
    det_scalar of the full Sylvester matrix, so it also checks the sample
    reduction; if nonzero, ``error`` is raised.

    Why the packing is exact.  Let P be the Sylvester determinant of the
    scaled lists in the sampled variables, hom at 1 and i a variable N.
    A sample is an integer determinant at a point, the image of a ring map
    to Z.  Bareiss, the first-column rule, the pseudo-remainder identity
    and the hybrid Bezout determinant hold over any commutative ring, so
    every exact division stays exact, and each zero test (a zero top
    value, a zero pivot) tests the integer matrix, which is all they need.
    So each sample is P at its point, and interpolation, linear over Z,
    yields each coefficient there.  The l1 norm (the sum of |re| + |im|, or
    of |c|, over the terms) is subadditive and submultiplicative and does
    not grow when a variable is set to 1, so ||P||_1 <= B = (sum_i
    ||fc_i||_1)^n (sum_j ||gc_j||_1)^m, the product of the row norms, and B
    < N/2 = 2^(K-1) bounds every coefficient of P in all its variables and
    N.  So _unpack reads the c_j of N^j in one monomial, and each
    coefficient of t^a on the packed line, the sum of the c_(p,a) at the
    places of their p, all in the box when the caps hold, reads back as its
    balanced digits (_digits).  A nonzero digit past the box or outside the
    lower set means that a cap or D was too small: ``error``, as for a
    nonzero residual, never a wrap into another exponent; a term beyond the
    cap of an inner packed axis lands on another place and fails the
    residual, as grid aliasing does.  D and the caps bound P as they come
    from the entry degrees, which packing i keeps: for B > 0 each
    |re| + |im| <= B < N/2, so re + im N = 0 only for re = im = 0, and for
    B = 0 a list and the determinant are 0.  A nonzero c may vanish at i,
    as 1 + N^2 does; MultiPoly drops that 0."""
    def key(exp):
        return tuple(exp[i] for i in index[:-1]), exp[index[-1]]

    m, n = len(fc) - 1, len(gc) - 1                  # n rows of f, m rows of g
    parts = [e.integer_parts() for e in fc + gc]
    gaussian = any(im for p, _ in parts for _, im in p.values())
    ints, scale, N = _packed([onto_lcm([(p.values(), L) for p, L in side])
                              for side in (parts[:m + 1], parts[m + 1:])], [n, m])
    values = iter(ints)
    layout = _layout([{key(exp): next(values) for exp in p} for p, _ in parts])
    if gaussian or len(caps) == 1:
        prefixes = []

        def line(prefix, length):
            prefixes.append(prefix)
            columns = _on_line(layout, prefix, range(length))
            return _resultants(columns[:m + 1], columns[m + 1:])

        table = _interpolate(_table(D, caps, line), len(caps))
        terms = {(p, a): c for p in prefixes for a, c in enumerate(reduce(getitem, p, table)) if c}
    else:
        terms = _packed_line(layout, m, D, caps, N.bit_length() - 1, error)

    # Residual check at a point outside the grid.
    off = (D + 1,) * (len(caps) - 1)
    v = [c for c, in _on_line(layout, off, [D + 1])]
    expected = det_scalar(sylvester_rows(v[:m + 1], v[m + 1:], 0))
    if _on_line(_layout([terms]), off, [D + 1]) != [[expected]]:
        raise error(f"interpolation residual nonzero at degree {D}")
    slots = index + [hom]         # p and a at index, D - |p| - a at hom, 0 elsewhere
    pick = [slots.index(i) if i in slots else len(slots) for i in range(len(fc[0].vars))]
    return {tuple(map((p + (a, D - sum(p) - a, 0)).__getitem__, pick)): c
            for (p, a), c in terms.items()}, scale, N if gaussian else 0


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
    m, n >= 1, over the union of their variables.  degree_bound must be >=
    its total degree with i read as a variable over Q(i), as a bound from
    the entry degrees (_isobaric_bound) is.  It is sampled only on the
    monomials that its isobaric degree caps allow."""
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
    # set a variable of largest cap to 1, so that the capped ones stay
    # sampled, and the grid lines run along a remaining one of largest cap
    hom = max(used, key=caps.get) if forms and used else None
    axes = sorted((v for v in used if v != hom), key=caps.get)
    field = FIELD_QI if any(e.field == FIELD_QI for e in entries) else FIELD_Q
    at = vars.index(hom) if hom else None
    if axes:
        error = InternalError if hom else DegreeBoundError    # D is certain when homogeneous
        num, scale, N = _interpolated_det(fc, gc, [vars.index(v) for v in axes], at, D,
                                          [caps[v] for v in axes], error)
        if field == FIELD_Q:              # the interpolated ints are the numerators
            return MultiPoly.from_numerators(vars, field, num, scale)
        terms = {e: _make(*(_unpack(c, N) if N else (c, 0)), scale) for e, c in num.items()}
    else:                    # nothing left to sample: a scalar resultant
        point = {hom: Fraction(1)} if hom else {}
        value = resultant_nominal([e.evaluate(point) for e in fc], [e.evaluate(point) for e in gc])
        terms = {tuple(D if i == at else 0 for i in range(len(vars))): value}
    return MultiPoly(vars, field, terms)


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

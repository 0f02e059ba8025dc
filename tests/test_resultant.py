import random
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from conchoidal import (
    FIELD_Q,
    FIELD_QI,
    GaussianRational,
    MultiPoly,
    PlaneCurve,
    conchoid_coefficients,
    parse_poly,
    phi_forms,
    poly_matrix_det,
    sylvester_resultant,
)
from conchoidal import resultant
from conchoidal.errors import DegreeBoundError, InternalError
from conchoidal.resultant import (
    _bareiss,
    _base,
    _falling_coefficients,
    _falling_to_monomial,
    _hybrid_bezout,
    _interpolate,
    _layout,
    _on_line,
    _resultants,
    _table,
    _unpack,
    det_scalar,
    resultant_nominal,
    sylvester_rows,
)

from bareiss_oracle import det_bareiss_poly
from gauss_kernel_oracle import _det_gauss, _hybrid_bezout_gauss, _sample_det_gauss
from interp_oracle import _interp_simplex, _simplex
from sample_kernel_oracle import _det_int, _dets_on_line, _sample
from helpers import random_form, random_poly

VARS = ("x", "y", "z")


def _gaussian(make):
    """make() + i*make(): a polynomial with genuinely complex coefficients."""
    return make() + make() * GaussianRational(0, 1)


# make() over Q, and make() + i*make() over Q(i)
OVER_Q_AND_QI = (lambda make: make(), _gaussian)


def _oracle(fc, gc):
    """The Bareiss determinant of the Sylvester matrix of the lists."""
    return det_bareiss_poly(sylvester_rows(fc, gc, fc[0] - fc[0]))


def _pack(pairs, N):
    """Z[i] (re, im) pairs packed into Z at i -> N."""
    return [re + im * N for re, im in pairs]


def _one(values):
    """A list of values as a batch of one sample: one list per entry."""
    return [[v] for v in values]


def _sylvester_base(fc, gc):
    """The packing base of the Z[i] pair lists fc, gc: _base of the row
    norms of their Sylvester matrix, n rows of fc and m rows of gc."""
    m, n = len(fc) - 1, len(gc) - 1
    norm_f, norm_g = (sum(abs(re) + abs(im) for re, im in c) for c in (fc, gc))
    return _base([norm_f] * n + [norm_g] * m)


def test_phi_forms_line():
    phis = phi_forms(parse_poly("2*x+3*y+5*z"))
    assert phis[0] == parse_poly("2*x+3*y+5*z")
    assert phis[1] == parse_poly("-2*x-3*y")


def test_phi_forms_circle_by_binomials():
    # apply the binomial formula by hand: Phi_1 = -2(x^2+y^2), Phi_2 = x^2+y^2
    phis = phi_forms(parse_poly("x^2+y^2-z^2"))
    assert phis[0] == parse_poly("x^2+y^2-z^2")
    assert phis[1] == parse_poly("-2*x^2-2*y^2")
    assert phis[2] == parse_poly("x^2+y^2")


def test_phi_forms_z_power():
    phis = phi_forms(parse_poly("z^3"))
    assert phis[0] == parse_poly("z^3")
    assert all(p.is_zero() for p in phis[1:])


def test_phi_identity():
    # sum_i lambda^i mu^(d-i) Phi_i(x,y,z) = F((mu-lambda)x, (mu-lambda)y, mu z)
    rng = random.Random(41)
    lam = ("x", "y", "z", "u", "v")    # u = lambda, v = mu
    for d in (1, 2, 3):
        F = random_form(rng, d)
        phis = phi_forms(F)
        u = MultiPoly.variable("u", lam)
        v = MultiPoly.variable("v", lam)
        lhs = MultiPoly.zero(lam)
        for i, phi in enumerate(phis):
            lhs = lhs + phi.with_vars(lam) * u ** i * v ** (d - i)
        x = MultiPoly.variable("x", lam)
        y = MultiPoly.variable("y", lam)
        z = MultiPoly.variable("z", lam)
        rhs = F.substitute({"x": (v - u) * x, "y": (v - u) * y, "z": v * z})
        assert lhs == rhs.with_vars(lam)


def test_conchoid_matrix_two_lines():
    fc, gc = conchoid_coefficients(parse_poly("x+y+z"), parse_poly("x-y+2*z"))
    assert fc == [parse_poly("x+y+z"), parse_poly("-x-y")]
    assert gc == [parse_poly("2*z"), parse_poly("x-y")]
    M = sylvester_rows(fc, gc, MultiPoly.zero(VARS))
    assert [len(row) for row in M] == [2, 2]
    assert M[0][0] == parse_poly("-x-y")
    assert M[0][1] == parse_poly("x+y+z")
    assert M[1][0] == parse_poly("x-y")
    assert M[1][1] == parse_poly("2*z")


def test_conchoid_matrix_line_conic_shape():
    # d = 1, delta = 2: 3x3 with last row (G_2, z G_1, z^2 G_0)
    G = parse_poly("x^2+y^2-z^2")
    fc, gc = conchoid_coefficients(parse_poly("x+y+z"), G)
    assert gc == [parse_poly("-z^2"), MultiPoly.zero(VARS), parse_poly("x^2+y^2")]
    M = sylvester_rows(fc, gc, MultiPoly.zero(VARS))
    assert [len(row) for row in M] == [3, 3, 3]
    assert M[2][0] == parse_poly("x^2+y^2")
    assert M[2][1].is_zero()
    assert M[2][2] == parse_poly("-z^2")
    # the two Phi rows are shifts of each other
    assert M[0][0] == M[1][1]
    assert M[0][1] == M[1][2]
    assert M[1][0].is_zero()


def test_swapped_roles_same_determinant_up_to_sign():
    B = parse_poly("x+2*y-z")
    C = parse_poly("x^2-y*z+3*z^2")
    d1 = poly_matrix_det(*conchoid_coefficients(B, C), 4)
    d2 = poly_matrix_det(*conchoid_coefficients(C, B), 4)
    assert d1.proportional_to(d2)


def test_det_trivia():
    # constant lists, and forms in z alone, leave no variable to sample;
    # a nominal degree below 1 is refused
    one, two = MultiPoly.constant(1, VARS), MultiPoly.constant(2, VARS)
    z = parse_poly("z")
    for fc, gc, bound, expected in (([one, two], [two, one], 0, 3),
                                    ([one, two, one], [one, one], 0, 0),
                                    ([z, 2 * z], [2 * z, z], 2, 3 * z * z)):
        det = poly_matrix_det(fc, gc, bound)
        assert det == MultiPoly.constant(1, VARS) * expected == _oracle(fc, gc)
    with pytest.raises(ValueError):
        poly_matrix_det([one], [one, two], 0)


def test_det_example_32():
    det = poly_matrix_det(*conchoid_coefficients(parse_poly("x+y+z"), parse_poly("x-y+2*z")), 2)
    assert det == -(parse_poly("(x+y+z)*(x-y+2*z)-2*z^2"))


def _check_dual_route_z_free(rng, over):
    # evaluation-interpolation against direct Bareiss on random 3x3 and 4x4
    # Sylvester matrices with entry degrees <= 2 (z-free entries so the
    # grid route is genuinely taken)
    for m, n in ((1, 2), (2, 1), (2, 2), (3, 1)):
        for _ in range(2):
            fc, gc = ([over(lambda: random_poly(rng, ("x", "y"), 2)).with_vars(VARS)
                       for _ in range(k + 1)] for k in (m, n))
            assert poly_matrix_det(fc, gc, 2 * (m + n)) == _oracle(fc, gc)


def _check_dual_route_homogeneous(rng, over):
    # lists of forms of degrees a and b: D = n a + m b, z dehomogenized
    for (m, a), (n, b) in (((1, 1), (2, 2)), ((2, 2), (1, 1)), ((3, 1), (1, 2))):
        for _ in range(2):
            fc = [over(lambda: random_form(rng, a)) for _ in range(m + 1)]
            gc = [over(lambda: random_form(rng, b)) for _ in range(n + 1)]
            got = poly_matrix_det(fc, gc, n * a + m * b)
            assert (got.field == FIELD_QI) == (over is _gaussian)
            assert got == _oracle(fc, gc)


def test_det_dual_route():
    _check_dual_route_z_free(random.Random(13), OVER_Q_AND_QI[0])


def test_det_dual_route_gaussian_z_free():
    _check_dual_route_z_free(random.Random(59), _gaussian)


def test_det_interpolation_matches_bareiss_homogeneous():
    _check_dual_route_homogeneous(random.Random(29), OVER_Q_AND_QI[0])


def test_det_dual_route_gaussian_homogeneous():
    _check_dual_route_homogeneous(random.Random(61), _gaussian)


def test_det_evaluation_commutes():
    rng = random.Random(31)
    B = random_form(rng, 2)
    C = random_form(rng, 2)
    fc, gc = conchoid_coefficients(B, C)
    det = poly_matrix_det(fc, gc, 8)
    for _ in range(4):
        pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in VARS}
        values = [[e.evaluate(pt) for e in c] for c in (fc, gc)]
        assert det.evaluate(pt) == resultant_nominal(*values)


def test_degree_bound_violation_detected():
    x2, zero = parse_poly("x^2"), MultiPoly.zero(VARS)
    with pytest.raises(DegreeBoundError):       # forms force degree 4
        poly_matrix_det([x2, zero], [zero, x2], 1)


def test_residual_catches_a_low_degree_bound():
    # lists that are not forms take the caller's bound, and the off-grid
    # residual refuses one that is too low: the determinant is -(x^2 + 1)
    zero, one = MultiPoly.zero(VARS), MultiPoly.constant(1, VARS)
    with pytest.raises(DegreeBoundError):
        poly_matrix_det([parse_poly("x^2+1"), zero], [zero, one], 1)


def test_sylvester_examples():
    t_u = parse_poly("t") - MultiPoly.variable("u", ("t", "u"))
    t_v = parse_poly("t") - MultiPoly.variable("v", ("t", "v"))
    r = sylvester_resultant(t_u, t_v, "t")
    assert r.proportional_to(MultiPoly.variable("u", ("u", "v"))
                             - MultiPoly.variable("v", ("u", "v")))
    # disjoint quadratics: 4x4 determinant expands to 1
    assert sylvester_resultant(parse_poly("t^2-2"), parse_poly("t^2-3"), "t") \
        == MultiPoly.constant(1, ("x", "y", "z"))
    with pytest.raises(ValueError):
        sylvester_resultant(parse_poly("x"), parse_poly("y"), "t")


def test_sylvester_membership_oracle_shape():
    # the lambda-elimination of the defining system vanishes exactly on the
    # conchoid; checked through the membership oracle elsewhere, here the
    # raw resultant value at one known point
    from conchoidal import ProjPoint, membership_value

    B = PlaneCurve.from_text("x^2+y^2-z^2")
    C = PlaneCurve.from_text("x-2*z")
    assert membership_value(B, C, ProjPoint.affine(3, 0)).value == 0
    assert membership_value(B, C, ProjPoint.affine(0, 5)).value != 0


def test_sylvester_symmetry_and_multiplicativity():
    rng = random.Random(37)
    for _ in range(8):
        f = _random_uni(rng)
        g = _random_uni(rng)
        h = _random_uni(rng)
        rf_g = sylvester_resultant(f, g, "t")
        rg_f = sylvester_resultant(g, f, "t")
        assert rf_g.proportional_to(rg_f) or (rf_g.is_zero() and rg_f.is_zero())
        lhs = sylvester_resultant(f * h, g, "t")
        rhs = sylvester_resultant(f, g, "t") * sylvester_resultant(h, g, "t")
        assert lhs == rhs


def _random_uni(rng):
    deg = rng.randint(1, 3)
    coeffs = {}
    for k in range(deg + 1):
        c = Fraction(rng.randint(-5, 5))
        if c:
            coeffs[(k,)] = c
    coeffs[(deg,)] = Fraction(rng.randint(1, 5))
    return MultiPoly.make(("t",), "Q", coeffs)


def test_resultant_nominal_degenerate_column():
    # both nominal leading coefficients zero forces a zero determinant
    assert resultant_nominal([Fraction(1), Fraction(1), Fraction(0)],
                             [Fraction(2), Fraction(0)]) == 0


def test_sylvester_gaussian_coefficients():
    from conchoidal.fields import FIELD_QI
    from conchoidal import parse_poly as pp

    f = pp("t^2 + x*t + i", FIELD_QI).with_vars(("t", "x"))
    h = pp("t - i*x", FIELD_QI).with_vars(("t", "x"))
    r = sylvester_resultant(f, h, "t")
    # the root of h is t = i x; the resultant is f at that root (h monic)
    check = pp("(i*x)^2 + x*(i*x) + i", FIELD_QI).with_vars(("x",))
    assert r.proportional_to(check)


# -- the integer kernel ----------------------------------------------------------


def _leibniz_det(rows):
    """Determinant by the permutation expansion, independent of Bareiss."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def test_det_scalar_gaussian_integer_kernel():
    # Z[i] matrices, with zero pivots forcing row swaps, packed into Z at
    # N = _base(row norms) and unpacked, against the permutation expansion
    # over Q(i) and the Z[i] Bareiss oracle
    rng = random.Random(53)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            pairs = [[(rng.randint(-9, 9), rng.randint(-9, 9)) if rng.random() < 0.7 else (0, 0)
                      for _ in range(n)] for _ in range(n)]
            N = _base([sum(abs(a) + abs(b) for a, b in row) for row in pairs])
            re, im = _unpack(det_scalar([_pack(row, N) for row in pairs]), N)
            expected = _leibniz_det([[GaussianRational(a, b) for a, b in row] for row in pairs])
            assert GaussianRational(re, im) == expected
            assert (re, im) == _det_gauss(pairs)
            rational = [[GaussianRational(Fraction(a, 3), Fraction(b, 2)) for a, b in row]
                        for row in pairs]
            assert det_scalar(rational) == _leibniz_det(rational)


def test_det_scalar_packing_base_clears_the_largest_digit():
    # a 1x1 matrix of l1 norm B = 2^k - 1 packs into a digit of k bits; the
    # base 2^(k + 1) reads it back, where 2^k would read 2^k - 1 as -1 + i
    for k in (1, 2, 3, 7, 8, 31, 64, 65, 200):
        B = 2 ** k - 1
        for value in (GaussianRational(B), GaussianRational(-B), GaussianRational(0, B),
                      GaussianRational(0, -B), GaussianRational(B // 2 + 1, -(B // 2)),
                      GaussianRational(Fraction(B, 3), Fraction(-B, 3))):
            assert det_scalar([[value]]) == value


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(1, 5))
def test_packed_kernel_matches_the_gaussian_oracle(data, m, n):
    # the Z[i] kernel that packing replaced, on random Z[i] matrices and
    # value lists, against the packed Z kernel read back by _unpack: Bareiss,
    # the m = n hybrid Bezout sample and the m != n pseudo-remainder sample
    pair = st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6)) \
        | st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    rows = data.draw(st.lists(st.lists(pair, min_size=m, max_size=m), min_size=m, max_size=m))
    N = _base([sum(abs(re) + abs(im) for re, im in row) for row in rows])
    assert _unpack(det_scalar([_pack(row, N) for row in rows]), N) == _det_gauss(rows)
    fc = data.draw(st.lists(pair, min_size=m + 1, max_size=m + 1))
    gc = data.draw(st.lists(pair, min_size=n + 1, max_size=n + 1))
    N = _sylvester_base(fc, gc)
    got = _resultants(_one(_pack(fc, N)), _one(_pack(gc, N)))[0]
    if m == n:
        expected = _det_gauss(_hybrid_bezout_gauss(fc, gc))
    else:
        expected = _sample_det_gauss(fc, gc)
    assert _unpack(got, N) == expected


def test_gaussian_cancellation_leaves_no_zero_term():
    # det [[i x, x + y], [-x, i x]] = (i^2 + 1) x^2 + x y: its x^2
    # coefficient packs to 1 + N^2, not 0, and unpacks to 0
    x, y = (MultiPoly.variable(v, VARS, FIELD_QI) for v in ("x", "y"))
    ix = x * GaussianRational(0, 1)
    det = poly_matrix_det([x + y, ix], [ix, -x], 2)
    assert det == x * y and len(det.terms) == 1


def test_gaussian_conchoid_matches_bareiss():
    rng = random.Random(67)
    B = _gaussian(lambda: random_form(rng, 2))
    C = _gaussian(lambda: random_form(rng, 2))
    fc, gc = conchoid_coefficients(B, C)
    assert poly_matrix_det(fc, gc, 8) == _oracle(fc, gc)


def _sylvester_by_hand(f, g, var):
    """The Sylvester matrix of f and g in var, written out for the oracle."""
    rest = tuple(v for v in f.vars if v != var)
    fc = [c.with_vars(rest) for c in reversed(f.coefficients_in(var))]
    gc = [c.with_vars(rest) for c in reversed(g.coefficients_in(var))]
    m, n = len(fc) - 1, len(gc) - 1
    zero = MultiPoly.zero(rest, f.field)

    def shifted(coeffs, i):
        return [coeffs[j - i] if 0 <= j - i < len(coeffs) else zero for j in range(m + n)]

    return [shifted(fc, i) for i in range(n)] + [shifted(gc, i) for i in range(m)]


def test_sylvester_resultant_in_two_and_three_variables():
    rng = random.Random(83)
    for rest in (("x", "y"), ("x", "y", "z")):
        tv = rest + ("t",)
        t = MultiPoly.variable("t", tv)
        for over in OVER_Q_AND_QI * 2:
            f = over(lambda: random_poly(rng, tv, 2) + t ** 2)
            g = over(lambda: random_poly(rng, tv, 2) * t + 1)
            direct = det_bareiss_poly(_sylvester_by_hand(f, g, "t"))
            assert sylvester_resultant(f, g, "t") == direct


def test_det_homogeneous_in_other_variables():
    # lists of forms in (a, b, c): c is dehomogenized and put back
    rng = random.Random(89)
    for (m, a), (n, b) in (((1, 1), (2, 2)), ((3, 2), (1, 1))):
        for over in OVER_Q_AND_QI:
            fc = [over(lambda: random_form(rng, a, ("a", "b", "c"))) for _ in range(m + 1)]
            gc = [over(lambda: random_form(rng, b, ("a", "b", "c"))) for _ in range(n + 1)]
            got = poly_matrix_det(fc, gc, n * a + m * b)
            assert got.is_homogeneous() and got == _oracle(fc, gc)


def test_det_non_homogeneous_three_variables():
    rng = random.Random(97)
    for m, n in ((1, 1), (1, 2), (2, 1)):
        for over in OVER_Q_AND_QI * 2:
            fc, gc = ([over(lambda: random_poly(rng, VARS, 2)) for _ in range(k + 1)]
                      for k in (m, n))
            assert poly_matrix_det(fc, gc, 2 * (m + n)) == _oracle(fc, gc)


def test_degree_80_homogeneous_determinant_is_exact():
    # degree 80 on the grid path: at x = 1, 3111 samples on y + z <= 80,
    # y <= 60 (the cap on deg_y), where the triangle has 3321 and a square
    # grid 81^2 = 6561
    x, y, z = (MultiPoly.variable(v, VARS) for v in VARS)
    fc = [(y - z) ** 20 * x ** 20, (x + 2 * z) ** 40]
    gc = [(3 * x + y) ** 30 * z ** 10, (x - y) ** 40 + z ** 40]
    det = poly_matrix_det(fc, gc, 80)
    assert det.is_homogeneous() and det.total_degree() == 80
    rng = random.Random(71)
    for _ in range(5):
        pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in VARS}
        (f0, f1), (g0, g1) = ([e.evaluate(pt) for e in c] for c in (fc, gc))
        assert det.evaluate(pt) == f1 * g0 - f0 * g1


def _cells(table, k, prefix=()):
    """{point: entry} of a nested table of depth k; at k = 0 the table is
    its one entry."""
    if not k:
        return {prefix: table}
    out = {}
    for i, sub in enumerate(table):
        out.update(_cells(sub, k - 1, prefix + (i,)))
    return out


def _value_table(values, D, caps):
    """The _table of a {point: value} dict on the lower set; at k = 0 the
    one value."""
    if not caps:
        return values[()]
    return _table(D, caps, lambda prefix, n: [values[prefix + (t,)] for t in range(n)])


def test_integer_triangle_interpolation_recovers_polynomials():
    # the simplex interpolation in k = 2 variables (the triangle), and in
    # k = 0, 1 and 3; then on lower sets |p| <= D, p_i <= caps[i] with
    # random caps, some below D and some at or above it, in k = 1, 2 and 3;
    # the dict oracle and the table interpolation, which returns a table of
    # the same shape, zeros included
    rng = random.Random(73)
    cases = [(D, (D,) * k) for k, degrees in ((2, (0, 1, 2, 5, 9, 14)), (0, (0, 4)),
                                              (1, (0, 1, 7, 20)), (3, (0, 1, 4, 8)))
             for D in degrees]
    cases += [(D, tuple(rng.randint(0, D + 2) for _ in range(k)))
              for k in (1, 2, 3) for D in (0, 1, 5, 9) for _ in range(4)]
    for D, caps in cases:
        lower = [p for p in product(*(range(min(c, D) + 1) for c in caps)) if sum(p) <= D]
        assert list(_simplex(D, caps)) == lower
        for _ in range(3):
            poly = {p: rng.randint(-10 ** 6, 10 ** 6) for p in lower if rng.random() < 0.6}
            values = {q: sum(c * prod(t ** a for t, a in zip(q, p)) for p, c in poly.items())
                      for q in lower}
            assert _interp_simplex(values, D, caps) == {p: c for p, c in poly.items() if c}
            table = _interpolate(_value_table(values, D, caps), len(caps))
            assert _cells(table, len(caps)) == {p: poly.get(p, 0) for p in lower}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 3), st.integers(-1, 9))
def test_table_interpolation_matches_the_dict_oracle(seed, k, D):
    # k = 0..3 variables, each cap below, at or above D, D = -1 (the empty
    # table; k = 0 has its one point at every D) and D = 0 included.  The
    # table of the values of a random integer polynomial on the lower set is
    # laid out in lexicographic order, as the oracle's _simplex, and
    # interpolates to the oracle's coefficients in a table of its own
    # shape.  A prime added to the value at the origin is a division error
    # when some axis has three points, and otherwise changes the result.
    # About 0.3 s.
    rng = random.Random(seed)
    D = max(D, 0) if not k else D
    caps = tuple(rng.choice((rng.randint(0, max(D - 1, 0)), max(D, 0), D + rng.randint(1, 2)))
                 for _ in range(k))
    lower = list(_simplex(D, caps))
    bound = rng.choice((1, 10 ** 6))
    poly = {p: rng.randint(-bound, bound) for p in lower if rng.random() < 0.7}
    values = {q: sum(c * prod(t ** a for t, a in zip(q, p)) for p, c in poly.items())
              for q in lower}
    table = _value_table(values, D, caps)
    assert list(_cells(table, k)) == lower
    got = _cells(_interpolate(table, k), k)
    assert list(got) == lower
    assert {p: c for p, c in got.items() if c} == _interp_simplex(values, D, caps)
    assert got == {p: poly.get(p, 0) for p in lower}
    if lower:
        values[lower[0]] += 10 ** 9 + 7
        corrupted = _value_table(values, D, caps)
        if any(min(D, cap) >= 2 for cap in caps):
            with pytest.raises(InternalError, match="interpolation difference not divisible"):
                _interpolate(corrupted, k)
        else:
            assert _cells(_interpolate(corrupted, k), k) != got


def test_integer_falling_factorial_round_trip():
    rng = random.Random(79)
    for n in (1, 2, 6, 20):
        coeffs = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(n)]
        values = [sum(c * t ** k for k, c in enumerate(coeffs)) for t in range(n)]
        assert _falling_to_monomial(_falling_coefficients(values)) == coeffs


# -- the hybrid Bezout samples ---------------------------------------------------


def _coefficient_lists(rng, m, n, draw, zero):
    """Random nominal-degree lists with a zero leading coefficient, a zero
    constant term or both leading coefficients zero, now and then."""
    fc = [draw() for _ in range(m + 1)]
    gc = [draw() for _ in range(n + 1)]
    shape = rng.randrange(4)
    if shape == 1:
        fc[-1] = zero
    elif shape == 2:
        fc[0] = gc[0] = zero
    elif shape == 3:
        fc[-1] = gc[-1] = zero
    return fc, gc


def test_hybrid_bezout_is_the_nominal_resultant():
    # m > n and m = n over Z and Z[i], n = 0 included, against the Sylvester
    # determinant; m < n is the same matrix of the swapped lists, with the
    # sign (-1)^(mn).  The Z[i] lists are packed into Z at the base of their
    # Sylvester row norms and the determinant unpacked
    rng = random.Random(101)
    for m, n in product(range(1, 9), range(0, 9)):
        sign = (-1) ** (m * n) if m < n else 1
        fc, gc = _coefficient_lists(rng, m, n, lambda: rng.randint(-6, 6), 0)
        rows = _hybrid_bezout(_one(fc), _one(gc)) if m >= n else _hybrid_bezout(_one(gc), _one(fc))
        assert len(rows) == max(m, n)
        assert sign * _bareiss(rows)[0] == resultant_nominal(fc, gc)
        fc, gc = _coefficient_lists(rng, m, n, lambda: (rng.randint(-4, 4), rng.randint(-4, 4)),
                                   (0, 0))
        N = _sylvester_base(fc, gc)
        packed = _one(_pack(fc, N)), _one(_pack(gc, N))
        rows = _hybrid_bezout(*packed) if m >= n else _hybrid_bezout(*packed[::-1])
        re, im = _unpack(sign * _bareiss(rows)[0], N)
        gauss = [[GaussianRational(a, b) for a, b in c] for c in (fc, gc)]
        assert GaussianRational(re, im) == resultant_nominal(*gauss)


def _sizes_of_samples(monkeypatch):
    """Patch _bareiss to record (matrix size, batch length) of every batch
    of matrices it is given; det_scalar's matrix is a batch of one."""
    sizes = []
    exact = resultant._bareiss

    def counted(mat):
        sizes.append((len(mat), len(mat[0][0])))
        return exact(mat)

    monkeypatch.setattr(resultant, "_bareiss", counted)
    return sizes


def test_generic_conchoid_samples_are_half_size_on_the_capped_set(monkeypatch):
    # the conchoid of two quartics has degree 32 and z-degree <= 16: at x = 1
    # it is sampled on y + z <= 32, z <= 16, one point per possible monomial
    # (425, not the triangle's 561), each a 4x4 hybrid Bezout determinant,
    # in one batch per grid line z = 0..16 of 33 - z values of y, the axis
    # of largest cap; the residual sample is the full 8x8 Sylvester matrix.
    # B has no x^4 term, so at (y, z) = (0, 0) every Phi_i = (-1)^i C(4, i)
    # F_4(1, 0) is 0, the first pivot of that sample is 0, and line z = 0
    # runs again as its other 32 samples and that one
    rng = random.Random(103)
    B, C = random_form(rng, 4), random_form(rng, 4)
    assert B.terms.get((4, 0, 0), 0) == 0
    fc, gc = conchoid_coefficients(B, C)
    sizes = _sizes_of_samples(monkeypatch)
    poly_matrix_det(fc, gc, 32)
    assert sum(1 for y in range(33) for z in range(17) if y + z <= 32) == \
        sum(33 - z for z in range(17)) == 425
    assert sizes == [(4, 33), (4, 32), (4, 1)] + [(4, 33 - z) for z in range(1, 17)] + [(8, 1)]


def test_circle_quartic_conchoid_samples_are_two_by_two(monkeypatch):
    # the conchoid of a circle and a quartic has degree 16 and z-degree <= 8:
    # at x = 1 it is sampled on y + z <= 16, z <= 8, each sample a 2x2 hybrid
    # Bezout determinant after one pseudo-remainder step of the quartic's
    # values by the circle's, in one batch per grid line z = 0..8 of 17 - z
    # values of y; the residual sample is the full 6x6 Sylvester matrix
    rng = random.Random(109)
    fc, gc = conchoid_coefficients(parse_poly("x^2+y^2-4*z^2"), random_form(rng, 4))
    sizes = _sizes_of_samples(monkeypatch)
    poly_matrix_det(fc, gc, 16)
    assert sum(1 for y in range(17) for z in range(9) if y + z <= 16) == \
        sum(17 - z for z in range(9)) == 117
    assert sizes == [(2, 17 - z) for z in range(9)] + [(6, 1)]


def _shaped_lists(draw, zero, m, n, shape):
    """Value lists at nominal degrees m, n: generic (shape 0), zero leading
    values on either list or both (1-3), a shorter list with its two top
    values zero (4), zero but for its constant (5) or all zero (6), and
    both constants zero (7), which zeroes the first pivot of the hybrid
    Bezout matrix, after a pseudo-remainder step too."""
    fc = [draw() for _ in range(m + 1)]
    gc = [draw() for _ in range(n + 1)]
    short = fc if m < n else gc
    if shape in (1, 3):
        fc[-1] = zero
    if shape in (2, 3):
        gc[-1] = zero
    if shape == 4:
        short[-2:] = [zero] * 2
    if shape == 5:
        short[1:] = [zero] * (len(short) - 1)
    if shape == 6:
        short[:] = [zero] * len(short)
    if shape == 7:
        fc[0] = gc[0] = zero
    return fc, gc


def test_pseudo_remainder_sample_is_the_nominal_resultant(monkeypatch):
    # every m != n in 1..6 x 1..9 over Z and Z[i], the Z[i] lists packed
    # into Z at the base of their Sylvester row norms, each of shapes 0-6
    # of _shaped_lists; the reduced sample, a batch of one, is
    # resultant_nominal, the full Sylvester matrix by Bareiss, from one
    # _bareiss call of size top <= min(m, n), top the degree of the shorter
    # list's values, or none when top = 0.  About 0.3 s.
    rng = random.Random(107)
    sizes = _sizes_of_samples(monkeypatch)
    draws = ((lambda: rng.randint(-6, 6), 0),
             (lambda: (rng.randint(-4, 4), rng.randint(-4, 4)), (0, 0)))
    for m, n in product(range(1, 7), range(1, 10)):
        if m == n:
            continue
        for (draw, zero), shape in product(draws, range(7)):
            fc, gc = _shaped_lists(draw, zero, m, n, shape)
            short = fc if m < n else gc
            top = max((i for i, c in enumerate(short) if c != zero), default=0)
            sizes.clear()
            if zero == 0:
                got = _resultants(_one(fc), _one(gc))[0]
            else:
                N = _sylvester_base(fc, gc)
                got = _unpack(_resultants(_one(_pack(fc, N)), _one(_pack(gc, N)))[0], N)
            assert top <= min(m, n) and sizes == ([(top, 1)] if top else [])
            if zero == 0:
                assert got == resultant_nominal(fc, gc)
            else:
                gauss = [[GaussianRational(a, b) for a, b in c] for c in (fc, gc)]
                assert GaussianRational(*got) == resultant_nominal(*gauss)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 9), st.integers(1, 40),
       st.booleans())
def test_batched_kernel_matches_the_per_sample_oracle(seed, m, n, length, gaussian):
    # one grid line of 1-40 samples through the batched kernel against the
    # per-sample kernel it replaced (sample_kernel_oracle), m = n included.
    # Each sample takes its own shape of _shaped_lists, so zero top values
    # and zero pivots hit part of the line; values are small (many zero
    # pivots later in the elimination too) or up to 10^6.  Z[i] samples are
    # packed into Z at one base for the line, as _interpolated_det packs
    # them.  A batch of square matrices with entries in -2..2 goes through
    # _bareiss against _det_int, one matrix at a time, and the line of
    # random polynomial lists in (x, t) at x = 0..3, t = 0..length - 1
    # against _dets_on_line.
    rng = random.Random(seed)
    bound = rng.choice((2, 10 ** 6))
    if gaussian:
        draw, zero = (lambda: (rng.randint(-bound, bound), rng.randint(-bound, bound))), (0, 0)
    else:
        draw, zero = (lambda: rng.randint(-bound, bound)), 0
    shapes = rng.sample(range(8), rng.randint(1, 8))
    line = [_shaped_lists(draw, zero, m, n, rng.choice(shapes)) for _ in range(length)]
    if gaussian:
        N = max(_sylvester_base(fc, gc) for fc, gc in line)
        line = [(_pack(fc, N), _pack(gc, N)) for fc, gc in line]
    columns = [list(values) for values in zip(*(fc + gc for fc, gc in line))]
    assert _resultants(columns[:m + 1], columns[m + 1:]) == [_sample(fc, gc) for fc, gc in line]
    matrices = [[[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)] for _ in range(length)]
    batch = [[[mat[i][j] for mat in matrices] for j in range(m)] for i in range(m)]
    assert _bareiss(batch) == [_det_int(mat) for mat in matrices]
    parts = [{(a, b): rng.randint(-3, 3) for a in range(3) for b in range(3) if rng.random() < 0.5}
             for _ in range(m + n + 2)]
    prefix, ts = (rng.randint(0, 3),), range(length)
    columns = _on_line(_layout([{(e[:1], e[1]): c for e, c in p.items()} for p in parts]), prefix, ts)
    assert _resultants(columns[:m + 1], columns[m + 1:]) == \
        _dets_on_line(parts, prefix, ts, lambda v: _sample(v[:m + 1], v[m + 1:]))


def _capped(f, var, cap):
    """f without its terms of degree > cap in var; 0 when cap < 0."""
    i = f.vars.index(var)
    return MultiPoly.make(f.vars, f.field, {e: c for e, c in f.terms.items() if e[i] <= cap})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 3), st.sampled_from(VARS),
       st.sampled_from(OVER_Q_AND_QI), st.booleans())
def test_isobaric_lists_match_the_oracle_under_their_cap(seed, m, n, var, over, forms):
    # deg_var fc[i] <= e_f - i and deg_var gc[j] <= e_g - j, so deg_var of
    # the determinant is <= n e_f + m e_g - m n (0 when that is negative);
    # entries are forms of degree a and b (the homogeneous path) or
    # polynomials of degree <= a and b
    rng = random.Random(seed)
    a, b = rng.randint(0, 2), rng.randint(0, 2)
    e_f, e_g = rng.randint(0, a + m), rng.randint(0, b + n)

    def draw(degree):
        return over(lambda: random_form(rng, degree) if forms else random_poly(rng, VARS, degree))

    fc = [_capped(draw(a), var, e_f - i) for i in range(m + 1)]
    gc = [_capped(draw(b), var, e_g - j) for j in range(n + 1)]
    det = poly_matrix_det(fc, gc, n * a + m * b)
    assert det == _oracle(fc, gc)
    assert not det or det.degree_in(var) <= n * e_f + m * e_g - m * n


def _form(draw, degree, field):
    """A sparse random form of the degree, from at most three monomials,
    with rational coefficients."""
    exps = draw(st.lists(st.integers(0, degree).flatmap(
        lambda a: st.integers(0, degree - a).map(lambda b: (a, b, degree - a - b))),
        min_size=1, max_size=3))
    coeffs = draw(st.lists(st.fractions(-4, 4, max_denominator=3).filter(bool),
                           min_size=len(exps), max_size=len(exps)))
    f = MultiPoly.make(VARS, FIELD_Q, dict(zip(exps, coeffs)))
    if field == FIELD_QI:
        f = f * GaussianRational(draw(st.integers(-2, 2)), draw(st.sampled_from((-1, 1))))
    return f


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.sampled_from((FIELD_Q, FIELD_QI)),
       st.booleans())
def test_conchoid_determinant_matches_the_bareiss_oracle(data, d, delta, field, top_zero):
    # d < delta, d = delta and d > delta; top_zero takes a B = z * (form of
    # degree d - 1), whose top form, and so its Phi_d, is 0
    z = MultiPoly.variable("z", VARS)
    B = z * _form(data.draw, d - 1, field) if top_zero else _form(data.draw, d, field)
    C = _form(data.draw, delta, field)
    fc, gc = conchoid_coefficients(B, C)
    assert poly_matrix_det(fc, gc, 2 * d * delta) == _oracle(fc, gc)
    if max(B.degree_in("z"), C.degree_in("z")) > 0:
        direct = det_bareiss_poly(_sylvester_by_hand(B, C, "z"))
        assert sylvester_resultant(B, C, "z") == direct

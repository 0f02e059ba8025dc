import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conchoidal import MultiPoly, UniPoly, factor_binary_form, formal_square_root, parse_poly, rational_roots
from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational, to_scalar
from conchoidal.roots import _lifted_roots, common_roots, solve_zero_dim, square_root_up_to_scalar

from helpers import random_poly


def uni(coeffs, field=FIELD_Q):
    return UniPoly([Fraction(c) if not isinstance(c, GaussianRational) else c
                    for c in coeffs], field)


def test_rational_roots_examples():
    assert rational_roots(uni([-4, 0, 1])) == [(Fraction(-2), 1), (Fraction(2), 1)]
    assert rational_roots(uni([1, 0, 1])) == []
    roots = rational_roots(uni([1, 0, 1]), FIELD_QI)
    assert {(r.re, r.im) for r, _ in roots} == {(0, 1), (0, -1)}


def test_rational_roots_from_elimination_verified_by_substitution():
    # 4t^3 - 4t^2 - t + 1 = (2t-1)(2t+1)(t-1), the shape of a discriminant
    # elimination output; every returned root must satisfy the polynomial.
    f = uni([1, -1, -4, 4])
    roots = rational_roots(f)
    assert {r for r, _ in roots} == {Fraction(1, 2), Fraction(-1, 2), Fraction(1)}
    for r, _ in roots:
        assert f.eval(r) == 0


def test_roots_multiplicity_and_zero():
    f = uni([0, 0, 4, -4, 1])     # t^2 (t-2)^2
    assert rational_roots(f) == [(Fraction(0), 2), (Fraction(2), 2)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                          st.integers(min_value=1, max_value=10 ** 3)),
                min_size=1, max_size=6))
def test_constructed_roots_recovered(chosen):
    one = UniPoly([Fraction(1)])
    f = one
    for r in chosen:
        f = f * UniPoly([-r, Fraction(1)])
    got = rational_roots(f)
    expect = {}
    for r in chosen:
        expect[r] = expect.get(r, 0) + 1
    assert dict(got) == expect


def test_gaussian_roots_mixed():
    # (t - 3)(t - (1+2i))
    a = GaussianRational(3)
    b = GaussianRational(1, 2)
    f = UniPoly([a * b, -(a + b), GaussianRational(1)], FIELD_QI)
    roots = rational_roots(f, FIELD_QI)
    assert {(r.re, r.im) for r, _ in roots} == {(3, 0), (1, 2)}
    # real polynomial with a conjugate pair: (t-2)(t^2+9)
    f2 = uni([-18, 9, -2, 1])
    roots2 = rational_roots(f2, FIELD_QI)
    assert {(r.re, r.im) for r, _ in roots2} == {(2, 0), (0, 3), (0, -3)}


def test_big_coefficient_roots_use_lifting():
    # endpoints far beyond divisor enumeration
    big = 10 ** 30 + 57
    f = UniPoly([Fraction(-2 * big), Fraction(2 * big - 3), Fraction(3)])  # (3t + 2 big)(t - 1)... check
    # construct honestly: (t - 1)(3t + 2*big) = 3t^2 + (2 big - 3) t - 2 big
    roots = rational_roots(f)
    assert (Fraction(1), 1) in roots
    assert (Fraction(-2 * big, 3), 1) in roots
    direct = _lifted_roots([-2 * big, 2 * big - 3, 3])
    assert Fraction(1) in direct


def test_formal_square_root_examples():
    assert formal_square_root(parse_poly("x^2+2*x*y+y^2")) == parse_poly("x+y")
    assert formal_square_root(parse_poly("x^2+y^2")) is None
    # check by squaring: (y^2 - 2 y z)^2, used on restrictions to the
    # tangent pair
    cand = parse_poly("y^2-2*y*z")
    assert formal_square_root(cand * cand) == cand
    assert formal_square_root(parse_poly("x^2+1", FIELD_QI) * parse_poly("x^2+1", FIELD_QI)) \
        == parse_poly("x^2+1", FIELD_QI)


def test_square_root_sign_convention():
    g = parse_poly("-x+y")     # leading coefficient (grlex) is -1
    r = formal_square_root(g * g)
    assert r == parse_poly("x-y")


def seeds():
    return st.integers(min_value=0, max_value=10 ** 6)


@settings(max_examples=40, deadline=None)
@given(seeds())
def test_square_root_of_squares(seed):
    g = random_poly(random.Random(seed), ("x", "y", "z"), 2)
    if g.is_zero():
        return
    r = formal_square_root(g * g)
    assert r is not None and (r == g or r == -g)


def test_square_root_up_to_scalar():
    c, g = square_root_up_to_scalar(parse_poly("3*x^2+6*x*y+3*y^2"))
    assert c == 3 and g == parse_poly("x+y")
    assert square_root_up_to_scalar(parse_poly("x*y")) is None


def test_factor_binary_form():
    xy = ("x", "y")
    u, fs = factor_binary_form(parse_poly("x^2+y^2").with_vars(xy))
    assert [(str(p_ct(p)), m) for p, m in fs] == [("x^2 + y^2", 1)]
    u, fs = factor_binary_form(parse_poly("x^2+y^2", FIELD_QI).with_vars(xy))
    assert sorted(p_ct(p) for p, _ in fs) == ["x + i*y", "x - i*y"]
    u, fs = factor_binary_form(parse_poly("x^3*y-x*y^3").with_vars(xy))
    assert sorted(p_ct(p) for p, _ in fs) == ["x", "x + y", "x - y", "y"]
    form = parse_poly("(x^2+y^2)^2*(x^2+2*y^2)").with_vars(xy)
    u, fs = factor_binary_form(form)
    assert sorted((p_ct(p), m) for p, m in fs) == [("x^2 + 2*y^2", 1), ("x^2 + y^2", 2)]


def p_ct(p):
    from conchoidal import poly_to_text

    return poly_to_text(p)


def p_ct_sorted(fs):
    return sorted(p_ct(p) for p, _ in fs)


def test_factor_reconstructs():
    rng = random.Random(7)
    from helpers import random_form

    for _ in range(12):
        form = random_form(rng, rng.randint(1, 4), ("x", "y"))
        unit, factors = factor_binary_form(form)
        rebuilt = MultiPoly.constant(unit, ("x", "y"))
        for p, m in factors:
            rebuilt = rebuilt * p ** m
        assert rebuilt == form


def test_big_coefficient_nonsquarefree_multiplicities():
    big = 10 ** 25 + 9
    t1 = UniPoly([Fraction(-1), Fraction(1)])
    f = t1 * t1 * UniPoly([Fraction(2 * big), Fraction(3)])
    got = rational_roots(f)
    assert (Fraction(1), 2) in got
    assert (Fraction(-2 * big, 3), 1) in got


def _primes_from(p, count):
    out = []
    while len(out) < count:
        if all(p % q for q in range(2, int(p ** 0.5) + 1)):
            out.append(p)
        p += 1
    return out


def test_big_roots_survive_many_bad_primes():
    # the leading coefficient is divisible by 4001 and the next 60 primes
    P = 1
    for p in _primes_from(4001, 61):
        P *= p
    assert rational_roots(UniPoly([Fraction(-1), Fraction(P)])) == [(Fraction(1, P), 1)]
    f = UniPoly([Fraction(-3), Fraction(P)]) * UniPoly([Fraction(1), Fraction(1)])
    assert rational_roots(f) == [(Fraction(-1), 1), (Fraction(3, P), 1)]
    # a repeated root: the lifting runs on the squarefree part
    f = UniPoly([Fraction(-3), Fraction(P)]) * f
    assert rational_roots(f) == [(Fraction(-1), 1), (Fraction(3, P), 2)]
    # the leading coefficient is divisible by the first 61 odd primes, so
    # the search for a lifting prime, which starts at 3, skips all of them
    Q = 1
    for p in _primes_from(3, 61):
        Q *= p
    f = UniPoly([Fraction(-1), Fraction(Q)]) * UniPoly([Fraction(2), Fraction(1)])
    assert rational_roots(f) == [(Fraction(-2), 1), (Fraction(1, Q), 1)]


UV = ("u", "v")


def _uv(text):
    """Parse a polynomial written in x, y as one in u, v."""
    p = parse_poly(text).with_vars(("x", "y"))
    return MultiPoly(UV, p.field, p.terms)


def test_common_roots_examples():
    t1, t2 = uni([-1, 1]), uni([-2, 0, 1])              # t - 1, t^2 - 2
    assert common_roots([t1 * t2, t1 * t2 * uni([-3, 1])], FIELD_Q) == ([Fraction(1)], False)
    assert common_roots([t1 * uni([-3, 1]), t1], FIELD_Q) == ([Fraction(1)], True)
    assert common_roots([t1, uni([-3, 1])], FIELD_Q) == ([], True)
    assert common_roots([uni([5])], FIELD_Q) == ([], True)


def test_solve_zero_dim_degenerate_systems():
    # u^2 = 2 has no rational root: nothing found, nothing certified
    assert solve_zero_dim([_uv("x^2-2"), _uv("y")], FIELD_Q) == ([], False)
    # inconsistent: coprime eliminants, or a constant resultant
    assert solve_zero_dim([_uv("x-1"), _uv("x-2")], FIELD_Q) == ([], True)
    assert solve_zero_dim([_uv("y-x"), _uv("y-x-1")], FIELD_Q) == ([], True)
    assert solve_zero_dim([_uv("x*y-1"), _uv("3")], FIELD_Q) == ([], True)
    # every equation vanishes on the line u = 0: (0, 0) stands for it
    points, complete = solve_zero_dim([_uv("x^2-x"), _uv("x*y")], FIELD_Q)
    assert points == [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]
    assert not complete
    # one genuinely bivariate equation has no eliminant
    assert solve_zero_dim([_uv("x^2+y^2-1")], FIELD_Q) is None
    assert solve_zero_dim([_uv("x^2+y^2-1"), MultiPoly.zero(UV)], FIELD_Q) is None


def _key(point):
    return tuple((c.re, c.im) for c in (to_scalar(x, FIELD_QI) for x in point))


fracs = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@settings(max_examples=25, deadline=None)
@given(st.booleans(), st.lists(st.tuples(fracs, fracs, fracs, fracs), min_size=1, max_size=3),
       st.integers(min_value=1, max_value=3))
def test_solve_zero_dim_recovers_planted_points(gaussian, coords, c):
    # points (a_k, b_k) with distinct u-coordinates; g = v - L(u) with L
    # the interpolant through them and f = prod (u - a_k), so the system
    # {g, f + c g^2, 2 f + (u + v) g} has exactly the planted solutions
    field = FIELD_QI if gaussian else FIELD_Q
    if gaussian:
        pts = [(GaussianRational(a, ai), GaussianRational(b, bi)) for a, ai, b, bi in coords]
    else:
        pts = [(a, b) for a, _, b, _ in coords]
    pts = list({a: (a, b) for a, b in pts}.values())
    u = MultiPoly.variable("u", UV, field)
    v = MultiPoly.variable("v", UV, field)
    f = MultiPoly.constant(1, UV, field)
    L = MultiPoly.zero(UV, field)
    for k, (a, b) in enumerate(pts):
        f = f * (u - a)
        basis = MultiPoly.constant(b, UV, field)
        for j, (aj, _) in enumerate(pts):
            if j != k:
                basis = basis * (u - aj) * (1 / to_scalar(a - aj, field))
        L = L + basis
    g = v - L
    points, complete = solve_zero_dim([g, f + g * g * c, f * 2 + (u + v) * g], field)
    assert complete
    assert sorted(map(_key, points)) == sorted(map(_key, pts))

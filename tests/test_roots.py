import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

import conchoidal.roots as roots
from conchoidal import MultiPoly, factor_binary_form, formal_square_root, parse_poly, rational_roots
from conchoidal.errors import InternalError
from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational, sqrt_in_field, to_scalar
from conchoidal.gcd import is_squarefree
from conchoidal.roots import _lifted_roots, common_roots, solve_zero_dim, square_root_up_to_scalar

from helpers import random_poly
from quartic_oracle import quartic_split_oracle
from roots_oracle import gaussian_roots


T = ("t",)


def uni(coeffs, field=FIELD_Q):
    """The polynomial in t with the ascending coefficients."""
    return MultiPoly.make(T, field, {(k,): c for k, c in enumerate(coeffs)})


def test_rational_roots_examples():
    assert rational_roots(uni([-4, 0, 1])) == [(Fraction(-2), 1), (Fraction(2), 1)]
    assert rational_roots(uni([1, 0, 1])) == []
    roots = rational_roots(uni([1, 0, 1]), FIELD_QI)
    assert {(r.re, r.im) for r, _ in roots} == {(0, 1), (0, -1)}
    assert rational_roots(uni([5])) == []
    with pytest.raises(ValueError):
        rational_roots(parse_poly("x*y-1"))


def test_rational_roots_from_elimination_verified_by_substitution():
    # 4t^3 - 4t^2 - t + 1 = (2t-1)(2t+1)(t-1), the shape of a discriminant
    # elimination output; every returned root must satisfy the polynomial.
    f = uni([1, -1, -4, 4])
    roots = rational_roots(f)
    assert {r for r, _ in roots} == {Fraction(1, 2), Fraction(-1, 2), Fraction(1)}
    for r, _ in roots:
        assert f.evaluate({"t": r}) == 0


def test_roots_multiplicity_and_zero():
    f = uni([0, 0, 4, -4, 1])     # t^2 (t-2)^2
    assert rational_roots(f) == [(Fraction(0), 2), (Fraction(2), 2)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                          st.integers(min_value=1, max_value=10 ** 3)),
                min_size=1, max_size=6))
def test_constructed_roots_recovered(chosen):
    f = uni([1])
    for r in chosen:
        f = f * uni([-r, 1])
    got = rational_roots(f)
    expect = {}
    for r in chosen:
        expect[r] = expect.get(r, 0) + 1
    assert dict(got) == expect


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.fractions(-6, 6, max_denominator=4), st.fractions(-6, 6, max_denominator=4),
                          st.integers(min_value=1, max_value=2)), min_size=1, max_size=3),
       st.booleans(), st.booleans())
def test_constructed_gaussian_roots_recovered(chosen, conjugates, irreducible):
    # with each root's conjugate f has real coefficients, so both images
    # modulo the lifting prime coincide and every root pairs with every one
    t = MultiPoly.variable("t", T, FIELD_QI)
    f = uni([1], FIELD_QI)
    expect = {}
    for re, im, m in chosen:
        for r in {(re, im), (re, -im)} if conjugates else {(re, im)}:
            f = f * (t - GaussianRational(*r)) ** m
            expect[r] = expect.get(r, 0) + m
    if irreducible:
        f = f * (t * t + 2)
    got = rational_roots(f, FIELD_QI)
    assert {(r.re, r.im): m for r, m in got} == expect
    assert len(got) == len(expect)


def test_gaussian_roots_mixed():
    # (t - 3)(t - (1+2i))
    a = GaussianRational(3)
    b = GaussianRational(1, 2)
    f = uni([a * b, -(a + b), 1], FIELD_QI)
    roots = rational_roots(f, FIELD_QI)
    assert {(r.re, r.im) for r, _ in roots} == {(3, 0), (1, 2)}
    # real polynomial with a conjugate pair: (t-2)(t^2+9)
    f2 = uni([-18, 9, -2, 1])
    roots2 = rational_roots(f2, FIELD_QI)
    assert {(r.re, r.im) for r, _ in roots2} == {(2, 0), (0, 3), (0, -3)}


def test_big_coefficient_roots_use_lifting():
    # endpoints far beyond divisor enumeration
    big = 10 ** 30 + 57
    # (t - 1)(3t + 2*big) = 3t^2 + (2 big - 3) t - 2 big
    f = uni([-2 * big, 2 * big - 3, 3])
    roots = rational_roots(f)
    assert (Fraction(1), 1) in roots
    assert (Fraction(-2 * big, 3), 1) in roots
    direct = _lifted_roots(f, FIELD_Q)
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


def _scalars(field):
    q = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    return q if field == FIELD_Q else st.builds(GaussianRational, q, q)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([FIELD_Q, FIELD_QI]), st.booleans())
def test_quartic_split_of_a_product_agrees_with_the_oracle(data, field, same_a):
    # (t^2 + a t + b)(t^2 + c t + e), with a = c drawn on purpose: the
    # split is found, and it is the oracle's pair in the oracle's order
    a, b, e = (data.draw(_scalars(field)) for _ in range(3))
    c = a if same_a else data.draw(_scalars(field))
    f = uni([b, a, 1], field) * uni([e, c, 1], field)
    assume(not rational_roots(f, field) and is_squarefree(f))
    split = roots._quartic_quadratic_split(f)
    assert split is not None and split[0] * split[1] == f
    assert split == quartic_split_oracle(f)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([FIELD_Q, FIELD_QI]))
def test_quartic_split_of_a_random_quartic_agrees_with_the_oracle(data, field):
    f = uni([data.draw(_scalars(field)) for _ in range(4)] + [1], field)
    assume(not rational_roots(f, field) and is_squarefree(f))
    assert roots._quartic_quadratic_split(f) == quartic_split_oracle(f)


def test_quartic_split_system_without_eliminant_is_a_bug(monkeypatch):
    # the (a, b) system is zero-dimensional, so a None from the solver
    # raises instead of reading as "no split"
    monkeypatch.setattr(roots, "solve_zero_dim", lambda eqs: None)
    with pytest.raises(InternalError):
        factor_binary_form(parse_poly("x^4+y^4").with_vars(("x", "y")))


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
    t1 = uni([-1, 1])
    f = t1 * t1 * uni([2 * big, 3])
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
    assert rational_roots(uni([-1, P])) == [(Fraction(1, P), 1)]
    f = uni([-3, P]) * uni([1, 1])
    assert rational_roots(f) == [(Fraction(-1), 1), (Fraction(3, P), 1)]
    # a repeated root: the lifting runs on the squarefree part
    f = uni([-3, P]) * f
    assert rational_roots(f) == [(Fraction(-1), 1), (Fraction(3, P), 2)]
    # the leading coefficient is divisible by the first 61 odd primes, so
    # the search for a lifting prime, which starts at 3, skips all of them
    Q = 1
    for p in _primes_from(3, 61):
        Q *= p
    f = uni([-1, Q]) * uni([2, 1])
    assert rational_roots(f) == [(Fraction(-2), 1), (Fraction(1, Q), 1)]


def _gaussian_primes(count):
    """A Gaussian prime a + bi of norm p for each of the first primes
    p = 1 (mod 4)."""
    out = []
    for p in _primes_from(5, 4 * count):
        if p % 4 == 1 and len(out) < count:
            a = next(a for a in range(1, p) if isqrt(p - a * a) ** 2 == p - a * a)
            out.append(GaussianRational(a, isqrt(p - a * a)))
    return out


def _gaussian_key(got):
    return [((r.re, r.im), m) for r, m in got]


def test_gaussian_roots_survive_many_bad_split_primes():
    # N(L) is divisible by each of the first 40 primes p = 1 (mod 4), so the
    # search for a lifting prime skips all of them
    L = GaussianRational(1)
    for pi in _gaussian_primes(40):
        L = L * pi
    t = MultiPoly.variable("t", T, FIELD_QI)
    rho = GaussianRational(3, 2) / L
    f = (t * L - GaussianRational(3, 2)) * (t - GaussianRational(1, -1)) ** 2
    assert _gaussian_key(rational_roots(f, FIELD_QI)) == sorted(
        [((rho.re, rho.im), 1), ((1, -1), 2)])
    # over Q: no root, and the leading norm is a product of the same primes
    assert rational_roots(f * f.conj(), FIELD_Q) == []


def test_big_gaussian_root_over_a_product_of_primes():
    P = 1
    for p in _primes_from(4001, 61):
        P *= p
    rho = GaussianRational(10 ** 30 + 7, 10 ** 29 + 3) / P
    t = MultiPoly.variable("t", T, FIELD_QI)
    f = (t - rho) * (t - rho) * (t - GaussianRational(0, 2)) * (t * t + 5)
    assert _gaussian_key(rational_roots(f, FIELD_QI)) == sorted(
        [((0, 2), 1), ((rho.re, rho.im), 2)])


def test_real_polynomial_with_a_big_conjugate_pair():
    # f is real, so its two images modulo the lifting prime coincide
    rho = GaussianRational(10 ** 20 + 1, 3 * 10 ** 19 + 7) / (10 ** 9 + 7)
    t = MultiPoly.variable("t", T, FIELD_QI)
    f = (t - rho) * (t - rho.conjugate()) * (t - 5) * (t * t - 2)
    assert all(c.im == 0 for c in f.terms.values())
    assert _gaussian_key(rational_roots(f, FIELD_QI)) == sorted(
        [((5, 0), 1), ((rho.re, rho.im), 1), ((rho.re, -rho.im), 1)])
    real = MultiPoly(T, FIELD_Q, {e: c.re for e, c in f.terms.items()})
    assert rational_roots(real) == [(Fraction(5), 1)]
    assert _gaussian_key(rational_roots(real, FIELD_QI)) == _gaussian_key(rational_roots(f, FIELD_QI))


def test_degree_one_roots():
    big = GaussianRational(10 ** 40 + 3, -(10 ** 35) - 11)
    lead = GaussianRational(7 * 10 ** 12, 10 ** 13 + 1)
    f = uni([-big, lead], FIELD_QI)
    assert rational_roots(f) == [(big / lead, 1)]
    assert rational_roots(uni([GaussianRational(0, 3), 2], FIELD_QI)) == [(GaussianRational(0, Fraction(-3, 2)), 1)]
    assert rational_roots(uni([-(10 ** 30 + 1), 3 * 10 ** 20])) == [(Fraction(10 ** 30 + 1, 3 * 10 ** 20), 1)]
    assert rational_roots(uni([-(10 ** 30 + 1), 3 * 10 ** 20]), FIELD_QI) == [
        (GaussianRational(Fraction(10 ** 30 + 1, 3 * 10 ** 20)), 1)]
    assert rational_roots(uni([0, GaussianRational(2, 1)], FIELD_QI)) == [(GaussianRational(0), 1)]
    # a root in Q(i) is no root in Q
    with pytest.raises(ValueError):
        rational_roots(f, FIELD_Q)


def test_lifting_prime_search_is_bounded(monkeypatch):
    # every prime fails the squarefree test: the search stops at its budget
    monkeypatch.setattr("conchoidal.roots.squarefree_mod_p", lambda coeffs, p: False)
    for f, field in ((uni([-2, 0, 1]), FIELD_Q), (uni([1, 0, 1]), FIELD_QI),
                     (uni([GaussianRational(1, 1), 10 ** 20], FIELD_QI), FIELD_QI)):
        with pytest.raises(InternalError):
            rational_roots(f, field)


gaussians = st.builds(GaussianRational, st.fractions(-5, 5, max_denominator=4),
                      st.fractions(-5, 5, max_denominator=4))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(gaussians, st.integers(min_value=1, max_value=3)), max_size=3),
       st.lists(st.tuples(gaussians, gaussians, st.integers(min_value=1, max_value=2)), max_size=1),
       st.booleans())
def test_gaussian_roots_agree_with_the_bivariate_oracle(linear, quadratic, conjugates):
    # products of Gaussian linear factors and quadratics irreducible over
    # Q(i), repeated, with or without the conjugate of each factor; the
    # bivariate oracle takes seconds beyond degree 10
    t = MultiPoly.variable("t", T, FIELD_QI)
    factors = [(t - r, m) for r, m in linear]
    factors += [(t * t + t * a + b, m) for a, b, m in quadratic
                if sqrt_in_field(a * a - 4 * b, FIELD_QI) is None]
    f = MultiPoly.constant(GaussianRational(2, -1), T, FIELD_QI)
    for g, m in factors:
        f = f * g ** m * (g.conj() ** m if conjugates else 1)
    assume(f.total_degree() <= 10)
    expect = {}
    for r, m in linear:
        for root in [r, r.conjugate()] if conjugates else [r]:
            expect[(root.re, root.im)] = expect.get((root.re, root.im), 0) + m
    got = rational_roots(f, FIELD_QI)
    assert _gaussian_key(got) == _gaussian_key(gaussian_roots(f))
    assert dict(_gaussian_key(got)) == expect


UV = ("u", "v")


def _uv(text):
    """Parse a polynomial written in x, y as one in u, v."""
    p = parse_poly(text).with_vars(("x", "y"))
    return MultiPoly(UV, p.field, p.terms)


def test_common_roots_examples():
    t1, t2 = uni([-1, 1]), uni([-2, 0, 1])              # t - 1, t^2 - 2
    assert common_roots([t1 * t2, t1 * t2 * uni([-3, 1])]) == ([Fraction(1)], False)
    assert common_roots([t1 * uni([-3, 1]), t1]) == ([Fraction(1)], True)
    assert common_roots([t1, uni([-3, 1])]) == ([], True)
    assert common_roots([uni([5])]) == ([], True)


def test_solve_zero_dim_degenerate_systems():
    # u^2 = 2 has no rational root: nothing found, nothing certified
    assert solve_zero_dim([_uv("x^2-2"), _uv("y")]) == ([], False)
    # inconsistent: coprime eliminants, or a constant resultant
    assert solve_zero_dim([_uv("x-1"), _uv("x-2")]) == ([], True)
    assert solve_zero_dim([_uv("y-x"), _uv("y-x-1")]) == ([], True)
    assert solve_zero_dim([_uv("x*y-1"), _uv("3")]) == ([], True)
    # every equation vanishes on the line u = 0: (0, 0) stands for it
    points, complete = solve_zero_dim([_uv("x^2-x"), _uv("x*y")])
    assert points == [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]
    assert not complete
    # one genuinely bivariate equation has no eliminant
    assert solve_zero_dim([_uv("x^2+y^2-1")]) is None
    assert solve_zero_dim([_uv("x^2+y^2-1"), MultiPoly.zero(UV)]) is None


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
    points, complete = solve_zero_dim([g, f + g * g * c, f * 2 + (u + v) * g])
    assert complete
    assert sorted(map(_key, points)) == sorted(map(_key, pts))

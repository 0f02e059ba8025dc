import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from conchoidal import MultiPoly, parse_poly, poly_exact_div, poly_gcd, squarefree_part
from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational
from conchoidal.gcd import is_squarefree, multiplicity_of_factor, squarefree_decompose_uni

from helpers import random_form, random_poly


def test_gcd_examples():
    assert poly_gcd(parse_poly("x^2-y^2"), parse_poly("x^2-2*x*y+y^2")) == parse_poly("x-y")
    f = parse_poly("x^2+y^2-z^2")
    assert poly_gcd(f, f) == f            # already monic
    assert poly_gcd(parse_poly("2*x+2*y"), parse_poly("4*x+4*y")) == parse_poly("x+y")
    assert poly_gcd(parse_poly("t^2-1"), parse_poly("2*t+2")) == parse_poly("t+1")


def test_gcd_with_derivative_oracle():
    # R = x^2 (x^2 + y^2 - 1): running the subresultant chain by hand on
    # R and dR/dx = 2x (2x^2 + y^2 - 1) leaves the common factor x: the
    # second cofactors x^2+y^2-1 and 2x^2+y^2-1 differ by x^2, which is
    # coprime to both.
    R = parse_poly("x^4+x^2*y^2-x^2")
    got = poly_gcd(R, R.derivative("x"))
    assert got == parse_poly("x")


def test_gcd_divides_both_inputs():
    rng = random.Random(11)
    for _ in range(15):
        f = random_poly(rng, ("x", "y", "z"), 2)
        g = random_poly(rng, ("x", "y", "z"), 2)
        if f.is_zero() and g.is_zero():
            continue
        d = poly_gcd(f, g)
        assert poly_exact_div(f, d) is not None
        assert poly_exact_div(g, d) is not None


def test_gcd_product_property():
    rng = random.Random(23)
    for _ in range(10):
        f = random_poly(rng, ("x", "y"), 2)
        g = random_poly(rng, ("x", "y"), 2)
        h = random_poly(rng, ("x", "y"), 2)
        if h.is_zero() or f.is_zero() or g.is_zero():
            continue
        if not poly_gcd(f, g).is_constant():
            continue
        assert poly_gcd(f * h, g * h) == h.monic()


def test_gcd_zero_handling():
    f = parse_poly("3*x+3*y")
    assert poly_gcd(f, MultiPoly.zero(("x", "y", "z"))) == f.monic()
    with pytest.raises(ValueError):
        poly_gcd(MultiPoly.zero(("x",)), MultiPoly.zero(("x",)))


def test_squarefree_part():
    f = parse_poly("x^3+x^2*y")          # x^2 (x + y)
    assert squarefree_part(f) == parse_poly("x^2+x*y")
    assert is_squarefree(parse_poly("x^2+y^2-z^2"))
    assert not is_squarefree(parse_poly("x^2"))
    # a factor free of the first variable is caught by a later derivative
    assert is_squarefree(parse_poly("(x-2*z)*(y-3*z)"))
    assert is_squarefree(parse_poly("x*y"))
    assert not is_squarefree(parse_poly("x*(y-3*z)^2"))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(1, 2), st.booleans(), st.integers(1, 2)),
                min_size=1, max_size=3))
@example(0, [(1, True, 1), (1, False, 1)])
def test_is_squarefree_matches_squarefree_part(seed, factors):
    # products of random forms, some of them free of x, some repeated
    rng = random.Random(seed)
    f = MultiPoly.constant(1, ("x", "y", "z"))
    for degree, free_of_x, mult in factors:
        vars = ("y", "z") if free_of_x else ("x", "y", "z")
        f = f * random_form(rng, degree, vars).with_vars(("x", "y", "z")) ** mult
    assert is_squarefree(f) == (squarefree_part(f).total_degree() == f.total_degree())


def test_multiplicity_of_factor():
    f = parse_poly("x^2*(x^2+y^2-z^2)")
    k, rest = multiplicity_of_factor(f, parse_poly("x"))
    assert k == 2 and rest == parse_poly("x^2+y^2-z^2")
    k, rest = multiplicity_of_factor(f, parse_poly("y"))
    assert k == 0 and rest == f
    # a root test in one variable: (t-2)^2 has the root 2 twice, not 1
    f = parse_poly("(t-2)^2")
    assert multiplicity_of_factor(f, parse_poly("t-2")) == (2, parse_poly("1"))
    assert multiplicity_of_factor(f, parse_poly("t-1")) == (0, f)


def test_multiplicity_of_factor_in_zero_is_an_error():
    # every power of x divides 0; the loop would never end
    with pytest.raises(ValueError):
        multiplicity_of_factor(MultiPoly.zero(("x", "y", "z")), parse_poly("x"))


def test_multiplicity_of_constant_factor_is_an_error():
    with pytest.raises(ValueError):
        multiplicity_of_factor(parse_poly("x^2+y^2-z^2"), parse_poly("3"))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((FIELD_Q, FIELD_QI)),
       st.lists(st.tuples(st.fractions(-4, 4, max_denominator=3), st.fractions(-4, 4, max_denominator=3),
                          st.integers(min_value=1, max_value=4)), max_size=4),
       st.integers(min_value=0, max_value=2), st.fractions(-5, 5, max_denominator=3))
@example(FIELD_Q, [(0, 0, 2), (1, 0, 1), (-1, 0, 3)], 0, 1)   # t^2 (t-1) (t+1)^3
def test_yun_decomposition(field, roots, quadratic, scale):
    t = MultiPoly.variable("t", ("t",), field)
    f = MultiPoly.constant(scale or 1, ("t",), field)
    for re, im, m in roots:
        f = f * (t - (GaussianRational(re, im) if field == FIELD_QI else re)) ** m
    f = f * (t * t + 2) ** quadratic
    got = squarefree_decompose_uni(f)
    rebuilt = MultiPoly.constant(1, ("t",), field)
    for a, i in got:
        assert not a.is_constant() and is_squarefree(a)
        rebuilt = rebuilt * a ** i
    assert rebuilt == f.monic()
    assert len({i for _, i in got}) == len(got)
    for (a, _), (b, _) in combinations(got, 2):
        assert poly_gcd(a, b).is_constant()


def test_gcd_over_gaussian_field():
    from conchoidal import parse_poly as pp
    from conchoidal.fields import FIELD_QI

    a = pp("(x+i*y)*(x-z)", FIELD_QI)
    b = pp("(x+i*y)*(y+z)", FIELD_QI)
    assert poly_gcd(a, b) == pp("x+i*y", FIELD_QI)

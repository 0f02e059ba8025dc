import random
from fractions import Fraction

import pytest

from conchoidal import MultiPoly, UniPoly, parse_poly, poly_exact_div, poly_gcd, squarefree_part
from conchoidal.gcd import is_squarefree, multiplicity_of_factor, squarefree_decompose_uni

from helpers import random_poly


def test_gcd_examples():
    assert poly_gcd(parse_poly("x^2-y^2"), parse_poly("x^2-2*x*y+y^2")) == parse_poly("x-y")
    f = parse_poly("x^2+y^2-z^2")
    assert poly_gcd(f, f) == f            # already monic
    assert poly_gcd(parse_poly("2*x+2*y"), parse_poly("4*x+4*y")) == parse_poly("x+y")


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


def test_multiplicity_of_factor():
    f = parse_poly("x^2*(x^2+y^2-z^2)")
    k, rest = multiplicity_of_factor(f, parse_poly("x"))
    assert k == 2 and rest == parse_poly("x^2+y^2-z^2")
    k, rest = multiplicity_of_factor(f, parse_poly("y"))
    assert k == 0 and rest == f


def test_multiplicity_of_factor_in_zero_is_an_error():
    # every power of x divides 0; the loop would never end
    with pytest.raises(ValueError):
        multiplicity_of_factor(MultiPoly.zero(("x", "y", "z")), parse_poly("x"))


def test_multiplicity_of_constant_factor_is_an_error():
    with pytest.raises(ValueError):
        multiplicity_of_factor(parse_poly("x^2+y^2-z^2"), parse_poly("3"))


def test_yun_decomposition():
    # t^2 (t-1) (t+1)^3
    t = UniPoly([Fraction(0), Fraction(1)])
    one = UniPoly([Fraction(1)])
    f = t * t * (t - one) * (t + one) * (t + one) * (t + one)
    got = squarefree_decompose_uni(f)
    mults = {}
    for p, m in got:
        mults[m] = p
    assert set(mults) == {1, 2, 3}
    assert mults[1].coeffs == [Fraction(-1), Fraction(1)]
    assert mults[2].coeffs == [Fraction(0), Fraction(1)]
    assert mults[3].coeffs == [Fraction(1), Fraction(1)]


def test_gcd_over_gaussian_field():
    from conchoidal import parse_poly as pp
    from conchoidal.fields import FIELD_QI

    a = pp("(x+i*y)*(x-z)", FIELD_QI)
    b = pp("(x+i*y)*(y+z)", FIELD_QI)
    assert poly_gcd(a, b) == pp("x+i*y", FIELD_QI)

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conchoidal import MultiPoly, homogeneous_decompose, parse_poly, poly_exact_div, poly_to_text
from conchoidal.errors import NotHomogeneousError
from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational, join_fields, to_scalar

from fraction_poly_oracle import FractionPoly
from helpers import random_poly, random_scalar
from substitute_oracle import substitute_per_term

VARS = ("x", "y", "z")


def polys(max_degree=3):
    seeds = st.integers(min_value=0, max_value=10 ** 6)
    return seeds.map(lambda s: random_poly(random.Random(s), VARS, max_degree))


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f - f == MultiPoly.zero(VARS)
    assert (f * g) * h == f * (g * h)


@settings(max_examples=40)
@given(polys(2), polys(2))
def test_exact_division_of_products(f, g):
    if g.is_zero():
        return
    assert poly_exact_div(f * g, g) == f


def test_exact_div_examples():
    assert poly_exact_div(parse_poly("x^2-y^2"), parse_poly("x-y")) == parse_poly("x+y")
    # the specialized conchoid of the line through A factors off the base circle
    f = parse_poly("x^2*(x^2+y^2-z^2)")
    assert poly_exact_div(f, parse_poly("x^2+y^2-z^2")) == parse_poly("x^2")
    over_qi = poly_exact_div(parse_poly("x^2+1", FIELD_QI), parse_poly("x+i", FIELD_QI))
    assert over_qi == parse_poly("x-i", FIELD_QI)
    assert poly_exact_div(parse_poly("x^2+y^2"), parse_poly("x+y")) is None
    # univariate polynomials are MultiPolys in one variable
    assert poly_exact_div(parse_poly("t^2-4"), parse_poly("t-2")) == parse_poly("t+2")
    assert poly_exact_div(parse_poly("t^2-4"), parse_poly("t-1")) is None
    with pytest.raises(ZeroDivisionError):
        poly_exact_div(parse_poly("x"), MultiPoly.zero(VARS))


def test_homogeneous_decompose_examples():
    parts = homogeneous_decompose(parse_poly("x^2+y^2-z^2"))
    assert [poly_to_text(p) for p in parts] == ["x^2 + y^2", "0", "-1"]
    parts = homogeneous_decompose(parse_poly("2*x+3*y+5*z"))
    assert [poly_to_text(p) for p in parts] == ["2*x + 3*y", "5"]
    parts = homogeneous_decompose(parse_poly("z^3"))
    assert [poly_to_text(p) for p in parts] == ["0", "0", "0", "1"]
    with pytest.raises(NotHomogeneousError):
        homogeneous_decompose(parse_poly("x^2+y"))


def test_decompose_reassembles():
    rng = random.Random(5)
    for _ in range(10):
        from helpers import random_form

        f = random_form(rng, rng.randint(1, 4))
        parts = homogeneous_decompose(f)
        d = f.total_degree()
        z = MultiPoly.variable("z", VARS)
        rebuilt = MultiPoly.zero(VARS)
        for h, part in enumerate(reversed(parts)):   # parts = [F_d, ..., F_0]
            rebuilt = rebuilt + part.with_vars(VARS) * z ** (d - h)
        assert rebuilt == f


def test_substitution_and_evaluation():
    f = parse_poly("x^2+y^2-z^2")
    g = f.substitute({"x": parse_poly("x+z")})
    assert g == parse_poly("x^2+2*x*z+y^2")
    val = f.evaluate({"x": Fraction(3), "y": Fraction(4), "z": Fraction(5)})
    assert val == 0
    assert f.partial_eval({"z": Fraction(1)}) == parse_poly("x^2+y^2-1")


def _field_poly(rng, vars, degree, field):
    p = random_poly(rng, vars, degree, field=field)
    if field == FIELD_QI:
        p = p + random_poly(rng, vars, degree, field=field) * GaussianRational(0, 1)
    return p


def _same_result(got, want):
    assert (got.vars, got.field, got.terms) == (want.vars, want.field, want.terms)
    assert [type(c) for c in got.terms.values()] == [type(want.terms[e]) for e in got.terms]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from((FIELD_Q, FIELD_QI)),
       st.lists(st.sampled_from(("keep", "poly", "scalar", "int", "var")), min_size=3, max_size=3))
def test_substitute_matches_the_per_term_oracle(seed, field, kinds):
    # images mix polynomials over either field and other variables,
    # scalars of either field, ints (zero too), variables and the identity
    rng = random.Random(seed)
    f = _field_poly(rng, VARS, 3, field)
    mapping = {}
    for v, kind in zip(VARS, kinds):
        if kind == "poly":
            mapping[v] = _field_poly(rng, rng.choice((VARS, ("y", "z"), ("t",), ("x", "t"))), 2,
                                     rng.choice((FIELD_Q, FIELD_QI)))
        elif kind == "scalar":
            c = random_scalar(rng)
            mapping[v] = GaussianRational(c, random_scalar(rng)) if rng.random() < 0.5 else c
        elif kind == "int":
            mapping[v] = rng.randint(-2, 2)
        elif kind == "var":
            mapping[v] = MultiPoly.variable(rng.choice(VARS + ("t",)), VARS + ("t",))
    _same_result(f.substitute(mapping), substitute_per_term(f, mapping))


def test_substitute_swaps_variables():
    f = parse_poly("x^2*y+3*y*z^2-z^3", FIELD_QI) * GaussianRational(1, 2)
    y, z = parse_poly("y"), parse_poly("z")
    swap = {"y": z, "z": y}
    got = f.substitute(swap)
    assert got == parse_poly("x^2*z+3*z*y^2-y^3", FIELD_QI) * GaussianRational(1, 2)
    _same_result(got, substitute_per_term(f, swap))
    assert got.substitute(swap) == f
    # a term no image reaches still takes the result's field
    f, image = parse_poly("x^2+1"), parse_poly("i*y", FIELD_QI)
    _same_result(f.substitute({"x": image}), substitute_per_term(f, {"x": image}))


def test_monic_and_proportionality():
    f = parse_poly("2*x^2-4*y^2")
    assert poly_to_text(f.monic()) == "x^2 - 2*y^2"
    assert f.proportional_to(parse_poly("x^2-2*y^2"))
    assert not f.proportional_to(parse_poly("x^2+2*y^2"))


def test_homogenize_roundtrip():
    f = parse_poly("x^2+y-3")
    h = f.with_vars(("x", "y")).homogenize("z", 2)
    assert h == parse_poly("x^2+y*z-3*z^2")
    assert h.dehomogenize("z") == f


def test_field_promotion_equality():
    f = parse_poly("x+y")
    assert f == f.promote(FIELD_QI)
    assert hash(f) == hash(f.promote(FIELD_QI))
    g = f.promote(FIELD_QI) * GaussianRational(0, 1)
    assert g.conj() == -g


# -- the stored form against the scalar-coefficient oracle --------------------


def _oracle_coeff(rng, field):
    # denominators that share factors, signs of both kinds, and zero
    c = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, 12)))
    if field == FIELD_QI and rng.random() < 0.5:
        return GaussianRational(c, Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4, 6))))
    return c


def _oracle_pair(rng, field):
    """(MultiPoly.make of raw scalar terms, FractionPoly of the same terms):
    the zero polynomial, a constant, or up to five terms of degree <= 2."""
    kind = rng.choice(("zero", "constant", "poly", "poly", "poly"))
    monos = [e for e in ((a, b, c) for a in range(3) for b in range(3) for c in range(3))
             if sum(e) <= 2]
    if kind == "zero":
        raw = {}
    elif kind == "constant":
        raw = {(0, 0, 0): _oracle_coeff(rng, field)}
    else:
        raw = {e: _oracle_coeff(rng, field) for e in rng.sample(monos, rng.randint(1, 5))}
    want = FractionPoly(VARS, field, {e: to_scalar(c, field) for e, c in raw.items() if c})
    return MultiPoly.make(VARS, field, raw), want


def _matches(got, want):
    assert (got.vars, got.field, got.terms) == (want.vars, want.field, want.terms)
    assert [type(c) for c in got.terms.values()] == [type(want.terms[e]) for e in got.terms]
    # the same value built by make from scalars has the same form and hash
    rebuilt = MultiPoly.make(want.vars, want.field, want.terms)
    assert got == rebuilt and hash(got) == hash(rebuilt)
    assert (got._num, got._den) == (rebuilt._num, rebuilt._den)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from((FIELD_Q, FIELD_QI)), st.sampled_from((FIELD_Q, FIELD_QI)))
def test_operations_match_the_fraction_poly_oracle(seed, field_f, field_g):
    rng = random.Random(seed)
    (f, F), (g, G) = _oracle_pair(rng, field_f), _oracle_pair(rng, field_g)
    c = _oracle_coeff(rng, rng.choice((field_f, field_g))) or Fraction(-3, 4)
    _matches(f, F)
    for got, want in ((f + g, F + G), (f - g, F - G), (f * g, F * G), (-f, -F),
                      (f - f, F - F), (f + (-f), F + (-F)), (f * c, F * c), (f / c, F / c),
                      (f * 0, F * 0), (f + 2, F + 2), (f.monic(), F.monic()),
                      (f.promote(FIELD_QI), F.promote(FIELD_QI)),
                      (f.with_vars(("z", "t", "x", "y")), F.with_vars(("z", "t", "x", "y")))):
        _matches(got, want)
    for v in VARS:
        _matches(f.derivative(v), F.derivative(v))
        for got, want in zip(f.coefficients_in(v), F.coefficients_in(v), strict=True):
            _matches(got, want)
    # a Q polynomial equals its Q(i) promotion, with the same hash
    assert f == f.promote(FIELD_QI) and hash(f) == hash(f.promote(FIELD_QI))
    joint = join_fields(f.field, g.field)
    assert (f == g) == (F.promote(joint).terms == G.promote(joint).terms)

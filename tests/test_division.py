"""Exact division and multiplicities: the modular line image, the integer
heap remainder and the line bound on multiplicities against the graded-lex
reduction oracle."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import conchoidal.gcd as gcd
import conchoidal.modular as modular
import conchoidal.multipoly as multipoly
import conchoidal.transform as transform
from conchoidal import (
    CircleSpec,
    MultiPoly,
    PlaneCurve,
    Scene,
    conchoidal_transform,
    extract_known_components,
    factor_binary_form,
    parse_poly,
    poly_exact_div,
)
from conchoidal.curves import CURVE_VARS
from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational
from conchoidal.gcd import multiplicity_of_factor
from conchoidal.modular import _POINT_STEP, _gcd_prime, line_multiplicity

from division_oracle import grlex_exact_div
from helpers import avoiding_special_points, random_compliant_base, random_form, random_poly

NAMES = ("x", "y", "z", "w")
P = _gcd_prime(0)[0]


def _draw(rng, vars, degree, field):
    f = random_poly(rng, vars, degree)
    if field == FIELD_QI:
        f = f * GaussianRational(rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)))
    return f


def _divisor(rng, vars, field, shape):
    if shape == "p-multiple":
        # zero modulo p up to the scale p: no line image at all
        return _draw(rng, vars, rng.randint(1, 2), field) * P
    if shape == "constant-image":
        # the first variable is kept, and the factor of its only term
        # vanishes at the second variable's fixed point
        if len(vars) == 1:
            return MultiPoly.constant(3, vars, field)
        x, y = (MultiPoly.variable(v, vars, field) for v in vars[:2])
        return x * (y - _POINT_STEP * 2 % P) + 1
    return _draw(rng, vars, rng.randint(1, 2), field)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.sampled_from((FIELD_Q, FIELD_QI)),
       st.sampled_from(("plain", "p-denominator", "p-multiple", "constant-image")),
       st.booleans())
def test_exact_division_matches_the_grlex_oracle(seed, nvars, field, shape, perturbed):
    rng = random.Random(seed)
    vars = NAMES[:nvars]
    g = _divisor(rng, vars, field, shape)
    q = _draw(rng, vars, rng.randint(0, 3), field)
    if shape == "p-denominator":
        q = q + MultiPoly.constant(Fraction(1, P), vars, field)
    f = q * g
    if perturbed:
        f = f + _draw(rng, vars, rng.randint(0, 3), field)
    got = poly_exact_div(f, g)
    assert got == grlex_exact_div(f, g)
    if not perturbed:
        assert got == q
    assert got is None or got * g == f


def test_line_image_falls_through_without_a_certificate():
    f = parse_poly("x^2+y+1")
    cases = [
        (f, parse_poly(f"{P}*x+{P}*y")),                          # zero modulo p
        (f, parse_poly(f"x*y-{_POINT_STEP * 2 % P}*x+1")),        # constant on the line
        (f + parse_poly(f"1/{P}*y"), parse_poly("x+y")),          # a p-denominator
        (f * parse_poly("x-y") + parse_poly(f"{P}*x^3"), parse_poly("x-y")),  # zero remainder
    ]
    # no image for the first three; the last image bounds a miss by 1
    for (a, b), bound in zip(cases, (None, None, None, 1)):
        assert line_multiplicity(a, b) == bound
        assert poly_exact_div(a, b) is None and grlex_exact_div(a, b) is None
    assert line_multiplicity(f, parse_poly("x-y")) == 0


def test_gaussian_p_denominator_leaves_the_verdict_to_the_division():
    # p divides the denominator of one Q(i) coefficient (of its imaginary
    # part only), so that polynomial has no line image and the heap
    # division decides, as the grlex oracle does
    s = _gcd_prime(0)[1]
    x, y = (MultiPoly.variable(v, ("x", "y"), FIELD_QI) for v in ("x", "y"))
    odd = GaussianRational(Fraction(1, 3), Fraction(2, 5 * P))
    q, g = x * x + y * odd + 1, x - y * GaussianRational(1, 1)
    assert modular._line_image(q, 0, P, s) is None
    assert modular._line_image(g, 0, P, s) is not None
    for f, b, quotient in ((q * g, g, q), (q * g + x, g, None),
                           (parse_poly("x^2+y+1").promote(FIELD_QI), q, None)):
        assert line_multiplicity(f, b) != 0
        assert poly_exact_div(f, b) == quotient == grlex_exact_div(f, b)


def test_generic_decompose_misses_are_settled_by_the_line_image(monkeypatch):
    # a generic 4x4 pair: the conchoid is irreducible (the paper's theorem),
    # so the divisions by the base, z, the one line block and C all miss;
    # the univariate divisions that factor the base's top form are not counted.
    # Each multiplicity reads a line bound of 0 and runs no division
    rng = random.Random(0)
    B = random_compliant_base(rng, 4)
    C = avoiding_special_points(rng, 4, B)
    T = conchoidal_transform(B, C)
    verdicts, steps, counting = [], [], [True]
    pop = multipoly.heappop

    def counted_line(f, g, images=None):
        bound = line_multiplicity(f, g, images)
        if counting[0]:
            verdicts.append(bound == 0)
        return bound

    def counted_pop(heap):
        if counting[0]:
            steps.append(1)
        return pop(heap)

    def uncounted_factor(form):
        counting[0] = False
        try:
            return factor_binary_form(form)
        finally:
            counting[0] = True

    monkeypatch.setattr(modular, "line_multiplicity", counted_line)
    monkeypatch.setattr(gcd, "line_multiplicity", counted_line)
    monkeypatch.setattr(multipoly, "heappop", counted_pop)
    monkeypatch.setattr(transform, "factor_binary_form", uncounted_factor)
    div = extract_known_components(T, Scene(B), C)
    assert [c.label for c in div.components] == ["residual"]
    assert verdicts == [True] * 4
    assert not steps


def _decompose_cases():
    """(B, C) over Q and Q(i): a generic 3x3 pair and two conic pairs that
    nothing divides, and three pairs with known components beside a
    residual (a circle and a concentric circle, a Q(i) conic and a conic
    tangent to z) or none (a circle and a line through its center)."""
    rng = random.Random(5)
    B = random_compliant_base(rng, 3)
    pairs = [(B, avoiding_special_points(rng, 3, B))]
    for b, c, field in (("x^2+i*y^2-z^2", "x*y-(1+i)*z^2", FIELD_QI),
                        ("x^2+y^2-z^2", "x^2+i*y^2-9*z^2", FIELD_QI),
                        ("x^2+y^2-z^2", "x^2+y^2-4*z^2", FIELD_Q),
                        ("x^2+i*y^2-z^2", "z*(x+y)-i*z^2", FIELD_QI),
                        ("x^2+y^2-z^2", "x", FIELD_Q)):
        pairs.append((PlaneCurve.from_text(b, field), PlaneCurve.from_text(c, field)))
    return pairs


def test_decompose_images_each_polynomial_once_per_line(monkeypatch):
    # extract_known_components keeps the line images of h while h is
    # unchanged, so no (polynomial, kept variable) pair is imaged twice in
    # one call (the univariate images that factor the base's top form are
    # not counted); the divisor is the one that imaging h afresh for every
    # factor gives
    imaged, counting = [], [True]
    image = modular._line_image

    def recorded(h, keep, p, s):
        if counting[0]:
            imaged.append((h.vars, frozenset(h.terms.items()), keep))
        return image(h, keep, p, s)

    def uncounted_factor(form):
        counting[0] = False
        try:
            return factor_binary_form(form)
        finally:
            counting[0] = True

    def afresh(f, g, images=None):
        return line_multiplicity(f, g)

    monkeypatch.setattr(transform, "factor_binary_form", uncounted_factor)
    for B, C in _decompose_cases():
        T = conchoidal_transform(B, C)
        with monkeypatch.context() as patch:
            patch.setattr(modular, "line_multiplicity", afresh)
            patch.setattr(gcd, "line_multiplicity", afresh)
            expected = extract_known_components(T, Scene(B), C)
        imaged.clear()
        with monkeypatch.context() as patch:
            patch.setattr(modular, "_line_image", recorded)
            div = extract_known_components(T, Scene(B), C)
        assert len(imaged) == len(set(imaged)) > 0
        assert div.unit == expected.unit
        assert [(c.poly, c.mult, c.label) for c in div.components] == \
            [(c.poly, c.mult, c.label) for c in expected.components]


def test_residual_of_an_undivided_conchoid_is_its_equation():
    # when nothing divides, the residual is R.equation itself: every curve
    # equation is monic already, and its terms and coefficient types are
    # those of R.equation.monic(), the residual of the division by nothing,
    # over Q and Q(i)
    undivided = 0
    for B, C in _decompose_cases():
        T = conchoidal_transform(B, C)
        div = extract_known_components(T, Scene(B), C)
        if [c.label for c in div.components] != ["residual"]:
            continue
        undivided += 1
        monic = T.equation.monic()
        assert div.residual() is T.equation and div.unit == 1
        assert [(e, c, type(c)) for e, c in T.equation.terms.items()] == \
            [(e, c, type(c)) for e, c in monic.terms.items()]
    assert undivided == 3


# -- multiplicities ----------------------------------------------------------------


def _oracle_multiplicity(f, g):
    """The grlex oracle divided until it misses: (k, f / g**k)."""
    k = 0
    while True:
        q = grlex_exact_div(f, g)
        if q is None:
            return k, f
        f, k = q, k + 1


def _factor(rng, vars, field, shape):
    if shape == "constant-image" and len(vars) > 1:
        return _divisor(rng, vars, field, shape)
    g = _draw(rng, vars, rng.randint(1, 2), field)
    if g.is_constant():
        g = g + MultiPoly.variable(vars[-1], vars, field)
    if shape == "non-primitive":
        g = g * Fraction(6, 35)    # integer content 6 once the 35 is cleared
    return g


def _cofactor(rng, vars, field, shape, g):
    h = _draw(rng, vars, rng.randint(0, 2), field)
    if shape == "line-double":
        # h_L = g_L modulo p, so the line bound exceeds the multiplicity
        return g + MultiPoly.variable(vars[0], vars, field) * P
    if shape == "p-multiple":
        return h * P               # f_L = 0: no bound
    if shape == "p-denominator":
        return h + MultiPoly.constant(Fraction(1, P), vars, field)
    return h


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.sampled_from((FIELD_Q, FIELD_QI)),
       st.sampled_from(("plain", "line-double", "p-multiple", "p-denominator",
                        "constant-image", "non-primitive")),
       st.integers(0, 3), st.booleans())
def test_multiplicity_matches_the_oracle_loop(seed, nvars, field, shape, k, wide):
    rng = random.Random(seed)
    vars = NAMES[:nvars]
    g = _factor(rng, vars, field, shape)
    f = g ** k * _cofactor(rng, vars, field, shape, g)
    if wide:
        # one more variable and Q(i): a miss returns f as it was given
        g = g.with_vars(vars + ("u",)).promote(FIELD_QI)
    got = multiplicity_of_factor(f, g)
    want = _oracle_multiplicity(f, g)
    assert got == want and got[0] >= k
    if got[0]:
        assert (got[1].vars, got[1].field) == (want[1].vars, want[1].field)
    else:
        assert got[1] is f
    assert got[1] * g ** got[0] == f
    bound = line_multiplicity(f, g)
    assert bound is None or bound >= got[0]
    if shape == "line-double" and bound is not None:
        assert bound > k
    if shape == "p-multiple":
        assert bound is None


def test_multiplicity_pins():
    x, y = (MultiPoly.variable(v, ("x", "y"), FIELD_Q) for v in ("x", "y"))
    # the line bound (2) is not the answer (1)
    g = x + y
    f = g * (g + x * P)
    assert line_multiplicity(f, g) == 2
    assert multiplicity_of_factor(f, g) == (1, g + x * P)
    # a divisor of integer content 6 over denominators: its integer form is
    # made primitive, or the integer quotient steps would miss
    g = (x + 2 * y) * Fraction(6, 35)
    h = x * Fraction(1, 6) + 1
    assert multiplicity_of_factor(g ** 2 * h, g) == (2, h)
    assert poly_exact_div(g * h, g) == h
    # f a multiple of p: its line image is zero and bounds nothing
    f = (x + y) * (x - y) ** 2 * P
    assert line_multiplicity(f, x - y) is None
    assert multiplicity_of_factor(f, x - y) == (2, (x + y) * P)
    f = (x + y) * (x - y) * P
    assert poly_exact_div(f, x - y) == (x + y) * P
    # k = 0 returns f itself, neither aligned nor promoted, whether the line
    # bound is 0, positive or missing
    xi, yi = (MultiPoly.variable(v, (v,), FIELD_QI) for v in ("x", "y"))
    for f, g, bound in ((parse_poly("x^2+y+1"), xi + 1, 0),
                        (parse_poly(f"x+y+{P}*x"), xi + yi, 1),
                        (parse_poly(f"x^2+y+1/{P}"), xi - yi, None)):
        assert line_multiplicity(*multipoly._aligned(f, g)) == bound
        assert multiplicity_of_factor(f, g)[1] is f
    # a hit keeps the parent's variables and field: merged and joined
    f = parse_poly("x^2-y^2")
    k, q = multiplicity_of_factor(f, MultiPoly.variable("x", ("x",), FIELD_QI)
                                  - MultiPoly.variable("y", ("y",), FIELD_QI))
    assert (k, q.vars, q.field) == (1, f.vars, FIELD_QI)
    assert all(type(c) is GaussianRational for c in q.terms.values())
    k, q = multiplicity_of_factor(f, x - y)
    assert (k, q.vars, q.field) == (1, f.vars, FIELD_Q)
    assert all(type(c) is Fraction for c in q.terms.values())


def _circle_case_curve(rng, degree, field):
    """A random line or conic that uses x and y and misses A (its z**degree
    coefficient is nonzero)."""
    while True:
        form = random_form(rng, degree, field=field)
        if field == FIELD_QI:
            form = form + random_form(rng, degree, field=field) * GaussianRational(0, 1)
        if form.terms.get((0, 0, degree)) and form.uses_var("x") and form.uses_var("y"):
            return PlaneCurve(form)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from((FIELD_Q, FIELD_QI)), st.integers(1, 2),
       st.integers(1, 2))
def test_circle_case_decomposition_matches_the_oracle(seed, field, degree, level):
    # levels 1-2 of the iterated conchoid about a random circle centered at
    # A: at level 2 the base circle, the cyclic line block and C are
    # repeated components
    rng = random.Random(seed)
    base = CircleSpec((0, 0), Fraction(rng.randint(1, 30), rng.randint(1, 5))).curve()
    C = _circle_case_curve(rng, degree, field)
    T = conchoidal_transform(base, C)
    if level == 2:
        T = conchoidal_transform(base, T)
    div = extract_known_components(T, Scene(base), C)
    assert div.reconstruct() == T.equation
    h, want = T.equation, []
    _, blocks = factor_binary_form(base.top_form().promote(h.field))
    factors = ([(base.equation, "base"), (MultiPoly.variable("z", CURVE_VARS, h.field), "linf")]
               + [(b.with_vars(CURVE_VARS), "lineblock") for b, _ in blocks]
               + [(C.equation, "input")])
    for g, label in factors:
        k, h = _oracle_multiplicity(h, g)
        if k:
            want.append((g, k, label))
    got = [(c.poly, c.mult, c.label) for c in div.components if c.label != "residual"]
    assert got == want
    if level == 2:
        assert max(k for _, k, _ in got) >= 2

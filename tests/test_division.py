"""Exact division: the modular line image and the heap remainder against
the graded-lex reduction oracle."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import conchoidal.modular as modular
import conchoidal.multipoly as multipoly
import conchoidal.transform as transform
from conchoidal import (
    MultiPoly,
    Scene,
    conchoidal_transform,
    extract_known_components,
    factor_binary_form,
    parse_poly,
    poly_exact_div,
)
from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational
from conchoidal.modular import _POINT_STEP, _gcd_prime, line_image_misses

from division_oracle import grlex_exact_div
from helpers import avoiding_special_points, random_compliant_base, random_poly

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
    for a, b in cases:
        assert not line_image_misses(a, b)
        assert poly_exact_div(a, b) is None and grlex_exact_div(a, b) is None
    assert line_image_misses(f, parse_poly("x-y"))


def test_generic_decompose_misses_are_settled_by_the_line_image(monkeypatch):
    # a generic 4x4 pair: the conchoid is irreducible (the paper's theorem),
    # so the divisions by the base, z, the one line block and C all miss;
    # the univariate divisions that factor the base's top form are not counted
    rng = random.Random(0)
    B = random_compliant_base(rng, 4)
    C = avoiding_special_points(rng, 4, B)
    T = conchoidal_transform(B, C)
    verdicts, steps, counting = [], [], [True]
    pop = multipoly.heappop

    def counted_line(f, g):
        verdict = line_image_misses(f, g)
        if counting[0]:
            verdicts.append(verdict)
        return verdict

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

    monkeypatch.setattr(modular, "line_image_misses", counted_line)
    monkeypatch.setattr(multipoly, "heappop", counted_pop)
    monkeypatch.setattr(transform, "factor_binary_form", uncounted_factor)
    div = extract_known_components(T, Scene(B), C)
    assert [c.label for c in div.components] == ["residual"]
    assert verdicts == [True] * 4
    assert not steps

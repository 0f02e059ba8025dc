"""Shared generators and comparison helpers for the test suite."""

from fractions import Fraction
from itertools import combinations_with_replacement
import random

from conchoidal import FIELD_Q, MultiPoly, PlaneCurve


def random_scalar(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def random_poly(rng: random.Random, vars=("x", "y", "z"), degree=2,
                terms=None, field=FIELD_Q) -> MultiPoly:
    """A random nonzero polynomial with small rational coefficients."""
    monos = [m for d in range(degree + 1)
             for m in _monomials_of_degree(len(vars), d)]
    rng.shuffle(monos)
    n = terms if terms is not None else rng.randint(1, min(5, len(monos)))
    picked = {}
    for mono in monos[:n]:
        c = random_scalar(rng)
        if c:
            picked[mono] = c
    if not picked:
        picked[(0,) * len(vars)] = Fraction(1)
    return MultiPoly.make(vars, field, picked)


def random_form(rng: random.Random, degree: int, vars=("x", "y", "z"),
                field=FIELD_Q) -> MultiPoly:
    """A random nonzero homogeneous form of the exact degree."""
    monos = _monomials_of_degree(len(vars), degree)
    picked = {}
    for mono in monos:
        if rng.random() < 0.8:
            c = random_scalar(rng)
            if c:
                picked[mono] = c
    if not picked:
        picked[monos[0]] = Fraction(1)
    return MultiPoly.make(vars, field, picked)


def _monomials_of_degree(nvars: int, d: int):
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return out


def random_curve(rng: random.Random, degree: int) -> PlaneCurve:
    """A random curve of the exact degree, not divisible by z."""
    while True:
        form = random_form(rng, degree)
        try:
            curve = PlaneCurve(form)
        except ValueError:
            continue
        if not curve.top_form().is_zero():
            return curve


def random_compliant_base(rng: random.Random, degree: int = 2) -> PlaneCurve:
    """A base curve avoiding A, not tangent to the line at infinity, with a
    squarefree top form (the generic-position hypotheses)."""
    from conchoidal.gcd import is_squarefree

    while True:
        curve = random_curve(rng, degree)
        if not curve.equation.evaluate({"x": Fraction(0), "y": Fraction(0), "z": Fraction(1)}):
            continue
        top = curve.top_form()
        if top.total_degree() >= 2 and not is_squarefree(top):
            continue
        return curve


def curve_through_A(rng: random.Random, delta: int, nu: int) -> PlaneCurve:
    """Homogeneous of degree delta with multiplicity exactly nu at A = [0:0:1]."""
    from conchoidal import ProjPoint, multiplicity_at

    vars = ("x", "y", "z")
    z = MultiPoly.variable("z", vars)
    while True:
        acc = MultiPoly.zero(vars)
        for h in range(nu, delta + 1):
            part = random_form(rng, h, ("x", "y")) if rng.random() < 0.9 or h == nu \
                else MultiPoly.zero(("x", "y"))
            acc = acc + part.with_vars(vars) * z ** (delta - h)
        try:
            curve = PlaneCurve(acc)
        except ValueError:
            continue
        if curve.top_form().is_zero():
            continue
        if multiplicity_at(curve, ProjPoint(0, 0, 1)) == nu:
            return curve


def avoiding_special_points(rng: random.Random, degree: int,
                            base: PlaneCurve) -> PlaneCurve:
    """A curve of the given degree missing A and the base's infinity points
    (no common top-form factor)."""
    from conchoidal.gcd import poly_gcd

    while True:
        curve = random_curve(rng, degree)
        if not curve.equation.evaluate({"x": Fraction(0), "y": Fraction(0), "z": Fraction(1)}):
            continue
        if not poly_gcd(curve.top_form(), base.top_form()).is_constant():
            continue
        return curve

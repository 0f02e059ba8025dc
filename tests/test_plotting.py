import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conchoidal import MultiPoly, PlaneCurve, PlotSpec, render_svg
from conchoidal.fields import FIELD_QI
from conchoidal.plotting import _AMBIG, _EDGES, marching_segments

from helpers import random_form

WINDOW = (Fraction(-2), Fraction(2), Fraction(-2), Fraction(2))


def fraction_grid_segments(curve, spec):
    """The oracle: the dehomogenized equation evaluated over Fractions with
    MultiPoly.evaluate at every grid corner and saddle center."""
    aff = curve.equation.dehomogenize("z")
    xmin, xmax, ymin, ymax = spec.window
    n = spec.grid
    dx = (xmax - xmin) / n
    dy = (ymax - ymin) / n
    xs = [xmin + dx * k for k in range(n + 1)]
    ys = [ymin + dy * k for k in range(n + 1)]
    values = [[aff.evaluate({"x": x, "y": y}) for y in ys] for x in xs]
    segments = []

    def interp(pa, pb, va, vb):
        if va == vb:
            t = Fraction(1, 2)
        else:
            t = va / (va - vb)
            t = min(max(t, Fraction(0)), Fraction(1))
        return (float(pa[0] + (pb[0] - pa[0]) * t), float(pa[1] + (pb[1] - pa[1]) * t))

    for i in range(n):
        for j in range(n):
            corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]),
                       (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            vals = [values[i][j], values[i + 1][j], values[i + 1][j + 1], values[i][j + 1]]
            idx = sum(1 << k for k, v in enumerate(vals) if v > 0)
            if idx in (0, 15):
                continue
            if idx in _AMBIG:
                center = aff.evaluate({"x": xs[i] + dx / 2, "y": ys[j] + dy / 2})
                edges = _AMBIG[idx][0 if center > 0 else 1]
            else:
                edges = _EDGES[idx]
            for (a1, a2), (b1, b2) in edges:
                p = interp(corners[a1], corners[a2], vals[a1], vals[a2])
                q = interp(corners[b1], corners[b2], vals[b1], vals[b2])
                segments.append((p[0], p[1], q[0], q[1]))
    return segments


rationals = st.fractions(-6, 6, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 2), min_size=1, max_size=2),
       rationals, rationals, st.fractions(Fraction(1, 3), 9, max_denominator=7),
       st.fractions(Fraction(1, 3), 9, max_denominator=7), st.integers(16, 40))
def test_segments_match_the_fraction_grid(seed, degrees, xmin, ymin, width, height, grid):
    # real curves of degree <= 4, some of them products (with saddle cells),
    # on rational windows with non-integer ends
    rng = random.Random(seed)
    eq = MultiPoly.constant(1, ("x", "y", "z"))
    for d in degrees:
        eq = eq * random_form(rng, d)
    if eq.total_degree() < 1:
        return
    spec = PlotSpec((xmin, xmin + width, ymin, ymin + height), grid=grid)
    curve = PlaneCurve(eq)
    assert marching_segments(curve, spec) == fraction_grid_segments(curve, spec)


def test_saddle_cells_match_the_fraction_grid():
    # lines crossing inside a cell, whose corners then alternate in sign:
    # both saddle kinds (sign indices 5 and 10) occur
    spec = PlotSpec((Fraction(-1), Fraction(5, 3), Fraction(-1, 2), Fraction(1)), grid=16)
    for text in ("(7*x-z)*(5*y-z)", "(7*x+y-z)*(5*y-x-z)", "(7*x-z)*(5*y-z)*(x^2+y^2-z^2)"):
        curve = PlaneCurve.from_text(text)
        assert marching_segments(curve, spec) == fraction_grid_segments(curve, spec)


def test_large_scaled_values_round_like_fractions():
    # here N^4 passes 2^53, where dividing two floats would round twice
    spec = PlotSpec((Fraction(-7, 3), Fraction(11, 5), Fraction(-13, 7), Fraction(17, 11)), grid=37)
    curve = PlaneCurve.from_text("x^4+y^4-3*z^4+1/7*x*y*z^2")
    assert marching_segments(curve, spec) == fraction_grid_segments(curve, spec)


def test_readme_plot_is_unchanged():
    # the README command's SVG, byte for byte, as the Fraction grid drew it
    svg = render_svg(PlaneCurve.from_text("x^2+y^2-z^2"), PlotSpec(WINDOW, grid=64))
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "e78eaa8319f5498a5dc09c2437796e5b06d62592895f83099eb47b34a3e7da58")


def test_circle_produces_closed_loop():
    circle = PlaneCurve.from_text("x^2+y^2-z^2")
    segments = marching_segments(circle, PlotSpec(WINDOW, grid=64))
    assert len(segments) > 0
    # every sampled point lies near the circle
    for x1, y1, x2, y2 in segments:
        for px, py in ((x1, y1), (x2, y2)):
            assert abs(px * px + py * py - 1.0) < 0.2


def test_constant_positive_curveless():
    # z^2 = 0 has empty real affine locus (its affine equation is 1)
    spec = PlotSpec(WINDOW, grid=16)
    curve = PlaneCurve.from_text("x^2+y^2+z^2")   # no real points
    assert marching_segments(curve, spec) == []


def test_limacon_window():
    quartic = PlaneCurve.from_text(
        "4*y^2*z^2 + x^4 + x^2*y^2 - 4*x^3*z - 4*x*y^2*z + 3*x^2*z^2")
    spec = PlotSpec((Fraction(-1), Fraction(5), Fraction(-3), Fraction(3)), grid=64)
    segments = marching_segments(quartic, spec)
    assert len(segments) > 40    # a visible loop


def test_svg_deterministic():
    circle = PlaneCurve.from_text("x^2+y^2-z^2")
    spec = PlotSpec(WINDOW, grid=32)
    a = render_svg(circle, spec)
    b = render_svg(circle, spec)
    assert a == b
    assert a.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in a
    assert "<line" in a


def test_window_validation():
    with pytest.raises(ValueError):
        PlotSpec((Fraction(1), Fraction(1), Fraction(0), Fraction(2)))
    with pytest.raises(ValueError):
        PlotSpec(WINDOW, grid=8)


def test_requires_real_coefficients():
    from conchoidal import parse_poly

    curve = PlaneCurve(parse_poly("x^2+i*y*z", FIELD_QI))
    with pytest.raises(ValueError):
        marching_segments(curve, PlotSpec(WINDOW, grid=16))

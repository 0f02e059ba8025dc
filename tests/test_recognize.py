import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import conchoidal.recognize as recognize
from conchoidal import (
    CircleSpec,
    MultiPoly,
    PlaneCurve,
    Scene,
    candidate_radii,
    conchoidal_transform,
    extract_known_components,
    iterated_conchoid,
    parse_poly,
    recenter,
    recognize_complete,
    recognize_proper,
    witness_components,
)
from conchoidal.errors import ConchoidError
from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational
from conchoidal.gcd import is_squarefree
from conchoidal.multipoly import poly_exact_div
from conchoidal.roots import square_root_up_to_scalar
from conchoidal.splitting import ST, SplitWitness, cyclic_line, distance_form

from double_component_oracle import double_component_oracle
from helpers import random_form
from recognize_oracle import _verified_complete_candidate, _verified_proper_candidate

UNIT = CircleSpec((Fraction(0), Fraction(0)), Fraction(1))
INTRO_QUARTIC = PlaneCurve.from_text(
    "4*y^2*z^2 + x^4 + x^2*y^2 - 4*x^3*z - 4*x*y^2*z + 3*x^2*z^2")
Q2 = PlaneCurve.from_text("x^4+(y^2-2*y*z-4*z^2)*x^2-2*y^3*z-3*y^2*z^2")


def conchoid_about(A, r2, source: PlaneCurve) -> PlaneCurve:
    """The complete conchoid of ``source`` (given relative to A) with
    respect to the circle of squared radius r2 about A."""
    T = conchoidal_transform(CircleSpec((Fraction(0), Fraction(0)), r2).curve(), source)
    return recenter(T, (-A[0], -A[1]))


# Every complete-mode input of this module, built on demand.
COMPLETE_INPUTS = {
    "intro-quartic": lambda: INTRO_QUARTIC,
    "wrong-degree": lambda: PlaneCurve.from_text("x^2+y^2-z^2"),
    "no-multiple-point": lambda: PlaneCurve.from_text(
        "4*y^2*z^2 + x^4 + x^2*y^2 - 4*x^3*z - 4*x*y^2*z + 3*x^2*z^2 + z^4"),
    "bad-infinity": lambda: PlaneCurve.from_text("x^4+y^4-z^4"),
    "generic-conic": lambda: conchoidal_transform(
        UNIT.curve(), PlaneCurve.from_text("1/4*x^2+1/9*y^2-z^2")),
    "off-origin-line": lambda: conchoid_about(
        (1, -2), Fraction(1), PlaneCurve.from_text("x-3*z")),
    "double-component-conic": lambda: conchoid_about(
        (2, 0), Fraction(1), PlaneCurve.from_text("x^2-1/9*x*y-5/12*y^2-1/3*y*z")),
    "gaussian-center": lambda: conchoid_about(
        (0, GaussianRational(0, 1)), Fraction(4), PlaneCurve.from_text("x-3*z")),
}


def test_circle_spec_curve():
    c = CircleSpec((Fraction(1), Fraction(0)), Fraction(4)).curve()
    assert c.equation == parse_poly("(x-z)^2+y^2-4*z^2").monic()
    with pytest.raises(ValueError):
        CircleSpec((Fraction(0), Fraction(0)), Fraction(0))


def test_iterated_n1_is_plain_transform():
    C = PlaneCurve.from_text("x-3*z")
    div = iterated_conchoid(UNIT, C, 1)
    T = conchoidal_transform(UNIT.curve(), C)
    assert div.reconstruct() == T.equation
    assert div.residual() is not None


def test_iterated_second_conchoid_line():
    C = PlaneCurve.from_text("x-3*z")
    div = iterated_conchoid(UNIT, C, 2)
    assert div.total_degree() == 16
    assert div.multiplicity("base") == 2
    assert div.multiplicity("lineblock") == 3     # the pair L1 + L2, thrice each
    assert div.multiplicity("input") == 2
    residual = div.residual()
    twice = CircleSpec((Fraction(0), Fraction(0)), Fraction(4)).curve()
    assert residual.proportional_to(conchoidal_transform(twice, C).equation)


def test_iterated_requires_origin_center():
    with pytest.raises(ValueError):
        iterated_conchoid(CircleSpec((Fraction(1), Fraction(0)), Fraction(1)),
                          PlaneCurve.from_text("x-3*z"), 2)


def test_candidate_radii_intro_quartic():
    # probe y = 0 meets the quartic at x = 0, 1, 3: the pair (1,0),(3,0) at
    # distance 2 contributes s/4 = 1
    radii, notes = candidate_radii(INTRO_QUARTIC, (Fraction(0), Fraction(0)))
    assert Fraction(1) in radii
    assert notes == []
    d = INTRO_QUARTIC.equation.partial_eval({"y": Fraction(0), "z": Fraction(1)})
    assert d.proportional_to(parse_poly("x^4-4*x^3+3*x^2").with_vars(("x", "y")))


def test_candidate_radii_circle_probe():
    circle2 = PlaneCurve.from_text("x^2+y^2-4*z^2")
    radii, _ = candidate_radii(circle2, (Fraction(0), Fraction(0)))
    # points (0, +-2): s = 16 gives {4, 16}
    assert Fraction(4) in radii and Fraction(16) in radii


def test_candidate_radii_no_rational_hits():
    # the axis probes meet x^2 + y^2 = 3 z^2 only at irrational points, so
    # no candidates can be emitted
    curve = PlaneCurve.from_text("x^2+y^2-3*z^2")
    radii, _ = candidate_radii(curve, (Fraction(0), Fraction(0)))
    assert radii == []


def test_candidate_radii_probe_contained():
    degenerate = PlaneCurve.from_text("x*y")    # contains both default probes
    radii, notes = candidate_radii(degenerate, (Fraction(0), Fraction(0)))
    assert any("contained" in n for n in notes)


def test_recognize_complete_roundtrip():
    rep = recognize_complete(INTRO_QUARTIC)
    assert rep.verdict == "yes"
    cand = rep.candidates[0]
    assert cand.center == (Fraction(0), Fraction(0))
    assert cand.r2 == Fraction(1)
    assert PlaneCurve(cand.witness).equation == parse_poly("x-2*z")


def test_recognize_complete_wrong_degree():
    rep = recognize_complete(COMPLETE_INPUTS["wrong-degree"]())
    assert rep.verdict == "no"
    assert rep.checks[-1].name == "degree-multiple-of-4"
    assert not rep.checks[-1].passed


def test_recognize_complete_no_multiple_point():
    # same infinity behaviour as the limacon but smooth in the affine plane
    rep = recognize_complete(COMPLETE_INPUTS["no-multiple-point"]())
    assert rep.verdict == "no"
    failing = [c for c in rep.checks if not c.passed]
    assert failing and failing[0].name == "high-multiplicity-point"


def test_recognize_complete_bad_infinity():
    rep = recognize_complete(COMPLETE_INPUTS["bad-infinity"]())
    assert rep.verdict == "no"
    failing = [c for c in rep.checks if not c.passed]
    assert failing[0].name == "infinity-splits"


def test_recognize_proper_quartic_component():
    rep = recognize_proper(Q2)
    assert rep.verdict == "yes"
    assert rep.candidates[0].center == (Fraction(0), Fraction(0))


def test_recognize_proper_trivial_and_inconclusive():
    rep = recognize_proper(PlaneCurve.from_text("x-2*z"))
    assert rep.verdict == "no"
    conic = PlaneCurve.from_text("x^2+2*y^2-3*z^2")
    rep2 = recognize_proper(conic)
    # tangency offsets are irrational: never a definitive no
    assert rep2.verdict == "inconclusive"


def test_report_json_schema():
    rep = recognize_complete(INTRO_QUARTIC)
    data = json.loads(rep.to_json())
    assert set(data) == {"verdict", "checks", "candidates"}
    for check in data["checks"]:
        assert set(check) == {"name", "passed", "detail"}
    for cand in data["candidates"]:
        assert set(cand) == {"center", "r2", "witness"}
        assert cand["center"] == ["0", "0"]
        assert cand["r2"] == "1"
        assert cand["witness"] == "x - 2*z"


def test_recognize_complete_generic_conic_roundtrip():
    conic = PlaneCurve.from_text("1/4*x^2+1/9*y^2-z^2")
    rep = recognize_complete(COMPLETE_INPUTS["generic-conic"]())
    assert rep.verdict == "yes"
    cand = rep.candidates[0]
    assert cand.center == (Fraction(0), Fraction(0))
    assert cand.r2 == Fraction(1)
    assert PlaneCurve(cand.witness).equation == conic.equation


def test_recognize_complete_off_origin_center():
    # classical conchoid about A = (1,-2): the origin-frame picture
    # translated out to A
    line0 = PlaneCurve.from_text("x-3*z")
    A = (Fraction(1), Fraction(-2))
    rep = recognize_complete(COMPLETE_INPUTS["off-origin-line"]())
    assert rep.verdict == "yes"
    cand = rep.candidates[0]
    assert cand.center == A and cand.r2 == Fraction(1)
    assert PlaneCurve(cand.witness).equation == recenter(line0, (-A[0], -A[1])).equation


def test_recognize_complete_conic_with_double_component():
    # the complete conchoid of this conic once took minutes, nearly all of
    # it in the gcds that look for the double component
    conic = PlaneCurve.from_text("x^2-1/9*x*y-5/12*y^2-1/3*y*z")
    rep = recognize_complete(COMPLETE_INPUTS["double-component-conic"]())
    assert rep.verdict == "yes"
    cand = rep.candidates[0]
    assert cand.center == (Fraction(2), Fraction(0)) and cand.r2 == Fraction(1)
    assert PlaneCurve(cand.witness).equation == recenter(conic, (Fraction(-2), Fraction(0))).equation


def _form(rng, degree, vars, field):
    """A random form over the field, embedded in (x, y, z)."""
    f = random_form(rng, degree, vars)
    if field == FIELD_QI:
        f = f + random_form(rng, degree, vars) * GaussianRational(0, 1)
    return f.with_vars(("x", "y", "z"))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([FIELD_Q, FIELD_QI]),
       st.sampled_from([2, 3]), st.sampled_from([None, ("y", "z"), ("x", "z")]))
def test_double_component_agrees_with_the_oracle(seed, field, power, spoiler):
    # C^2 K and C^3 K, times a simple factor free of x or of y (which the
    # oracle's one-partial gcd picks up), none of them divisible by z
    rng = random.Random(seed)
    resid = _form(rng, rng.randint(1, 2), ("x", "y", "z"), field) ** power
    resid = resid * _form(rng, rng.randint(1, 3), ("x", "y", "z"), field)
    if spoiler:
        resid = resid * _form(rng, rng.randint(1, 2), spoiler, field)
    z = MultiPoly.variable("z", ("x", "y", "z"), field)
    assume(poly_exact_div(resid, z) is None)
    assert recognize._double_component(resid) == double_component_oracle(resid)


def test_recognize_proper_off_origin_center():
    A = (Fraction(-2), Fraction(1))
    D = recenter(Q2, (-A[0], -A[1]))
    rep = recognize_proper(D)
    assert rep.verdict == "yes"
    assert rep.candidates[0].center == A


def test_iterated_second_conchoid_conic():
    # degree-32 pattern with delta = 2: circle 2*delta, line block 3*delta,
    # input twice, residual the doubled-radius conchoid
    C = PlaneCurve.from_text("x^2+2*y^2-9*z^2")
    div = iterated_conchoid(UNIT, C, 2)
    assert div.total_degree() == 32
    assert div.multiplicity("base") == 4
    assert div.multiplicity("lineblock") == 6
    assert div.multiplicity("input") == 2
    twice = CircleSpec((Fraction(0), Fraction(0)), Fraction(4)).curve()
    assert div.residual().proportional_to(conchoidal_transform(twice, C).equation)


def test_recognize_proper_circle_is_a_genuine_yes():
    # the radius-2 circle is the outer component of the proper conchoid of
    # the concentric unit circle, so the pipeline verifies a witness
    rep = recognize_proper(PlaneCurve.from_text("x^2+y^2-4*z^2"))
    assert rep.verdict == "yes"
    assert PlaneCurve(rep.candidates[0].witness).equation == \
        PlaneCurve.from_text("x^2+y^2-z^2").equation


def test_recognize_complete_gaussian_center_is_not_a_certified_no():
    # the conchoid of a line moved to the center (0, i): the 2-fold point
    # has a non-rational y-coordinate, so the search cannot certify "no"
    assert recognize_complete(COMPLETE_INPUTS["gaussian-center"]()).verdict == "inconclusive"


# -- the line filter on the radius candidates --------------------------------------

# circle_case seed 3, line0.complete in perfbench: the conchoid of x + 2y = 1
# (relative to the center) with r2 = 1 about (-1, -3); the axis probes give
# three wrong radii below the true one
SEEDED_LINE = conchoid_about((-1, -3), Fraction(1), PlaneCurve.from_text("x+2*y-z"))


def _counted_transforms(monkeypatch):
    calls = []
    transform = recognize.conchoidal_transform

    def counted(B, C):
        calls.append(1)
        return transform(B, C)

    monkeypatch.setattr(recognize, "conchoidal_transform", counted)
    return calls


def _open_filter(monkeypatch):
    monkeypatch.setattr(recognize, "_line_radius_filter", lambda D, A, delta: lambda r2: True)


@pytest.mark.parametrize("name", sorted(COMPLETE_INPUTS))
def test_line_filter_changes_no_report(monkeypatch, name):
    D = COMPLETE_INPUTS[name]()
    filtered = recognize_complete(D).to_json()
    _open_filter(monkeypatch)
    assert recognize_complete(D).to_json() == filtered


@pytest.mark.parametrize("D, before, after", [(INTRO_QUARTIC, 3, 2), (SEEDED_LINE, 5, 2)])
def test_line_filter_skips_the_wrong_radii(monkeypatch, D, before, after):
    calls = _counted_transforms(monkeypatch)
    filtered = recognize_complete(D).to_json()
    assert len(calls) == after
    calls.clear()
    _open_filter(monkeypatch)
    assert recognize_complete(D).to_json() == filtered
    assert len(calls) == before


def _source_curve(data, delta: int, shape: str) -> PlaneCurve:
    """A curve of degree delta (relative to the center): generic, through the
    center, or with the filter's direction (3, 4) as an asymptotic one."""
    coef = st.integers(-4, 4)
    x, y, z = (MultiPoly.variable(v, ("x", "y", "z")) for v in ("x", "y", "z"))
    if shape == "asymptotic":
        top = (4 * x - 3 * y) * (data.draw(coef) * x + data.draw(coef) * y) ** (delta - 1)
    else:
        top = sum((data.draw(coef) * x ** i * y ** (delta - i) for i in range(delta + 1)),
                  MultiPoly.zero(("x", "y", "z")))
    assume(not top.is_zero())
    lower = [(i, j) for i in range(delta) for j in range(delta - i)]
    if shape == "through-center":
        lower.remove((0, 0))
    rest = sum((data.draw(coef) * x ** i * y ** j * z ** (delta - i - j) for i, j in lower),
               MultiPoly.zero(("x", "y", "z")))
    return PlaneCurve(top + rest)


@pytest.mark.parametrize("shape", ("generic", "through-center", "asymptotic"))
@pytest.mark.parametrize("delta", (1, 2))
@settings(max_examples=12, deadline=None)
@given(data=st.data(), a=st.integers(-3, 3), b=st.integers(-3, 3),
       r2=st.sampled_from((Fraction(1), Fraction(4, 9), Fraction(9, 4), Fraction(2), Fraction(3, 5))))
def test_line_filter_admits_the_generating_radius(delta, shape, data, a, b, r2):
    source = _source_curve(data, delta, shape)
    D = conchoid_about((a, b), r2, source)
    assert recognize._line_radius_filter(D, (Fraction(a), Fraction(b)), delta)(r2)


# -- the one forward verifier, and the premise of proper mode's even-degree "no" ------

RADII = (Fraction(1), Fraction(4), Fraction(9, 4))


def proper_conchoid_about(A, r2, source: PlaneCurve) -> PlaneCurve:
    """The proper part of ``conchoid_about(A, r2, source)``."""
    circle = CircleSpec((Fraction(0), Fraction(0)), r2).curve()
    resid = extract_known_components(conchoidal_transform(circle, source),
                                     Scene(circle), source).residual()
    assume(resid is not None)
    return recenter(PlaneCurve(resid), (-A[0], -A[1]))


@pytest.mark.parametrize("proper", (False, True))
@pytest.mark.parametrize("whole", (False, True))
@pytest.mark.parametrize("shape", ("generic", "through-center"))
@settings(max_examples=3, deadline=None)
@given(data=st.data(), delta=st.sampled_from((1, 2)), a=st.integers(-2, 2), b=st.integers(-2, 2),
       r2=st.sampled_from(RADII), wrong=st.sampled_from(RADII))
def test_verified_candidate_agrees_with_the_oracle(proper, whole, shape, data, delta, a, b, r2, wrong):
    # both modes on complete and on proper conchoids; a source through the
    # center puts the circle into the complete conchoid but not the proper
    # one, so there the two acceptance tests differ
    assume(wrong != r2)
    source = _source_curve(data, delta, shape)
    D = (conchoid_about if whole else proper_conchoid_about)((a, b), r2, source)
    A = (Fraction(a), Fraction(b))
    oracle = _verified_proper_candidate if proper else _verified_complete_candidate
    for radius in (r2, wrong):
        assert recognize._verified_candidate(D, A, radius, proper) == oracle(D, A, radius)


def _square_on_l1(D: PlaneCurve, a, b) -> bool:
    """D restricts to a nonzero square up to scalar on the line through
    (a, b) and the cyclic point [1 : i : 0]."""
    line = cyclic_line(GaussianRational(a, b), 1)
    restricted = D.equation.promote(FIELD_QI).substitute(line).with_vars(ST)
    return not restricted.is_zero() and square_root_up_to_scalar(restricted) is not None


@pytest.mark.parametrize("delta", (1, 2, 3))
@settings(max_examples=10, deadline=None)
@given(data=st.data(), a=st.integers(-2, 2), b=st.integers(-2, 2), r2=st.sampled_from(RADII))
def test_whole_proper_conchoids_are_squares_on_the_cyclic_line(delta, data, a, b, r2):
    # the premise under recognize_proper's even-degree "no" (see
    # _tangent_cyclic_lines), for a whole proper conchoid about (a, b)
    D = proper_conchoid_about((a, b), r2, _source_curve(data, delta, "generic"))
    assert _square_on_l1(D, a, b)


@pytest.mark.parametrize("delta", (2, 4))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6), a=st.integers(-2, 2), b=st.integers(-2, 2),
       r2=st.sampled_from(RADII))
def test_split_components_are_squares_on_the_cyclic_line(delta, seed, a, b, r2):
    # the same premise for each component of the split proper conchoid of
    # C = H1^2 - q H2^2 about A = (a, b)
    rng = random.Random(seed)
    A = (Fraction(a), Fraction(b))
    H1, H2 = (random_form(rng, m).promote(FIELD_QI) for m in (delta // 2, delta // 2 - 1))
    G = H1 * H1 - distance_form(A) * H2 * H2
    try:
        C = PlaneCurve(G)
    except (ConchoidError, ValueError):
        assume(False)
    assume(C.degree == delta and is_squarefree(C.equation))
    for comp in witness_components(C, A, r2, SplitWitness("even", H1, H2, 1)):
        # the cyclic line pair through A, which the witness keeps when C is
        # the circle of radius r about A, is removed from every proper conchoid
        if not comp.equation.proportional_to(distance_form(A)):
            assert _square_on_l1(comp, a, b), (G, A, r2)

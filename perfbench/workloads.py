"""Seeded job lists for the three benchmark workloads, with the
known-answer and oracle checks for every job.

A job's ``run`` is the timed part.  It calls the library through module
attributes (``transform.conchoidal_transform``), never through names bound
at import, so the tracer's wrappers see every call.  ``check`` and
``canon`` run after timing, with the tracer removed.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

import conchoidal.cli as cli
import conchoidal.curves as curves
import conchoidal.gcd as gcd
import conchoidal.grammar as grammar
import conchoidal.multipoly as multipoly
import conchoidal.recognize as recognize
import conchoidal.transform as transform
from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational

VARS = ("x", "y", "z")

# (deg B, deg C) rungs and distinct pairs per rung in one pass.
LADDERS = {
    "generic_q": ((2, 3), (3, 3), (4, 4), (5, 5)),
    "generic_qi": ((2, 2), (2, 3), (3, 3)),
}
PAIRS_PER_RUNG = {"generic_q": 1, "generic_qi": 1}
MEMBERSHIP_POINTS = 4

# Seeded circle-case questions in one pass.
LINE_RANKS = (3,)        # wrong radii below the true one; each line asked in both modes
CONIC_QUESTIONS = 2     # proper mode

WORKLOADS = ("generic_q", "generic_qi", "circle_case")


@dataclass
class Job:
    name: str
    key: str                               # canonical input; keys reference outputs
    run: Callable[[], Any]                 # the timed call
    check: Callable[[Any], Optional[str]]  # failure message, or None
    canon: Callable[[Any], str]            # canonical output text
    size: Optional[str] = None             # "<d>x<delta>" for ladder jobs


def build(workload: str, seed: int) -> List[Job]:
    if workload in LADDERS:
        return _generic_jobs(workload, seed)
    if workload == "circle_case":
        return _circle_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# -- generic pairs ----------------------------------------------------------------


def _monomials(degree: int):
    out = []
    for combo in combinations_with_replacement(range(3), degree):
        exp = [0, 0, 0]
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return out


def _coeff(rng: random.Random, field: str):
    re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3))
    if field == FIELD_Q:
        return re
    return GaussianRational(re, Fraction(rng.randint(-6, 6), rng.randint(1, 3)))


def _dense_curve(rng: random.Random, degree: int, field: str) -> curves.PlaneCurve:
    """Every monomial of the degree has a nonzero coefficient, so the curve
    misses A = [0:0:1] and is not divisible by z."""
    terms = {m: _coeff(rng, field) for m in _monomials(degree)}
    return curves.PlaneCurve(multipoly.MultiPoly.make(VARS, field, terms))


def generic_pair(rng: random.Random, d: int, delta: int, field: str):
    """B avoids A with a squarefree top form; C avoids A and B's points at
    infinity (the paper's generic-position hypotheses)."""
    while True:
        B = _dense_curve(rng, d, field)
        top = B.top_form()
        if top.total_degree() < 2 or gcd.is_squarefree(top):
            break
    while True:
        C = _dense_curve(rng, delta, field)
        if gcd.poly_gcd(C.top_form(), B.top_form()).is_constant():
            return B, C


@dataclass
class GenericResult:
    T: curves.PlaneCurve
    divisor: curves.Divisor
    phases: dict            # seconds in "transform_s" and "decompose_s"


def generic_job(name: str, B, C, points) -> Job:
    def run():
        t0 = perf_counter()
        T = transform.conchoidal_transform(B, C)
        t1 = perf_counter()
        div = transform.extract_known_components(T, curves.Scene(B), C)
        return GenericResult(T, div, {"transform_s": t1 - t0,
                                      "decompose_s": perf_counter() - t1})

    key = (f"generic|{B.field}|B={grammar.poly_to_text(B.equation)}"
           f"|C={grammar.poly_to_text(C.equation)}")
    return Job(name, key, run,
               lambda r: check_generic(B, C, points, r.T, r.divisor),
               lambda r: grammar.poly_to_text(r.T.equation) + "\n" + r.divisor.to_json(),
               f"{B.degree}x{C.degree}")


def check_generic(B, C, points, T, divisor) -> Optional[str]:
    """Degree 2*d*delta, exact divisor reconstruction, and agreement with
    the membership oracle: T(Q) / oracle(Q) is one constant over the
    sample points, and T(Q) = 0 exactly when the oracle vanishes."""
    want = 2 * B.degree * C.degree
    if T.degree != want:
        return f"degree {T.degree}, expected {want}"
    if divisor.reconstruct() != T.equation:
        return "divisor does not reconstruct T"
    ratio = None
    for a, b in points:
        member = transform.membership_value(B, C, curves.ProjPoint.affine(a, b))
        if member.degenerate:
            continue
        t = T.equation.evaluate({"x": a, "y": b, "z": Fraction(1)})
        if not member.value or not t:
            if bool(member.value) != bool(t):
                return f"membership oracle disagrees with T at ({a}, {b})"
            continue
        r = t / member.value
        if ratio is None:
            ratio = r
        elif r != ratio:
            return f"T / membership oracle is not constant at ({a}, {b})"
    if ratio is None:
        return "no usable membership sample point"
    return None


def _generic_jobs(workload: str, seed: int) -> List[Job]:
    field = FIELD_QI if workload == "generic_qi" else FIELD_Q
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for d, delta in LADDERS[workload]:
        for k in range(PAIRS_PER_RUNG[workload]):
            B, C = generic_pair(rng, d, delta, field)
            points = [(Fraction(rng.randint(-40, 40), rng.randint(1, 7)),
                       Fraction(rng.randint(-40, 40), rng.randint(1, 7)))
                      for _ in range(MEMBERSHIP_POINTS)]
            jobs.append(generic_job(f"{workload}.{d}x{delta}.{k}", B, C, points))
    return jobs


# -- circle-case questions through the CLI --------------------------------------------

README_QUARTIC = "4*y^2*z^2+x^4+x^2*y^2-4*x^3*z-4*x*y^2*z+3*x^2*z^2"


def run_cli(argv: List[str]) -> Tuple[int, str]:
    """``conchoid <argv>`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:    # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _expect(code: int, *needles: str, prefix: str = ""):
    """Check exit code, stdout substrings and optional stdout prefix."""
    def check(result) -> Optional[str]:
        got, text = result
        if got != code:
            return f"exit {got}, expected {code}"
        if not text.startswith(prefix):
            return f"output does not start with {prefix!r}"
        for needle in needles:
            if needle not in text:
                return f"output lacks {needle!r}"
        return None
    return check


def _same_poly(code: int, label: str, expected: str):
    def check(result) -> Optional[str]:
        got, text = result
        if got != code:
            return f"exit {got}, expected {code}"
        line = next((ln for ln in text.splitlines() if ln.startswith(label)), None)
        if line is None:
            return f"no {label!r} line"
        body = line[len(label):].split("=")[0].strip()
        if not grammar.parse_poly(body).proportional_to(grammar.parse_poly(expected)):
            return f"{label} {body} is not {expected}"
        return None
    return check


def _divisor_json(code: int, expected_eq: str, mults: dict):
    """JSON divisor output: reconstructs the expected equation and carries
    the expected multiplicity per label."""
    def check(result) -> Optional[str]:
        got, text = result
        if got != code:
            return f"exit {got}, expected {code}"
        data = json.loads(text)
        div = curves.Divisor.from_json(json.dumps(data.get("divisor", data)))
        if expected_eq and not div.reconstruct().proportional_to(grammar.parse_poly(expected_eq)):
            return "divisor does not reconstruct the expected equation"
        for label, mult in mults.items():
            if div.multiplicity(label) != mult:
                return f"{label} multiplicity {div.multiplicity(label)}, expected {mult}"
        return None
    return check


def _all_pass(result) -> Optional[str]:
    code, text = result
    lines = text.splitlines()
    if code != 0 or not lines or not all(ln.startswith("[PASS]") for ln in lines):
        return f"verify exit {code}: {text.strip()!r}"
    return None


# The README command list (plot with --window=..., see NOTES.md), then the
# three-fold iterated conchoid of an ellipse.  Known answers are the
# README's and the paper's.
FIXED_QUESTIONS = [
    ("readme.transform", ["transform", "--B", "x^2+y^2-z^2", "--C", "x-2*z"],
     _same_poly(0, "conchoid:", README_QUARTIC)),
    ("readme.transform_proper",
     ["transform", "--B", "x^2+y^2-z^2", "--C", "x", "--proper", "--json"],
     _divisor_json(0, "x^4+x^2*y^2-x^2*z^2", {"base": 1})),
    ("readme.split", ["split", "--C", "(y+z)^2-(x^2+y^2)", "--components"],
     _expect(0, "components: ", prefix="verdict: split")),
    ("readme.focus", ["focus", "--C", "1/25*x^2+1/9*y^2-z^2", "--center", "4,0"],
     _expect(0, prefix="focus: yes")),
    ("readme.iterate", ["iterate", "--C", "x-3*z", "--n", "2", "--json"],
     _divisor_json(0, "", {"base": 2, "lineblock": 3})),
    ("readme.recognize", ["recognize", "--D", README_QUARTIC],
     _expect(0, "center (0, 0), r2 = 1", prefix="verdict: yes")),
    ("readme.recognize_proper", ["recognize", "--D", README_QUARTIC, "--mode", "proper"],
     _expect(0, prefix="verdict: yes")),
    ("readme.genus", ["genus", "--d", "2", "--delta", "1"],
     _expect(0, prefix="degree 4, genus 0")),
    ("readme.eliminate", ["eliminate", "--B", "x^2+y^2-z^2", "--C", "x"],
     _same_poly(0, "eliminated:", "x^3+x*y^2-x")),
    ("readme.radii", ["radii", "--D", README_QUARTIC, "--center", "0,0", "--probe", "x-y"],
     _expect(0, " 1,", prefix="candidates: ")),
    ("readme.plot", ["plot", "--C", "x^2+y^2-z^2", "--window=-2,2,-2,2", "--grid", "64"],
     _expect(0, "</svg>", prefix="<?xml")),
    ("readme.verify", ["verify", "--B", "x^2+y^2-z^2", "--C", "x-2*z"], _all_pass),
    ("iterate_ellipse_3", ["iterate", "--C", "x^2+2*y^2-9*z^2", "--n", "3"],
     _divisor_json(0, "", {"base": 4, "lineblock": 4})),
]


def cli_job(name: str, argv: List[str], check) -> Job:
    return Job(name, "cli|" + "\x1f".join(argv), lambda: run_cli(argv), check,
               lambda r: f"exit {r[0]}\n{r[1]}")


def recognition_check(center: Tuple[int, int]):
    """A generated conchoid is never answered "no"; a "yes" must recover
    the generating center."""
    def check(result) -> Optional[str]:
        code, text = result
        report = json.loads(text)
        verdict = report["verdict"]
        if verdict == "no" or code != {"yes": 0, "inconclusive": 3}.get(verdict):
            return f"verdict {verdict} with exit {code} on a generated conchoid"
        if verdict == "yes":
            got = [Fraction(c) for c in report["candidates"][0]["center"]]
            if got != [Fraction(center[0]), Fraction(center[1])]:
                return f"recovered center {got}, generated {center}"
        return None
    return check


def _radii_below(a: int, b: int, c: int, r: Fraction) -> int:
    """How many squared-radius candidates below r^2 the recognizers draw
    from the axis probes through the center, for the conchoid of the line
    a*x + b*y + c*z = 0 (center at the origin) with radius r.  A probe that
    meets the line at distance p from the center meets the conchoid at the
    center and at p - r and p + r; the candidates are s/4 and s for every
    squared distance s between those points."""
    candidates = set()
    for coef in (a, b):
        if coef:
            p = Fraction(-c, coef)
            for d in (p - r, p + r, 2 * r):
                if d:
                    candidates.update((d * d / 4, d * d))
    return sum(1 for s in candidates if s < r * r)


def line_question(rng: random.Random, rank: int):
    """An oblique line missing the origin, and a square rational squared
    radius with exactly ``rank`` smaller candidates, so that every seed asks
    the recognizers to reject the same number of wrong radii.  Lines
    parallel to an axis are recognized about 2.5x faster in complete mode
    than oblique ones; allowing both made the seeds' work differ by that
    much."""
    while True:
        a, b = rng.choice((-1, 1)) * rng.randint(1, 3), rng.choice((-1, 1)) * rng.randint(1, 3)
        c = rng.choice((-1, 1)) * rng.randint(1, 4)
        r = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        if _radii_below(a, b, c, r) == rank:
            terms = {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}
            return curves.PlaneCurve(multipoly.MultiPoly.make(VARS, FIELD_Q, terms)), r * r


def _rational_root_free(a: int, b: int, c: int) -> bool:
    """a t^2 + b t + c (a != 0) has no rational root."""
    disc = b * b - 4 * a * c
    return disc < 0 or isqrt(disc) ** 2 != disc


def _conic_avoiding_origin(rng: random.Random) -> curves.PlaneCurve:
    """A smooth conic missing the origin whose intersections with both axes
    are irrational.  The recognizer's radius candidates come from rational
    points on the axis probes through the center, so these questions stop
    at "radius-candidates"; conics with rational axis points send it
    through about 15 forward verifications that run for more than 8 s
    (see NOTES.md)."""
    while True:
        c = {m: rng.choice((-1, 1)) * rng.randint(1, 5) for m in _monomials(2)}
        if not (_rational_root_free(c[2, 0, 0], c[1, 0, 1], c[0, 0, 2])
                and _rational_root_free(c[0, 2, 0], c[0, 1, 1], c[0, 0, 2])):
            continue
        C = curves.PlaneCurve(multipoly.MultiPoly.make(VARS, FIELD_Q, c))
        if gcd.is_squarefree(C.equation) and gcd.is_squarefree(C.top_form()):
            return C


def conchoid_question(rng: random.Random, source: curves.PlaneCurve, r2: Fraction,
                      proper: bool):
    """(equation text, center): the complete or proper conchoid of
    ``source`` (given relative to the center) with respect to the circle of
    squared radius r2 around a random integer center."""
    center = (rng.randint(-3, 3), rng.randint(-3, 3))
    base = recognize.CircleSpec((Fraction(0), Fraction(0)), r2).curve()
    D = transform.conchoidal_transform(base, source)
    if proper:
        resid = transform.extract_known_components(D, curves.Scene(base), source).residual()
        D = curves.PlaneCurve(resid)
    D = curves.recenter(D, (-center[0], -center[1]))
    return grammar.poly_to_text(D.equation).replace(" ", ""), center


def _circle_jobs(seed: int) -> List[Job]:
    jobs = [cli_job(name, argv, check) for name, argv, check in FIXED_QUESTIONS]
    rng = random.Random(f"circle_case:{seed}")
    asked = []
    for k, rank in enumerate(LINE_RANKS):
        line, r2 = line_question(rng, rank)
        asked.append((f"line{k}.complete", conchoid_question(rng, line, r2, False), "complete"))
        asked.append((f"line{k}.proper", conchoid_question(rng, line, r2, True), "proper"))
    for k in range(CONIC_QUESTIONS):
        conic = _conic_avoiding_origin(rng)
        r2 = Fraction(rng.randint(1, 4), rng.randint(1, 3)) ** 2
        asked.append((f"conic{k}.proper", conchoid_question(rng, conic, r2, True), "proper"))
    for name, (text, center), mode in asked:
        argv = ["recognize", "--D", text, "--mode", mode, "--json"]
        jobs.append(cli_job(f"recognize.{name}", argv, recognition_check(center)))
    return jobs

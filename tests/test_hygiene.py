"""Source checks: no handler in the package may swallow arbitrary errors,
so a bug surfaces as a traceback instead of turning into a verdict; and
the package has one polynomial determinant, one gcd and one exact
division."""

import re
from pathlib import Path

import conchoidal
from conchoidal import PlaneCurve, ProjPoint, membership_value, resultant
from conchoidal.errors import InternalError

BROAD = re.compile(r"except\s*:|except\b[^:\n]*\bException\b")
BAREISS_CALL = re.compile(r"(?<!def )\bdet_bareiss_poly\(")
PRS_ORACLE = re.compile(r"\bgcd_oracle\b|\bprs_gcd\b|\b_pseudo_rem\b|\bsubresultant\b", re.I)
DIVISION_ORACLE = re.compile(r"\bdivision_oracle\b|\bgrlex_exact_div\b")


def _source_hits(pattern):
    hits = []
    for path in sorted(Path(conchoidal.__file__).parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                hits.append(f"{path.name}:{lineno}: {line.strip()}")
    return hits


def test_no_broad_exception_handlers():
    hits = _source_hits(BROAD)
    assert not hits, "broad exception handlers:\n" + "\n".join(hits)


def test_no_library_call_to_the_bareiss_oracle():
    # poly_matrix_det is the only polynomial determinant; det_bareiss_poly
    # stays as the tests' independent oracle
    hits = _source_hits(BAREISS_CALL)
    assert not hits, "calls to det_bareiss_poly:\n" + "\n".join(hits)


def test_no_library_use_of_the_prs_oracle():
    # the modular gcd is the only gcd; the subresultant PRS lives in
    # tests/gcd_oracle.py as the independent oracle
    hits = _source_hits(PRS_ORACLE)
    assert not hits, "uses of the PRS gcd:\n" + "\n".join(hits)


def test_no_library_use_of_the_division_oracle():
    # poly_exact_div is the only exact division; the whole-remainder
    # grlex reduction lives in tests/division_oracle.py as the oracle
    hits = _source_hits(DIVISION_ORACLE)
    assert not hits, "uses of the grlex division oracle:\n" + "\n".join(hits)


def test_membership_oracle_stays_on_bareiss(monkeypatch):
    # the transform samples hybrid Bezout determinants; the membership
    # oracle takes the whole Sylvester matrix, so it stays independent
    def banned(*args):
        raise InternalError("the membership oracle used the hybrid Bezout matrix")

    monkeypatch.setattr(resultant, "_hybrid_bezout", banned)
    B = PlaneCurve.from_text("x^2+y^2-z^2")
    C = PlaneCurve.from_text("x-2*z")
    assert membership_value(B, C, ProjPoint.affine(3, 0)).value == 0
    assert membership_value(B, C, ProjPoint.affine(0, 5)).value != 0
    # res(1 + u^2, -2 + u + 3u^3) = g(i) g(-i) = (-2 - 2i)(-2 + 2i)
    assert resultant.resultant_nominal([1, 0, 1], [-2, 1, 0, 3]) == 8

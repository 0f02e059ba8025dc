"""Source checks: no handler in the package may swallow arbitrary errors,
so a bug surfaces as a traceback instead of turning into a verdict; and
the package has one polynomial determinant."""

import re
from pathlib import Path

import conchoidal

BROAD = re.compile(r"except\s*:|except\b[^:\n]*\bException\b")
BAREISS_CALL = re.compile(r"(?<!def )\bdet_bareiss_poly\(")


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

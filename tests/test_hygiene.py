"""Source checks: no handler in the package may swallow arbitrary errors,
so a bug surfaces as a traceback instead of turning into a verdict."""

import re
from pathlib import Path

import conchoidal

BROAD = re.compile(r"except\s*:|except\b[^:\n]*\bException\b")


def test_no_broad_exception_handlers():
    hits = []
    for path in sorted(Path(conchoidal.__file__).parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if BROAD.search(line):
                hits.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not hits, "broad exception handlers:\n" + "\n".join(hits)

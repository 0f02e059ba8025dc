"""Smoke test of the example scripts: each runs as its own program."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
LOGGED = re.compile(r"eps=(\d+) eta=(\d+): observed (\d+), proven (\d+), conjectured (\d+)")


def test_iterate_demo_runs():
    done = subprocess.run([sys.executable, str(SCRIPTS / "iterate_demo.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "second conchoid of x-3*z: total degree 16" in done.stdout
    logged = [tuple(map(int, m)) for m in LOGGED.findall(done.stdout)]
    assert len(logged) == 8
    # the observed multiplicity never falls below the proven bound
    assert all(observed >= proven for _, _, observed, proven, _ in logged)

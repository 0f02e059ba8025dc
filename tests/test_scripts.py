"""Smoke test of the example scripts: each runs as its own program."""

import hashlib
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


GALLERY = {   # the SVGs as the Fraction grid drew them
    "limacon.svg": "1118d4c01c348d3a930b44e6af8739233812595a35a88e3995048992bfb2874c",
    "nicomedes_r1.svg": "570cb34e4cdfbaf05409cb9251940839905f5f69e15a7d2b2e3e38523344c01e",
    "nicomedes_r2.svg": "5254a4ddd06b7c6d12bf6fad7cff33df8d8ae1ca15501f8e34344cd737ee6d5c",
    "nicomedes_r3.svg": "c83bbfa41459a4ed9e26619dbeeab5afb4fcd0620a8db971fb932c3f8d96be9b",
}


def test_render_gallery_is_unchanged(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPTS / "render_gallery.py")],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "gallery").iterdir()}
    assert written == GALLERY

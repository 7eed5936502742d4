"""The example outputs under scripts/expected, each from a fresh process.

``scripts/expected/GOLDENS`` has one row per compared output: the expected
file name, then the ``python`` arguments, separated by whitespace. CI reads
the same table in its "Example scripts" loop. Each case runs from the
repository root, as that loop does: flattening_soundness.py puts ``tests``
on its path from there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "scripts/expected"
ROWS = [line.split() for line in (EXPECTED / "GOLDENS").read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("golden,args", [(row[0], row[1:]) for row in ROWS], ids=[row[0] for row in ROWS])
def test_script_output_matches_its_golden(golden, args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["PYTHONIOENCODING"] = "utf-8"
    out = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, check=True)
    assert out.stdout.decode("utf-8") == (EXPECTED / golden).read_text(encoding="utf-8")


def test_every_golden_has_exactly_one_row():
    named = [row[0] for row in ROWS]
    files = sorted(p.name for p in EXPECTED.iterdir() if p.name != "GOLDENS")
    assert sorted(named) == files

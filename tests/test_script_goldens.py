"""The example outputs under scripts/expected, each from a fresh process.

Each case runs from the repository root, as the CI diffs do:
flattening_soundness.py puts ``tests`` on its path from there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CASES = [
    (["scripts/flattening_soundness.py"], "flattening_soundness.txt"),
    (["scripts/flattening_soundness.py", "--count", "300", "--show", "300"], "flattening_traces.txt"),
    (["scripts/check_corpus.py"], "check_corpus.txt"),
    (["scripts/check_corpus.py", "--shape", "rat.ssft"], "check_corpus_ssft.txt"),
    (["scripts/check_corpus.py", "--shape", "rat.rns"], "check_corpus_rns.txt"),
    (["-m", "fracterm.cli", "demo", "--json"], "demo.json"),
]


@pytest.mark.parametrize("args,golden", CASES, ids=[golden for _, golden in CASES])
def test_script_output_matches_its_golden(args, golden):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["PYTHONIOENCODING"] = "utf-8"
    out = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, check=True)
    assert out.stdout.decode("utf-8") == (ROOT / "scripts/expected" / golden).read_text(encoding="utf-8")

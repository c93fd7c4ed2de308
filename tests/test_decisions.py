"""tools/decisions.py repeats itself: two runs of one family print the
same count and sha256."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "decisions.py"


def _run(*families) -> str:
    proc = subprocess.run([sys.executable, str(TOOL), *families], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_family_prints_the_same_hash_twice():
    first = _run("heuristic")
    name, count, digest = first.split()
    assert (name, int(count), len(digest)) == ("heuristic", 128, 64)
    assert _run("heuristic") == first

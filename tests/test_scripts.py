"""End-to-end runs of the scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_progression_deviation_table_prints_each_class_once():
    # v = 2 has one coprime class, N = 1; the table must not print it again
    # under another representative such as N = 3
    script = ROOT / "scripts" / "progression_deviation_table.py"
    out = subprocess.run(
        [sys.executable, str(script), "--x", "10000", "--R", "10", "--v", "1,2,6"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    rows = [line.split() for line in out.splitlines()[2:]]
    classes = [(int(v), int(n) % int(v)) for v, n, *_ in rows]
    assert len(classes) == len(set(classes)), classes
    assert sorted(classes) == [(1, 0), (2, 0), (2, 1), (6, 0), (6, 1), (6, 5)]

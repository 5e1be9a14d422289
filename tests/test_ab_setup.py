"""Smoke test of ``tools/ab_setup.py``: this checkout against itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_setup.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_alternating_interpreters_report_medians_ratio_and_wins():
    done = run_tool(str(ROOT), "--runs", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3
    for line, side in zip(lines, ("base", "this")):
        assert re.fullmatch(rf"{side} {re.escape(str(ROOT))}: median \S+ s \(q1 \S+, q3 \S+, n=2\)", line)
    assert re.fullmatch(r"ratio this/base \d+\.\d{3}; this lower in [0-2] of 2 runs", lines[2])


def test_a_tree_without_bellclone_is_a_usage_error(tmp_path):
    done = run_tool(str(tmp_path), "--runs", "1")
    assert done.returncode == 2
    assert "no bellclone package" in done.stderr

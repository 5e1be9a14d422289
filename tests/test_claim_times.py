"""Smoke test of ``tools/claim_times.py``: this checkout against itself, and
against a copy that lacks one claim."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "claim_times.py"
CLAIM_IDS = [
    "two-state-cloning",
    "bxor-gate-certificate",
    "smolin-ppt",
    "teleport-choi",
    "preparation-circuits",
    "four-state-cloning",
    "quasi-pure-reversibility",
    "sigma-round-trip",
    "formula-suite",
    "linearity-witnesses",
]


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_each_claim_reports_medians_ratio_and_wins():
    done = run_tool(str(ROOT), "--runs", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4 * len(CLAIM_IDS)  # no PROBLEM line: every claim passed in both trees
    for i, cid in enumerate(CLAIM_IDS):
        head, base, this, ratio = lines[4 * i : 4 * i + 4]
        assert head == cid
        for line, side in ((base, "base"), (this, "this")):
            assert re.fullmatch(rf"  {side} {re.escape(str(ROOT))}: median \S+ s \(q1 \S+, q3 \S+, n=2\)", line)
        assert re.fullmatch(r"  ratio this/base \d+\.\d{3}; this lower in [0-2] of 2 runs", ratio)


def test_a_claim_missing_from_one_tree_is_a_problem(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    verify = tmp_path / "src" / "bellclone" / "verify.py"
    text = verify.read_text()
    assert text.count("    claim_formula_suite,\n") == 1
    verify.write_text(text.replace("    claim_formula_suite,\n", ""))
    done = run_tool(str(tmp_path), "--runs", "1")
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert "formula-suite" not in lines and len(lines) == 4 * (len(CLAIM_IDS) - 1) + 1
    assert lines[-1] == "PROBLEM base: no claim formula-suite"


def test_a_tree_without_bellclone_is_a_usage_error(tmp_path):
    done = run_tool(str(tmp_path), "--runs", "1")
    assert done.returncode == 2
    assert "no bellclone package" in done.stderr

"""Smoke test of ``tools/ab_setup.py``: this checkout against itself, the
bytecode check between trees, and the set-up import without scipy."""

import os
import re
import shutil
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
    assert len(lines) == 5
    for line, side in zip(lines, ("base", "this")):
        assert re.fullmatch(rf"{side} {re.escape(str(ROOT))}: (no )?cached bytecode in src/bellclone/__pycache__", line)
    assert lines[0].split(": ")[1] == lines[1].split(": ")[1]
    for line, side in zip(lines[2:], ("base", "this")):
        assert re.fullmatch(rf"{side} {re.escape(str(ROOT))}: median \S+ s \(q1 \S+, q3 \S+, n=2\)", line)
    assert re.fullmatch(r"ratio this/base \d+\.\d{3}; this lower in [0-2] of 2 runs", lines[4])


def test_a_tree_without_bellclone_is_a_usage_error(tmp_path):
    done = run_tool(str(tmp_path), "--runs", "1")
    assert done.returncode == 2
    assert "no bellclone package" in done.stderr


def test_trees_with_different_bytecode_states_are_not_timed(tmp_path, monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import ab_setup
    finally:
        sys.path.remove(str(ROOT / "tools"))
    trees = {}
    for name, compiled in (("plain", False), ("compiled", True)):
        package = tmp_path / name / "src" / "bellclone"
        shutil.copytree(ROOT / "src" / "bellclone", package, ignore=shutil.ignore_patterns("__pycache__"))
        if compiled:
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(package)], check=True)
        trees[name] = tmp_path / name
    assert [ab_setup.has_bytecode(tree) for tree in trees.values()] == [False, True]
    monkeypatch.setattr(ab_setup, "setup_seconds", lambda tree: 1 / 0)  # no interpreter may start
    for this, other in ((trees["plain"], trees["compiled"]), (trees["compiled"], trees["plain"])):
        monkeypatch.setattr(ab_setup, "ROOT", this)
        assert ab_setup.main([str(other), "--runs", "1"]) == 2
        captured = capsys.readouterr()
        assert "cached bytecode" in captured.out and "give both the same state" in captured.err


def test_set_up_imports_no_scipy():
    code = "import sys, bellclone, bellclone.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

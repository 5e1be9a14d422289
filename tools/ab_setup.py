#!/usr/bin/env python3
"""Time this checkout's set-up against another one's, in fresh interpreters.

    python3 tools/ab_setup.py OTHER_TREE --runs 40

``OTHER_TREE`` is the root of another bellclone checkout, the baseline
(for example a ``git archive`` of the parent commit unpacked into a
directory).  Each run is one fresh interpreter per tree, started in that
tree with its ``src/`` first on the path and the benchmark's BLAS thread
count, which runs ``bench/run.py``'s ``SETUP_CODE``: it imports bellclone
with its CLI, fills its lazy caches and reports the time taken, the
quantity that ``bench/run.py`` reports as ``setup_s``.  After one untimed
warm-up interpreter per tree, the two trees alternate, the side that
goes first alternating too.  Printed first: whether each tree's
``src/bellclone/__pycache__`` holds bytecode.  A tree without it compiles
``src/`` in every interpreter that does not write bytecode (as under
``PYTHONDONTWRITEBYTECODE=1``), which alone can move set-up by a quarter,
so trees whose states differ are not compared: the exit status is 2.
Then, as ``tools/ab_passes.py`` prints: each tree's median with its
quartiles, the ratio of the medians (this checkout over ``OTHER_TREE``)
and in how many runs this checkout was lower.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from ab_passes import ROOT, run, summary


def setup_seconds(tree: Path) -> float:
    """``SETUP_CODE``'s own timing in one fresh interpreter of ``tree``."""
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, "-c", run.SETUP_CODE], cwd=tree, env=env, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise SystemExit(f"error: set-up interpreter failed in {tree}:\n{done.stderr}")
    seconds, origin = done.stdout.split(maxsplit=1)
    if not Path(origin.strip()).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported bellclone from {origin.strip()}, not from {src}")
    return float(seconds)


def has_bytecode(tree: Path) -> bool:
    """Whether ``tree/src/bellclone/__pycache__`` holds compiled modules."""
    return any((tree / "src" / "bellclone" / "__pycache__").glob("*.pyc"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_tree", type=Path, help="root of the baseline checkout")
    parser.add_argument("--runs", type=int, required=True, help="timed interpreters per tree")
    args = parser.parse_args(argv)
    other = args.other_tree.resolve()
    if not (other / "src" / "bellclone" / "__init__.py").is_file():
        parser.error(f"no bellclone package under {other / 'src'}")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    trees = {"base": other, "this": ROOT}
    cached = {side: has_bytecode(tree) for side, tree in trees.items()}
    for side, tree in trees.items():
        print(f"{side} {tree}: {'cached bytecode' if cached[side] else 'no cached bytecode'} in src/bellclone/__pycache__")
    if cached["base"] != cached["this"]:
        print("error: one tree has cached bytecode and the other not; give both the same state", file=sys.stderr)
        return 2
    times: dict[str, list[float]] = {"base": [], "this": []}
    for tree in trees.values():
        setup_seconds(tree)
    for i in range(args.runs):
        for side in ("base", "this") if i % 2 == 0 else ("this", "base"):
            times[side].append(setup_seconds(trees[side]))
    print("\n".join(summary(other, times["base"], times["this"], "runs")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Count the lines of the bellclone package, module by module.

    python3 tools/src_lines.py [OTHER_TREE]

A line counts when it is not blank and is not a comment line (its first
non-blank character is not ``#``); docstring lines count.  Printed: one
line per ``src/bellclone/*.py`` module of this checkout, then the total.
With ``OTHER_TREE``, the root of another bellclone checkout (for
example a ``git archive`` of the parent commit unpacked into a
directory), each line also gives that tree's count and the change from
it to this checkout; a module that one tree lacks counts 0 there.
"""

from __future__ import annotations

import argparse
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def count_lines(text: str) -> int:
    """Non-blank lines that are not comment lines."""
    return sum(1 for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#"))


def module_counts(tree: Path) -> dict[str, int]:
    """``{module file name: line count}`` for ``tree/src/bellclone/*.py``."""
    return {p.name: count_lines(p.read_text()) for p in sorted((tree / "src" / "bellclone").glob("*.py"))}


def report(tree: Path, other: Path | None = None) -> list[str]:
    """The printed lines: per module, then ``total``."""
    mine = module_counts(tree)
    if other is None:
        rows = [(name, str(n)) for name, n in mine.items()] + [("total", str(sum(mine.values())))]
    else:
        theirs = module_counts(other)
        names = sorted(mine.keys() | theirs.keys())
        pairs = [(name, theirs.get(name, 0), mine.get(name, 0)) for name in names]
        pairs.append(("total", sum(theirs.values()), sum(mine.values())))
        rows = [(name, f"{old} -> {new} ({new - old:+d})") for name, old, new in pairs]
    width = max(len(name) for name, _ in rows)
    return [f"{name:<{width}}  {value}" for name, value in rows]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", nargs="?", type=Path, help="another checkout to compare with")
    args = parser.parse_args(argv)
    if args.other_tree is not None and not (args.other_tree / "src" / "bellclone").is_dir():
        parser.error(f"{args.other_tree} has no src/bellclone")
    print("\n".join(report(ROOT, args.other_tree)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

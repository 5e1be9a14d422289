#!/usr/bin/env python3
"""Time each verify-all claim of this checkout against another one, in one interpreter.

    python3 tools/claim_times.py OTHER_TREE --runs 30

``OTHER_TREE`` is the root of another bellclone checkout, the baseline
(for example a ``git archive`` of the parent commit unpacked into a
directory).  Both trees' ``bellclone`` packages are imported into this
one process, as ``tools/ab_passes.py`` imports them, and their
``verify.CLAIMS`` entries are paired by function name.  After one
untimed warm-up call of every claim per tree, each run calls every
paired claim once per tree, the two trees' calls of one claim back to
back, the side that goes first alternating from claim to claim and run
to run, with a garbage collection before every call: so both calls of a
pair meet the same state of the host.  Printed per claim, in ``CLAIMS``
order of this checkout: the claim id, then as ``tools/ab_passes.py``
prints, each tree's median with its quartiles, the ratio of the medians
(this checkout over ``OTHER_TREE``) and in how many runs this checkout
was lower.  This attributes a ``verify-suite`` difference to the claims
that make it.  A claim that does not pass, or that one tree lacks, is
printed; the exit status is 1 if there was one.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

from ab_passes import ROOT, load_tree, summary


class Tree:
    """One tree's modules and claims, and per claim its record id and times."""

    def __init__(self, tree: Path):
        _, self.modules = load_tree(tree)
        self.claims = {fn.__name__: fn for fn in self.modules["bellclone.verify"].CLAIMS}
        self.ids: dict[str, str] = {}
        self.times: dict[str, list[float]] = {}
        self.failed: set[str] = set()

    def call(self, name: str, timed: bool = True) -> None:
        """One call of claim ``name``, with this tree's modules in ``sys.modules``."""
        for module in [n for n in sys.modules if n == "bellclone" or n.startswith("bellclone.")]:
            del sys.modules[module]
        sys.modules.update(self.modules)
        gc.collect()
        t0 = time.perf_counter()
        record = self.claims[name]()
        elapsed = time.perf_counter() - t0
        self.ids[name] = record.id
        if timed:
            self.times.setdefault(name, []).append(elapsed)
        if not record.passed:
            self.failed.add(record.id)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_tree", type=Path, help="root of the baseline checkout")
    parser.add_argument("--runs", type=int, required=True, help="timed calls of every claim per tree")
    args = parser.parse_args(argv)
    other = args.other_tree.resolve()
    if not (other / "src" / "bellclone" / "__init__.py").is_file():
        parser.error(f"no bellclone package under {other / 'src'}")
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    base, this = Tree(other), Tree(ROOT)
    for side in (base, this):
        for name in side.claims:
            side.call(name, timed=False)
    paired = [name for name in this.claims if name in base.claims]
    for i in range(args.runs):
        for j, name in enumerate(paired):
            for side in (base, this) if (i + j) % 2 == 0 else (this, base):
                side.call(name)
    for name in paired:
        print(this.ids[name])
        print("\n".join("  " + line for line in summary(other, base.times[name], this.times[name], "runs")))
    problems = [f"{label}: claim {cid} did not pass" for label, side in (("base", base), ("this", this)) for cid in sorted(side.failed)]
    problems += [f"base: no claim {this.ids[name]}" for name in this.claims if name not in base.claims]
    problems += [f"this: no claim {base.ids[name]}" for name in base.claims if name not in this.claims]
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time this checkout against another one, pass for pass, in one interpreter.

    python3 tools/ab_passes.py OTHER_TREE --workload dense-oracle --passes 50

``OTHER_TREE`` is the root of another bellclone checkout, the baseline
(for example a ``git archive`` of the parent commit unpacked into a
directory).  Both trees' ``bellclone`` packages are imported into this
one process, each under its own module objects, and each gets the job
list of ``bench/jobs.py`` for the workload and seed.  After one untimed
warm-up pass per tree, the two trees run passes in alternation, the side
that goes first alternating too, with the benchmark's BLAS thread count
and a garbage collection before every pass.  Printed: each tree's median
pass time with its quartiles, the ratio of the medians (this checkout
over ``OTHER_TREE``) and in how many passes this checkout was lower.

One process sees one machine state at a time, so the comparison does not
depend on which of the host's speed regimes a separate run happens to
meet; it says nothing about set-up time or memory, which need separate
processes (``tools/ab_setup.py``, ``bench/run.py``).  Every outcome goes
through the benchmark's correctness gate after the clock stops, and any
problem is printed; the exit status is 1 if there was one.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import jobs  # noqa: E402
import run  # noqa: E402  (sets the benchmark's BLAS thread count before numpy loads)


def load_tree(tree: Path):
    """Import ``tree``'s bellclone (with its CLI and verify modules) under
    fresh module objects; returns the package and its modules by name."""
    for name in [n for n in sys.modules if n == "bellclone" or n.startswith("bellclone.")]:
        del sys.modules[name]
    sys.path.insert(0, str(tree / "src"))
    try:
        import bellclone
        import bellclone.cli
        import bellclone.verify  # noqa: F401
    finally:
        sys.path.remove(str(tree / "src"))
    if not Path(bellclone.__file__).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"error: imported bellclone from {bellclone.__file__}, not from {tree / 'src'}")
    return bellclone, {n: m for n, m in sys.modules.items() if n == "bellclone" or n.startswith("bellclone.")}


class Side:
    """One tree: its modules, its job list and its pass times."""

    def __init__(self, tree: Path, workload: str, seed: int, out_dir: Path, reference: dict):
        out_dir.mkdir()
        self.bc, self.modules = load_tree(tree)
        self.jobs = jobs.make_workload(workload, self.bc, seed, out_dir, reference)
        self.times: list[float] = []
        self.problems: list[str] = []

    def run_pass(self, timed: bool = True) -> None:
        """One pass over the job list with this tree's modules in
        ``sys.modules``; its outcomes are checked after the clock stops."""
        for name in [n for n in sys.modules if n == "bellclone" or n.startswith("bellclone.")]:
            del sys.modules[name]
        sys.modules.update(self.modules)
        gc.collect()
        t0 = time.perf_counter()
        outcomes = [job.run() for job in self.jobs]
        elapsed = time.perf_counter() - t0
        if timed:
            self.times.append(elapsed)
        for job, outcome in zip(self.jobs, outcomes):
            self.problems += [f"{job.key}: {p}" for p in job.check(outcome)]


def quartiles(times: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(times, n=4, method="inclusive")) if len(times) > 1 else (times[0],) * 3


def summary(other: Path, base: list[float], this: list[float], unit: str) -> list[str]:
    """The printed comparison: each tree's median time with its quartiles, the
    ratio of the medians and in how many of the ``unit`` this checkout was lower."""
    lines = []
    for name, times in ((f"base {other}", base), (f"this {ROOT}", this)):
        q1, q2, q3 = quartiles(times)
        lines.append(f"{name}: median {q2:.6f} s (q1 {q1:.6f}, q3 {q3:.6f}, n={len(times)})")
    lower = sum(t < b for t, b in zip(this, base))
    ratio = statistics.median(this) / statistics.median(base)
    return lines + [f"ratio this/base {ratio:.3f}; this lower in {lower} of {len(this)} {unit}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_tree", type=Path, help="root of the baseline checkout")
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--passes", type=int, required=True, help="timed passes per tree")
    parser.add_argument("--seed", type=int, default=1, help="job-list seed (default 1)")
    args = parser.parse_args(argv)
    other = args.other_tree.resolve()
    if not (other / "src" / "bellclone" / "__init__.py").is_file():
        parser.error(f"no bellclone package under {other / 'src'}")
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        base = Side(other, args.workload, args.seed, out_dir / "base", reference)
        this = Side(ROOT, args.workload, args.seed, out_dir / "this", reference)
        for side in (base, this):
            side.run_pass(timed=False)
        for i in range(args.passes):
            for side in (base, this) if i % 2 == 0 else (this, base):
                side.run_pass()
    print("\n".join(summary(other, base.times, this.times, "passes")))
    problems = base.problems + this.problems
    for problem in problems[:20]:
        print(f"INCORRECT {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

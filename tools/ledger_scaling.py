#!/usr/bin/env python3
"""Time rho_m's symbolic run and its resource ledger against the pair count.

    python3 tools/ledger_scaling.py [--max-m 65536]

For each m = 512, 1024, 2048, ... up to ``--max-m``, five calls are timed,
each the best of 3 runs with the cyclic garbage collector on, as in normal
use: the set-up, ``protocols._rho_m_program(m)``, which builds rho_m's
program (its initial ensemble and step list); ``apply_steps`` on that
program, ``derive_ledger`` of it, ``locc_violations()`` of that ledger,
and ``prepare_rho_m(m)``, which builds the program, runs its steps and
derives its ledger.  Printed: one row per m with the program's step
count, then each time in ms and in microseconds per pair, and last the
ratio of ledger plus audit to ``apply_steps``.  The package is imported
from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bellclone import calculus, protocols  # noqa: E402

#: The smallest m timed; each further m doubles it.
MIN_M = 512
REPEATS = 3
HEADER = ["m", "steps", "_rho_m_program", "apply_steps", "derive_ledger", "locc_violations", "prepare_rho_m", "(ledger+audit)/steps"]


def sizes(max_m: int) -> list[int]:
    """512, 1024, ... up to ``max_m``."""
    out, m = [], MIN_M
    while m <= max_m:
        out.append(m)
        m *= 2
    return out


def best(call) -> float:
    """The shortest of :data:`REPEATS` timed calls, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


def measure(m: int) -> dict[str, float]:
    """Seconds per call of each timed function at ``m`` pairs, and the step count."""
    program = protocols._rho_m_program(m)
    ledger = protocols.derive_ledger(program)
    if ledger.locc_violations():
        raise SystemExit(f"error: rho_{m}'s ledger fails the LOCC audit")
    return {
        "steps": len(program.steps),
        "_rho_m_program": best(lambda: protocols._rho_m_program(m)),
        "apply_steps": best(lambda: calculus.apply_steps(program.initial, program.steps)),
        "derive_ledger": best(lambda: protocols.derive_ledger(program)),
        "locc_violations": best(ledger.locc_violations),
        "prepare_rho_m": best(lambda: protocols.prepare_rho_m(m)),
    }


def row(m: int, t: dict[str, float]) -> list[str]:
    """One table row: each time as ``ms (us/pair)``."""
    cells = [f"{m:,}", f"{t['steps']:,}"]
    cells += [f"{t[k] * 1e3:.2f} ms ({t[k] * 1e6 / m:.2f})" for k in HEADER[2:7]]
    return cells + [f"{(t['derive_ledger'] + t['locc_violations']) / t['apply_steps']:.2f}"]


def report(ms: list[int]) -> list[str]:
    """The printed lines: a Markdown table, one row per m."""
    lines = ["| " + " | ".join(HEADER) + " |", "|" + "---:|" * len(HEADER)]
    return lines + ["| " + " | ".join(row(m, measure(m))) + " |" for m in ms]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-m", type=int, default=65536, help="largest pair count timed (default 65536)")
    args = parser.parse_args(argv)
    if args.max_m < MIN_M:
        parser.error(f"--max-m must be at least {MIN_M}")
    print("times: best of 3, GC on; in parentheses, microseconds per pair")
    print("\n".join(report(sizes(args.max_m))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Layer microbenchmarks run in the traced mode, with no wrappers installed.

* ``calculus.scaling_exponent.<op>``: least-squares slope of log(seconds
  per call) against log(pairs) for each label-rewriting operation over
  ``SCALING_PAIRS``, on the uniform constant-string ensemble (support
  ``SCALING_SUPPORT`` strings); and for ``prepare_rho_m`` over
  ``RHO_M_GRID``.  A cost linear in pairs x support gives 1; the
  per-string tuple copies of the seed commit make a whole protocol
  circuit quadratic, which ``prepare_rho_m`` shows as about 2.
* ``protocols.clone_four_dense.s.n<n>``: median seconds of
  ``clone_four_dense(B2, n)`` for n = 2..5.
"""

from __future__ import annotations

import math
import statistics
import time

SCALING_PAIRS = (4, 64, 512, 4096)
SCALING_SUPPORT = 4
RHO_M_GRID = (64, 128, 256, 512)
#: Calls per timed sample, sized to about 20 ms per sample at the seed commit.
SCALING_LOOPS = {4: 600, 64: 90, 512: 12, 4096: 2}
SCALING_REPEATS = 5
RHO_M_REPEATS = {64: 3, 128: 3, 256: 2, 512: 1}
CLONE_FOUR_NS = (2, 3, 4, 5)
CLONE_FOUR_REPEATS = 3


def _per_call(fn, loops: int, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops)
    return statistics.median(samples)


def slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def scaling(bc) -> dict:
    calc = bc.calculus
    ops = {
        "bxor": lambda e, n: calc.bxor(e, 0, n - 1),
        "bilateral_hadamard": lambda e, n: calc.bilateral_hadamard(e, n // 2),
        "one_sided_pauli": lambda e, n: calc.one_sided_pauli(e, n // 2, 1, "alice"),
        "discriminate_sets": lambda e, n: calc.discriminate_sets(e, n - 1),
    }
    seconds: dict[str, list[float]] = {}
    for name, op in ops.items():
        seconds[name] = []
        for n in SCALING_PAIRS:
            e = calc.BellEnsemble.uniform_strings(n)
            assert len(e.entries) == SCALING_SUPPORT
            seconds[name].append(_per_call(lambda: op(e, n), SCALING_LOOPS[n], SCALING_REPEATS))
    seconds["prepare_rho_m"] = [
        _per_call(lambda m=m: bc.protocols.prepare_rho_m(m), 1, RHO_M_REPEATS[m]) for m in RHO_M_GRID
    ]
    exponents = {
        name: slope(RHO_M_GRID if name == "prepare_rho_m" else SCALING_PAIRS, ys)
        for name, ys in seconds.items()
    }
    return {
        "pairs": list(SCALING_PAIRS),
        "support": SCALING_SUPPORT,
        "rho_m_grid": list(RHO_M_GRID),
        "seconds_per_call": seconds,
        "exponents": exponents,
    }


def clone_four_dense(bc) -> dict:
    label = bc.LABELS[1]
    medians = {
        n: _per_call(lambda n=n: bc.protocols.clone_four_dense(label, n), 1, CLONE_FOUR_REPEATS)
        for n in CLONE_FOUR_NS
    }
    return {
        "seconds": medians,
        "repeats": CLONE_FOUR_REPEATS,
        # The re-anchor baseline recorded n=4 (866 ms) slower than n=5 (633 ms).
        "n4_slower_than_n5": medians[4] > medians[5],
    }

"""Acceptance gate: one test per top-level claim, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np

from bellclone import dense, measures, protocols
from bellclone.calculus import BellEnsemble, apply_steps_dense, bxor, mix, to_dense
from bellclone.dense import Cut
from bellclone.labels import B1, B2, B3, LABELS


def report(criterion: int, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_01_two_state_cloning():
    start = time.perf_counter()
    worst = 0.0
    for pair in itertools.combinations(LABELS, 2):
        for inp in pair:
            for n in (2, 3, 5):
                sym, ledger = protocols.clone_pair_1_to_n(inp, pair, n)
                assert sym.entries == {(inp,) * n: 1.0}
                assert ledger.ebits_consumed == n - 1
                dn = protocols.clone_pair_dense(inp, pair, n)
                fid = dense.fidelity(dn, to_dense(sym).branches[0].amplitudes)
                worst = max(worst, abs(1.0 - fid))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"two-state cloning exact over 6 pairs x n in (2,3,5); "
        f"worst fidelity deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_bxor_certificate():
    worst = 0.0
    for la, lb in itertools.product(LABELS, LABELS):
        e = BellEnsemble.point((la, lb))
        sym = to_dense(bxor(e, 0, 1))
        dn = apply_steps_dense(to_dense(e), [("bxor", 0, 1)])
        worst = max(worst, dense.trace_distance(sym, dn))
    report(2, worst < 1e-10, f"bxor matches dense C-NOT(x)C-NOT, worst {worst:.2e}")


def test_criterion_03_smolin_witnesses():
    state = to_dense(protocols.smolin_ensemble())
    across = dense.log_negativity(state, Cut.alice_bob(state))
    one_vs_rest = [
        dense.log_negativity(state, Cut.one_vs_rest(state, q)) for q in range(4)
    ]
    passed = across <= 1e-9 and min(one_vs_rest) >= 1.0 - 1e-9
    report(
        3,
        passed,
        f"smolin log-negativity {across:.2e} across alice:bob, "
        f"1:3 cuts {[f'{v:.6f}' for v in one_vs_rest]}",
    )


def test_criterion_04_teleportation_channel():
    channel = to_dense(protocols.smolin_ensemble())
    choi = dense.choi_matrix(lambda s: protocols.teleport_two_qubit(channel, s))
    residual = float(np.max(np.abs(choi - protocols.eq_filter_choi())))
    worst_fid = 0.0
    for label in LABELS:
        inp = to_dense(BellEnsemble.point((label,)), role="input")
        out = protocols.teleport_two_qubit(channel, inp)
        worst_fid = max(worst_fid, abs(1.0 - dense.fidelity(out, dense.bell_vector(label))))
    report(
        4,
        residual < 1e-9 and worst_fid <= 1e-12,
        f"Choi residual {residual:.2e}, worst Bell fidelity deviation {worst_fid:.2e}",
    )


def test_criterion_05_preparation_circuits():
    worst_td = 0.0
    for m in (3, 4):
        sym, _ = protocols.prepare_rho_m(m)
        assert sym.allclose(BellEnsemble.uniform_strings(m), tol=0.0)
        worst_td = max(
            worst_td,
            dense.trace_distance(to_dense(sym), protocols.prepare_rho_m_dense(m)),
        )
    structure_ok = True
    for m in range(2, 65):
        e, ledger = protocols.prepare_rho_m(m)
        structure_ok &= set(e.entries.values()) == {0.25}
        structure_ok &= all(len(set(s)) == 1 for s in e.entries)
        structure_ok &= ledger.ebits_consumed == (m - 1 if m % 2 else m - 2)
    report(
        5,
        worst_td < 1e-12 and structure_ok,
        f"rho_m circuits exact (dense td {worst_td:.2e}), structure+cost hold to m=64",
    )


def test_criterion_06_four_state_cloning():
    start = time.perf_counter()
    worst_fid = 0.0
    worst_td = 0.0
    for label in LABELS:
        for n in (2, 3):
            sym, ledger = protocols.clone_four_1_to_n(label, n)
            assert ledger.ebits_consumed == 2.0
            dn = protocols.clone_four_dense(label, n)
            fid = dense.fidelity(dn, to_dense(sym).branches[0].amplitudes)
            worst_fid = max(worst_fid, abs(1.0 - fid))
            worst_td = max(worst_td, dense.trace_distance(to_dense(sym), dn))
    elapsed = time.perf_counter() - start
    report(
        6,
        worst_fid <= 1e-12 and worst_td < 1e-10 and elapsed < 10.0,
        f"four-state cloning exact at 2 ebits; fidelity dev {worst_fid:.2e}, "
        f"td {worst_td:.2e}, {elapsed:.2f}s",
    )


def test_criterion_07_quasi_pure_reversibility():
    p = (0.4, 0.1, 0.3, 0.2)
    e, prep = protocols.prepare_quasi_pure(p, 3)
    branches, dist = protocols.distill_quasi_pure(e)
    probs = [prob for _, prob, _ in branches]
    conds = [cond.entries for _, _, cond in branches]
    passed = (
        prep.ebits_consumed == 2.0
        and dist.ebits_distilled == 2.0
        and probs == [0.5, 0.5]
        and conds == [{(B1, B1): 1.0}, {(B3, B3): 1.0}]
    )
    report(
        7,
        passed,
        f"prepare cost {prep.ebits_consumed}, distilled {dist.ebits_distilled}, "
        f"branch probabilities {probs}",
    )


def test_criterion_08_sigma_round_trip():
    ok = True
    for p in (0.1, 0.3, 0.7):
        for n in (1, 2, 4):
            build = protocols.build_sigma_n(p, n)
            ok &= build.ensemble.entries == {(B1,) * n: p, (B2,) * n: 1.0 - p}
            back = protocols.apply_steps(build.ensemble, build.inverse_steps)
            ok &= back.entries == build.start.entries
    report(8, ok, "sigma_n built and inverted exactly for p in (0.1,0.3,0.7), n in (1,2,4)")


def test_criterion_09_formula_suite():
    strict = True
    at_half = None
    gap_dev = 0.0
    sym_dev = 0.0
    for k in range(1, 1000):
        p = k / 1000.0
        ec, ed = measures.ec_sigma1(p), measures.ed_sigma1(p)
        if p == 0.5:
            at_half = max(abs(ec), abs(ed))
        else:
            strict &= ec > ed
            base = ec - ed
            for n in (2, 5, 9):
                gap_dev = max(
                    gap_dev,
                    abs((measures.ec_sigma_n(p, n) - measures.ed_sigma_n(p, n)) - base),
                )
        sym_dev = max(
            sym_dev,
            abs(measures.binary_entropy(p) - measures.binary_entropy(1.0 - p)),
        )
    endpoints = measures.binary_entropy(0.0) == 0.0 and measures.binary_entropy(1.0) == 0.0
    passed = strict and at_half <= 1e-12 and gap_dev <= 1e-12 and sym_dev <= 1e-12 and endpoints
    report(
        9,
        passed,
        f"999-point grid: strict gap {strict}, |values at 1/2| {at_half:.2e}, "
        f"n-dependence {gap_dev:.2e}, entropy asymmetry {sym_dev:.2e}",
    )


def test_criterion_10_linearity_witnesses():
    rho_sep = mix([BellEnsemble.point((B1,)), BellEnsemble.point((B2,))], [0.5, 0.5])
    cloned, _ = protocols.clone_pair_1_to_n(rho_sep, (B1, B2), 2)
    exact = cloned.entries == {(B1, B1): 0.5, (B2, B2): 0.5}
    cloned_dense = to_dense(cloned)
    two = dense.log_negativity(cloned_dense, Cut.alice_bob(cloned_dense))
    four_state = to_dense(BellEnsemble.uniform_strings(3))
    four = dense.log_negativity(four_state, Cut.alice_bob(four_state))
    passed = exact and two >= 1.0 - 1e-9 and four >= 2.0 - 1e-9
    report(
        10,
        passed,
        f"mixture cloned exactly: {exact}; log-negativity {two:.6f} (>=1), {four:.6f} (>=2)",
    )


def test_criterion_11_verify_all_under_60s(child_env):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bellclone.cli", "verify-all"],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    passed = proc.returncode == 0 and elapsed < 60.0
    if passed:
        payload = json.loads(proc.stdout)
        passed = payload["passed"] and len(payload["claims"]) == 10
    report(11, passed, f"verify-all exit {proc.returncode} in {elapsed:.2f}s")

"""The full claim suite behind ``bellclone verify-all``.

Each claim re-runs one protocol family end to end, compares the
symbolic and dense routes at the pinned tolerance, and reports the worst
measured deviation.  Claims are deterministic (no sampling anywhere), so
repeated runs produce byte-identical reports.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import dense, measures, protocols
from .calculus import BellEnsemble, bxor, dense_rewrite_op, mix, to_dense
from .dense import Cut
from .labels import B1, B2, B3, LABELS


@dataclass(frozen=True)
class ClaimRecord:
    id: str
    criterion: int
    description: str
    passed: bool
    measured: dict
    tolerance: str

    def to_dict(self) -> dict:
        return asdict(self)


def claim_two_state_cloning() -> ClaimRecord:
    """Every two-label set, every input, n in {2,3,5}: exact point-mass
    output, dense fidelity 1, ledger n-1 ebits."""
    worst_fid = 0.0
    point_ok = True
    ledger_ok = True
    for pair in itertools.combinations(LABELS, 2):
        for inp in pair:
            for n in (2, 3, 5):
                sym, ledger = protocols.clone_pair_1_to_n(inp, pair, n)
                target = (inp,) * n
                point_ok &= sym.entries == {target: 1.0}
                ledger_ok &= ledger.ebits_consumed == n - 1 and not ledger.locc_violations()
                dn = protocols.clone_pair_dense(inp, pair, n)
                fid = dense.fidelity(dn, to_dense(sym).amplitudes[0])
                worst_fid = max(worst_fid, abs(1.0 - fid))
    return ClaimRecord(
        "two-state-cloning",
        1,
        "1->n cloning of each two-label set is exact and costs n-1 ebits",
        point_ok and ledger_ok and worst_fid <= 1e-12,
        {
            "worst_fidelity_deviation": worst_fid,
            "point_mass_outputs": point_ok,
            "ledgers_consistent": ledger_ok,
        },
        "fidelity within 1e-12",
    )


def claim_bxor_gate() -> ClaimRecord:
    """All 16 ordered label pairs rewritten by bxor match the dense
    bilateral C-NOT within 1e-10 trace distance."""
    worst = 0.0
    for la, lb in itertools.product(LABELS, LABELS):
        e = BellEnsemble.point((la, lb))
        sym = to_dense(bxor(e, 0, 1))
        dn = dense_rewrite_op(to_dense(e), ("bxor", 0, 1))
        worst = max(worst, dense.trace_distance(sym, dn))
    return ClaimRecord(
        "bxor-gate-certificate",
        2,
        "symbolic bxor rule matches dense C-NOT (x) C-NOT on all 16 label pairs",
        worst < 1e-10,
        {"worst_trace_distance": worst},
        "trace distance < 1e-10",
    )


def claim_smolin_ppt() -> ClaimRecord:
    """Smolin state: PPT (zero log-negativity) across Alice:Bob, at
    least 1 ebit of log-negativity across every 1:3 cut."""
    state = to_dense(protocols.smolin_ensemble())
    across = dense.log_negativity(state, Cut.alice_bob(state))
    one_vs_rest = [
        dense.log_negativity(state, Cut.one_vs_rest(state, q)) for q in range(4)
    ]
    return ClaimRecord(
        "smolin-ppt",
        3,
        "Smolin state is PPT across Alice:Bob yet entangled across 1:3 cuts",
        across <= 1e-9 and min(one_vs_rest) >= 1.0 - 1e-9,
        {"alice_bob_log_negativity": across, "one_vs_rest_log_negativity": one_vs_rest},
        "<= 1e-9 across Alice:Bob, >= 1 - 1e-9 across 1:3 cuts",
    )


def claim_teleport_choi() -> ClaimRecord:
    """Teleportation through the Smolin state realizes the Bell-diagonal
    filter map exactly; Bell states teleport to themselves."""
    channel = to_dense(protocols.smolin_ensemble())
    choi = dense.choi_matrix(lambda s: protocols.teleport_two_qubit(channel, s))
    residual = float(np.max(np.abs(choi - protocols.eq_filter_choi())))
    worst_fid = 0.0
    for label in LABELS:
        inp = to_dense(BellEnsemble.point((label,)), role="input")
        out = protocols.teleport_two_qubit(channel, inp)
        fid = dense.fidelity(out, dense.bell_vector(label))
        worst_fid = max(worst_fid, abs(1.0 - fid))
    return ClaimRecord(
        "teleport-choi",
        4,
        "Smolin-channel Choi matrix matches the analytic filter map",
        residual < 1e-9 and worst_fid <= 1e-12,
        {"choi_max_residual": residual, "worst_bell_fidelity_deviation": worst_fid},
        "residual < 1e-9, fidelity within 1e-12",
    )


def claim_preparation_circuits() -> ClaimRecord:
    """rho_m preparation: dense agreement for m=3,4 and the uniform
    four-string structure with parity-dependent cost up to m=64."""
    worst_td = 0.0
    for m in (3, 4):
        sym, _ = protocols.prepare_rho_m(m)
        worst_td = max(
            worst_td,
            dense.trace_distance(to_dense(sym), protocols.prepare_rho_m_dense(m)),
        )
    structure_ok = True
    ledger_ok = True
    for m in range(2, 65):
        e, ledger = protocols.prepare_rho_m(m)
        structure_ok &= e.allclose(BellEnsemble.uniform_strings(m), tol=0.0)
        expected = m - 1 if m % 2 else m - 2
        ledger_ok &= ledger.ebits_consumed == expected and not ledger.locc_violations()
    return ClaimRecord(
        "preparation-circuits",
        5,
        "rho_m circuits yield the uniform four-branch state at parity cost",
        worst_td < 1e-12 and structure_ok and ledger_ok,
        {
            "worst_dense_trace_distance": worst_td,
            "uniform_structure_to_64": structure_ok,
            "parity_cost_to_64": ledger_ok,
        },
        "trace distance < 1e-12; exact structure",
    )


def claim_four_state_cloning() -> ClaimRecord:
    """Four-state cloning at n=2,3: exact clones, 2 ebits, and symbolic
    fast path matching the dense teleportation route."""
    worst_fid = 0.0
    worst_td = 0.0
    ledger_ok = True
    for label in LABELS:
        for n in (2, 3):
            sym, ledger = protocols.clone_four_1_to_n(label, n)
            ledger_ok &= ledger.ebits_consumed == 2.0 and not ledger.locc_violations()
            dn = protocols.clone_four_dense(label, n)
            fid = dense.fidelity(dn, to_dense(sym).amplitudes[0])
            worst_fid = max(worst_fid, abs(1.0 - fid))
            worst_td = max(worst_td, dense.trace_distance(to_dense(sym), dn))
    return ClaimRecord(
        "four-state-cloning",
        6,
        "unknown-Bell-state cloning via teleportation is exact at 2 ebits",
        worst_fid <= 1e-12 and worst_td < 1e-10 and ledger_ok,
        {
            "worst_fidelity_deviation": worst_fid,
            "worst_trace_distance": worst_td,
            "ledgers_consistent": ledger_ok,
        },
        "fidelity within 1e-12, trace distance < 1e-10",
    )


def claim_quasi_pure_reversibility() -> ClaimRecord:
    """rho(p) with p=(0.4,0.1,0.3,0.2), n=3: 2 ebits to prepare, 2 ebits
    distilled in each branch, branch probabilities exactly (1/2, 1/2)."""
    p = (0.4, 0.1, 0.3, 0.2)
    e, prep_ledger = protocols.prepare_quasi_pure(p, 3)
    branches, dist_ledger = protocols.distill_quasi_pure(e)
    probs = {bit: prob for bit, prob, _ in branches}
    conds = {bit: cond for bit, _, cond in branches}
    pure_ok = (
        conds[0].entries == {(B1, B1): 1.0} and conds[1].entries == {(B3, B3): 1.0}
    )
    passed = (
        prep_ledger.ebits_consumed == 2.0
        and dist_ledger.ebits_distilled == 2.0
        and probs == {0: 0.5, 1: 0.5}
        and pure_ok
    )
    return ClaimRecord(
        "quasi-pure-reversibility",
        7,
        "preparation cost equals distillation yield for the quasi-pure mixture",
        passed,
        {
            "ebits_consumed": prep_ledger.ebits_consumed,
            "ebits_distilled": dist_ledger.ebits_distilled,
            "branch_probabilities": [probs[0], probs[1]],
            "pure_conditionals": pure_ok,
        },
        "exact",
    )


def claim_sigma_round_trip() -> ClaimRecord:
    """sigma_n built exactly for p in {0.1,0.3,0.7}, n in {1,2,4}, and the
    reversed step list restores the start state exactly."""
    ok = True
    for p in (0.1, 0.3, 0.7):
        for n in (1, 2, 4):
            build = protocols.build_sigma_n(p, n)
            expected = {(B1,) * n: p, (B2,) * n: 1.0 - p}
            ok &= build.ensemble.entries == expected
            back = protocols.apply_steps(build.ensemble, build.inverse_steps)
            ok &= back.entries == build.start.entries
    return ClaimRecord(
        "sigma-round-trip",
        8,
        "sigma_n construction is exact and exactly reversible",
        ok,
        {"exact_round_trips": ok},
        "exact",
    )


def claim_formula_suite() -> ClaimRecord:
    """Cost/distillation formulas on a 999-point grid: a strictly
    positive, n-independent gap away from p=1/2 and entropy symmetry."""
    grid = [k / 1000.0 for k in range(1, 1000)]
    strict_ok = True
    at_half = None
    gap_dev = 0.0
    sym_dev = 0.0
    for p in grid:
        ec, ed = measures.ec_sigma1(p), measures.ed_sigma1(p)
        if p == 0.5:
            at_half = max(abs(ec), abs(ed))
        else:
            strict_ok &= ec > ed
            base = ec - ed
            for n in (2, 5, 9):
                gap_dev = max(
                    gap_dev,
                    abs((measures.ec_sigma_n(p, n) - measures.ed_sigma_n(p, n)) - base),
                )
        sym_dev = max(
            sym_dev, abs(measures.binary_entropy(p) - measures.binary_entropy(1.0 - p))
        )
    endpoints_ok = measures.binary_entropy(0.0) == 0.0 and measures.binary_entropy(1.0) == 0.0
    passed = (
        strict_ok
        and at_half is not None
        and at_half <= 1e-12
        and gap_dev <= 1e-12
        and sym_dev <= 1e-12
        and endpoints_ok
    )
    return ClaimRecord(
        "formula-suite",
        9,
        "cost exceeds distillable entanglement except at p=1/2; gap is n-independent",
        passed,
        {
            "strict_gap_everywhere": strict_ok,
            "values_at_half": at_half,
            "worst_gap_n_dependence": gap_dev,
            "worst_entropy_asymmetry": sym_dev,
        },
        "1e-12",
    )


def claim_linearity_witnesses() -> ClaimRecord:
    """Cloning a separable mixture yields the correlated mixture exactly,
    whose log-negativity certifies the required ancilla entanglement."""
    rho_sep = mix([BellEnsemble.point((B1,)), BellEnsemble.point((B2,))], [0.5, 0.5])
    cloned, _ = protocols.clone_pair_1_to_n(rho_sep, (B1, B2), 2)
    exact_ok = cloned.entries == {(B1, B1): 0.5, (B2, B2): 0.5}
    two_reports = protocols.necessity_witness_two()
    four_reports = protocols.necessity_witness_four()
    two_out = two_reports[1].value
    four_out = four_reports[1].value
    passed = (
        exact_ok
        and two_reports[0].value <= 1e-9
        and two_out >= 1.0 - 1e-9
        and four_reports[0].value <= 1e-9
        and four_out >= 2.0 - 1e-9
    )
    return ClaimRecord(
        "linearity-witnesses",
        10,
        "linear cloning of separable mixtures creates the certified entanglement",
        passed,
        {
            "mixture_cloned_exactly": exact_ok,
            "reports": [r.to_dict() for r in two_reports + four_reports],
        },
        ">= 1 - 1e-9 and >= 2 - 1e-9",
    )


CLAIMS = (
    claim_two_state_cloning,
    claim_bxor_gate,
    claim_smolin_ppt,
    claim_teleport_choi,
    claim_preparation_circuits,
    claim_four_state_cloning,
    claim_quasi_pure_reversibility,
    claim_sigma_round_trip,
    claim_formula_suite,
    claim_linearity_witnesses,
)


def run_all() -> list[ClaimRecord]:
    """Run every claim; records come back sorted by claim id."""
    return sorted((fn() for fn in CLAIMS), key=lambda r: r.id)


def report_json(records: list[ClaimRecord]) -> str:
    payload = {
        "passed": all(r.passed for r in records),
        "claims": [r.to_dict() for r in records],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

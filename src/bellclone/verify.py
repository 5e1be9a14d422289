"""The check table and the claim suite behind ``bellclone verify-all``.

Every check is written once here, as a function returning one
:class:`Check`.  The CLI subcommands render the checks of one run; each
claim calls the same functions over its runs, reports the worst measured
value and passes when every check passed.  Claims are deterministic (no
sampling anywhere), so repeated runs produce byte-identical reports.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import dense, measures, protocols
from .calculus import BellEnsemble, apply_steps_dense, bxor, to_dense
from .dense import Cut
from .labels import B1, B2, B3, LABELS


class Check(NamedTuple):
    """One check of one run: its rule's name, whether it held, the value
    measured and the tolerance it was held to, as text."""

    name: str
    passed: bool
    measured: object
    tolerance: str


# ---------------------------------------------------------------------------
# The check table
# ---------------------------------------------------------------------------


def symbolic_target(e: BellEnsemble, target) -> Check:
    """The symbolic output is the point mass on the string ``target``."""
    return Check("symbolic-target", e.entries == {target: 1.0}, "exact point mass", "exact")


def correlated_clones(e: BellEnsemble) -> Check:
    """Every string of the symbolic output repeats one label."""
    correlated = all(len(set(s)) == 1 for s in e.entries)
    return Check("symbolic-structure", correlated, "perfectly correlated clones", "exact")


def uniform_structure(e: BellEnsemble) -> Check:
    """The symbolic output is rho_m: the four constant strings at 1/4."""
    uniform = e.allclose(BellEnsemble.uniform_strings(e.n_pairs), tol=0.0)
    return Check("uniform-structure", uniform, f"{len(e)} strings", "four constant strings at 1/4")


def _ebits(name: str, ebits: float, expected: float) -> Check:
    return Check(name, ebits == expected, ebits, f"= {expected:.17g}")


def ledger_ebits(ledger: protocols.ResourceLedger, expected: float) -> Check:
    """The ledger's consumed ebits equal the paper's cost, exactly."""
    return _ebits("ledger-ebits", ledger.ebits_consumed, expected)


def preparation_ebits(ledger: protocols.ResourceLedger, expected: float) -> Check:
    """The preparation ledger's consumed ebits equal the paper's cost."""
    return _ebits("preparation-ebits", ledger.ebits_consumed, expected)


def distilled_ebits(ledger: protocols.ResourceLedger, expected: float) -> Check:
    """The ledger's distilled ebits equal the paper's yield."""
    return _ebits("distilled-ebits", ledger.ebits_distilled, expected)


def locc_audit(ledger: protocols.ResourceLedger) -> Check:
    """No ledger line acts on a register qubit of the other party."""
    violations = len(ledger.locc_violations())
    return Check("locc-audit", not violations, violations, "no cross-cut steps")


def _agreement(pairs, bound: float) -> Check:
    """Worst trace distance over (symbolic, dense) pairs; 1 if there are none."""
    worst = max((dense.trace_distance(to_dense(sym), dn) for sym, dn in pairs), default=1.0)
    return Check("symbolic-dense-agreement", worst < bound, worst, f"trace distance < {bound:g}")


def dense_agreement(sym: BellEnsemble, dn: dense.DenseState) -> Check:
    """The symbolic output and its dense route agree as states."""
    return _agreement([(sym, dn)], 1e-10)


def preparation_agreement(sym: BellEnsemble, dn: dense.DenseState) -> Check:
    """rho_m and its dense route, all unitaries and mixing, agree to rounding."""
    return _agreement([(sym, dn)], 1e-12)


def _by_outcome(branches, dense_branches) -> tuple[dict, dict, bool]:
    """Symbolic and dense branches as outcome bit -> (probability, state),
    and whether both routes have the same outcomes."""
    sym, dn = ({bit: (prob, out) for bit, prob, out in side} for side in (branches, dense_branches))
    return sym, dn, sym.keys() == dn.keys()


def dense_branch_probabilities(branches, dense_branches) -> Check:
    """Branch probabilities matched by outcome bit; an outcome on one side
    only counts as probability 0 on the other and fails."""
    sym, dn, same = _by_outcome(branches, dense_branches)
    worst = max(abs(sym.get(bit, (0.0,))[0] - dn.get(bit, (0.0,))[0]) for bit in sym.keys() | dn.keys())
    return Check("dense-branch-probabilities", same and worst <= 1e-12, worst, "within 1e-12")


def branch_agreement(branches, dense_branches) -> Check:
    """The conditional states agree on the outcomes both routes have; an
    outcome on one side only fails."""
    sym, dn, same = _by_outcome(branches, dense_branches)
    check = _agreement([(sym[bit][1], dn[bit][1]) for bit in sym.keys() & dn.keys()], 1e-10)
    return check._replace(passed=same and check.passed)


def pure_branches(branches) -> Check:
    """Every distillation branch is a single Bell string."""
    sizes = [len(cond.entries) for _, _, cond in branches]
    return Check("pure-branches", all(size == 1 for size in sizes), sizes, "single string per branch")


def exact_branch_probabilities(branches, expected: dict[int, float]) -> Check:
    """Branch probabilities by outcome bit equal ``expected`` exactly; a
    missing outcome reads 0."""
    probs = {bit: prob for bit, prob, _ in branches}
    return Check("branch-probabilities", probs == expected, [probs.get(bit, 0.0) for bit in sorted(expected)], "exact")


def exact_conditionals(branches, expected: dict[int, dict]) -> Check:
    """The conditional ensemble of each outcome bit is exactly ``expected``."""
    same = {bit: cond.entries for bit, _, cond in branches} == expected
    return Check("exact-conditionals", same, same, "exact")


def _fidelity(name: str, state: dense.DenseState, target) -> Check:
    fid = dense.fidelity(state, target)
    return Check(name, abs(1.0 - fid) <= 1e-12, fid, "within 1e-12 of 1")


def dense_fidelity(dn: dense.DenseState, sym: BellEnsemble) -> Check:
    """The dense route reproduces the symbolic output, a single string."""
    return _fidelity("dense-fidelity", dn, to_dense(sym))


def output_fidelity(out: dense.DenseState, label) -> Check:
    """A teleported Bell state arrives as itself."""
    return _fidelity("output-fidelity", out, dense.bell_vector(label))


def choi_residual(choi: np.ndarray, analytic: np.ndarray) -> Check:
    """Largest entrywise deviation of a channel's Choi matrix from its analytic form."""
    residual = float(np.max(np.abs(choi - analytic)))
    return Check("choi-residual", residual < 1e-9, residual, "< 1e-9")


def ppt(log_negativity: float) -> Check:
    """A log-negativity that shows no entanglement across its cut."""
    return Check("ppt", log_negativity <= dense.ATOL_EIG, log_negativity, "<= 1e-9")


def entangled(log_negativity: float, ebits: int) -> Check:
    """A log-negativity that certifies at least ``ebits`` across its cut."""
    return Check("entangled", log_negativity >= ebits - dense.ATOL_EIG, log_negativity, f">= {ebits} - 1e-9")


# ---------------------------------------------------------------------------
# The claims
# ---------------------------------------------------------------------------


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


def _measured(checks: list[Check], name: str) -> list:
    return [c.measured for c in checks if c.name == name]


def _held(checks: list[Check], *names: str) -> bool:
    """Whether every check passed (every check of the given names, if any)."""
    return all(c.passed for c in checks if not names or c.name in names)


def _worst_deviation(checks: list[Check], name: str) -> float:
    """Largest |1 - fidelity| among the named fidelity checks."""
    return max(abs(1.0 - fid) for fid in _measured(checks, name))


def claim_two_state_cloning() -> ClaimRecord:
    """Every two-label set, every input, n in {2,3,5}: exact point-mass
    output, dense fidelity 1, ledger n-1 ebits."""
    checks = []
    for pair in itertools.combinations(LABELS, 2):
        for inp in pair:
            for n in (2, 3, 5):
                sym, ledger = protocols.clone_pair_1_to_n(inp, pair, n)
                checks += [symbolic_target(sym, (inp,) * n), ledger_ebits(ledger, n - 1), locc_audit(ledger)]
                checks.append(dense_fidelity(protocols.clone_pair_dense(inp, pair, n), sym))
    return ClaimRecord(
        "two-state-cloning",
        1,
        "1->n cloning of each two-label set is exact and costs n-1 ebits",
        _held(checks),
        {
            "worst_fidelity_deviation": _worst_deviation(checks, "dense-fidelity"),
            "point_mass_outputs": _held(checks, "symbolic-target"),
            "ledgers_consistent": _held(checks, "ledger-ebits", "locc-audit"),
        },
        "fidelity within 1e-12",
    )


def claim_bxor_gate() -> ClaimRecord:
    """All 16 ordered label pairs rewritten by bxor match the dense
    bilateral C-NOT within 1e-10 trace distance."""
    checks = []
    for la, lb in itertools.product(LABELS, LABELS):
        e = BellEnsemble.point((la, lb))
        checks.append(dense_agreement(bxor(e, 0, 1), apply_steps_dense(to_dense(e), [("bxor", 0, 1)])))
    return ClaimRecord(
        "bxor-gate-certificate",
        2,
        "symbolic bxor rule matches dense C-NOT (x) C-NOT on all 16 label pairs",
        _held(checks),
        {"worst_trace_distance": max(_measured(checks, "symbolic-dense-agreement"))},
        "trace distance < 1e-10",
    )


def claim_smolin_ppt() -> ClaimRecord:
    """Smolin state: PPT (zero log-negativity) across Alice:Bob, at
    least 1 ebit of log-negativity across every 1:3 cut."""
    state = to_dense(protocols.smolin_ensemble())
    checks = [ppt(dense.log_negativity(state, Cut.alice_bob(state)))]
    checks += [entangled(dense.log_negativity(state, Cut.one_vs_rest(state, q)), 1) for q in range(4)]
    return ClaimRecord(
        "smolin-ppt",
        3,
        "Smolin state is PPT across Alice:Bob yet entangled across 1:3 cuts",
        _held(checks),
        {"alice_bob_log_negativity": checks[0].measured, "one_vs_rest_log_negativity": _measured(checks, "entangled")},
        "<= 1e-9 across Alice:Bob, >= 1 - 1e-9 across 1:3 cuts",
    )


def claim_teleport_choi() -> ClaimRecord:
    """Teleportation through the Smolin state realizes the Bell-diagonal
    filter map exactly; Bell states teleport to themselves."""
    channel = to_dense(protocols.smolin_ensemble())
    choi = dense.choi_matrix(lambda s: protocols.teleport_two_qubit(channel, s))
    checks = [choi_residual(choi, protocols.eq_filter_choi())]
    for label in LABELS:
        inp = to_dense(BellEnsemble.point((label,)), role="input")
        checks.append(output_fidelity(protocols.teleport_two_qubit(channel, inp), label))
    return ClaimRecord(
        "teleport-choi",
        4,
        "Smolin-channel Choi matrix matches the analytic filter map",
        _held(checks),
        {
            "choi_max_residual": checks[0].measured,
            "worst_bell_fidelity_deviation": _worst_deviation(checks, "output-fidelity"),
        },
        "residual < 1e-9, fidelity within 1e-12",
    )


def claim_preparation_circuits() -> ClaimRecord:
    """rho_m preparation: dense agreement for m=3,4 and the uniform
    four-string structure with parity-dependent cost up to m=64."""
    checks = []
    for m in range(2, 65):
        e, ledger = protocols.prepare_rho_m(m)
        checks += [uniform_structure(e), ledger_ebits(ledger, measures.ed_rho_m(m)), locc_audit(ledger)]
        if m in (3, 4):
            checks.append(preparation_agreement(e, protocols.prepare_rho_m_dense(m)))
    return ClaimRecord(
        "preparation-circuits",
        5,
        "rho_m circuits yield the uniform four-branch state at parity cost",
        _held(checks),
        {
            "worst_dense_trace_distance": max(_measured(checks, "symbolic-dense-agreement")),
            "uniform_structure_to_64": _held(checks, "uniform-structure"),
            "parity_cost_to_64": _held(checks, "ledger-ebits", "locc-audit"),
        },
        "trace distance < 1e-12; exact structure",
    )


def claim_four_state_cloning() -> ClaimRecord:
    """Four-state cloning at n=2,3: exact clones, 2 ebits, and symbolic
    fast path matching the dense teleportation route."""
    checks = []
    for label in LABELS:
        for n in (2, 3):
            sym, ledger = protocols.clone_four_1_to_n(label, n)
            dn = protocols.clone_four_dense(label, n)
            checks += [ledger_ebits(ledger, measures.ed_rho_m(n + 1)), locc_audit(ledger)]
            checks += [dense_fidelity(dn, sym), dense_agreement(sym, dn)]
    return ClaimRecord(
        "four-state-cloning",
        6,
        "unknown-Bell-state cloning via teleportation is exact at 2 ebits",
        _held(checks),
        {
            "worst_fidelity_deviation": _worst_deviation(checks, "dense-fidelity"),
            "worst_trace_distance": max(_measured(checks, "symbolic-dense-agreement")),
            "ledgers_consistent": _held(checks, "ledger-ebits", "locc-audit"),
        },
        "fidelity within 1e-12, trace distance < 1e-10",
    )


def claim_quasi_pure_reversibility() -> ClaimRecord:
    """rho(p) with p=(0.4,0.1,0.3,0.2), n=3: 2 ebits to prepare, 2 ebits
    distilled in each branch, branch probabilities exactly (1/2, 1/2)."""
    e, prep_ledger = protocols.prepare_quasi_pure((0.4, 0.1, 0.3, 0.2), 3)
    branches, dist_ledger = protocols.distill_quasi_pure(e)
    prepared, distilled, probs, conds = checks = [
        preparation_ebits(prep_ledger, 2),
        distilled_ebits(dist_ledger, 2),
        exact_branch_probabilities(branches, {0: 0.5, 1: 0.5}),
        exact_conditionals(branches, {0: {(B1, B1): 1.0}, 1: {(B3, B3): 1.0}}),
    ]
    return ClaimRecord(
        "quasi-pure-reversibility",
        7,
        "preparation cost equals distillation yield for the quasi-pure mixture",
        _held(checks),
        {
            "ebits_consumed": prepared.measured,
            "ebits_distilled": distilled.measured,
            "branch_probabilities": probs.measured,
            "pure_conditionals": conds.passed,
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
    grid = np.arange(1, 1000) / 1000.0  # entry k-1 is k / 1000.0, so 0.5 is entry 499
    off = grid != 0.5
    ec, ed = measures.ec_sigma1(grid), measures.ed_sigma1(grid)
    strict_ok = bool((ec[off] > ed[off]).all())
    at_half = float(max(np.abs(ec[~off]).max(), np.abs(ed[~off]).max()))
    ns = np.array([[2], [5], [9]])
    gaps = measures.ec_sigma_n(grid[off], ns) - measures.ed_sigma_n(grid[off], ns)
    gap_dev = float(np.abs(gaps - (ec[off] - ed[off])).max(initial=0.0))
    h, h_mirror = measures.binary_entropy(np.stack([grid, 1.0 - grid]))
    sym_dev = float(np.abs(h - h_mirror).max(initial=0.0))
    endpoints_ok = bool((measures.binary_entropy(np.array([0.0, 1.0])) == 0.0).all())
    passed = (
        strict_ok
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
    rho_sep, cloned = protocols.separable_two_clone()
    exact_ok = cloned.entries == {(B1, B1): 0.5, (B2, B2): 0.5}
    two_reports = protocols.necessity_witness_two((rho_sep, cloned))
    four_reports = protocols.necessity_witness_four()
    checks = [ppt(two_reports[0].value), entangled(two_reports[1].value, 1)]
    checks += [ppt(four_reports[0].value), entangled(four_reports[1].value, 2)]
    return ClaimRecord(
        "linearity-witnesses",
        10,
        "linear cloning of separable mixtures creates the certified entanglement",
        exact_ok and _held(checks),
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

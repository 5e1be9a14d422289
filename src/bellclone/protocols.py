"""LOCC protocols over Bell ensembles, with dense cross-check paths.

Each protocol runs symbolically on :class:`~bellclone.calculus.BellEnsemble`
values and records an ebit/classical-bit ledger whose steps are all
Alice-local, Bob-local, or classical communication.  For registers small
enough, a ``*_dense`` companion executes the same recipe with explicit
unitaries, Bell measurements and Pauli corrections, providing the
independent verification route.

Resource accounting: a shared |B1> counts as exactly 1 ebit; two-outcome
Bell mixtures with maximum probability 1/2 are separable and count as 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import dense
from .calculus import (
    BellEnsemble,
    append_b1,
    apply_rewrite_op,
    bxor,
    dense_rewrite_op,
    mix,
    discriminate_sets,
    one_sided_pauli,
    relabel_pair,
    to_dense,
)
from .dense import Cut, DenseState, HADAMARD, PHASE_S, pauli, pauli_for_label
from .labels import B1, B2, B3, LABELS, BellLabel
from .measures import MeasureReport, log_negativity_report


@dataclass(frozen=True)
class LedgerStep:
    party: str  # "alice" | "bob" | "classical"
    operation: str
    operands: tuple

    def violates_locality(self) -> bool:
        """True if a quantum step names a qubit of the other party."""
        if self.party == "classical":
            return False
        banned = "B" if self.party == "alice" else "A"
        return any(
            isinstance(op, str) and op.startswith(banned) for op in self.operands
        )


@dataclass
class ResourceLedger:
    """Ebit and classical-communication accounting for one protocol run."""

    ebits_consumed: float = 0.0
    ebits_distilled: float = 0.0
    classical_bits: int = 0
    steps: list[LedgerStep] = field(default_factory=list)

    def record(self, party: str, operation: str, *operands):
        if party not in ("alice", "bob", "classical"):
            raise ValueError(f"unknown step party {party!r}")
        self.steps.append(LedgerStep(party, operation, tuple(operands)))

    def locc_violations(self) -> list[LedgerStep]:
        return [s for s in self.steps if s.violates_locality()]

    def to_dict(self) -> dict:
        return {
            "ebits_consumed": self.ebits_consumed,
            "ebits_distilled": self.ebits_distilled,
            "classical_bits": self.classical_bits,
        }


# ---------------------------------------------------------------------------
# Local Clifford factors and pair reductions
# ---------------------------------------------------------------------------

_FACTOR_GENERATORS = (("H", HADAMARD), ("S", PHASE_S), ("X", pauli(1)), ("Y", pauli(2)), ("Z", pauli(3)))


def _phase_canonical(m: np.ndarray) -> bytes:
    flat = m.reshape(-1)
    idx = int(np.argmax(np.abs(flat) > 1e-6))
    out = m / (flat[idx] / abs(flat[idx]))
    return (np.round(out, 6) + 0.0).tobytes()  # +0.0 folds -0.0 into +0.0


@lru_cache(maxsize=1)
def clifford_factors() -> tuple[tuple[str, np.ndarray], ...]:
    """The 24 single-qubit Clifford operators (mod phase), as shortest
    words over H, S, X, Y, Z in breadth-first order."""
    identity = np.eye(2, dtype=complex)
    seen = {_phase_canonical(identity)}
    order = [("I", identity)]
    frontier = [("", identity)]
    while frontier:
        new = []
        for word, m in frontier:
            for g, gm in _FACTOR_GENERATORS:
                m2 = m @ gm
                key = _phase_canonical(m2)
                if key not in seen:
                    seen.add(key)
                    order.append((word + g, m2))
                    new.append((word + g, m2))
        frontier = new
    return tuple(order)


def _bell_label_map(u_alice: np.ndarray, v_bob: np.ndarray) -> dict[BellLabel, BellLabel] | None:
    """Label permutation induced by U (x) V, or None if some Bell state
    leaves the Bell basis (checked by dense overlaps)."""
    full = np.kron(u_alice, v_bob)
    mapping = {}
    for src in LABELS:
        out = full @ dense.bell_vector(src)
        for dst in LABELS:
            if abs(abs(np.vdot(dense.bell_vector(dst), out)) - 1.0) < 1e-9:
                mapping[src] = dst
                break
        else:
            return None
    return mapping


@dataclass(frozen=True, eq=False)
class PairReduction:
    """Local unitaries carrying a two-label set onto {B1, B3}.

    ``label_map`` is the full four-label permutation induced by
    alice_matrix (x) bob_matrix, dense-verified during the search.
    """

    pair: frozenset[BellLabel]
    alice_word: str
    bob_word: str
    alice_matrix: np.ndarray
    bob_matrix: np.ndarray
    label_map: dict[BellLabel, BellLabel]

    @property
    def inverse_map(self) -> dict[BellLabel, BellLabel]:
        return {v: k for k, v in self.label_map.items()}


@lru_cache(maxsize=None)
def _pair_reduction_cached(pair: frozenset[BellLabel]) -> PairReduction:
    factors = clifford_factors()
    for (wa, ma), (wb, mb) in itertools.product(factors, factors):
        mapping = _bell_label_map(ma, mb)
        if mapping is None:
            continue
        if {mapping[l] for l in pair} == {B1, B3}:
            return PairReduction(pair, wa, wb, ma, mb, mapping)
    raise AssertionError("no reduction found; Clifford table incomplete")


def pair_reduction_table(label_1: BellLabel, label_2: BellLabel) -> PairReduction:
    """Local Clifford factors mapping {label_1, label_2} onto {B1, B3}.

    Found by breadth-first search over the 24 x 24 table of local
    Clifford factor pairs, so the returned words are the shortest
    available; all 6 unordered pairs are covered.
    """
    if label_1 == label_2:
        raise ValueError("pair reduction needs two distinct labels")
    return _pair_reduction_cached(frozenset((label_1, label_2)))


# ---------------------------------------------------------------------------
# Cloning of a known set of two Bell states
# ---------------------------------------------------------------------------


def _as_one_pair_ensemble(input_state: BellLabel | BellEnsemble) -> BellEnsemble:
    if isinstance(input_state, BellLabel):
        return BellEnsemble.point((input_state,))
    if input_state.n_pairs != 1:
        raise ValueError("clone input must be a single-pair state")
    return input_state


def clone_pair_1_to_n(
    input_state: BellLabel | BellEnsemble,
    pair: Iterable[BellLabel],
    n: int,
) -> tuple[BellEnsemble, ResourceLedger]:
    """1 -> n cloning of a state known to lie in a two-label set.

    Both parties rotate the declared pair onto {B1, B3}, copy it onto
    n-1 shared |B1> ancillas with bilateral C-NOTs, and rotate every
    pair back.  Consumes exactly n-1 ebits and no classical
    communication; n = 1 degenerates to the identity.  A mixed
    single-pair input supported on the declared pair is cloned linearly.
    """
    pair = tuple(pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ValueError("declared set must contain two distinct labels")
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    e = _as_one_pair_ensemble(input_state)
    support = {s[0] for s in e.entries}
    if not support <= set(pair):
        bad = ", ".join(sorted(l.name for l in support - set(pair)))
        raise ValueError(f"input state {bad} lies outside the declared pair")

    red = pair_reduction_table(*pair)
    ledger = ResourceLedger(ebits_consumed=float(n - 1))
    e = append_b1(e, n - 1)
    e = relabel_pair(e, 0, red.label_map)
    ledger.record("alice", "unitary", "A0", red.alice_word)
    ledger.record("bob", "unitary", "B0", red.bob_word)
    for k in range(1, n):
        e = bxor(e, 0, k)
        ledger.record("alice", "cnot", "A0", f"A{k}")
        ledger.record("bob", "cnot", "B0", f"B{k}")
    inverse = red.inverse_map
    for k in range(n):
        e = relabel_pair(e, k, inverse)
        ledger.record("alice", "unitary", f"A{k}", f"inv({red.alice_word})")
        ledger.record("bob", "unitary", f"B{k}", f"inv({red.bob_word})")
    return e, ledger


def clone_pair_dense(
    input_state: BellLabel | BellEnsemble, pair: Iterable[BellLabel], n: int
) -> DenseState:
    """Dense execution of :func:`clone_pair_1_to_n` (register 2n qubits)."""
    pair = tuple(pair)
    red = pair_reduction_table(*pair)
    e0 = append_b1(_as_one_pair_ensemble(input_state), n - 1)
    state = to_dense(e0)
    state = dense.apply_unitary(state, red.alice_matrix, (0,))
    state = dense.apply_unitary(state, red.bob_matrix, (1,))
    for k in range(1, n):
        state = dense_rewrite_op(state, ("bxor", 0, k))
    inv_a = red.alice_matrix.conj().T
    inv_b = red.bob_matrix.conj().T
    for k in range(n):
        state = dense.apply_unitary(state, inv_a, (2 * k,))
        state = dense.apply_unitary(state, inv_b, (2 * k + 1,))
    return state


# ---------------------------------------------------------------------------
# Preparation of the uniform four-branch ancilla rho_m
# ---------------------------------------------------------------------------


def _rho_m_recipe(m: int) -> tuple[BellEnsemble, bool, list[tuple]]:
    """Initial product state, whether Bob randomizes sigma_x over all his
    qubits, and the bilateral C-NOT schedule."""
    if m < 2:
        raise ValueError(f"rho_m needs m >= 2 pairs, got {m}")
    last = m - 1
    if m % 2:
        initial = BellEnsemble({(B1,) * last + (tail,): 0.5 for tail in (B1, B2)})
        circuit = [("bxor", k, last) for k in range(last)]
        return initial, True, circuit
    initial = BellEnsemble(
        {(first,) + (B1,) * (m - 2) + (tail,): 0.25 for first in (B1, B3) for tail in (B1, B2)}
    )
    circuit = [("bxor", 0, k) for k in range(1, last)]
    circuit += [("bxor", k, last) for k in range(last)]
    return initial, False, circuit


def prepare_rho_m(m: int) -> tuple[BellEnsemble, ResourceLedger]:
    """Prepare rho_m = (1/4) sum_i P[B_i^(x)m] from free entanglement.

    Odd m: start from m-1 shared |B1> pairs and a separable
    (P[B1]+P[B2])/2 pair, let Bob flip all his qubits with probability
    1/2, then C-NOT every earlier pair onto the last one (m-1 ebits).
    Even m: start from a separable (P[B1]+P[B3])/2 pair, m-2 shared
    |B1> pairs and a separable (P[B1]+P[B2])/2 pair, fan the first pair
    out, then C-NOT everything onto the last pair (m-2 ebits).
    m = 2 yields the Smolin state at zero cost.
    """
    initial, randomize, circuit = _rho_m_recipe(m)
    ledger = ResourceLedger(ebits_consumed=float(m - 1 if m % 2 else m - 2))
    e = initial
    if randomize:
        flipped = e
        for k in range(m):
            flipped = one_sided_pauli(flipped, k, 1, "bob")
        e = mix([e, flipped], [0.5, 0.5])
        ledger.record("bob", "random-pauli-x", *(f"B{k}" for k in range(m)))
    for op in circuit:
        e = apply_rewrite_op(e, op)
        _, s, t = op
        ledger.record("alice", "cnot", f"A{s}", f"A{t}")
        ledger.record("bob", "cnot", f"B{s}", f"B{t}")
    return e, ledger


def prepare_rho_m_dense(m: int) -> DenseState:
    """Dense execution of :func:`prepare_rho_m` (register 2m qubits)."""
    initial, randomize, circuit = _rho_m_recipe(m)
    state = to_dense(initial)
    if randomize:
        flipped = state
        for k in range(m):
            flipped = dense.apply_unitary(flipped, pauli(1), (2 * k + 1,))
        state = DenseState.mixture([(0.5, state), (0.5, flipped)])
    for op in circuit:
        state = dense_rewrite_op(state, op)
    return state


def smolin_ensemble() -> BellEnsemble:
    """The two-pair uniform correlated mixture (the Smolin state)."""
    return BellEnsemble.uniform_strings(2)


# ---------------------------------------------------------------------------
# Teleportation through correlated channels
# ---------------------------------------------------------------------------


def _teleport_and_correct(channel: DenseState, input_state: DenseState) -> DenseState:
    """Teleport a shared two-qubit state through a pair-structured channel.

    The channel's pair 0 is consumed by the Bell measurements (Alice
    measures her input qubit with A0, Bob his with B0); the
    outcome-indexed Pauli corrections are applied independently to every
    remaining channel pair, and the 16 outcomes are averaged back into
    one mixture.
    """
    n_channel_pairs = channel.n_qubits // 2
    n_receive = n_channel_pairs - 1
    if n_receive < 1:
        raise ValueError("channel needs at least two pairs")
    if input_state.n_qubits != 2:
        raise ValueError("teleportation input must be a two-qubit state")
    parties = tuple(q.party for q in input_state.qubit_labels)
    if parties != ("alice", "bob"):
        raise ValueError("input must hold one Alice qubit then one Bob qubit")

    combined = dense.tensor(input_state, channel)
    # Register: 0 = input Alice, 1 = input Bob, then channel pairs at
    # (2k+2, 2k+3); receivers are channel pairs 1..n.
    alice_receivers = [4 + 2 * k for k in range(n_receive)]
    bob_receivers = [5 + 2 * k for k in range(n_receive)]

    outputs: list[tuple[float, DenseState]] = []
    for la, pa, state_a in dense.bell_measurement(combined, (0, 2)):
        corr_a = pauli(pauli_for_label(la))
        for lb, pb, state_ab in dense.bell_measurement(state_a, (1, 3)):
            corr_b = pauli(pauli_for_label(lb))
            out = state_ab
            for q in alice_receivers:
                out = dense.apply_unitary(out, corr_a, (q,))
            for q in bob_receivers:
                out = dense.apply_unitary(out, corr_b, (q,))
            outputs.append((pa * pb, out))

    averaged = DenseState.mixture(outputs)
    keep = sorted(alice_receivers + bob_receivers)
    reduced = dense.partial_trace(averaged, keep)
    return replace(reduced, qubit_labels=dense.pair_register(n_receive))


def teleport_two_qubit(channel: DenseState, input_state: DenseState) -> DenseState:
    """Teleport a two-qubit state through a two-pair channel.

    Both parties run the standard single-qubit teleportation protocol
    for channel |B1> (corrections B1 -> I, B2 -> z, B3 -> x, B4 -> y) on
    their own halves; the output is averaged over the 16 outcome pairs.
    Through the Smolin state this realizes the Bell-diagonal filter
    sigma_i (x) sigma_j -> delta_ij sigma_i (x) sigma_j.
    """
    if channel.n_qubits != 4:
        raise ValueError("two-qubit teleportation needs a two-pair channel")
    return _teleport_and_correct(channel, input_state)


def ideal_channel() -> DenseState:
    """Two independent perfect teleportation channels: a |B1> between
    Alice's sending and receiving qubits and another between Bob's."""
    b = dense.bell_vector(B1).reshape(2, 2)
    vec = np.multiply.outer(b, b)  # axes (A0, A1, B0, B1)
    vec = np.transpose(vec, (0, 2, 1, 3)).reshape(-1)  # to (A0, B0, A1, B1)
    return DenseState.pure(vec, dense.pair_register(2, role="ancilla"))


def eq_filter_choi() -> np.ndarray:
    """Choi matrix of the Bell-diagonal filter map, assembled term by
    term from the 16 two-qubit Pauli products (sum over the 4 diagonal
    ones of (s_i (x) s_i) (x) (s_i (x) s_i)^T / 16)."""
    choi = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        op = np.kron(pauli(i), pauli(i))
        choi += np.kron(op, op.T) / 16.0
    return choi


# ---------------------------------------------------------------------------
# Cloning of the full four-state set
# ---------------------------------------------------------------------------


def _as_distribution(input_state: BellLabel | Sequence[float]) -> tuple[float, float, float, float]:
    if isinstance(input_state, BellLabel):
        q = [0.0, 0.0, 0.0, 0.0]
        q[input_state.index - 1] = 1.0
        return tuple(q)
    q = tuple(float(x) for x in input_state)
    if len(q) != 4 or any(x < 0 for x in q) or abs(sum(q) - 1.0) > 1e-12:
        raise ValueError(f"not a Bell-diagonal distribution: {q}")
    return q


def clone_four_1_to_n(
    input_state: BellLabel | Sequence[float], n: int
) -> tuple[BellEnsemble, ResourceLedger]:
    """1 -> n cloning of a completely unknown Bell state.

    Prepares the ancilla rho_(n+1), jointly teleports the input through
    its first pair, and corrects every receiving pair with the broadcast
    outcomes; the clones appear perfectly correlated, so a Bell-diagonal
    input distribution q yields sum_k q_k P[B_k^(x)n].  Costs n ebits
    for even n and n-1 for odd n (the ancilla's preparation cost) plus 4
    classical bits.
    """
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    q = _as_distribution(input_state)
    _, ledger = prepare_rho_m(n + 1)
    entries = {(label,) * n: qk for label, qk in zip(LABELS, q) if qk > 0}
    out = BellEnsemble(entries)
    _teleport_steps(ledger, n)
    return out, ledger


def _teleport_steps(ledger: ResourceLedger, n_receive: int):
    ledger.record("alice", "bell-measure", "A_in", "A0")
    ledger.record("bob", "bell-measure", "B_in", "B0")
    ledger.record("classical", "broadcast-outcomes", 4)
    ledger.classical_bits += 4
    for k in range(n_receive):
        ledger.record("alice", "pauli-correct", f"A{k + 1}")
        ledger.record("bob", "pauli-correct", f"B{k + 1}")


def clone_four_dense(
    input_state: BellLabel | Sequence[float], n: int
) -> DenseState:
    """Dense teleportation route for :func:`clone_four_1_to_n` (n <= 5).

    Builds rho_(n+1) densely, runs the explicit Bell measurements and
    the per-pair corrections, and returns the joint n-pair output.
    """
    q = _as_distribution(input_state)
    channel = to_dense(prepare_rho_m(n + 1)[0])
    entries = {(label,): qk for label, qk in zip(LABELS, q) if qk > 0}
    input_dense = to_dense(BellEnsemble(entries), role="input")
    return _teleport_and_correct(channel, input_dense)


# ---------------------------------------------------------------------------
# Quasi-pure mixtures: preparation and distillation
# ---------------------------------------------------------------------------


def prepare_quasi_pure(
    p: Sequence[float], n: int
) -> tuple[BellEnsemble, ResourceLedger]:
    """Prepare rho(p) = sum_i p_i P[B_i^(x)n] for odd n and all p_i <= 1/2.

    The single-pair mixture sum_i p_i P[B_i] is separable under the
    p_i <= 1/2 cap (zero cost); cloning it 1 -> n through rho_(n+1)
    costs n-1 ebits, the state's distillable entanglement.
    """
    q = _as_distribution(p)
    if max(q) > 0.5 + 1e-12:
        raise ValueError(
            "component probabilities above 1/2 make the seed pair entangled;"
            " preparation cost claim void"
        )
    if n < 3 or n % 2 == 0:
        raise ValueError(f"quasi-pure preparation needs odd n >= 3, got {n}")
    return clone_four_1_to_n(q, n)


def distill_quasi_pure(
    e: BellEnsemble,
) -> tuple[list[tuple[int, float, BellEnsemble]], ResourceLedger]:
    """Distill a mixture of constant strings sum_i p_i P[B_i^(x)n].

    Both parties C-NOT every earlier pair onto the last one, then
    distinguish {B1,B2} from {B3,B4} on that pair (2 classical bits).
    For odd n the surviving n-1 pairs come out as pure B1^(x)(n-1) with
    probability p1+p2 and pure B3^(x)(n-1) with probability p3+p4;
    the ledger credits n-1 distilled ebits only when every branch is
    pure.
    """
    n = e.n_pairs
    if n < 2:
        raise ValueError("distillation needs at least two pairs")
    for s in e.entries:
        if any(label != s[0] for label in s):
            raise ValueError("input must be a mixture of constant Bell strings")
    ledger = ResourceLedger()
    last = n - 1
    for k in range(last):
        e = bxor(e, k, last)
        ledger.record("alice", "cnot", f"A{k}", f"A{last}")
        ledger.record("bob", "cnot", f"B{k}", f"B{last}")
    ledger.record("alice", "measure-z", f"A{last}")
    ledger.record("bob", "measure-z", f"B{last}")
    ledger.record("classical", "compare-parity", 2)
    ledger.classical_bits += 2
    branches = discriminate_sets(e, last)
    if all(cond is not None and len(cond.entries) == 1 for _, _, cond in branches):
        ledger.ebits_distilled = float(n - 1)
    return branches, ledger


def distill_quasi_pure_dense(
    e: BellEnsemble,
) -> list[tuple[int, float, DenseState]]:
    """Dense execution of the distillation circuit and parity measurement.

    Returns (parity bit, probability, reduced post-state on the first
    n-1 pairs) per branch, for cross-checking the symbolic route.
    """
    n = e.n_pairs
    state = to_dense(e)
    last = n - 1
    for k in range(last):
        state = dense_rewrite_op(state, ("bxor", k, last))
    out = []
    for bit in (0, 1):
        # Projector onto the computational states (x_a, x_b) of the last pair with x_a ^ x_b = bit.
        proj = np.diag([complex((x >> 1) ^ (x & 1) == bit) for x in range(4)])
        weighted = []
        prob = 0.0
        for b in state.branches:
            psi = dense._apply_matrix(b.amplitudes, state.n_qubits, proj, (2 * last, 2 * last + 1))
            p_b = float(np.vdot(psi, psi).real)
            prob += b.weight * p_b
            if p_b > 1e-14:
                weighted.append(dense.PureBranch(psi / np.sqrt(p_b), b.weight * p_b))
        if prob <= 1e-14:
            continue
        post = DenseState(
            tuple(dense.PureBranch(br.amplitudes, br.weight / prob) for br in weighted),
            state.qubit_labels,
        )
        reduced = dense.partial_trace(post, range(2 * last))
        out.append((bit, prob, reduced))
    return out


# ---------------------------------------------------------------------------
# The sigma_n family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaBuild:
    """Result of building sigma_n = p P[B1^(x)n] + (1-p) P[B2^(x)n]."""

    ensemble: BellEnsemble
    steps: tuple[tuple, ...]
    intermediate: BellEnsemble  # p P[B1^(x)n] + (1-p) P[B3^(x)n]
    start: BellEnsemble  # sigma_1 (x) P[B1^(x)(n-1)]

    @property
    def inverse_steps(self) -> tuple[tuple, ...]:
        """Same operations reversed; every step is an involution."""
        return tuple(reversed(self.steps))


def build_sigma_n(p: float, n: int) -> SigmaBuild:
    """Build sigma_n from sigma_1 and n-1 shared |B1> pairs.

    Bilateral Hadamard on the seed pair, bilateral C-NOTs fanning it
    onto every ancilla, then bilateral Hadamards on all pairs.  The
    pre-final mixture of B1/B3 strings is exposed as ``intermediate``;
    replaying ``inverse_steps`` restores the start state exactly.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"mixing probability must lie in (0, 1), got {p}")
    if n < 1:
        raise ValueError(f"number of pairs must be >= 1, got {n}")
    start = BellEnsemble(
        {(B1,) + (B1,) * (n - 1): p, (B2,) + (B1,) * (n - 1): 1.0 - p}
    )
    steps: list[tuple] = [("bilateral_hadamard", 0)]
    steps += [("bxor", 0, k) for k in range(1, n)]
    final_hadamards = [("bilateral_hadamard", k) for k in range(n)]
    e = start
    for op in steps:
        e = apply_rewrite_op(e, op)
    intermediate = e
    for op in final_hadamards:
        e = apply_rewrite_op(e, op)
    return SigmaBuild(e, tuple(steps + final_hadamards), intermediate, start)


def apply_steps(e: BellEnsemble, steps: Iterable[tuple]) -> BellEnsemble:
    for op in steps:
        e = apply_rewrite_op(e, op)
    return e


# ---------------------------------------------------------------------------
# Necessity witnesses
# ---------------------------------------------------------------------------


def necessity_witness_two() -> list[MeasureReport]:
    """Entanglement budget of two-state cloning, run on a separable input.

    Cloning acts linearly, so the separable mixture (P[B1]+P[B2])/2 maps
    to (P[B1 B1]+P[B2 B2])/2; the reports record the Alice:Bob
    log-negativity before (0) and after (>= 1), exhibiting the 1-ebit
    ancilla bound numerically.
    """
    rho_sep = mix([BellEnsemble.point((B1,)), BellEnsemble.point((B2,))], [0.5, 0.5])
    cloned, _ = clone_pair_1_to_n(rho_sep, (B1, B2), 2)
    sep_dense = to_dense(rho_sep)
    out_dense = to_dense(cloned)
    return [
        log_negativity_report(sep_dense, Cut.alice_bob(sep_dense), "(P[B1]+P[B2])/2", "alice:bob"),
        log_negativity_report(out_dense, Cut.alice_bob(out_dense), "(P[B1 B1]+P[B2 B2])/2", "alice:bob"),
    ]


def necessity_witness_four() -> list[MeasureReport]:
    """Four-state analogue: the Smolin state is separable across
    Alice:Bob, while its cloned three-pair extension carries at least
    2 ebits of log-negativity there."""
    smolin = to_dense(smolin_ensemble())
    tripled, _ = clone_four_1_to_n((0.25, 0.25, 0.25, 0.25), 3)
    tripled_dense = to_dense(tripled)
    return [
        log_negativity_report(smolin, Cut.alice_bob(smolin), "smolin", "alice:bob"),
        log_negativity_report(
            tripled_dense, Cut.alice_bob(tripled_dense), "uniform-three-pair", "alice:bob"
        ),
    ]

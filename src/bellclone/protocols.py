"""LOCC protocols over Bell ensembles, each written once as a step list.

A protocol is a :class:`Program`: an initial ensemble and a tuple of
steps, which :func:`~bellclone.calculus.apply_steps` runs symbolically at
any number of pairs and :func:`run_dense` runs with explicit unitaries and
measurements on small registers (through one interpreter,
:func:`~bellclone.calculus.apply_steps_dense`), the independent
verification route.
The ebit/classical-bit ledger is derived from the list
(:func:`derive_ledger`), with every step Alice-local, Bob-local, or
classical communication; its lines, built on read, name the register
qubits they act on, whose owners :meth:`ResourceLedger.locc_violations` audits.

Resource accounting: a shared |B1> counts as exactly 1 ebit; two-outcome
Bell mixtures with maximum probability 1/2 are separable and count as 0.
The rule is applied to each initial pair that is not an input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np

from . import calculus, dense
from .calculus import (
    PARTIES,
    BellEnsemble,
    append_b1,
    apply_steps,
    apply_steps_dense,
    mix,
    teleport_two_qubit,
    to_dense,
)
from .dense import Cut, DenseState, HADAMARD, PHASE_S, QubitLabel, pauli
from .labels import B1, B2, B3, B4, LABELS, BellLabel
from .measures import MeasureReport, log_negativity_report


class LedgerStep(NamedTuple):
    """One line of a ledger: a party's operation on the register qubits
    ``qubits`` (none for a classical message) and its further operands."""

    party: str  # "alice" | "bob" | "classical"
    operation: str
    qubits: tuple[QubitLabel, ...] = ()
    words: tuple = ()

    @property
    def operands(self) -> tuple:
        """The qubits' tags, then the further operands (a word, a bit count)."""
        return tuple(q.tag for q in self.qubits) + self.words


class ResourceLedger:
    """Ebit and classical-communication accounting for one protocol run.  ``steps`` is a ``list[LedgerStep]``:
    the lines given or set by hand, then those of the segments :func:`derive_ledger` recorded, built on read."""

    def __init__(self, ebits_consumed=0.0, ebits_distilled=0.0, classical_bits=0, steps: list | None = None):
        self.ebits_consumed, self.ebits_distilled, self.classical_bits = ebits_consumed, ebits_distilled, classical_bits
        self._lines, self._segments = [] if steps is None else steps, []

    @property
    def steps(self) -> list[LedgerStep]:
        self._lines += [line for segment in self._segments for line in _segment_lines(*segment)]
        self._segments.clear()
        return self._lines

    @steps.setter
    def steps(self, lines: list[LedgerStep]) -> None:
        self._lines, self._segments = lines, []

    def locc_violations(self) -> list[LedgerStep]:
        """The lines acting on a register qubit that the other party holds.  A segment's lines
        are built for this only if its owner table, read through party_qubit, crosses."""
        crossing = [seg for seg in self._segments if any(q.party != p for p, qp in _qubits(seg[0]) for q in qp)]
        lines = self._lines + [line for seg in crossing for line in _segment_lines(*seg)]
        return [s for s in lines if any(q.party != s.party for q in s.qubits)]

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in ("ebits_consumed", "ebits_distilled", "classical_bits")}


# ---------------------------------------------------------------------------
# Programs: one step list, two interpreters, a derived ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """An initial ensemble and the steps run on it.  Its first ``inputs``
    pairs are handed over (an input, or a channel prepared earlier) and
    not charged; each later pair is costed by :func:`ebit_cost`."""

    initial: BellEnsemble
    steps: tuple[tuple, ...]
    inputs: int = 0


def ebit_cost(e: BellEnsemble, pairs: Collection[int] = ()) -> int:
    """The accounting rule, summed over the distinct ``pairs`` of a product ensemble, each read from its 2-bit
    field of the packed strings: 1 for a shared |B1> (00), 0 for a separable two-label mixture at most 1/2 each."""
    n, held = e.n_pairs, reduce(or_, e._probs)
    if isinstance(pairs, range):  # distinct, with its least and greatest pair at its two ends
        checked = (pairs[0], pairs[-1]) if pairs else ()
    else:
        pairs = set(pairs)
        checked = sorted(pairs)
    for pair in checked:
        calculus._check_pair(n, pair)
    # "1" at 2k + 1 where pair k's field is not 00 in some string, the only pairs that can cost 0
    flags = format((held | held >> 1) & (4**n - 1) // 3, "b").zfill(2 * n)
    mixed = [k for k in (m.start() // 2 for m in re.finditer("1", flags)) if k in pairs]
    for pair in mixed:
        fields = [x >> 2 * (n - 1 - pair) & 3 for x in e._probs]
        marginal = [sum(p for g, p in zip(fields, e._probs.values()) if g == f) for f in set(fields)]
        if len(marginal) != 2 or max(marginal) > 0.5 + 1e-12:
            raise ValueError(f"no ebit rule for pair {pair}: neither |B1> nor a separable two-label mixture")
    return len(pairs) - len(mixed)


def _qubits(register: tuple[QubitLabel, ...]) -> list[tuple[str, list[QubitLabel]]]:
    """Each party with its qubit of every pair of a pair register, read once
    through :func:`~bellclone.calculus.party_qubit`, as the dense route reads it."""
    return [(party, [register[calculus.party_qubit(k, party)] for k in range(len(register) // 2)]) for party in PARTIES]


def _segment_lines(register: tuple[QubitLabel, ...], ops: tuple[tuple, ...]) -> list[LedgerStep]:
    """The lines of the steps ``ops`` run on ``register``: one per party and step, one per message."""
    (_, qa), (_, qb) = q = _qubits(register)
    lines: list[LedgerStep] = []
    for op in ops:
        name = op[0]
        if name == "bxor":
            _, s, t = op
            lines += (LedgerStep("alice", "cnot", (qa[s], qa[t])), LedgerStep("bob", "cnot", (qb[s], qb[t])))
        elif name in ("local_clifford", "bilateral_hadamard"):
            words = (op[2].alice_word, op[2].bob_word) if name == "local_clifford" else ("H", "H")
            lines += [LedgerStep(party, "unitary", (qp[op[1]],), (w,)) for (party, qp), w in zip(q, words)]
        elif name == "one_sided_pauli":
            _, k, index, side = op
            lines.append(LedgerStep(side, "unitary", ((qa if side == "alice" else qb)[k],), ("XYZ"[index - 1],)))
        elif name == "random_pauli_x":
            lines.append(LedgerStep("bob", "random-pauli-x", tuple(qb)))
        elif name == "parity_measure":
            lines += [LedgerStep(party, "measure-z", (qp[op[1]],)) for party, qp in q]
            lines.append(LedgerStep("classical", "compare-parity", (), (2,)))
        else:  # a teleport: pair 0 is its input pair, and channel pair k - 1 is pair k
            lines += [LedgerStep(party, "bell-measure", (qp[0], qp[1])) for party, qp in q]
            lines.append(LedgerStep("classical", "broadcast-outcomes", (), (4,)))
            lines += [LedgerStep(p, "pauli-correct", (qp[k],)) for k in range(2, len(qa)) for p, qp in q]
    return lines


def derive_ledger(program: Program, ledger: ResourceLedger | None = None) -> ResourceLedger:
    """The program's ledger (appended to ``ledger`` if given): ebits from the charged initial
    pairs, the bits each classical step sends, and each register segment with the program's
    steps run on it; a teleport runs alone on the register with its input pair in front, then
    starts a new segment.  A step that both interpreters' check (:func:`~bellclone.calculus._step_columns`)
    rejects raises its message here too, before ``ledger`` is charged anything."""
    e, n = program.initial, program.initial.n_pairs
    ebits = ebit_cost(e, range(program.inputs, n))
    register, start, bits, segments = dense.pair_register(n), 0, 0, []
    steps = iter(program.steps)
    for i, op in enumerate(steps):
        name = op[0]
        if name == "bxor":
            _, s, t = op
            if 0 <= s < n and 0 <= t < n and s != t:
                continue  # valid: _step_columns would only build its column step
        calculus._step_columns(n, op)
        if name == "parity_measure":
            calculus._check_last(steps)
            bits += 2
        elif name == "teleport":
            bits += 4
            segments += [(register, program.steps[start:i]), (dense.pair_register(1, role="input") + register, (op,))]
            # the Bell measurements consumed channel pair 0; later steps act on the rest
            register, n, start = register[2:], n - 1, i + 1
    ledger = ResourceLedger() if ledger is None else ledger
    ledger.ebits_consumed += ebits
    ledger.classical_bits += bits
    ledger._segments += segments + [(register, program.steps[start:])]
    return ledger


def _run(program: Program, ledger: ResourceLedger | None = None):
    return apply_steps(program.initial, program.steps), derive_ledger(program, ledger)


class DenseLimitError(ValueError):
    """The program needs a larger register than the dense oracle holds."""


def _check_dense_fit(n: int, kinds: Iterable[str]) -> None:
    """Raise :class:`DenseLimitError` if an ``n``-pair program with steps
    of these kinds exceeds the dense oracle's register, or if it measures
    a parity and leaves more than 10 qubits."""
    kinds = set(kinds)
    register = 2 * (n + ("teleport" in kinds))  # teleportation brings its input pair
    # The parity measurement drops its pair and takes no spectrum, so the
    # remainder cap guards no density matrix.  It keeps the set of runs the
    # oracle certifies as it is: lifting it makes distill --n 7 certify at
    # 14 qubits, which changes that run's report and multiplies its cost.
    remainder = 2 * (n - 1) if "parity_measure" in kinds else 0
    if register > dense.MAX_REGISTER_QUBITS or remainder > dense.MAX_DENSE_QUBITS:
        raise DenseLimitError(f"a {n}-pair program exceeds the dense register limits")


def run_dense(program: Program):
    """Run a program's steps on explicit state vectors; raises
    :class:`DenseLimitError` up front if it does not fit (see
    :func:`_check_dense_fit`)."""
    _check_dense_fit(program.initial.n_pairs, (op[0] for op in program.steps))
    return apply_steps_dense(to_dense(program.initial), program.steps)


# ---------------------------------------------------------------------------
# Local Clifford factors and pair reductions
# ---------------------------------------------------------------------------

#: Alice's word, Bob's word and the images of B1..B4 under the product of
#: their matrices, carrying each two-label set onto {B1, B3}.  The words
#: are the first a breadth-first search over the 24 x 24 local Clifford
#: pairs finds, and each label map is one of the affine maps AGL(2,2) ~ S4
#: that local Cliffords induce (Dehaene, Van den Nest, De Moor, Verstraete,
#: PRA 67, 022310, 2003); the tests re-run the search and certify every
#: map by dense overlaps.
_REDUCTIONS = {
    (B1, B2): ("H", "H", (B1, B3, B2, B4)),
    (B1, B3): ("I", "I", (B1, B2, B3, B4)),
    (B1, B4): ("S", "SX", (B3, B4, B2, B1)),
    (B2, B3): ("S", "S", (B2, B1, B3, B4)),
    (B2, B4): ("I", "Y", (B4, B3, B2, B1)),
    (B3, B4): ("H", "HX", (B2, B4, B1, B3)),
}

_GENERATORS = {"I": np.eye(2, dtype=complex), "H": HADAMARD, "S": PHASE_S, "X": pauli(1), "Y": pauli(2)}


def _word_matrix(word: str) -> np.ndarray:
    """The product of a word's generator matrices, left to right."""
    return reduce(lambda m, g: m @ _GENERATORS[g], word, np.eye(2, dtype=complex))


@dataclass(frozen=True, eq=False)
class PairReduction:
    """Local unitaries carrying a two-label set onto {B1, B3}.

    ``label_map`` is the full four-label permutation induced by
    alice_matrix (x) bob_matrix.
    """

    pair: frozenset[BellLabel]
    alice_word: str
    bob_word: str
    alice_matrix: np.ndarray
    bob_matrix: np.ndarray
    label_map: dict[BellLabel, BellLabel]

    @cached_property
    def pair_matrix(self) -> np.ndarray:
        """alice_matrix (x) bob_matrix, the 4x4 gate on the pair's (Alice, Bob)
        qubits, exact: a table row's words hold an even number of H, so each
        part of each entry is the multiple of 1/2 nearest np.kron's."""
        return np.round(2 * np.kron(self.alice_matrix, self.bob_matrix)) / 2

    @property
    def inverse_map(self) -> dict[BellLabel, BellLabel]:
        return {v: k for k, v in self.label_map.items()}

    def inverse(self) -> "PairReduction":
        """The local unitaries undoing this reduction (adjoint matrices), built once per reduction."""
        return self._inverse

    @cached_property
    def _inverse(self) -> "PairReduction":
        words = (f"inv({self.alice_word})", f"inv({self.bob_word})")
        adjoints = (self.alice_matrix.conj().T, self.bob_matrix.conj().T)
        return PairReduction(self.pair, *words, *adjoints, self.inverse_map)


@lru_cache(maxsize=None)
def pair_reduction_table(label_1: BellLabel, label_2: BellLabel) -> PairReduction:
    """Local Clifford factors mapping {label_1, label_2} onto {B1, B3};
    all 6 unordered pairs are covered."""
    if label_1 == label_2:
        raise ValueError("pair reduction needs two distinct labels")
    pair = tuple(sorted((label_1, label_2), key=LABELS.index))
    alice_word, bob_word, images = _REDUCTIONS[pair]
    matrices = _word_matrix(alice_word), _word_matrix(bob_word)
    return PairReduction(frozenset(pair), alice_word, bob_word, *matrices, dict(zip(LABELS, images)))


# ---------------------------------------------------------------------------
# Cloning of a known set of two Bell states
# ---------------------------------------------------------------------------


def _clone_pair_program(input_state: BellLabel | BellEnsemble, pair: Iterable[BellLabel], n: int) -> Program:
    pair = tuple(pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ValueError("declared set must contain two distinct labels")
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    if isinstance(input_state, BellLabel):
        input_state = BellEnsemble.point((input_state,))
    if input_state.n_pairs != 1:
        raise ValueError("clone input must be a single-pair state")
    support = {s[0] for s in input_state.entries}
    if not support <= set(pair):
        bad = ", ".join(sorted(l.name for l in support - set(pair)))
        raise ValueError(f"input state {bad} lies outside the declared pair")
    red = pair_reduction_table(*pair)
    undo = red.inverse()
    steps = [("local_clifford", 0, red)] + [("bxor", 0, k) for k in range(1, n)]
    steps += [("local_clifford", k, undo) for k in range(n)]
    return Program(append_b1(input_state, n - 1), tuple(steps), inputs=1)


def clone_pair_1_to_n(
    input_state: BellLabel | BellEnsemble, pair: Iterable[BellLabel], n: int
) -> tuple[BellEnsemble, ResourceLedger]:
    """1 -> n cloning of a state known to lie in a two-label set.

    Both parties rotate the declared pair onto {B1, B3}, copy it onto
    n-1 shared |B1> ancillas with bilateral C-NOTs, and rotate every
    pair back.  Consumes exactly n-1 ebits and no classical
    communication; n = 1 degenerates to the identity.  A mixed
    single-pair input supported on the declared pair is cloned linearly.
    """
    return _run(_clone_pair_program(input_state, pair, n))


def clone_pair_dense(input_state: BellLabel | BellEnsemble, pair: Iterable[BellLabel], n: int) -> DenseState:
    """Dense execution of :func:`clone_pair_1_to_n` (register 2n qubits)."""
    return run_dense(_clone_pair_program(input_state, pair, n))


# ---------------------------------------------------------------------------
# Preparation of the uniform four-branch ancilla rho_m
# ---------------------------------------------------------------------------


def _rho_m_program(m: int) -> Program:
    if m < 2:
        raise ValueError(f"rho_m needs m >= 2 pairs, got {m}")
    last = m - 1
    if m % 2:
        initial = BellEnsemble({(B1,) * last + (tail,): 0.5 for tail in (B1, B2)})
        steps = [("random_pauli_x",)] + [("bxor", k, last) for k in range(last)]
    else:
        initial = BellEnsemble(
            {(first,) + (B1,) * (m - 2) + (tail,): 0.25 for first in (B1, B3) for tail in (B1, B2)}
        )
        steps = [("bxor", 0, k) for k in range(1, last)] + [("bxor", k, last) for k in range(last)]
    return Program(initial, tuple(steps))


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
    return _run(_rho_m_program(m))


def prepare_rho_m_dense(m: int) -> DenseState:
    """Dense execution of :func:`prepare_rho_m` (register 2m qubits)."""
    return run_dense(_rho_m_program(m))


def smolin_ensemble() -> BellEnsemble:
    """The two-pair uniform correlated mixture (the Smolin state)."""
    return BellEnsemble.uniform_strings(2)


# ---------------------------------------------------------------------------
# Teleportation through correlated channels
# ---------------------------------------------------------------------------


def ideal_channel() -> DenseState:
    """Two independent perfect teleportation channels: a |B1> between
    Alice's sending and receiving qubits and another between Bob's."""
    b = dense.bell_vector(B1).reshape(2, 2)
    vec = np.multiply.outer(b, b)  # axes (A0, A1, B0, B1)
    vec = np.transpose(vec, (0, 2, 1, 3)).reshape(-1)  # to (A0, B0, A1, B1)
    return DenseState.pure(vec, dense.pair_register(2, role="ancilla"))


@lru_cache(maxsize=None)
def eq_filter_choi() -> np.ndarray:
    """Choi matrix of the Bell-diagonal filter map, assembled term by
    term from the 16 two-qubit Pauli products (sum over the 4 diagonal
    ones of (s_i (x) s_i) (x) (s_i (x) s_i)^T / 16); built on first use
    and shared, read-only."""
    choi = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        op = np.kron(pauli(i), pauli(i))
        choi += np.kron(op, op.T) / 16.0
    choi.flags.writeable = False
    return choi


# ---------------------------------------------------------------------------
# Cloning of the full four-state set
# ---------------------------------------------------------------------------


def _as_distribution(input_state: BellLabel | Sequence[float]) -> tuple[float, float, float, float]:
    if isinstance(input_state, BellLabel):
        return tuple(float(label is input_state) for label in LABELS)
    q = tuple(float(x) for x in input_state)
    if len(q) != 4 or not all(0.0 <= x <= 1.0 for x in q) or abs(sum(q) - 1.0) > 1e-12:
        raise ValueError(f"not a Bell-diagonal distribution: {q}")
    return q


def _clone_four_program(input_state: BellLabel | Sequence[float], n: int) -> tuple[Program, Program]:
    """The program teleporting the input through rho_(n+1), and rho_(n+1)'s own
    program, whose steps alone prepare the channel here: only
    :func:`clone_four_1_to_n` derives its ledger."""
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    q = _as_distribution(input_state)
    rho = _rho_m_program(n + 1)
    source = BellEnsemble({(label,): qk for label, qk in zip(LABELS, q) if qk > 0})
    return Program(apply_steps(rho.initial, rho.steps), (("teleport", source),), inputs=n + 1), rho


def clone_four_1_to_n(input_state: BellLabel | Sequence[float], n: int) -> tuple[BellEnsemble, ResourceLedger]:
    """1 -> n cloning of a completely unknown Bell state.

    Prepares the ancilla rho_(n+1), jointly teleports the input through
    its first pair, and corrects every receiving pair with the broadcast
    outcomes; the clones appear perfectly correlated, so a Bell-diagonal
    input distribution q yields sum_k q_k P[B_k^(x)n].  Costs n ebits
    for even n and n-1 for odd n (the ancilla's preparation cost) plus 4
    classical bits.
    """
    program, rho = _clone_four_program(input_state, n)
    return _run(program, derive_ledger(rho))


def clone_four_dense(input_state: BellLabel | Sequence[float], n: int) -> DenseState:
    """Dense teleportation route for :func:`clone_four_1_to_n` (n <= 5:
    the input and rho_(n+1) take 2n+4 qubits).  The limit is checked
    before rho_(n+1) is prepared, and its ledger is not derived."""
    _check_dense_fit(n + 1, ("teleport",))
    return run_dense(_clone_four_program(input_state, n)[0])


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


def _distill_program(e: BellEnsemble) -> Program:
    n = e.n_pairs
    if n < 2:
        raise ValueError("distillation needs at least two pairs")
    for s in e.entries:
        if any(label != s[0] for label in s):
            raise ValueError("input must be a mixture of constant Bell strings")
    last = n - 1
    steps = [("bxor", k, last) for k in range(last)] + [("parity_measure", last)]
    return Program(e, tuple(steps), inputs=n)


def distill_quasi_pure(e: BellEnsemble) -> tuple[list[tuple[int, float, BellEnsemble]], ResourceLedger]:
    """Distill a mixture of constant strings sum_i p_i P[B_i^(x)n].

    Both parties C-NOT every earlier pair onto the last one, then
    distinguish {B1,B2} from {B3,B4} on that pair (2 classical bits).
    For odd n the surviving n-1 pairs come out as pure B1^(x)(n-1) with
    probability p1+p2 and pure B3^(x)(n-1) with probability p3+p4;
    the ledger credits n-1 distilled ebits only when every branch is
    pure.
    """
    branches, ledger = _run(_distill_program(e))
    if all(cond is not None and len(cond.entries) == 1 for _, _, cond in branches):
        ledger.ebits_distilled = float(e.n_pairs - 1)
    return branches, ledger


def distill_quasi_pure_dense(e: BellEnsemble) -> list[tuple[int, float, DenseState]]:
    """Dense execution of :func:`distill_quasi_pure`: (parity bit,
    probability, reduced post-state on the first n-1 pairs) per branch."""
    return run_dense(_distill_program(e))


# ---------------------------------------------------------------------------
# The sigma_n family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaBuild:
    """Result of building sigma_n = p P[B1^(x)n] + (1-p) P[B2^(x)n]."""

    ensemble: BellEnsemble
    steps: tuple[tuple, ...]
    start: BellEnsemble  # sigma_1 (x) P[B1^(x)(n-1)]

    @property
    def inverse_steps(self) -> tuple[tuple, ...]:
        """Same operations reversed; every step is an involution."""
        return tuple(reversed(self.steps))


def build_sigma_n(p: float, n: int) -> SigmaBuild:
    """Build sigma_n from sigma_1 and n-1 shared |B1> pairs.

    Bilateral Hadamard on the seed pair, bilateral C-NOTs fanning it
    onto every ancilla (a mixture of B1 and B3 strings), then bilateral
    Hadamards on all pairs.  Replaying ``inverse_steps`` restores the
    start state exactly.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"mixing probability must lie in (0, 1), got {p}")
    if n < 1:
        raise ValueError(f"number of pairs must be >= 1, got {n}")
    start = BellEnsemble(
        {(B1,) + (B1,) * (n - 1): p, (B2,) + (B1,) * (n - 1): 1.0 - p}
    )
    steps = (("bilateral_hadamard", 0),) + tuple(("bxor", 0, k) for k in range(1, n))
    steps += tuple(("bilateral_hadamard", k) for k in range(n))
    return SigmaBuild(apply_steps(start, steps), steps, start)


# ---------------------------------------------------------------------------
# Necessity witnesses
# ---------------------------------------------------------------------------


def separable_two_clone() -> tuple[BellEnsemble, BellEnsemble]:
    """The separable mixture (P[B1]+P[B2])/2 and its two-pair clone."""
    rho_sep = mix([BellEnsemble.point((B1,)), BellEnsemble.point((B2,))], [0.5, 0.5])
    return rho_sep, clone_pair_1_to_n(rho_sep, (B1, B2), 2)[0]


def necessity_witness_two(clone: tuple[BellEnsemble, BellEnsemble] | None = None) -> list[MeasureReport]:
    """Entanglement budget of two-state cloning, run on a separable input.

    Cloning acts linearly, so the separable mixture (P[B1]+P[B2])/2 maps
    to (P[B1 B1]+P[B2 B2])/2; the reports record the Alice:Bob
    log-negativity before (0) and after (>= 1), exhibiting the 1-ebit
    ancilla bound numerically.  ``clone`` is :func:`separable_two_clone`'s
    result when the caller has it already.
    """
    rho_sep, cloned = clone or separable_two_clone()
    return [_alice_bob_report(rho_sep, "(P[B1]+P[B2])/2"), _alice_bob_report(cloned, "(P[B1 B1]+P[B2 B2])/2")]


def necessity_witness_four() -> list[MeasureReport]:
    """Four-state analogue: the Smolin state is separable across
    Alice:Bob, while its cloned three-pair extension carries at least
    2 ebits of log-negativity there."""
    tripled, _ = clone_four_1_to_n((0.25, 0.25, 0.25, 0.25), 3)
    return [_alice_bob_report(smolin_ensemble(), "smolin"), _alice_bob_report(tripled, "uniform-three-pair")]


def _alice_bob_report(e: BellEnsemble, name: str) -> MeasureReport:
    state = to_dense(e)
    return log_negativity_report(state, Cut.alice_bob(state), name, "alice:bob")

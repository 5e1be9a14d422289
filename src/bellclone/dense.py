"""Exact dense-vector oracle for small qubit registers.

States are stored as weighted mixtures of pure branches (never as full
density matrices), so registers up to 14 qubits stay cheap.  Spectra are
taken at the size of the state's rank, not of the register: a partial
trace diagonalizes its stacked branch columns by a thin SVD, and a trace
distance works in the joint span of both states' branches.  A density
matrix (up to 10 qubits) is materialized only by the partial transpose
behind log-negativity, by a partial trace whose branches span at least
the kept space, and on request (``density_matrix``, Choi matrices).
Matrices with an exactly zero imaginary part are diagonalized in real
arithmetic.  Global phases are ignored throughout: two states are
considered equal when their density operators agree.

Qubit ordering: qubit 0 is the most significant bit of the amplitude
index, and registers built from Bell pairs list qubits pair by pair with
the Alice qubit before the Bob qubit of each pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .labels import LABELS, BellLabel

#: Tolerance for circuit-identity checks (exact arithmetic up to rounding).
ATOL_CIRCUIT = 1e-12
#: Tolerance for eigenvalue-derived quantities.
ATOL_EIG = 1e-9
#: Largest register for which a density matrix may be materialized.
MAX_DENSE_QUBITS = 10
#: Largest register representable at all (branch vectors of length 2**14).
MAX_REGISTER_QUBITS = 14

_SQRT2 = np.sqrt(2.0)

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def pauli(index: int) -> np.ndarray:
    """Pauli matrix by index: 0 -> I, 1 -> x, 2 -> y, 3 -> z."""
    if index not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0..3, got {index}")
    return _PAULIS[index].copy()


def pauli_for_label(label: BellLabel) -> int:
    """Index of the Pauli X^a Z^b associated with a Bell label.

    This is the one-sided operator that maps |B1> onto |B(a,b)> up to
    phase, and equally the teleportation correction for measurement
    outcome (a,b): B1 -> I, B2 -> z, B3 -> x, B4 -> y.
    """
    return {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}[(label.a, label.b)]


def bell_vector(label: BellLabel) -> np.ndarray:
    """Amplitude 4-vector of |B(a,b)> = 2^-1/2 sum_x (-1)^(b x)|x, x^a>."""
    v = np.zeros(4, dtype=complex)
    for x in (0, 1):
        v[2 * x + (x ^ label.a)] = (-1) ** (label.b * x) / _SQRT2
    return v


#: Row k is the amplitude 4-vector of LABELS[k].
_BELL_ROWS = np.array([bell_vector(label) for label in LABELS])


@dataclass(frozen=True)
class QubitLabel:
    """Ownership tag of one register qubit."""

    party: str  # "alice" | "bob"
    pair: int  # 0-based pair index
    role: str = "source"  # "source" | "ancilla" | "input"

    def __post_init__(self):
        if self.party not in ("alice", "bob"):
            raise ValueError(f"unknown party {self.party!r}")

    @property
    def tag(self) -> str:
        return ("A" if self.party == "alice" else "B") + str(self.pair)


def pair_register(n_pairs: int, role: str = "source", start: int = 0) -> tuple[QubitLabel, ...]:
    """Labels for ``n_pairs`` Bell pairs in the standard pair-by-pair order."""
    out = []
    for k in range(start, start + n_pairs):
        out.append(QubitLabel("alice", k, role))
        out.append(QubitLabel("bob", k, role))
    return tuple(out)


@dataclass(frozen=True)
class PureBranch:
    """One pure component of a mixture: an amplitude vector and its weight."""

    amplitudes: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        n = amp.shape[0]
        if amp.ndim != 1 or n & (n - 1) or n < 2:
            raise ValueError("amplitudes must be a vector of length 2**n")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"branch vector norm {norm} is not 1")
        if not self.weight > 0:
            raise ValueError("branch weight must be positive")
        object.__setattr__(self, "amplitudes", amp / norm)

    @property
    def n_qubits(self) -> int:
        return int(np.asarray(self.amplitudes).shape[0]).bit_length() - 1


def bell_state(label: BellLabel) -> PureBranch:
    """The exact two-qubit Bell state for a label, as a unit-weight branch."""
    return PureBranch(bell_vector(label), 1.0)


@dataclass(frozen=True)
class DenseState:
    """Mixture of pure branches over a labeled qubit register."""

    branches: tuple[PureBranch, ...]
    qubit_labels: tuple[QubitLabel, ...]

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise ValueError("state needs at least one branch")
        n = branches[0].n_qubits
        if n > MAX_REGISTER_QUBITS:
            raise ValueError(f"register of {n} qubits exceeds the {MAX_REGISTER_QUBITS}-qubit limit")
        if any(b.n_qubits != n for b in branches):
            raise ValueError("branches disagree on register size")
        if len(self.qubit_labels) != n:
            raise ValueError(f"expected {n} qubit labels, got {len(self.qubit_labels)}")
        total = sum(b.weight for b in branches)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"branch weights sum to {total}, not 1")
        if abs(total - 1.0) > 0:
            branches = tuple(
                PureBranch(b.amplitudes, b.weight / total) for b in branches
            )
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "qubit_labels", tuple(self.qubit_labels))

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_labels)

    @classmethod
    def pure(cls, amplitudes: np.ndarray | PureBranch, qubit_labels: Sequence[QubitLabel]) -> "DenseState":
        if isinstance(amplitudes, PureBranch):
            amplitudes = amplitudes.amplitudes
        return cls((PureBranch(amplitudes, 1.0),), tuple(qubit_labels))

    @classmethod
    def mixture(
        cls, weighted: Iterable[tuple[float, "DenseState"]]
    ) -> "DenseState":
        """Convex combination of states over a common register."""
        weighted = list(weighted)
        labels = weighted[0][1].qubit_labels
        branches = []
        for w, s in weighted:
            if s.qubit_labels != labels:
                raise ValueError("mixture components live on different registers")
            if w <= 0:
                continue
            branches.extend(PureBranch(b.amplitudes, w * b.weight) for b in s.branches)
        return cls(tuple(branches), labels)

    def density_matrix(self) -> np.ndarray:
        """Materialize the density operator (registers up to 10 qubits)."""
        if self.n_qubits > MAX_DENSE_QUBITS:
            raise ValueError(
                f"refusing to materialize a {self.n_qubits}-qubit density matrix"
            )
        dim = 2**self.n_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        for b in self.branches:
            rho += b.weight * np.outer(b.amplitudes, b.amplitudes.conj())
        return rho

    def qubits_of(self, party: str) -> tuple[int, ...]:
        return tuple(i for i, q in enumerate(self.qubit_labels) if q.party == party)


def tensor(left: DenseState, right: DenseState) -> DenseState:
    """Tensor product; the right register is appended after the left."""
    branches = []
    for lb in left.branches:
        for rb in right.branches:
            branches.append(
                PureBranch(np.kron(lb.amplitudes, rb.amplitudes), lb.weight * rb.weight)
            )
    return DenseState(tuple(branches), left.qubit_labels + right.qubit_labels)


@dataclass(frozen=True)
class Cut:
    """Bipartition of the register into two non-empty qubit sets."""

    left: frozenset[int]
    right: frozenset[int]

    def __post_init__(self):
        if not self.left or not self.right or (self.left & self.right):
            raise ValueError("cut sides must be disjoint and non-empty")
        object.__setattr__(self, "left", frozenset(self.left))
        object.__setattr__(self, "right", frozenset(self.right))

    @classmethod
    def of(cls, n_qubits: int, left: Iterable[int]) -> "Cut":
        left = frozenset(left)
        if any(q < 0 or q >= n_qubits for q in left):
            raise ValueError("cut indices out of range")
        return cls(left, frozenset(range(n_qubits)) - left)

    @classmethod
    def alice_bob(cls, state: DenseState) -> "Cut":
        """The Alice : Bob cut read off the register's party tags."""
        return cls.of(state.n_qubits, state.qubits_of("alice"))

    @classmethod
    def one_vs_rest(cls, state: DenseState, qubit: int) -> "Cut":
        return cls.of(state.n_qubits, (qubit,))


def _apply_matrix(vec: np.ndarray, n: int, u: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    k = len(targets)
    psi = vec.reshape((2,) * n)
    psi = np.moveaxis(psi, targets, range(k))
    psi = (u @ psi.reshape(2**k, -1)).reshape((2,) * n)
    psi = np.moveaxis(psi, range(k), targets)
    return psi.reshape(-1)


def apply_unitary(state: DenseState, u: np.ndarray, targets: Sequence[int]) -> DenseState:
    """Apply a unitary to the given target qubits of every branch.

    ``u`` must be 2**k x 2**k for k targets (first target is the most
    significant bit of u's index) and unitary to within 1e-12.
    """
    u = np.asarray(u, dtype=complex)
    k = len(targets)
    if u.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {u.shape} does not fit {k} target qubits")
    if len(set(targets)) != k:
        raise ValueError("target qubits must be distinct")
    if any(t < 0 or t >= state.n_qubits for t in targets):
        raise ValueError("target qubit out of range")
    if np.max(np.abs(u @ u.conj().T - np.eye(2**k))) > ATOL_CIRCUIT:
        raise ValueError(f"operator is not unitary within {ATOL_CIRCUIT}")
    branches = tuple(
        PureBranch(_apply_matrix(b.amplitudes, state.n_qubits, u, targets), b.weight)
        for b in state.branches
    )
    return DenseState(branches, state.qubit_labels)


def bell_measurement(
    state: DenseState, pair: tuple[int, int]
) -> list[tuple[BellLabel, float, DenseState]]:
    """Projective Bell-basis measurement of two qubits.

    Returns one entry per outcome with positive probability: the outcome
    label, its probability, and the renormalized post-state with the
    measured qubits left projected onto the outcome's Bell state.
    Probabilities sum to 1 up to rounding.
    """
    q1, q2 = sorted(pair)
    if q1 == q2 or q1 < 0 or q2 >= state.n_qubits:
        raise ValueError("measurement needs two distinct register qubits")
    shape = (2,) * state.n_qubits
    # subs[b, k]: branch b's amplitudes on the other qubits after <B_k| on the pair.
    subs = np.array(
        [
            _BELL_ROWS.conj() @ np.moveaxis(b.amplitudes.reshape(shape), (q1, q2), (0, 1)).reshape(4, -1)
            for b in state.branches
        ]
    )
    out = []
    for k, label in enumerate(LABELS):
        prob = 0.0
        branches = []
        for b, sub in zip(state.branches, subs[:, k]):
            p_b = float(np.vdot(sub, sub).real)
            prob += b.weight * p_b
            if p_b > 1e-14:
                full = np.outer(_BELL_ROWS[k], sub / np.sqrt(p_b)).reshape(shape)
                full = np.moveaxis(full, (0, 1), (q1, q2)).reshape(-1)
                branches.append(PureBranch(full, b.weight * p_b))
        if prob <= 1e-14:
            continue
        branches = tuple(PureBranch(br.amplitudes, br.weight / prob) for br in branches)
        out.append((label, prob, DenseState(branches, state.qubit_labels)))
    return out


def partial_trace(state: DenseState, keep: Iterable[int]) -> DenseState:
    """Reduced state on the kept qubits (ascending original order).

    The result is re-expressed as a mixture of eigenbranches of the
    reduced density operator rho = A A^dagger, where A stacks each
    branch's (kept x traced) amplitude matrix scaled by sqrt(weight).
    When A has fewer columns than the kept dimension, its thin SVD gives
    the eigenbranches at the size of the rank and no density matrix is
    formed; otherwise rho is materialized and diagonalized, so the kept
    block must stay within the 10-qubit materialization limit.
    """
    keep = sorted(set(keep))
    n = state.n_qubits
    if not keep:
        raise ValueError("keep set must be non-empty")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError("keep qubit out of range")
    if len(keep) == n:
        return state
    if len(keep) > MAX_DENSE_QUBITS:
        raise ValueError("kept block too large to materialize")
    dim = 2 ** len(keep)
    cols = [
        np.sqrt(b.weight) * np.moveaxis(b.amplitudes.reshape((2,) * n), keep, range(len(keep))).reshape(dim, -1)
        for b in state.branches
    ]
    a = _real_if_exact(np.concatenate(cols, axis=1))
    labels = tuple(state.qubit_labels[q] for q in keep)
    if a.shape[1] < dim:
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        return _eigenbranch_mixture(s**2, u, labels)
    return from_density_matrix(a @ a.conj().T, labels)


def from_density_matrix(rho: np.ndarray, qubit_labels: Sequence[QubitLabel]) -> DenseState:
    """Eigendecompose a density operator into a branch mixture."""
    vals, vecs = np.linalg.eigh(_real_if_exact(rho))
    return _eigenbranch_mixture(vals[::-1], vecs[:, ::-1], qubit_labels)


def _eigenbranch_mixture(
    vals: np.ndarray, vecs: np.ndarray, qubit_labels: Sequence[QubitLabel]
) -> DenseState:
    """The mixture of eigenvectors (columns of ``vecs``, descending
    eigenvalues ``vals``) above 1e-13, checked for unit trace."""
    branches = []
    for v, w in zip(vecs.T, vals):
        if w > 1e-13:
            branches.append(PureBranch(v / np.linalg.norm(v), float(w)))
    total = sum(b.weight for b in branches)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"operator trace {total} is not 1")
    branches = tuple(PureBranch(b.amplitudes, b.weight / total) for b in branches)
    return DenseState(branches, tuple(qubit_labels))


def _real_if_exact(m: np.ndarray) -> np.ndarray:
    """``m``'s real part when its imaginary part is exactly zero, so that
    LAPACK works in real arithmetic; ``m`` itself otherwise."""
    return m.real if np.iscomplexobj(m) and not m.imag.any() else m


def partial_transpose(state: DenseState, cut: Cut) -> np.ndarray:
    """Density operator transposed on the cut's left side.

    The register is reordered to (left..., right...) before reshaping, so
    the returned matrix is indexed by (left bits, right bits).
    """
    n = state.n_qubits
    if cut.left | cut.right != frozenset(range(n)):
        raise ValueError("cut does not partition this register")
    if n > MAX_DENSE_QUBITS:
        raise ValueError("register too large to materialize a partial transpose")
    left = sorted(cut.left)
    dl = 2 ** len(left)
    dr = 2 ** (n - len(left))
    pt = np.zeros((dl, dr, dl, dr), dtype=complex)
    for b in state.branches:
        psi = np.moveaxis(b.amplitudes.reshape((2,) * n), left, range(len(left)))
        m = psi.reshape(dl, dr)
        pt += b.weight * np.einsum("kj,il->ijkl", m, m.conj())
    return pt.reshape(dl * dr, dl * dr)


def log_negativity(state: DenseState, cut: Cut) -> float:
    """log2 of the trace norm of the partial transpose, in ebits.

    Zero (within tolerance) exactly when the partial transpose is
    positive semidefinite; upper-bounds distillable entanglement across
    the cut.
    """
    eigs = np.linalg.eigvalsh(_real_if_exact(partial_transpose(state, cut)))
    return max(0.0, float(np.log2(np.sum(np.abs(eigs)))))


def fidelity(state: DenseState, target: PureBranch | np.ndarray) -> float:
    """Overlap <target| rho |target> with a pure target state."""
    t = target.amplitudes if isinstance(target, PureBranch) else np.asarray(target, dtype=complex)
    if t.shape != (2**state.n_qubits,):
        raise ValueError("target dimension does not match the register")
    return float(sum(b.weight * abs(np.vdot(t, b.amplitudes)) ** 2 for b in state.branches))


def trace_distance(state_a: DenseState, state_b: DenseState) -> float:
    """(1/2)||rho_a - rho_b||_1, computed in the span of all branches.

    The operators are projected onto the (exact) joint span of their
    branch vectors, which preserves the trace distance, so the
    eigenproblem is the size of that span's rank; no register-sized
    density matrix is formed.
    """
    if state_a.n_qubits != state_b.n_qubits:
        raise ValueError("states live on different register sizes")
    vecs = _real_if_exact(np.array([b.amplitudes for b in state_a.branches + state_b.branches]).T)
    signed = np.array([b.weight for b in state_a.branches] + [-b.weight for b in state_b.branches])
    u, s, _ = np.linalg.svd(vecs, full_matrices=False)
    coords = u[:, s > 1e-13].conj().T @ vecs  # branch vectors in an orthonormal basis of their span
    diff = _real_if_exact((coords * signed) @ coords.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


_CHOI_CHECK_SEED = 202608

_INPUT_LABELS = pair_register(1, role="input")


def _choi_apply(choi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel action reconstructed from a Choi matrix, output = 4x4."""
    c = choi.reshape(4, 4, 4, 4)
    return 4.0 * np.einsum("ixjy,yx->ij", c, rho.T)


def choi_matrix(channel: Callable[[DenseState], DenseState]) -> np.ndarray:
    """Choi operator of a two-qubit channel, acting on half of a
    maximally entangled reference.

    The channel is probed on pure two-qubit inputs and extended by
    linearity; the result is C = (1/4) sum_xy channel(|x><y|) (x) |x><y|
    with the system factor first.  Raises if the probe reconstruction
    fails on a fixed pseudo-random input (non-linear channel).
    """
    kets = np.eye(4, dtype=complex)

    def run(vec: np.ndarray) -> np.ndarray:
        return channel(DenseState.pure(vec, _INPUT_LABELS)).density_matrix()

    diag = [run(kets[x]) for x in range(4)]
    choi = np.zeros((16, 16), dtype=complex)
    for x in range(4):
        for y in range(4):
            if x == y:
                block = diag[x]
            else:
                plus = run((kets[x] + kets[y]) / _SQRT2)
                phase = run((kets[x] + 1j * kets[y]) / _SQRT2)
                block = plus + 1j * phase - (1 + 1j) / 2 * (diag[x] + diag[y])
            choi += 0.25 * np.kron(block, np.outer(kets[x], kets[y].conj()))

    rng = np.random.default_rng(_CHOI_CHECK_SEED)
    vecs = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    probe = DenseState(
        (PureBranch(vecs[0], 0.375), PureBranch(vecs[1], 0.625)), _INPUT_LABELS
    )
    direct = channel(probe).density_matrix()
    predicted = _choi_apply(choi, probe.density_matrix())
    if np.max(np.abs(direct - predicted)) > 1e-8:
        raise ValueError("channel is not linear: Choi reconstruction mismatch")
    return choi

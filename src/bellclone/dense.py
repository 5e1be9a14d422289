"""Exact dense-vector oracle for small qubit registers.

A state is a weighted mixture of pure branches (never a full density
matrix), held as one batched (k, 2**n) amplitude array and a weight
vector, so registers up to 14 qubits stay cheap and every kernel is a
few array operations over all branches at once.  Every state checks each
row norm (within 1e-9) and its weight total.  One built from outside
arrays divides a row only when its computed norm is not exactly 1.0 (the
weights likewise); a kernel's output is never rescaled, since moves,
checked unitaries, products and +-1/+-i phases keep unit rows unit, and a
measurement divides each kept row once by the root of its probability.
X and C-NOT gates only move amplitudes: each is arithmetic on the basis
index (X on q: i ^ bit(q); C-NOT: i ^ (bit_c(i) << t)), so any run of them
is one gather through one index row; every other gate is a matrix product.
A Bell measurement drops the pairs it measured, several at once with a
Pauli frame on disjoint receivers, which is how teleportation leaves
exactly its output qubits without any trace or spectrum; no program step
takes one.  A trace distance takes its spectrum at the size of the
state's rank, not of the register: it works in the joint span of both
states' branches, on the basis indices at which some branch is nonzero.
Log-negativity builds only the partial-transpose entries that the
branches' nonzero amplitudes produce and diagonalizes the matrix's
connected blocks.  A density matrix (up to 10 qubits) is materialized
only for the log-negativity of dense rows, for the kept block of a
partial trace, and on request (``density_matrix``, ``partial_transpose``,
Choi matrices).  A Choi matrix takes one channel run, on the input half
of a maximally entangled input-reference state, plus one run that checks
linearity.
Matrices with an exactly zero imaginary part are diagonalized in real
arithmetic.  Global phases are ignored throughout: two states are
considered equal when their density operators agree.

Qubit ordering: qubit 0 is the most significant bit of the amplitude
index, and registers built from Bell pairs list qubits pair by pair with
the Alice qubit before the Bob qubit of each pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
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
    role: str = "source"  # "source" | "ancilla" | "input" | "reference"

    def __post_init__(self):
        if self.party not in ("alice", "bob"):
            raise ValueError(f"unknown party {self.party!r}")

    @property
    def tag(self) -> str:
        """``A0``, ``B3``, ...; a qubit of the input pair is ``A_in`` or ``B_in``."""
        return ("A" if self.party == "alice" else "B") + ("_in" if self.role == "input" else str(self.pair))


@lru_cache(maxsize=None)
def pair_register(n_pairs: int, role: str = "source") -> tuple[QubitLabel, ...]:
    """Labels for ``n_pairs`` Bell pairs in the standard pair-by-pair order;
    each label, and each register, is built once and shared."""
    return tuple(_qubit_label(party, k, role) for k in range(n_pairs) for party in ("alice", "bob"))


_qubit_label = lru_cache(maxsize=None)(QubitLabel)


def _check_unit_norms(norms, what: str) -> float:
    """Raise unless every norm is within 1e-9 of 1 (NaN fails); returns
    the largest distance, 0.0 exactly when every norm is 1.0."""
    worst = abs(np.asarray(norms, dtype=float) - 1.0).max()
    if not worst <= 1e-9:
        raise ValueError(f"{what} norm is {worst} away from 1")
    return worst


def _squared_row_norms(rows: np.ndarray) -> np.ndarray:
    """Sum of |amplitude|^2 along the last axis, in real arithmetic."""
    flat = np.ascontiguousarray(rows).view(np.float64)
    return np.einsum("...i,...i->...", flat, flat)


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
        _check_unit_norms(norm, "branch vector")
        if not self.weight > 0:
            raise ValueError("branch weight must be positive")
        object.__setattr__(self, "amplitudes", amp / norm)


class DenseState:
    """Mixture of pure branches over a labeled qubit register.

    ``amplitudes`` is a read-only (k, 2**n) array, one unit row per
    branch, and ``weights`` the k positive weights, summing to 1.

    Every construction checks each row norm (within 1e-9) and the weight
    total.  :meth:`from_arrays` (and :meth:`pure`) copy what they are given
    and divide a row by its norm only when that computed norm is not
    exactly 1.0, and the weights by their total only when it is not exactly
    1.0 (x / 1.0 == x, so the stored values are those of dividing every
    row); the kernels of this package hand over the arrays they have just
    allocated, stored as computed (:meth:`_from_kernel`).
    """

    __slots__ = ("amplitudes", "weights", "qubit_labels", "_branches")

    @classmethod
    def from_arrays(cls, amplitudes: np.ndarray, weights, qubit_labels: Sequence[QubitLabel]) -> "DenseState":
        """A state from copies of its (k, 2**n) amplitude rows and k weights."""
        state = object.__new__(cls)
        state._set(np.array(amplitudes, dtype=complex), np.array(weights, dtype=float), qubit_labels)
        return state

    @classmethod
    def _from_kernel(cls, amps: np.ndarray, weights: np.ndarray, qubit_labels) -> "DenseState":
        """A state that takes over ``amps`` and ``weights`` without a copy or
        a rescale, after the same checks: for rows kept or just made unit."""
        state = object.__new__(cls)
        state._set(amps, weights, qubit_labels, rescale=False)
        return state

    def _set(self, amps: np.ndarray, weights: np.ndarray, qubit_labels, rescale: bool = True) -> None:
        """Check every row, weight and the total at once; with ``rescale``,
        rows are rescaled to unit norm and weights to sum to exactly 1
        where they do not already, in place when the array is writeable."""
        k, dim = amps.shape if amps.ndim == 2 else (0, 0)
        n = dim.bit_length() - 1
        if dim & (dim - 1) or dim < 2:
            raise ValueError("amplitudes must be rows of length 2**n")
        if not k:
            raise ValueError("state needs at least one branch")
        if n > MAX_REGISTER_QUBITS:
            raise ValueError(f"register of {n} qubits exceeds the {MAX_REGISTER_QUBITS}-qubit limit")
        if len(qubit_labels) != n:
            raise ValueError(f"expected {n} qubit labels, got {len(qubit_labels)}")
        if weights.shape != (k,):
            raise ValueError(f"expected {k} branch weights, got shape {weights.shape}")
        norms = np.sqrt(_squared_row_norms(amps))
        off_unit = _check_unit_norms(norms, "branch vector")
        if not (weights > 0).all():
            raise ValueError("branch weight must be positive")
        total = float(weights.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"branch weights sum to {total}, not 1")
        if off_unit and rescale:
            amps = np.divide(amps, norms[:, None], out=amps if amps.flags.writeable else None)
        if total != 1.0 and rescale:
            weights = weights / total
        amps.flags.writeable = weights.flags.writeable = False
        self.amplitudes, self.weights, self.qubit_labels, self._branches = amps, weights, tuple(qubit_labels), None

    @property
    def branches(self) -> tuple[PureBranch, ...]:
        """The rows as :class:`PureBranch` views, built once and not re-checked."""
        if self._branches is None:
            self._branches = tuple(object.__new__(PureBranch) for _ in self.weights)
            for branch, amp, weight in zip(self._branches, self.amplitudes, self.weights.tolist()):
                branch.__dict__.update(amplitudes=amp, weight=weight)
        return self._branches

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_labels)

    @classmethod
    def pure(cls, amplitudes: np.ndarray, qubit_labels: Sequence[QubitLabel]) -> "DenseState":
        """The one-row state of an amplitude vector (a copy, rescaled as :meth:`from_arrays` does)."""
        return cls.from_arrays([amplitudes], [1.0], qubit_labels)

    def density_matrix(self) -> np.ndarray:
        """Materialize the density operator (registers up to 10 qubits)."""
        if self.n_qubits > MAX_DENSE_QUBITS:
            raise ValueError(
                f"refusing to materialize a {self.n_qubits}-qubit density matrix"
            )
        return (self.amplitudes.T * self.weights) @ self.amplitudes.conj()


def tensor(left: DenseState, right: DenseState, at: int | None = None) -> DenseState:
    """Tensor product; the right register goes after the first ``at``
    qubits of the left one (by default after all of them)."""
    at = left.n_qubits if at is None else at
    amps = left.amplitudes.reshape(len(left.weights), 1, 2**at, 1, -1) * right.amplitudes[None, :, None, :, None]
    weights = np.outer(left.weights, right.weights).reshape(-1)
    labels = left.qubit_labels[:at] + right.qubit_labels + left.qubit_labels[at:]
    return DenseState._from_kernel(amps.reshape(len(weights), -1), weights, labels)


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
        return cls.of(state.n_qubits, (i for i, q in enumerate(state.qubit_labels) if q.party == "alice"))

    @classmethod
    def one_vs_rest(cls, state: DenseState, qubit: int) -> "Cut":
        return cls.of(state.n_qubits, (qubit,))


def _split(amps: np.ndarray, n: int, qubits: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """Rows of a (k, 2**n) batch as (k, 2**len(qubits), rest) matrices, and the axis order."""
    order = [0] + [q + 1 for q in qubits] + [q + 1 for q in range(n) if q not in qubits]
    return amps.reshape((len(amps),) + (2,) * n).transpose(order).reshape(len(amps), 2 ** len(qubits), -1), order


def _apply_matrix(amps: np.ndarray, n: int, u: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """The one matrix ``u`` on the targets of every row of a (k, 2**n) batch."""
    psi, order = _split(amps, n, targets)
    psi = np.matmul(u, psi)  # rebinding frees the split copy before the transpose back copies again
    return psi.reshape((len(psi),) + (2,) * n).transpose(np.argsort(order)).reshape(len(psi), -1)


def check_unitary(u: np.ndarray) -> None:
    """Raise unless ``u`` (or each matrix of a stack) is unitary within 1e-12 (NaN fails)."""
    if not abs(u @ u.conj().swapaxes(-1, -2) - np.eye(u.shape[-1])).max() <= ATOL_CIRCUIT:
        raise ValueError(f"operator is not unitary within {ATOL_CIRCUIT}")


@lru_cache(maxsize=256)
def _check_unitary_once(shape: tuple[int, ...], data: bytes) -> None:
    """:func:`check_unitary` memoised by content; a failed check raises
    and is not cached, so a non-unitary matrix is rejected on every call."""
    check_unitary(np.frombuffer(data, dtype=complex).reshape(shape))


def _check_targets(n: int, targets: Sequence[int], cnots: Sequence[tuple[int, int]] = ()) -> None:
    """Raise unless the targets and the C-NOTs' qubits are distinct register qubits."""
    qubits = [*targets, *(q for pair in cnots for q in pair)]
    if len(set(qubits)) != len(qubits):
        raise ValueError("target qubits must be distinct")
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError("target qubit out of range")


def apply_unitary(state: DenseState, u: np.ndarray, targets: Sequence[int]) -> DenseState:
    """Apply a unitary to the given target qubits of every branch.

    ``u`` must be 2**k x 2**k for k targets (first target is the most
    significant bit of u's index) and unitary to within 1e-12; each
    distinct matrix (by content) is checked once.
    """
    u = np.asarray(u, dtype=complex)
    k = len(targets)
    if u.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {u.shape} does not fit {k} target qubits")
    _check_targets(state.n_qubits, targets)
    _check_unitary_once(u.shape, u.tobytes())
    amps = _apply_matrix(state.amplitudes, state.n_qubits, u, targets)
    return DenseState._from_kernel(amps, state.weights, state.qubit_labels)


def _flip_index(n: int, x_targets: Sequence[int] = (), layers: Sequence[Sequence[tuple[int, int]]] = ()) -> np.ndarray:
    """The 2**n index row of the C-NOT layers (control, target) in turn,
    then X on ``x_targets``: ``amps[:, index]`` are the rows after the gates.
    Each gate is its own inverse, so i runs through them last-first: X maps i
    to i ^ bit(q), a C-NOT (whose control no gate of its layer targets) to
    i ^ (bit_c(i) << t).  Both are affine over GF(2), so the high bits of i
    (with X) and the low bits run apart and their images are XORed."""
    low = n // 2
    halves = np.arange(2 ** (n - low)) << np.array([[low], [0]])
    halves[0] ^= sum(1 << (n - 1 - q) for q in x_targets)
    for cnots in reversed(layers):
        for c, t in cnots:
            halves ^= ((halves >> (n - 1 - c)) & 1) << (n - 1 - t)
    return (halves[0, :, None] ^ halves[1, : 2**low]).ravel()


def _gather(amps: np.ndarray, index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``amps[:, index]`` into ``out`` (a new array by default); mode="wrap"
    writes ``out`` directly, where the default mode buffers it."""
    return np.take(amps, index, axis=1, out=np.empty_like(amps) if out is None else out, mode="wrap")


def apply_cnot_layers(state: DenseState, layers: Sequence[Sequence[tuple[int, int]]]) -> DenseState:
    """Each layer of C-NOTs, (control, target) pairs on distinct qubits, in turn
    on every branch as one gather: amplitudes are moved, never multiplied or
    added, so the rows equal those :func:`apply_unitary` gives with ``CNOT``."""
    for cnots in layers:
        _check_targets(state.n_qubits, (), cnots)
    amps = _gather(state.amplitudes, _flip_index(state.n_qubits, (), layers))
    return DenseState._from_kernel(amps, state.weights, state.qubit_labels)


def mix_flipped(state: DenseState, x_targets: Sequence[int]) -> DenseState:
    """The equal mixture of ``state`` and ``state`` with X on each of ``x_targets``:
    the rows, then the flipped rows, each at half its weight."""
    _check_targets(state.n_qubits, x_targets)
    k = len(state.weights)
    amps = np.empty((2 * k, 2**state.n_qubits), dtype=complex)
    amps[:k] = state.amplitudes
    _gather(state.amplitudes, _flip_index(state.n_qubits, x_targets), out=amps[k:])
    half = 0.5 * state.weights
    return DenseState._from_kernel(amps, np.concatenate([half, half]), state.qubit_labels)


@lru_cache(maxsize=None)
def _bell_projector(pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """<B_o| on m pairs at once, from their qubits in ascending order to o
    (base-4 digits, the first pair's first): real entries 0 and +-2^(-m/2)."""
    m, qubits = len(pairs), [q for pair in pairs for q in pair]
    signs = reduce(np.kron, [np.sign(_BELL_ROWS.real)] * m).reshape((4**m,) + (2,) * 2 * m)
    order = [0] + [1 + qubits.index(q) for q in sorted(qubits)]
    return signs.transpose(order).reshape(4**m, 4**m) * (0.5 ** (m // 2) / (_SQRT2 if m % 2 else 1.0))


def _pauli_frame(subs: np.ndarray, receivers: Sequence[Sequence[int]]) -> np.ndarray:
    """The projected rows ``subs`` (branch, outcome = m base-4 digits, kept qubits) with pair i's
    correction X^a Z^b for outcome B(a, b) = 2a + b on receivers[i] (no qubit in two lists): Z in
    place, (-1)^parity on b = 1 rows and also i^r on B4's (Y = iXZ); X as the deferred-measurement
    C-NOTs from each pair's a bit onto its receivers, one gather of the flattened rows."""
    m, r = len(receivers), subs.shape[-1].bit_length() - 1
    v = subs.reshape((len(subs),) + (4,) * m + (2,) * r)
    for i, qubits in enumerate(receivers):
        outcome = (slice(None),) * (1 + i)
        signs = np.ones((2,) * r)
        for q in qubits:
            signs[(slice(None),) * q + (1,)] *= -1
        v[outcome + (1,)] *= signs
        v[outcome + (3,)] *= signs * (1, 1j, -1, -1j)[len(qubits) % 4]
    cnots = [(2 * i, 2 * m + q) for i, qubits in enumerate(receivers) for q in qubits]
    return _gather(subs.reshape(len(subs), -1), _flip_index(2 * m + r, (), [cnots])).reshape(subs.shape)


def bell_measurement(state: DenseState, *pairs: tuple[int, int], receivers=None):
    """Projective Bell-basis measurement of one or more qubit pairs, which
    it drops: their state is fixed by the outcome.

    Returns ``(post, outcomes)``: one state on the other qubits (labels in
    register order) with one row per (branch, outcome) of positive
    conditional probability, branch-major, each that branch's projection
    renormalized and weighted by its branch weight times the conditional
    probability; and each row's outcome index (0..3, in ``LABELS`` order;
    base-4 digits, first pair first, for several pairs).  The probability
    of an outcome is the total weight of its rows.  ``receivers`` lists,
    per pair, kept qubits that take its teleportation correction
    (:func:`_pauli_frame`) before rows are picked; no kept qubit may be
    listed twice.
    """
    pairs = tuple(tuple(sorted(pair)) for pair in pairs)
    measured = sorted(q for pair in pairs for q in pair)
    n = state.n_qubits
    if not pairs or len(set(measured)) != 2 * len(pairs) or measured[0] < 0 or measured[-1] >= n:
        raise ValueError("measurement needs two distinct register qubits")
    if n == len(measured):
        raise ValueError("dropping the measured pairs would leave no qubits")
    # subs[b, o]: branch b's amplitudes on the other qubits after <B_o| on the pairs.
    subs = _split(state.amplitudes, n, measured)[0]
    # One real product for the real and imaginary parts alike.
    subs = (_bell_projector(pairs) @ np.ascontiguousarray(subs).view(np.float64)).view(complex)
    p = _squared_row_norms(subs)  # p[b, o]: conditional probability of outcome o in branch b
    if receivers is not None:
        named, kept = [q for qubits in receivers for q in qubits], n - len(measured)
        if len(receivers) != len(pairs) or len(set(named)) != len(named) or not all(0 <= q < kept for q in named):
            raise ValueError("receivers must name distinct kept qubits, one list per measured pair")
        subs = _pauli_frame(subs, receivers)
    keep = (p > 1e-14) & (state.weights @ p > 1e-14)
    rows = subs[keep]
    rows /= np.sqrt(p[keep])[:, None]
    weights = (state.weights[:, None] * p)[keep]
    labels = tuple(label for q, label in enumerate(state.qubit_labels) if q not in measured)
    return DenseState._from_kernel(rows, weights / weights.sum(), labels), np.nonzero(keep)[1]


def partial_trace(state: DenseState, keep: Iterable[int]) -> DenseState:
    """Reduced state on the kept qubits (ascending original order), as the
    eigenbranches of its density operator (:func:`from_density_matrix`),
    which is materialized: the kept block may hold at most 10 qubits."""
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
    cols = np.sqrt(state.weights)[:, None, None] * _split(state.amplitudes, n, keep)[0]
    a = cols.transpose(1, 0, 2).reshape(2 ** len(keep), -1)
    a = _real_if_exact(a[:, a.any(axis=0)])  # an all-zero column adds nothing to A A^dagger
    return from_density_matrix(a @ a.conj().T, tuple(state.qubit_labels[q] for q in keep))


def from_density_matrix(rho: np.ndarray, qubit_labels: Sequence[QubitLabel]) -> DenseState:
    """Eigendecompose a density operator into a branch mixture: its
    eigenvectors with eigenvalues above 1e-13, in descending order, which
    are the weights and so must sum to 1 within 1e-9."""
    vals, vecs = np.linalg.eigh(_real_if_exact(rho))
    above = vals > 1e-13
    return DenseState.from_arrays(vecs.T[above][::-1], vals[above][::-1], qubit_labels)


def _real_if_exact(m: np.ndarray) -> np.ndarray:
    """``m``'s real part when its imaginary part is exactly zero, so that
    LAPACK works in real arithmetic; ``m`` itself otherwise."""
    return m.real if np.iscomplexobj(m) and not m.imag.any() else m


def _check_cut(state: DenseState, cut: Cut) -> None:
    """Raise unless the cut partitions the register and its partial
    transpose is small enough to materialize."""
    if cut.left | cut.right != frozenset(range(state.n_qubits)):
        raise ValueError("cut does not partition this register")
    if state.n_qubits > MAX_DENSE_QUBITS:
        raise ValueError("register too large to materialize a partial transpose")


def partial_transpose(state: DenseState, cut: Cut) -> np.ndarray:
    """Density operator transposed on the cut's left side.

    The register is reordered to (left..., right...) before reshaping, so
    the returned matrix is indexed by (left bits, right bits).
    """
    _check_cut(state, cut)
    n = state.n_qubits
    m = _split(state.amplitudes, n, sorted(cut.left))[0]
    # einsum sums the branches in order, without fused multiply-adds.
    pt = np.einsum("bkj,bil->ijkl", state.weights[:, None, None] * m, m.conj())
    return pt.reshape(2**n, 2**n)


def _partial_transpose_blocks(weights: np.ndarray, m: np.ndarray) -> list[np.ndarray] | None:
    """The partial transpose of sum_b weights[b] |m_b><m_b| (``m``: (k, left,
    right) branch matrices) as its connected diagonal blocks, one
    (count, s, s) stack per block size s.

    Entry ((i,j),(k,l)) is w_b m_b[k,j] conj(m_b[i,l]) summed over the
    branches in order, as in :func:`partial_transpose`, but only over each
    row's nonzero amplitudes, so every entry has the same value.  Blocks
    hold the entries on and below the diagonal, the triangle eigvalsh
    reads, in ascending index order; indices that no nonzero entry touches
    would each add an eigenvalue 0 and belong to no block.  Returns None
    when 8 sum_b nnz_b^2 reaches dim^2: the arrays of the terms (about 90
    bytes each) would then outweigh the dense matrix (32 bytes per entry
    with its eigvalsh copy).
    """
    k, dl, dr = m.shape
    dim = dl * dr
    flat = m.reshape(k, dim)
    branch, pos = np.divmod(np.flatnonzero(flat), dim)  # branch-major
    nnz = np.bincount(branch, minlength=k)
    if 8 * (nnz @ nnz) >= dim * dim:
        return None
    amp = flat[branch, pos]
    # Every pair (p, q) of nonzeros of one row, branch-major: p repeats, q runs over p's row.
    per = nnz[branch]
    p = np.repeat(np.arange(len(pos)), per)
    q = np.arange(len(p)) - np.repeat(per.cumsum() - per - (nnz.cumsum() - nnz)[branch], per)
    right = pos % dr
    left = pos - right  # the left index times dr
    row, col = left[q] + right[p], left[p] + right[q]  # ((i,j),(k,l)) for p = (k,j), q = (i,l)
    lower = row >= col
    keys = row[lower] * dim + col[lower]
    a, c = (weights[branch] * amp)[p[lower]], amp[q[lower]]
    # The terms a * conj(c) in real arithmetic, as einsum forms them; numpy's
    # complex multiply may fuse multiply-adds and round differently.
    re = a.real * c.real + a.imag * c.imag
    im = a.imag * c.real - a.real * c.imag
    # bincount sums each entry's terms in input (branch) order.
    keys, entry = np.unique(keys, return_inverse=True)
    vals = np.bincount(entry, re) + 1j * np.bincount(entry, im)
    nonzero = vals != 0  # an entry that cancelled exactly links nothing
    rows, cols = np.divmod(keys[nonzero], dim)
    vals = vals[nonzero]
    # Connected components: root[x] is always an index of x's component.
    root = np.arange(dim)
    while not (root[rows] == root[cols]).all():
        np.minimum.at(root, rows, root[cols])
        np.minimum.at(root, cols, root[rows])
        root = root[root]
    touched = np.zeros(dim, dtype=bool)
    touched[rows] = touched[cols] = True
    nodes = np.flatnonzero(touched)
    nodes = nodes[(root[nodes] * dim + nodes).argsort()]  # grouped by block, ascending within it
    roots = root[nodes]
    size = np.bincount(roots, minlength=dim)  # block size, indexed by root
    local = np.empty(dim, dtype=np.intp)
    local[nodes] = np.arange(len(nodes)) - (size.cumsum() - size)[roots]
    entry_size = size[root[rows]]
    stacks = []
    for s in sorted(set(size[size > 0].tolist())):
        of_size, sel = size == s, entry_size == s
        stack = np.zeros((of_size.sum(), s, s), dtype=complex)
        stack[of_size.cumsum()[root[rows[sel]]] - 1, local[rows[sel]], local[cols[sel]]] = vals[sel]
        stacks.append(stack)
    return stacks


def log_negativity(state: DenseState, cut: Cut) -> float:
    """log2 of the trace norm of the partial transpose, in ebits.

    Zero (within tolerance) exactly when the partial transpose is
    positive semidefinite; upper-bounds distillable entanglement across
    the cut.

    The partial transpose is diagonalized block by block, one batched
    eigvalsh per block size, and only the entries that the rows' nonzero
    amplitudes produce are built (:func:`_partial_transpose_blocks`).  The
    whole matrix is formed and diagonalized at once instead when the rows
    are dense (8 sum_b nnz_b^2 >= 4^n).
    Matrices whose entries are exactly real are diagonalized in real
    arithmetic.
    """
    _check_cut(state, cut)
    m = _split(state.amplitudes, state.n_qubits, sorted(cut.left))[0]
    blocks = _partial_transpose_blocks(state.weights, m)
    if blocks is None:
        blocks = [partial_transpose(state, cut)]
    eigs = np.concatenate([np.linalg.eigvalsh(_real_if_exact(b)).ravel() for b in blocks])
    return max(0.0, float(np.log2(np.sum(np.abs(eigs)))))


def fidelity(state: DenseState, target: np.ndarray) -> float:
    """Overlap <target| rho |target> with a unit pure target state."""
    t = np.asarray(target, dtype=complex)
    if t.shape != (2**state.n_qubits,):
        raise ValueError("target dimension does not match the register")
    _check_unit_norms(float(np.linalg.norm(t)), "target vector")
    return float(state.weights @ np.abs(state.amplitudes @ t.conj()) ** 2)


def trace_distance(state_a: DenseState, state_b: DenseState) -> float:
    """(1/2)||rho_a - rho_b||_1, computed in the span of all branches.

    The operators are projected onto the (exact) joint span of their
    branch vectors, which preserves the trace distance, so the
    eigenproblem is the size of that span's rank; no register-sized
    density matrix is formed.  The vectors are first cut to their joint
    support, the indices at which some row is exactly nonzero: the dropped
    coordinates are zero in every vector and change no singular value or
    span coordinate.  A Bell-product row on 2n qubits has 2^n of 4^n nonzero.
    """
    if state_a.n_qubits != state_b.n_qubits:
        raise ValueError("states live on different register sizes")
    support = state_a.amplitudes.any(axis=0) | state_b.amplitudes.any(axis=0)
    vecs = _real_if_exact(np.concatenate([state_a.amplitudes[:, support], state_b.amplitudes[:, support]]).T)
    signed = np.concatenate([state_a.weights, -state_b.weights])
    u, s, _ = np.linalg.svd(vecs, full_matrices=False)
    coords = u[:, s > 1e-13].conj().T @ vecs  # branch vectors in an orthonormal basis of their span
    diff = _real_if_exact((coords * signed) @ coords.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


_CHOI_CHECK_SEED = 202608

_INPUT_LABELS = pair_register(1, role="input")
_REFERENCE_LABELS = pair_register(1, role="reference")


def _choi_apply(choi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel action reconstructed from a Choi matrix, output = 4x4."""
    c = choi.reshape(4, 4, 4, 4)
    return 4.0 * np.einsum("ixjy,yx->ij", c, rho.T)


def choi_matrix(channel: Callable[[DenseState], DenseState]) -> np.ndarray:
    """Choi operator of a two-qubit channel, acting on half of a
    maximally entangled reference.

    The channel runs once on |Phi> = (1/2) sum_x |x>|x>: the input pair
    (qubits 0-1) followed by a two-qubit reference (qubits 2-3, role
    ``"reference"``).  The channel must act on qubits 0-1 of whatever
    register it is given and keep the remaining qubits, unchanged and in
    order, after its two output qubits; the density matrix of its output
    is then C = (1/4) sum_xy channel(|x><y|) (x) |x><y|, with the system
    factor first.  Raises if the output lost or reordered the reference,
    and if C fails to predict the channel on a fixed pseudo-random
    two-qubit mixture (non-linear channel).
    """
    phi = np.zeros(16, dtype=complex)
    phi[[0, 5, 10, 15]] = 0.5
    out = channel(DenseState.pure(phi, _INPUT_LABELS + _REFERENCE_LABELS))
    if out.n_qubits != 4 or out.qubit_labels[2:] != _REFERENCE_LABELS:
        raise ValueError("channel output lost or reordered the reference qubits")
    choi = out.density_matrix()

    rng = np.random.default_rng(_CHOI_CHECK_SEED)
    vecs = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    probe = DenseState.from_arrays(vecs, [0.375, 0.625], _INPUT_LABELS)
    direct = channel(probe).density_matrix()
    predicted = _choi_apply(choi, probe.density_matrix())
    if np.max(np.abs(direct - predicted)) > 1e-8:
        raise ValueError("channel is not linear: Choi reconstruction mismatch")
    return choi

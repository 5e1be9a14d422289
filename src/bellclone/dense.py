"""Exact dense-vector oracle for small qubit registers.

A state is a weighted mixture of pure branches (never a full density
matrix) held by its nonzeros: ``support``, the distinct basis indices at
which some branch is nonzero, in no set order, and ``values``, one row per
branch there; a Bell-product row on 2n qubits has 2^n of 4^n entries
nonzero.  ``amplitudes``, the rows over the whole register, is a
read-only view built on first read, for callers and ``branches``; no
kernel reads it.  Every state checks each row norm (within 1e-9) and its
weight total.  One built from outside arrays divides a row only when its
computed norm is not exactly 1.0 (the weights likewise); a kernel's
output is never rescaled, since moves, checked unitaries, products and
+-1/+-i phases keep unit rows unit, and a measurement divides each kept
row once by its probability's root.
A C-NOT maps the support (i -> i ^ (bit_c(i) << t)) and leaves the values
alone; a gate with one nonzero per column permutes and phases them; any
other is a matrix product over the support grouped by its non-target
bits, which drops the columns that come out exactly zero.  A run of gates
is one pass (:func:`apply_gates`) that carries the bare support and values
from gate to gate and builds and checks one state at its end; a program's
run of affine steps is one such pass, and a single gate a pass of one.  A Bell
measurement drops the pairs it measured, several at once with a Pauli
frame on disjoint receivers, so teleportation takes no trace or spectrum.
A trace distance works in the joint span of both states' branches, on
the union of their supports; log-negativity reads the support split by
the cut and diagonalizes the connected blocks of the partial transpose
that nonzero amplitudes produce, up to the 14-qubit register limit.  A
density matrix (up to 10 qubits) is materialized only for dense rows'
log-negativity, a partial trace's kept block, and on request
(``density_matrix``, ``partial_transpose``, Choi matrices, one channel
run on half of a maximally entangled input-reference state plus one
linearity check).  Matrices with an exactly zero imaginary part are
diagonalized in real arithmetic.  Global phases are ignored: two states
are equal when their density operators agree.

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

    ``values`` holds one unit row per branch, read-only (k, s), at the s
    distinct basis indices ``support``, and ``weights`` the k positive
    weights, summing to 1.  Every construction checks each row norm (within
    1e-9) and the weight total.  :meth:`from_arrays` (and :meth:`pure`) copy
    what they are given and divide a row by its norm, or the weights by their
    total, only when that is not exactly 1.0 (x / 1.0 == x, so the stored
    values are those of dividing every row); the kernels hand over the
    arrays they have just allocated, stored as computed (:meth:`_from_kernel`).
    """

    __slots__ = ("support", "values", "weights", "qubit_labels", "_amplitudes", "_branches")

    @classmethod
    def from_arrays(cls, amplitudes: np.ndarray, weights, qubit_labels: Sequence[QubitLabel]) -> "DenseState":
        """A state from copies of its (k, 2**n) amplitude rows and k weights,
        kept at the columns where some row is nonzero."""
        amps = np.asarray(amplitudes, dtype=complex)
        dim = amps.shape[1] if amps.ndim == 2 else 0
        if dim & (dim - 1) or dim < 2:
            raise ValueError("amplitudes must be rows of length 2**n")
        if len(qubit_labels) != dim.bit_length() - 1:
            raise ValueError(f"expected {dim.bit_length() - 1} qubit labels, got {len(qubit_labels)}")
        support = np.flatnonzero(amps.any(axis=0))
        return cls._from_kernel(support, amps[:, support], np.array(weights, dtype=float), qubit_labels, rescale=True)

    @classmethod
    def _from_kernel(cls, support, values, weights, qubit_labels, rescale: bool = False) -> "DenseState":
        """A state that takes over its arrays without a copy, after the same
        checks; only with ``rescale`` are rows (in place) and weights rescaled
        where they are off unit, as :meth:`from_arrays` does."""
        if not len(values):
            raise ValueError("state needs at least one branch")
        if len(qubit_labels) > MAX_REGISTER_QUBITS:
            raise ValueError(f"register of {len(qubit_labels)} qubits exceeds the {MAX_REGISTER_QUBITS}-qubit limit")
        if weights.shape != (len(values),):
            raise ValueError(f"expected {len(values)} branch weights, got shape {weights.shape}")
        norms = np.sqrt(_squared_row_norms(values))
        off_unit = _check_unit_norms(norms, "branch vector")
        if not weights.min() > 0:
            raise ValueError("branch weight must be positive")
        total = float(weights.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"branch weights sum to {total}, not 1")
        if off_unit and rescale:
            values /= norms[:, None]
        if total != 1.0 and rescale:
            weights = weights / total
        support.flags.writeable = values.flags.writeable = weights.flags.writeable = False
        state = object.__new__(cls)
        state.support, state.values, state.weights, state.qubit_labels = support, values, weights, tuple(qubit_labels)
        state._amplitudes = state._branches = None
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        """The rows over the whole register: read-only (k, 2**n), built on first read."""
        if self._amplitudes is None:
            amps = np.zeros((len(self.weights), 2**self.n_qubits), dtype=complex)
            amps[:, self.support] = self.values
            amps.flags.writeable = False
            self._amplitudes = amps
        return self._amplitudes

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
        """Materialize the density operator (registers up to 10 qubits) from the rows widened to the register."""
        if self.n_qubits > MAX_DENSE_QUBITS:
            raise ValueError(f"refusing to materialize a {self.n_qubits}-qubit density matrix")
        rows = _widened(self.values, self.support, 2**self.n_qubits)
        return (rows.T * self.weights) @ rows.conj()


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in ascending order and each key's position
    among them: ``np.unique`` with ``return_inverse``, without its per-call cost."""
    order = keys.argsort()
    ordered = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    position = np.empty(len(keys), dtype=np.intp)
    position[order] = new.cumsum() - 1
    return ordered[new], position


def _union(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of two supports, and the positions of ``a``'s and ``b``'s indices in it."""
    union, position = _group(np.concatenate([a, b]))
    return union, position[: len(a)], position[len(a) :]


def _widened(values: np.ndarray, columns: np.ndarray, width: int) -> np.ndarray:
    """Rows put at ``columns`` of ``width`` zero columns (one list, or one per row)."""
    out = np.zeros((len(values), width), dtype=complex)
    out[(slice(None) if columns.ndim == 1 else np.arange(len(values))[:, None], columns)] = values
    return out


@lru_cache(maxsize=256)
def _index_tables(n: int, qubits: tuple[int, ...]):
    """``split(i)``: the bits of ``qubits`` (the first most significant) in n-qubit basis
    indices i and the other bits packed, each ORed from lookups by i's high and low
    halves (2**(n/2) entries each); and ``spread[x]``, the bits that put ``qubits`` in x."""
    def packed(i, qs):
        return (i[:, None] >> (n - 1 - np.array(qs, dtype=int)) & 1) @ (1 << np.arange(len(qs))[::-1])

    low, others = n // 2, [q for q in range(n) if q not in qubits]
    hi, lo = np.arange(2 ** (n - low)) << low, np.arange(2**low)
    own_hi, own_lo, rest_hi, rest_lo = packed(hi, qubits), packed(lo, qubits), packed(hi, others), packed(lo, others)

    def split(i):
        i_hi, i_lo = i >> low, i & (1 << low) - 1
        return own_hi[i_hi] | own_lo[i_lo], rest_hi[i_hi] | rest_lo[i_lo]

    x = np.arange(2 ** len(qubits))
    return split, (x[:, None] >> np.arange(len(qubits))[::-1] & 1) @ (1 << (n - 1 - np.array(qubits, dtype=int)))


def _measured(state: DenseState, qubits: Sequence[int] | Cut):
    """The rows as (k, 2**len(qubits), r) blocks: [b, x, j] is branch b's
    amplitude with ``qubits`` in state x and the others in ``rest[j]``, an
    index of the register without them; a :class:`Cut` of the register stands
    for its left side, ascending.  Returns blocks, rest (ascending), labels."""
    if isinstance(qubits, Cut):
        if qubits.left | qubits.right != frozenset(range(state.n_qubits)):
            raise ValueError("cut does not partition this register")
        qubits = sorted(qubits.left)
    own, rest = _index_tables(state.n_qubits, tuple(qubits))[0](state.support)
    rest, column = _group(rest)
    blocks = np.zeros((len(state.weights), 2 ** len(qubits), len(rest)), dtype=complex)
    blocks[:, own, column] = state.values
    return blocks, rest, tuple(label for q, label in enumerate(state.qubit_labels) if q not in qubits)


def _pruned(support, values, weights, qubit_labels) -> DenseState:
    """A kernel's state without the support indices at which every row came out exactly zero."""
    nonzero = values.any(axis=0)
    return DenseState._from_kernel(support[nonzero], values[:, nonzero], weights, qubit_labels)


def tensor(left: DenseState, right: DenseState, at: int | None = None) -> DenseState:
    """Tensor product; the right register goes after the first ``at``
    qubits of the left one (by default after all of them), where
    ``0 <= at <= left.n_qubits``."""
    at = left.n_qubits if at is None else at
    if not 0 <= at <= left.n_qubits:
        raise ValueError(f"tensor position {at} outside 0..{left.n_qubits}")
    low = left.n_qubits - at  # left qubits after the right register
    tail = left.support & ((1 << low) - 1)
    support = ((left.support - tail) << right.n_qubits | tail)[:, None] | right.support << low
    values = left.values[:, None, :, None] * right.values[None, :, None, :]
    weights = np.outer(left.weights, right.weights).reshape(-1)
    labels = left.qubit_labels[:at] + right.qubit_labels + left.qubit_labels[at:]
    return DenseState._from_kernel(support.ravel(), values.reshape(len(weights), -1), weights, labels)


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


def check_unitary(u: np.ndarray) -> None:
    """Raise unless ``u`` (or each matrix of a stack) is unitary within 1e-12 (NaN fails)."""
    if not abs(u @ u.conj().swapaxes(-1, -2) - np.eye(u.shape[-1])).max() <= ATOL_CIRCUIT:
        raise ValueError(f"operator is not unitary within {ATOL_CIRCUIT}")


@lru_cache(maxsize=256)
def _gate(shape: tuple[int, ...], data: bytes):
    """:func:`check_unitary` memoised by content (a failure raises, uncached); for
    a monomial matrix (one nonzero per column) each column's nonzero row and value."""
    u = np.frombuffer(data, dtype=complex).reshape(shape)
    check_unitary(u)
    if (np.count_nonzero(u, axis=0) != 1).any():
        return None
    rows = np.argmax(u != 0, axis=0)
    return rows, u[rows, np.arange(shape[1])]


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
    distinct matrix (by content) is checked once.  One gate of
    :func:`apply_gates`.
    """
    return apply_gates(state, [(u, targets)])


def apply_cnot_layers(state: DenseState, layers: Sequence[Sequence[tuple[int, int]]]) -> DenseState:
    """Each layer of C-NOTs, (control, target) pairs on distinct qubits, in turn
    on every branch, as a map of the support (the values are not touched): the
    rows equal those :func:`apply_unitary` gives with ``CNOT``.  One C-NOT layer
    per gate of :func:`apply_gates`."""
    return apply_gates(state, [(None, cnots) for cnots in layers])


def apply_gates(state: DenseState, gates: Iterable[tuple]) -> DenseState:
    """Apply ``gates`` in turn to every branch: ``(u, targets)`` is a unitary on
    those qubits, as :func:`apply_unitary` takes it, and ``(None, cnots)`` one
    layer of C-NOTs, as :func:`apply_cnot_layers` takes it.  Each gate is
    checked as it comes (``gates`` may be a lazy iterable), and the bare
    support and values pass from gate to gate; the state is built, and its
    rows and weights checked, once at the end."""
    n, support, values = state.n_qubits, state.support, state.values
    for u, targets in gates:
        if u is None:  # a C-NOT maps i to i ^ (bit_c(i) << t) and leaves the values alone
            _check_targets(n, (), targets)
            for c, t in targets:
                support = support ^ (support >> (n - 1 - c) & 1) << (n - 1 - t)
            continue
        u = np.asarray(u, dtype=complex)
        k = len(targets)
        if u.shape != (2**k, 2**k):
            raise ValueError(f"operator shape {u.shape} does not fit {k} target qubits")
        _check_targets(n, targets)
        monomial = _gate(u.shape, u.tobytes())
        split, spread = _index_tables(n, tuple(targets))
        own, _ = split(support)
        rest = support & ~spread[-1]
        if monomial is not None:
            rows, phases = monomial
            support, values = rest | spread[rows[own]], values * phases[own]
            continue
        rest, column = _group(rest)
        blocks = np.zeros((len(values), len(rest), 2**k), dtype=complex)
        blocks[:, column, own] = values
        values = (blocks @ u.T).reshape(len(values), -1)
        nonzero = values.any(axis=0)  # drop the columns that came out exactly zero
        support, values = (rest[:, None] | spread).ravel()[nonzero], values[:, nonzero]
    return DenseState._from_kernel(support, values, state.weights, state.qubit_labels)


def mix_flipped(state: DenseState, x_targets: Sequence[int]) -> DenseState:
    """The equal mixture of ``state`` and ``state`` with X on each of ``x_targets``:
    the rows, then the flipped rows, each at half its weight."""
    _check_targets(state.n_qubits, x_targets)
    flip = sum(1 << (state.n_qubits - 1 - q) for q in x_targets)
    support, same, flipped = _union(state.support, state.support ^ flip)
    values = np.zeros((2 * len(state.weights), len(support)), dtype=complex)
    values[: len(state.weights), same], values[len(state.weights) :, flipped] = state.values, state.values
    half = 0.5 * state.weights
    return DenseState._from_kernel(support, values, np.concatenate([half, half]), state.qubit_labels)


@lru_cache(maxsize=None)
def _bell_projector(pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """<B_o| on m pairs at once, from their qubits in ascending order to o
    (base-4 digits, the first pair's first): real entries 0 and +-2^(-m/2)."""
    m, qubits = len(pairs), [q for pair in pairs for q in pair]
    signs = reduce(np.kron, [np.sign(_BELL_ROWS.real)] * m).reshape((4**m,) + (2,) * 2 * m)
    order = [0] + [1 + qubits.index(q) for q in sorted(qubits)]
    return signs.transpose(order).reshape(4**m, 4**m) * (0.5 ** (m // 2) / (_SQRT2 if m % 2 else 1.0))


@lru_cache(maxsize=256)
def _pauli_frame(n: int, receivers: tuple[tuple[int, ...], ...]):
    """Per outcome o (base-4 digits, first pair first) each pair's correction X^a Z^b for
    B(a, b) on its receivers (qubits of an n-qubit register): X XORs the index with
    ``flip[o]``, Z signs it by the parity of its ``sign[o]`` bits, B4 adds i^r (Y = iXZ)."""
    masks = np.array([sum(1 << (n - 1 - q) for q in qubits) for qubits in receivers])
    digits = np.arange(4 ** len(receivers))[:, None] >> 2 * np.arange(len(receivers))[::-1] & 3
    flip = np.bitwise_xor.reduce(np.where(digits >> 1, masks, 0), axis=1)
    sign = np.bitwise_or.reduce(np.where(digits & 1, masks, 0), axis=1)
    powers = np.array([(1, 1j, -1, -1j)[len(qubits) % 4] for qubits in receivers])
    return flip, sign, np.prod(np.where(digits == 3, powers, 1), axis=1)


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
    (:func:`_pauli_frame`); no kept qubit may be listed twice.
    """
    pairs = tuple(tuple(sorted(pair)) for pair in pairs)
    measured = sorted(q for pair in pairs for q in pair)
    n = state.n_qubits
    if not pairs or len(set(measured)) != 2 * len(pairs) or measured[0] < 0 or measured[-1] >= n:
        raise ValueError("measurement needs two distinct register qubits")
    if n == len(measured):
        raise ValueError("dropping the measured pairs would leave no qubits")
    # subs[b, o, j]: branch b's amplitude at rest[j] after <B_o| on the pairs.
    blocks, rest, labels = _measured(state, measured)
    # One real product for the real and imaginary parts alike.
    subs = (_bell_projector(pairs) @ blocks.view(np.float64)).view(complex)
    p = _squared_row_norms(subs)  # p[b, o]: conditional probability of outcome o in branch b
    keep = (p > 1e-14) & (state.weights @ p > 1e-14)
    branch, outcome = np.nonzero(keep)
    rows = subs[branch, outcome] / np.sqrt(p[keep])[:, None]
    weights = (state.weights[:, None] * p)[keep]
    support = rest
    if receivers is not None:
        named, kept = [q for qubits in receivers for q in qubits], len(labels)
        if len(receivers) != len(pairs) or len(set(named)) != len(named) or not all(0 <= q < kept for q in named):
            raise ValueError("receivers must name distinct kept qubits, one list per measured pair")
        flip, sign, phase = _pauli_frame(kept, tuple(map(tuple, receivers)))
        odd = np.bitwise_count(rest & sign[outcome, None]) & 1
        rows = rows * np.where(odd, -phase[outcome, None], phase[outcome, None])
        support, column = _group((rest ^ flip[:, None]).ravel())
        rows = _widened(rows, column.reshape(len(flip), -1)[outcome], len(support))
    return _pruned(support, rows, weights / weights.sum(), labels), outcome


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
    cols = np.sqrt(state.weights)[:, None, None] * _measured(state, keep)[0]
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


def partial_transpose(state: DenseState, cut: Cut) -> np.ndarray:
    """Density operator transposed on the cut's left side.

    The register is reordered to (left..., right...), so the returned
    matrix is indexed by (left bits, right bits).
    """
    return _whole_partial_transpose(state, *_measured(state, cut)[:2])


def _whole_partial_transpose(state: DenseState, blocks: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """The partial transpose from the cut's split (:func:`_measured`), as one matrix of at most 10 qubits."""
    n, (k, dl, _) = state.n_qubits, blocks.shape
    if n > MAX_DENSE_QUBITS:
        raise ValueError("register too large to materialize a partial transpose")
    m = _widened(blocks.reshape(k * dl, -1), rest, 2**n // dl).reshape(k, dl, -1)
    # einsum sums the branches in order, without fused multiply-adds.
    return np.einsum("bkj,bil->ijkl", state.weights[:, None, None] * m, m.conj()).reshape(2**n, 2**n)


def _partial_transpose_blocks(weights: np.ndarray, m: np.ndarray, n: int) -> list[np.ndarray] | None:
    """The partial transpose of sum_b weights[b] |m_b><m_b| (``m``: (k, left,
    right) branch matrices of an n-qubit register, :func:`_measured`'s split)
    as its connected diagonal blocks, one (count, s, s) stack per block size s.

    Entry ((i,j),(k,l)) is w_b m_b[k,j] conj(m_b[i,l]) summed over the
    branches in order, as in :func:`partial_transpose`, but only over each
    row's nonzero amplitudes, so every entry has the same value.  Blocks
    hold the entries on and below the diagonal, the triangle eigvalsh
    reads, in ascending index order; indices that no nonzero entry touches
    would each add an eigenvalue 0 and belong to no block.  Returns None
    when 8 sum_b nnz_b^2 reaches dim^2, dim = 2^min(n, 10): the terms (about
    90 bytes each) would then outweigh the largest dense matrix that may be
    materialized (32 bytes per entry with its eigvalsh copy).
    """
    k, dl, dr = m.shape
    dim = dl * dr
    flat = m.reshape(k, dim)
    branch, pos = np.divmod(np.flatnonzero(flat), dim)  # branch-major
    nnz = np.bincount(branch, minlength=k)
    if 8 * (nnz @ nnz) >= 4 ** min(n, MAX_DENSE_QUBITS):
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
    whole matrix is formed from the same split and diagonalized at once when
    the rows are dense (8 sum_b nnz_b^2 >= 4^min(n, 10); refused above 10
    qubits).  Exactly real matrices are diagonalized in real arithmetic.
    """
    m, rest, _ = _measured(state, cut)
    blocks = _partial_transpose_blocks(state.weights, m, state.n_qubits)
    if blocks is None:
        blocks = [_whole_partial_transpose(state, m, rest)]
    eigs = np.concatenate([np.linalg.eigvalsh(_real_if_exact(b)).ravel() for b in blocks])
    return max(0.0, float(np.log2(np.sum(np.abs(eigs)))))


def fidelity(state: DenseState, target) -> float:
    """Overlap <target| rho |target> with a unit pure target state: a 2**n amplitude
    vector or a one-row state, read only at this state's support."""
    if isinstance(target, DenseState):
        if len(target.weights) != 1 or target.n_qubits != state.n_qubits:
            raise ValueError("target must be a one-row state on the same register")
        union, own, theirs = _union(state.support, target.support)
        t = _widened(target.values, theirs, len(union))[0, own]
    else:
        t = np.asarray(target, dtype=complex)
        if t.shape != (2**state.n_qubits,):
            raise ValueError("target dimension does not match the register")
        _check_unit_norms(float(np.linalg.norm(t)), "target vector")
        t = t[state.support]
    return float(state.weights @ np.abs(state.values @ t.conj()) ** 2)


def trace_distance(state_a: DenseState, state_b: DenseState) -> float:
    """(1/2)||rho_a - rho_b||_1, computed in the span of all branches.

    The operators are projected onto the (exact) joint span of their
    branch vectors, which preserves the trace distance, so the
    eigenproblem is the size of that span's rank; no register-sized
    density matrix is formed.  The vectors live on the union of the two
    supports (taken only when they differ), outside which all are zero.
    """
    if state_a.n_qubits != state_b.n_qubits:
        raise ValueError("states live on different register sizes")
    a, b = state_a.values, state_b.values
    if not np.array_equal(state_a.support, state_b.support):
        union, in_a, in_b = _union(state_a.support, state_b.support)
        a, b = _widened(a, in_a, len(union)), _widened(b, in_b, len(union))
    vecs = _real_if_exact(np.concatenate([a, b]).T)
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

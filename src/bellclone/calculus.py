"""Exact symbolic engine over Bell-label strings.

Every state handled here is a probability distribution over strings of
Bell labels (one label per shared pair).  The LOCC circuit elements used
by the protocols act on labels as affine maps over GF(2)^2n, exact for
any number of pairs.  Phases are deliberately not tracked: ensembles
represent projector mixtures, and the rewriting rules are certified
against the dense oracle (:func:`to_dense` bridges the two).

Packed layout: a string of n labels is one Python ``int`` of 2n bits.
Pair 0 holds the most significant two-bit field and each field holds
``a`` above ``b`` (label index - 1), so integer order is lexicographic
label order.  Only the constructor, :meth:`~BellEnsemble.from_text`,
:func:`mix`, :func:`teleport` and the conditionals of :func:`discriminate_sets`
merge, prune and check; the bijective rewrites just re-sort.

Column layout: :func:`apply_steps` runs each maximal run of affine steps
(bilateral C-NOT and Hadamard, one-sided Pauli, local Clifford) on the
support transposed into 2n column ints, bit i of column 2k (2k + 1) being
pair k's a (b) bit in string i.  Each step is one to three whole-column
XORs, so s steps on k strings of n pairs cost O(k n) for the two
transpositions (byte translations, in C) and a sort, plus O(s) column ops.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, groupby
from typing import Iterable

import numpy as np

from . import dense
from .labels import BellString, LABELS, label_from_bits, string_bits

#: Probabilities below this are pruned after merging.
PRUNE_EPS = 1e-15

#: The four labels packed in each byte value, most significant field first.
_BYTE_LABELS = [tuple(LABELS[(byte >> sh) & 3] for sh in (6, 4, 2, 0)) for byte in range(256)]


#: Each label's two bits as binary digits, ``a`` then ``b``.
_LABEL_DIGITS = {label: f"{label.a}{label.b}" for label in LABELS}


def _pack(string: BellString) -> int:
    return int("".join([_LABEL_DIGITS[label] for label in string]), 2)


def _unpack(x: int, n_pairs: int) -> BellString:
    pad = -n_pairs % 4
    packed = x.to_bytes((n_pairs + pad) // 4, "big")
    return tuple(chain.from_iterable(map(_BYTE_LABELS.__getitem__, packed)))[pad:]


def _canonical(probs: dict[int, float]) -> dict[int, float]:
    """Prune below :data:`PRUNE_EPS`, check support and total, sort."""
    probs = {x: p for x, p in probs.items() if p > PRUNE_EPS}
    if not probs:
        raise ValueError("ensemble has no support")
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return dict(sorted(probs.items()))


class BellEnsemble:
    """Probability distribution over equal-length Bell strings.

    Entries are kept canonical: merged, pruned below :data:`PRUNE_EPS`,
    and sorted lexicographically by label bits.  Instances are treated
    as immutable values; rewriting operations return new ensembles.
    ``entries`` is the label-tuple view, built on first use.
    """

    __slots__ = ("n_pairs", "_probs", "_entries")

    def __init__(self, entries):
        merged: dict[tuple[int, int], float] = {}
        for string, prob in dict(entries).items():
            if not string:
                raise ValueError("Bell strings must have at least one pair")
            if not math.isfinite(prob) or prob < 0:
                raise ValueError(f"probability {prob} is not a finite non-negative number")
            key = (len(string), _pack(string))
            merged[key] = merged.get(key, 0.0) + float(prob)
        merged = {k: p for k, p in merged.items() if p > PRUNE_EPS}
        lengths = sorted({n for n, _ in merged})
        if len(lengths) > 1:
            raise ValueError(f"strings of unequal length: {lengths}")
        self._probs = _canonical({x: p for (_, x), p in merged.items()})
        self.n_pairs = lengths[0]
        self._entries = None

    @classmethod
    def _make(cls, n_pairs: int, probs: dict[int, float]) -> "BellEnsemble":
        """Wrap packed strings that are already canonical."""
        e = object.__new__(cls)
        e.n_pairs, e._probs, e._entries = n_pairs, probs, None
        return e

    @classmethod
    def point(cls, string: BellString) -> "BellEnsemble":
        return cls({tuple(string): 1.0})

    @classmethod
    def uniform_strings(cls, n_pairs: int) -> "BellEnsemble":
        """The uniform mixture of the four constant strings of length n."""
        ones = int("01" * n_pairs, 2)
        return cls._make(n_pairs, {f * ones: 0.25 for f in range(4)})

    @property
    def entries(self) -> dict[BellString, float]:
        if self._entries is None:
            self._entries = {_unpack(x, self.n_pairs): p for x, p in self._probs.items()}
        return self._entries

    def __len__(self) -> int:
        """Number of strings in the support."""
        return len(self._probs)

    def items(self) -> list[tuple[BellString, float]]:
        return list(self.entries.items())

    def probability(self, string: BellString) -> float:
        return self.entries.get(tuple(string), 0.0)

    def allclose(self, other: "BellEnsemble", tol: float = 1e-12) -> bool:
        same = self.n_pairs == other.n_pairs
        a, b = (self._probs, other._probs) if same else (self.entries, other.entries)
        return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in a.keys() | b.keys())

    def __eq__(self, other):
        return isinstance(other, BellEnsemble) and (self.n_pairs, self._probs) == (other.n_pairs, other._probs)

    def __repr__(self):
        parts = ", ".join(f"{string_bits(s)}: {p:g}" for s, p in self.entries.items())
        return f"BellEnsemble({{{parts}}})"

    def to_text(self) -> str:
        """One line per entry: ``probability a1b1 a2b2 ...`` (17 significant
        digits, lexicographic string order, LF endings)."""
        return "".join(
            f"{p:.17g} {string_bits(s)}\n" for s, p in self.entries.items()
        )

    @classmethod
    def from_text(cls, text: str) -> "BellEnsemble":
        """Parse :meth:`to_text` output; a malformed or repeated string is
        rejected with the number of the line that holds it."""
        entries, lines = {}, {}
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            head, *bits = line.split()
            try:
                if not bits:
                    raise ValueError("no Bell labels after the probability")
                string, prob = tuple(label_from_bits(b) for b in bits), float(head)
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from exc
            if string in lines:
                raise ValueError(f"line {number}: duplicate string {' '.join(bits)} (first on line {lines[string]})")
            entries[string], lines[string] = prob, number
        return cls(entries)


def _check_pair(n_pairs: int, pair: int) -> int:
    """Validate a pair index; returns the bit offset of its field."""
    if pair < 0 or pair >= n_pairs:
        raise ValueError(f"pair index {pair} out of range for {n_pairs} pairs")
    return 2 * (n_pairs - 1 - pair)


def _check_last(rest) -> None:
    """Raise unless the step iterator ``rest`` is spent: a parity measurement's branch list ends a step list."""
    if next(rest, None) is not None:
        raise ValueError("a parity_measure step ends a step list; no step may follow it")


def _permuted(e: BellEnsemble, strings) -> BellEnsemble:
    """The ensemble with each packed string replaced, in order, by the
    image under a bijection: nothing merges, so only the order changes."""
    return BellEnsemble._make(e.n_pairs, dict(sorted(zip(strings, e._probs.values()))))


#: Byte translations between ``format(x, "b")`` digits and 0/1 bytes: one
#: table to read a string's bits, and per lane bit i one that maps a byte
#: to the digit of its bit i, to write them back.
_DIGIT_BIT = bytes.maketrans(b"01", b"\x00\x01")
_LANE_DIGITS = [(b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8)]


def _columns(strings: list[int], n_pairs: int) -> list[int]:
    """The strings transposed: bit i of column 2k (2k + 1) is pair k's a
    (b) bit in ``strings[i]``; eight strings share a byte per column."""
    width = 2 * n_pairs
    for g in range(0, len(strings), 8):
        lanes = 0
        for i, x in enumerate(strings[g : g + 8]):
            lanes |= int.from_bytes(format(x, "b").zfill(width).encode().translate(_DIGIT_BIT), "big") << i
        lane = lanes.to_bytes(width, "big")
        cols = [c | v << g for c, v in zip(cols, lane)] if g else list(lane)
    return cols


def _strings(cols: list[int], k: int) -> list[int]:
    """Inverse of :func:`_columns` for ``k`` strings."""
    strings = []
    for g in range(0, k, 8):
        lane = bytes(cols) if k <= 8 else bytes([c >> g & 255 for c in cols])
        strings += [int(lane.translate(_LANE_DIGITS[i]), 2) for i in range(min(8, k - g))]
    return strings


def _rewrite(e: BellEnsemble, run: list[tuple]) -> BellEnsemble:
    """Apply a run of :func:`_step_columns` steps to the transposed
    support, as whole-column XORs, then transpose back and re-sort."""
    if not run:
        return e
    k = len(e._probs)
    ones = (1 << k) - 1
    cols = _columns(list(e._probs), e.n_pairs)
    for op in run:
        if len(op) == 4:  # bilateral C-NOT
            b_s, b_t, a_t, a_s = op
            cols[b_s] ^= cols[b_t]
            cols[a_t] ^= cols[a_s]
        else:  # an affine map of one pair's (a, b) columns
            ia, ib, aa, ab, ac, ba, bb, bc = op
            a, b = cols[ia], cols[ib]
            cols[ia] = (a & aa) ^ (b & ab) ^ (ones & ac)
            cols[ib] = (a & ba) ^ (b & bb) ^ (ones & bc)
    return _permuted(e, _strings(cols, k))


def _affine(table) -> tuple[int, ...]:
    """The label permutation ``table`` (old field value -> new) as an affine
    map of a pair's bits (S4 ~ AGL(2,2)): new = M (a, b) + c with c = table[0]
    and M's columns table[2] ^ c and table[1] ^ c, held as masks 0 or -1."""
    c, ma, mb = table[0], table[2] ^ table[0], table[1] ^ table[0]
    return -(ma >> 1), -(mb >> 1), -(c >> 1), -(ma & 1), -(mb & 1), -(c & 1)


#: The bilateral Hadamard, (a, b) -> (b, a), and the Paulis x, y, z.
_HADAMARD = _affine((0b00, 0b10, 0b01, 0b11))
_PAULIS = [_affine([v ^ flip for v in range(4)]) for flip in (0b10, 0b11, 0b01)]


def _step_columns(n_pairs: int, op: tuple) -> tuple | None:
    """The one check of a step on ``n_pairs`` pairs, which :func:`apply_steps`, :func:`apply_steps_dense`
    and :func:`~bellclone.protocols.derive_ledger` all run: raises its first fault; returns the column step
    of an affine step (bilateral C-NOT or Hadamard, one-sided Pauli, local Clifford), else None."""
    name = op[0]
    if name == "bxor":
        _, source, target = op
        if not (0 <= source < n_pairs and 0 <= target < n_pairs and source != target):
            _check_pair(n_pairs, source)
            _check_pair(n_pairs, target)
            raise ValueError("source and target pair must differ")
        return 2 * source + 1, 2 * target + 1, 2 * target, 2 * source
    if name == "bilateral_hadamard":
        _check_pair(n_pairs, op[1])
        return (2 * op[1], 2 * op[1] + 1) + _HADAMARD
    if name == "one_sided_pauli":
        _, pair, pauli_index, side = op
        _check_pair(n_pairs, pair)
        if pauli_index not in (1, 2, 3):
            raise ValueError("Pauli index must be 1 (x), 2 (y) or 3 (z)")
        if side not in ("alice", "bob"):
            raise ValueError(f"unknown side {side!r}")
        return (2 * pair, 2 * pair + 1) + _PAULIS[pauli_index - 1]
    if name == "local_clifford":
        table = [op[2].label_map[l].index - 1 for l in LABELS]
        if sorted(table) != [0, 1, 2, 3]:
            raise ValueError("label map must be a permutation of the four labels")
        _check_pair(n_pairs, op[1])
        return (2 * op[1], 2 * op[1] + 1) + _affine(table)
    if name == "parity_measure":
        _check_pair(n_pairs, op[1])
    elif name == "teleport":
        if op[1].n_pairs != 1 or n_pairs < 2:
            raise ValueError("teleportation needs a one-pair input and a channel of two or more pairs")
    elif name != "random_pauli_x":
        raise ValueError(f"unknown rewrite step {name!r}")
    return None


def bxor(e: BellEnsemble, source: int, target: int) -> BellEnsemble:
    """Bilateral C-NOT from the source pair onto the target pair.

    Both parties apply a local C-NOT from their half of ``source`` to
    their half of ``target``.  On labels this acts per string as

        source (a_s, b_s) -> (a_s, b_s ^ b_t)
        target (a_t, b_t) -> (a_s ^ a_t, b_t)

    an involution certified gate-by-gate against the dense oracle.
    """
    return _rewrite(e, [_step_columns(e.n_pairs, ("bxor", source, target))])


def bilateral_hadamard(e: BellEnsemble, pair: int) -> BellEnsemble:
    """Hadamard on both halves of a pair: swaps the label bits (a,b) -> (b,a)."""
    return _rewrite(e, [_step_columns(e.n_pairs, ("bilateral_hadamard", pair))])


def one_sided_pauli(e: BellEnsemble, pair: int, pauli_index: int, side: str) -> BellEnsemble:
    """Pauli on one party's half of a pair (projector level).

    x flips the a bit, z flips the b bit, y flips both; the action is the
    same from either side.
    """
    return _rewrite(e, [_step_columns(e.n_pairs, ("one_sided_pauli", pair, pauli_index, side))])


def append_b1(e: BellEnsemble, count: int) -> BellEnsemble:
    """Tensor ``count`` shared |B1> pairs onto the end of every string."""
    if count < 0:
        raise ValueError(f"cannot append {count} pairs")
    shift = 2 * count
    return BellEnsemble._make(e.n_pairs + count, {x << shift: p for x, p in e._probs.items()})


def discriminate_sets(
    e: BellEnsemble, pair: int
) -> list[tuple[int, float, BellEnsemble | None]]:
    """Locally distinguish {B1,B2} (a=0) from {B3,B4} (a=1) on a pair.

    Both parties measure their half in the computational basis and
    compare parities over the classical channel.  Returns the branches
    with positive probability as (a bit, probability, conditional); the
    measured pair is removed from the conditional and its phase bit is
    discarded (the measurement dephases it).  The conditional is None
    when no pairs remain.
    """
    sh = _check_pair(e.n_pairs, pair)
    low = (1 << sh) - 1
    buckets: tuple[dict[int, float], dict[int, float]] = ({}, {})
    probs = [0.0, 0.0]
    for x, p in e._probs.items():
        bit = (x >> (sh + 1)) & 1
        rest = (x >> (sh + 2) << sh) | (x & low)
        probs[bit] += p
        buckets[bit][rest] = buckets[bit].get(rest, 0.0) + p
    out: list[tuple[int, float, BellEnsemble | None]] = []
    for bit in (0, 1):
        if probs[bit] <= PRUNE_EPS:
            continue
        if e.n_pairs == 1:
            out.append((bit, probs[bit], None))
        else:
            cond = _canonical({s: p / probs[bit] for s, p in buckets[bit].items()})
            out.append((bit, probs[bit], BellEnsemble._make(e.n_pairs - 1, cond)))
    return out


def teleport(channel: BellEnsemble, source: BellEnsemble) -> BellEnsemble:
    """Joint teleportation of the one-pair ``source`` through channel pair 0:
    each party Bell-measures its input qubit with its half of pair 0, and
    the broadcast outcomes Pauli-correct every other pair.  Receiver k ends
    up with label x ^ c0 ^ ck (input x, channel labels c0 and ck)."""
    _step_columns(channel.n_pairs, ("teleport", source))
    n = channel.n_pairs - 1
    low = (1 << 2 * n) - 1
    ones = int("01" * n, 2)
    out: dict[int, float] = {}
    for x, q in source._probs.items():
        for c, p in channel._probs.items():
            y = (c & low) ^ ((x ^ (c >> 2 * n)) & 3) * ones
            out[y] = out.get(y, 0.0) + q * p
    return BellEnsemble._make(n, _canonical(out))


def mix(ensembles: list[BellEnsemble], weights: list[float]) -> BellEnsemble:
    """Convex combination of ensembles over the same number of pairs."""
    if len(ensembles) != len(weights):
        raise ValueError("one weight per ensemble required")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    n = ensembles[0].n_pairs
    if any(e.n_pairs != n for e in ensembles):
        raise ValueError("ensembles have different string lengths")
    out: dict[int, float] = {}
    for e, w in zip(ensembles, weights):
        if w <= 0:
            continue
        for x, p in e._probs.items():
            out[x] = out.get(x, 0.0) + w * p
    return BellEnsemble._make(n, _canonical(out))


@lru_cache(maxsize=None)
def _bell_row_tables(n: int):
    """What every ``to_dense`` on n pairs shares: the mask of a packed
    string's A bits, the bits that put x on both qubits of each pair, the
    bits that put it on the Bob qubits alone (where B's bits sit, so their
    AND's parity is B.x) and the entries +-2^(-n/2); all read-only."""
    alice = dense._index_tables(2 * n, tuple(range(0, 2 * n, 2)))[1]  # bit k of x on pair k's Alice qubit
    bob = alice >> 1
    both = alice | bob
    entries = np.array([1.0, -1.0]) * math.prod([1 / dense._SQRT2] * n)
    both.flags.writeable = bob.flags.writeable = entries.flags.writeable = False
    return int("10" * n, 2), both, bob, entries


def to_dense(e: BellEnsemble, role: str = "source") -> dense.DenseState:
    """Render an ensemble as a dense mixture of Bell-product branches.

    Qubits are laid out pair by pair, Alice before Bob within each pair;
    the register is capped at 14 qubits.
    """
    n = e.n_pairs
    if 2 * n > dense.MAX_REGISTER_QUBITS:
        raise ValueError(f"{n} pairs need {2 * n} qubits; register too large")
    # String (A, B) has amplitude (-1)^(B.x) 2^(-n/2) at x on both qubits of each pair, then A
    # on the Bob qubits: one block of 2^n columns per distinct A, entries as np.kron forms them.
    a_mask, both, bob, entries = _bell_row_tables(n)
    blocks: dict[int, int] = {}
    block = [blocks.setdefault(x & a_mask, len(blocks)) for x in e._probs]
    strings = np.fromiter(e._probs, np.int64, len(block))
    values = np.zeros((len(block), len(blocks), 2**n), dtype=complex)
    values[np.arange(len(block)), block] = entries[np.bitwise_count(strings[:, None] & bob) & 1]
    support = (both ^ np.fromiter(blocks, np.int64, len(blocks))[:, None] >> 1).ravel()
    weights = np.fromiter(e._probs.values(), float, len(block))
    return dense.DenseState._from_kernel(support, values.reshape(len(block), -1), weights, dense.pair_register(n, role), rescale=True)


#: The two parties, in the order each pair lists their qubits.
PARTIES = ("alice", "bob")


def party_qubit(pair: int, party: str) -> int:
    """Register index of ``party``'s qubit of pair ``pair``: Alice's at 2k,
    Bob's at 2k+1.  The dense interpreter and the ledger lines that the
    LOCC audit checks against :func:`~bellclone.dense.pair_register` both
    read the layout from here."""
    return 2 * pair + (party == "bob")


#: H (x) H, the bilateral Hadamard as one gate on a pair's (Alice, Bob)
#: qubits, with exact entries +-1/2 (not two rounded 1/sqrt(2) multiplied).
_BILATERAL_HADAMARD = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]) / 2 + 0j


def teleport_two_qubit(channel: dense.DenseState, input_state: dense.DenseState) -> dense.DenseState:
    """Teleport a shared two-qubit state through a channel of two or more pairs.

    Both parties run the standard single-qubit teleportation protocol for
    channel |B1> (corrections B1 -> I, B2 -> z, B3 -> x, B4 -> y): Alice
    Bell-measures her input qubit with A0, Bob his with B0, and each
    corrects its qubit of every other channel pair.  Through the Smolin
    state this is the Bell-diagonal filter sigma_i (x) sigma_j -> delta_ij
    sigma_i (x) sigma_j.  The output pairs keep the channel's labels (pair 1
    onwards, as the ledger names them), and input qubits after the first two
    (the reference of :func:`~bellclone.dense.choi_matrix`) are carried, with
    their labels, after them.  One Bell measurement drops qubits 0-3 of the
    joint register with the corrections as one Pauli frame; the output has
    one unmerged row per (branch, Alice outcome, Bob outcome), divided once
    by the root of its probability.  No partial trace or spectrum is taken.
    The channel must be an even register whose pair k has Alice's qubit at
    ``party_qubit(k, "alice")`` and Bob's at ``party_qubit(k, "bob")``, and the
    input must start with one Alice qubit then one Bob qubit.
    """
    n_pairs, odd = divmod(channel.n_qubits, 2)
    if n_pairs < 2:
        raise ValueError("channel needs at least two pairs")
    if odd or any(channel.qubit_labels[party_qubit(k, p)].party != p for k in range(n_pairs) for p in PARTIES):
        raise ValueError("channel must hold one Alice qubit then one Bob qubit per pair")
    if input_state.n_qubits < 2:
        raise ValueError("teleportation input must be a two-qubit state")
    if tuple(q.party for q in input_state.qubit_labels[:2]) != PARTIES:
        raise ValueError("input must hold one Alice qubit then one Bob qubit")

    # The register holds the input pair as pair 0, channel pair k as pair
    # k + 1 and the carried input qubits last; once pairs 0 and 1 are
    # dropped, channel pair k + 1 is pair k of what is left.
    state = dense.tensor(input_state, channel, at=2)
    measured = [(party_qubit(0, party), party_qubit(1, party)) for party in PARTIES]
    receivers = [[party_qubit(k, party) for k in range(n_pairs - 1)] for party in PARTIES]
    return dense.bell_measurement(state, *measured, receivers=receivers)[0]


def _parity_measure(state: dense.DenseState, pair: int) -> list[tuple[int, float, dense.DenseState | None]]:
    """Dense :func:`discriminate_sets`: each party measures sigma_z on its qubit of the pair
    and drops it.  Per parity bit: (bit, probability, state on the other pairs or None), with
    the (branch, x_a x_b) rows of that parity above 1e-14, each divided once by its root."""
    measured = [party_qubit(pair, party) for party in PARTIES]
    # blocks[b, 2 x_a + x_b, j]: branch b's amplitude at rest[j] of the other qubits.
    blocks, rest, labels = dense._measured(state, measured)
    p = dense._squared_row_norms(blocks)
    out = []
    for bit, xs in ((0, [0, 3]), (1, [1, 2])):
        p_bit = p[:, xs]  # p_bit[b, i]: probability of x_a x_b = xs[i] in branch b
        prob = float(state.weights @ p_bit.sum(axis=1))
        if prob <= 1e-14:
            continue
        keep = p_bit > 1e-14
        kept = blocks[:, xs][keep] / np.sqrt(p_bit[keep])[:, None]
        weights = (state.weights[:, None] * p_bit)[keep] / prob
        out.append((bit, prob, dense._pruned(rest, kept, weights, labels) if labels else None))
    return out


def _step_gate(op: tuple) -> tuple:
    """The :func:`~bellclone.dense.apply_gates` gate of a valid affine step: a bxor
    is one layer of two C-NOTs, each party's from its qubit of the source pair
    onto its qubit of the target pair; a Pauli is one 2x2 gate on the side's
    qubit; a Hadamard or local Clifford one 4x4 gate on the pair's two qubits."""
    name, pair = op[0], op[1]
    if name == "bxor":
        return None, [(party_qubit(pair, party), party_qubit(op[2], party)) for party in PARTIES]
    if name == "one_sided_pauli":
        return dense.pauli(op[2]), (party_qubit(pair, op[3]),)
    u = _BILATERAL_HADAMARD if name == "bilateral_hadamard" else op[2].pair_matrix
    return u, [party_qubit(pair, party) for party in PARTIES]


def apply_steps_dense(state: dense.DenseState, steps: Iterable[tuple]):
    """Run a step list (see :func:`apply_steps`) on explicit state vectors,
    pair k on the qubits :func:`party_qubit` gives it, each step once
    :func:`apply_steps`'s check, :func:`_step_columns`, passes.  Each maximal
    run of affine steps, the runs :func:`apply_steps` rewrites at once, is one
    :func:`~bellclone.dense.apply_gates` pass with one state check at its end
    (:func:`_step_gate`); every other step is its measurement or mixture.
    This is the oracle side of the symbolic/dense equivalence checks."""
    steps = iter(steps)
    # groupby reads a step, and so validates it, only once the one before it has run.
    for affine, ops in groupby(steps, key=lambda op: _step_columns(state.n_qubits // 2, op) is not None):
        if affine:
            state = dense.apply_gates(state, map(_step_gate, ops))
            continue
        for op in ops:
            if op[0] == "random_pauli_x":
                state = dense.mix_flipped(state, [party_qubit(k, "bob") for k in range(state.n_qubits // 2)])
            elif op[0] == "parity_measure":
                state = _parity_measure(state, op[1])
                _check_last(steps)  # groupby has not read past this step yet
            else:  # a teleport
                state = teleport_two_qubit(state, to_dense(op[1], role="input"))
    return state


def apply_steps(e: BellEnsemble, steps: Iterable[tuple]):
    """Run a step list symbolically (the branch list if it ends in a measurement), each step
    checked by :func:`_step_columns`, each run of affine steps in one :func:`_rewrite` once all pass.
    Steps: ("bxor", source, target), ("bilateral_hadamard", pair),
    ("one_sided_pauli", pair, index, side), ("local_clifford", pair, reduction)
    with a :class:`~bellclone.protocols.PairReduction`, ("random_pauli_x",)
    for Bob's sigma_x on all his qubits with probability 1/2, ("teleport",
    source) and ("parity_measure", pair), whose branch list ends a list."""
    run: list[tuple] = []
    steps = iter(steps)
    for op in steps:
        columns = _step_columns(e.n_pairs, op)
        if columns is not None:
            run.append(columns)
            continue
        e, run = _rewrite(e, run), []
        if op[0] == "random_pauli_x":
            mask = int("10" * e.n_pairs, 2)  # x on every pair: each a bit flips
            e = mix([e, _permuted(e, [x ^ mask for x in e._probs])], [0.5, 0.5])
        elif op[0] == "parity_measure":
            e = discriminate_sets(e, op[1])
            _check_last(steps)
        else:  # a teleport
            e = teleport(e, op[1])
    return _rewrite(e, run)

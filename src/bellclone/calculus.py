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
label order.  A rewrite is a few shifts and XORs per string, O(support x
pairs / word) per step.  Only the constructor, :meth:`~BellEnsemble.from_text`,
:func:`mix` and the conditionals of :func:`discriminate_sets` merge,
prune and check; the bijective rewrites just re-sort.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from . import dense
from .labels import BellLabel, BellString, LABELS, label_from_bits, string_bits

#: Probabilities below this are pruned after merging.
PRUNE_EPS = 1e-15

#: The four labels packed in each byte value, most significant field first.
_BYTE_LABELS = [tuple(LABELS[(byte >> sh) & 3] for sh in (6, 4, 2, 0)) for byte in range(256)]


def _pack(string: BellString) -> int:
    return int("".join(f"{l.a}{l.b}" for l in string), 2)


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
            if prob < 0:
                raise ValueError(f"negative probability {prob}")
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

    def items(self) -> list[tuple[BellString, float]]:
        return list(self.entries.items())

    def probability(self, string: BellString) -> float:
        return self.entries.get(tuple(string), 0.0)

    def map_strings(self, fn) -> "BellEnsemble":
        """Rewrite every string with ``fn`` (probabilities carried over)."""
        out: dict[BellString, float] = {}
        for s, p in self.entries.items():
            t = tuple(fn(s))
            out[t] = out.get(t, 0.0) + p
        return BellEnsemble(out)

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


def _check_pair(e: BellEnsemble, pair: int) -> int:
    """Validate a pair index; returns the bit offset of its field."""
    if pair < 0 or pair >= e.n_pairs:
        raise ValueError(f"pair index {pair} out of range for {e.n_pairs} pairs")
    return 2 * (e.n_pairs - 1 - pair)


def _permuted(e: BellEnsemble, strings) -> BellEnsemble:
    """The ensemble with each packed string replaced, in order, by the
    image under a bijection: nothing merges, so only the order changes."""
    return BellEnsemble._make(e.n_pairs, dict(sorted(zip(strings, e._probs.values()))))


def _relabel(e: BellEnsemble, pair: int, table) -> BellEnsemble:
    """Apply the label permutation ``table`` (old field value -> new) on one pair."""
    sh = _check_pair(e, pair)
    delta = [new ^ old for old, new in enumerate(table)]
    return _permuted(e, [x ^ (delta[(x >> sh) & 3] << sh) for x in e._probs])


def bxor(e: BellEnsemble, source: int, target: int) -> BellEnsemble:
    """Bilateral C-NOT from the source pair onto the target pair.

    Both parties apply a local C-NOT from their half of ``source`` to
    their half of ``target``.  On labels this acts per string as

        source (a_s, b_s) -> (a_s, b_s ^ b_t)
        target (a_t, b_t) -> (a_s ^ a_t, b_t)

    an involution certified gate-by-gate against the dense oracle.
    """
    b_s = _check_pair(e, source)
    b_t = _check_pair(e, target)
    if source == target:
        raise ValueError("source and target pair must differ")
    a_s, a_t = b_s + 1, b_t + 1
    return _permuted(
        e, [x ^ (((x >> a_s) & 1) << a_t) ^ (((x >> b_t) & 1) << b_s) for x in e._probs]
    )


def bilateral_hadamard(e: BellEnsemble, pair: int) -> BellEnsemble:
    """Hadamard on both halves of a pair: swaps the label bits (a,b) -> (b,a)."""
    return _relabel(e, pair, (0b00, 0b10, 0b01, 0b11))


def one_sided_pauli(e: BellEnsemble, pair: int, pauli_index: int, side: str) -> BellEnsemble:
    """Pauli on one party's half of a pair (projector level).

    x flips the a bit, z flips the b bit, y flips both; the action is the
    same from either side.
    """
    sh = _check_pair(e, pair)
    if pauli_index not in (1, 2, 3):
        raise ValueError("Pauli index must be 1 (x), 2 (y) or 3 (z)")
    if side not in ("alice", "bob"):
        raise ValueError(f"unknown side {side!r}")
    flip = (0b10, 0b11, 0b01)[pauli_index - 1] << sh
    return _permuted(e, [x ^ flip for x in e._probs])


def relabel_pair(e: BellEnsemble, pair: int, mapping: dict[BellLabel, BellLabel]) -> BellEnsemble:
    """Apply a label permutation (such as the one a product of local
    Cliffords induces) to one pair."""
    table = [mapping[l].index - 1 for l in LABELS]
    if sorted(table) != [0, 1, 2, 3]:
        raise ValueError("label map must be a permutation of the four labels")
    return _relabel(e, pair, table)


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
    sh = _check_pair(e, pair)
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


def to_dense(e: BellEnsemble, role: str = "source") -> dense.DenseState:
    """Render an ensemble as a dense mixture of Bell-product branches.

    Qubits are laid out pair by pair, Alice before Bob within each pair;
    the register is capped at 14 qubits.
    """
    n_qubits = 2 * e.n_pairs
    if n_qubits > dense.MAX_REGISTER_QUBITS:
        raise ValueError(f"{e.n_pairs} pairs need {n_qubits} qubits; register too large")
    labels = dense.pair_register(e.n_pairs, role)
    branches = []
    for s, p in e.entries.items():
        vec = np.ones(1, dtype=complex)
        for label in s:
            vec = np.kron(vec, dense.bell_vector(label))
        branches.append(dense.PureBranch(vec, p))
    return dense.DenseState(tuple(branches), labels)


def dense_rewrite_op(state: dense.DenseState, op: tuple) -> dense.DenseState:
    """Apply the dense circuit matching a symbolic rewrite step.

    Steps are ("bxor", source, target), ("bilateral_hadamard", pair) or
    ("one_sided_pauli", pair, index, side); pair k occupies qubits
    (2k, 2k+1).  This is the oracle side of the symbolic/dense
    equivalence checks.
    """
    name = op[0]
    if name == "bxor":
        _, s, t = op
        out = dense.apply_unitary(state, dense.CNOT, (2 * s, 2 * t))
        return dense.apply_unitary(out, dense.CNOT, (2 * s + 1, 2 * t + 1))
    if name == "bilateral_hadamard":
        _, k = op
        out = dense.apply_unitary(state, dense.HADAMARD, (2 * k,))
        return dense.apply_unitary(out, dense.HADAMARD, (2 * k + 1,))
    if name == "one_sided_pauli":
        _, k, idx, side = op
        qubit = 2 * k if side == "alice" else 2 * k + 1
        return dense.apply_unitary(state, dense.pauli(idx), (qubit,))
    raise ValueError(f"unknown rewrite step {name!r}")


def apply_rewrite_op(e: BellEnsemble, op: tuple) -> BellEnsemble:
    """Apply a symbolic rewrite step given in the tuple form above."""
    name = op[0]
    if name == "bxor":
        return bxor(e, op[1], op[2])
    if name == "bilateral_hadamard":
        return bilateral_hadamard(e, op[1])
    if name == "one_sided_pauli":
        return one_sided_pauli(e, op[1], op[2], op[3])
    raise ValueError(f"unknown rewrite step {name!r}")

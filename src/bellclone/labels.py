"""Symbolic Bell-state labels.

A two-qubit Bell state is identified by two bits: ``a`` (bit-flip
component) and ``b`` (phase-flip component),

    |B(a,b)> = (1/sqrt(2)) * sum_x (-1)^(b*x) |x, x^a>,

so that B1=(0,0), B2=(0,1), B3=(1,0), B4=(1,1).  The first qubit of a
pair belongs to Alice, the second to Bob; a :data:`BellString` lists one
label per shared pair, ordered by pair index.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True, init=False)
class BellLabel:
    """Bell-state identity as a pair of bits (bit-flip, phase-flip).

    The four labels are interned: ``BellLabel(a, b)`` returns the shared
    instance, so equal labels are identical and hash by identity, which
    keeps dicts keyed by long label strings cheap to build.
    """

    a: int
    b: int

    def __new__(cls, a: int, b: int) -> "BellLabel":
        if a not in (0, 1) or b not in (0, 1):
            raise ValueError(f"label bits must be 0 or 1, got ({a}, {b})")
        return LABELS[2 * int(a) + int(b)]

    __hash__ = object.__hash__

    def __reduce__(self):
        return BellLabel, (self.a, self.b)

    @property
    def index(self) -> int:
        """1-based index: B1..B4 in the order (0,0),(0,1),(1,0),(1,1)."""
        return 1 + 2 * self.a + self.b

    @property
    def name(self) -> str:
        return f"B{self.index}"

    def flipped(self, a: int = 0, b: int = 0) -> "BellLabel":
        """Label with the given bits XOR-ed in (projector-level Pauli action)."""
        return BellLabel(self.a ^ a, self.b ^ b)

    def __str__(self) -> str:
        return self.name


def _interned(a: int, b: int) -> BellLabel:
    label = object.__new__(BellLabel)
    object.__setattr__(label, "a", a)
    object.__setattr__(label, "b", b)
    return label


#: All four labels in index order.
LABELS = (B1, B2, B3, B4) = tuple(_interned(a, b) for a in (0, 1) for b in (0, 1))

#: A string of Bell labels, one per shared pair (Alice qubit first in each pair).
BellString = tuple[BellLabel, ...]


def label_from_name(name: str) -> BellLabel:
    """Parse ``"B1"``..``"B4"`` (case-insensitive)."""
    name = name.strip().upper()
    if len(name) == 2 and name[0] == "B" and name[1] in "1234":
        return LABELS[int(name[1]) - 1]
    raise ValueError(f"not a Bell label name: {name!r}")


def label_from_bits(bits: str) -> BellLabel:
    """Parse the two-character bit form ``"ab"``, e.g. ``"10"`` for B3."""
    if len(bits) == 2 and bits[0] in "01" and bits[1] in "01":
        return BellLabel(int(bits[0]), int(bits[1]))
    raise ValueError(f"not a Bell label bit pair: {bits!r}")


def string_bits(s: BellString) -> str:
    """Render a Bell string as space-separated bit pairs, e.g. ``"00 10"``."""
    return " ".join(f"{l.a}{l.b}" for l in s)

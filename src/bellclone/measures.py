"""Closed-form entanglement quantities and bound witnesses.

Formulas cover the two state families built by :mod:`bellclone.protocols`:

* ``sigma_n(p)`` = p P[B1^(x)n] + (1-p) P[B2^(x)n], whose entanglement
  cost and distillable entanglement are
  E_c = H2(1/2 + sqrt(p(1-p))) + (n-1) and E_d = n - H2(p);
* the two-state clone mixture ``rho2_n`` = (P[B1^(x)n] + P[B3^(x)n])/2
  with E_d = n - 1;
* the uniform four-branch ancilla ``rho_m`` = (1/4) sum_i P[B_i^(x)m]
  with E_d = m-1 for odd m and m-2 for even m (equal to its
  preparation cost, making it reversible).

The sigma_n closed forms (``binary_entropy``, ``ec_sigma1``, ``ed_sigma1``,
``ec_sigma_n``, ``ed_sigma_n`` and ``irreversibility_gap``) take arrays:
a number gives a Python ``float``, an array of p (with n an int or an
int array that broadcasts with it) gives an array, so a grid is one call
per formula.  A domain error names, for an array, its first entry
outside the domain.  Every entry is computed in the same IEEE operation
order as the one-number formula, and ``log2`` is ``math.log2`` applied
entry by entry: numpy's ``log2`` takes a host-dependent SIMD path that
can differ from it in the last bit, which would move reported values.

Values imported as formula constants carry provenance ``"formula"``;
log-negativity evaluations of dense states carry ``"dense-witness"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense


def _log2(x: np.ndarray) -> np.ndarray:
    """``math.log2`` of every entry: numpy's ``log2`` takes a SIMD path that
    can differ from it in the last bit, depending on the host."""
    return np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _result(value) -> float | np.ndarray:
    """A Python float for a 0-d result, else the array."""
    return float(value) if np.ndim(value) == 0 else value


def _check(ok: np.ndarray, arg, message: str):
    """Raise ``ValueError(message.format(arg))`` unless ``ok`` holds
    everywhere; for an array ``arg``, the message names its first entry
    where ``ok`` fails, with that entry's index."""
    if ok.all():
        return
    if np.ndim(arg) == 0:
        raise ValueError(message.format(arg))
    index = np.argwhere(~ok)[0].tolist()
    value = np.asarray(arg)[tuple(index)].item()
    raise ValueError(message.format(value) + f" (at index {index[0] if len(index) == 1 else tuple(index)})")


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """H2(x) = -x log2 x - (1-x) log2(1-x), with H2(0) = H2(1) = 0."""
    a = np.asarray(x, dtype=float)
    _check((0.0 <= a) & (a <= 1.0), x, "binary entropy needs x in [0, 1], got {}")
    inner = (0.0 < a) & (a < 1.0)
    a = np.where(inner, a, 0.5)
    return _result(np.where(inner, -a * _log2(a) - (1.0 - a) * _log2(1.0 - a), 0.0))


def _check_p(p: float | np.ndarray) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    _check((0.0 < a) & (a < 1.0), p, "mixing probability must lie in (0, 1), got {}")
    return a


def ec_sigma1(p: float | np.ndarray) -> float | np.ndarray:
    """Entanglement cost of sigma_1(p), H2(1/2 + sqrt(p(1-p))) ebits."""
    p = _check_p(p)
    return binary_entropy(np.minimum(1.0, 0.5 + np.sqrt(p * (1.0 - p))))


def ed_sigma1(p: float | np.ndarray) -> float | np.ndarray:
    """Distillable entanglement of sigma_1(p), 1 - H2(p) ebits."""
    return 1.0 - binary_entropy(_check_p(p))


def ec_sigma_n(p: float | np.ndarray, n: int | np.ndarray) -> float | np.ndarray:
    """Entanglement cost of sigma_n(p): ec_sigma1(p) + (n - 1)."""
    n = _check_n(n)
    return _result(np.add(ec_sigma1(p), n - 1))


def ed_sigma_n(p: float | np.ndarray, n: int | np.ndarray) -> float | np.ndarray:
    """Distillable entanglement of sigma_n(p): n - H2(p)."""
    n = _check_n(n)
    return _result(np.add(ed_sigma1(p), n - 1))


def _check_n(n: int | np.ndarray) -> np.ndarray:
    a = np.asarray(n)
    _check(~(a < 1), n, "number of pairs must be >= 1, got {}")
    return a


def irreversibility_gap(p: float | np.ndarray, n: int | np.ndarray = 1) -> float | np.ndarray:
    """ec_sigma_n - ed_sigma_n; positive for p != 1/2 and n-independent.

    Raises for p = 1/2 (for an array, at any entry), where the gap
    degenerates to 0 and witnesses nothing.
    """
    a = _check_p(p)
    _check_n(n)
    _check(a != 0.5, p, "gap vanishes at p = 1/2; not an irreversibility witness")
    return ec_sigma_n(p, n) - ed_sigma_n(p, n)


def ed_rho2n(n: int) -> float:
    """Distillable entanglement of the two-state clone mixture: n - 1."""
    _check_n(n)
    return float(n - 1)


def ed_rho_m(m: int) -> float:
    """Distillable entanglement of rho_m: m-1 for odd m, m-2 for even m."""
    if m < 2:
        raise ValueError(f"rho_m needs m >= 2, got {m}")
    return float(m - 1 if m % 2 else m - 2)


@dataclass(frozen=True)
class MeasureReport:
    """One evaluated entanglement quantity with its provenance."""

    quantity: str
    value: float
    state: str
    cut: str = "alice:bob"
    provenance: str = "formula"  # "formula" | "dense-witness"

    def __post_init__(self):
        if self.value < -dense.ATOL_EIG:
            raise ValueError(f"{self.quantity} came out negative: {self.value}")
        if self.provenance not in ("formula", "dense-witness"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "value", max(0.0, float(self.value)))

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "state": self.state,
            "cut": self.cut,
            "value": self.value,
            "provenance": self.provenance,
        }


def log_negativity_report(
    state: dense.DenseState, cut: dense.Cut, state_name: str, cut_name: str
) -> MeasureReport:
    """Evaluate log-negativity across a cut and wrap it as a report."""
    value = dense.log_negativity(state, cut)
    return MeasureReport("log-negativity", value, state_name, cut_name, "dense-witness")

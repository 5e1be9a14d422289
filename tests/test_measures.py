import math

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import log as mplog
from mpmath import sqrt as mpsqrt

from bellclone import cli, dense, measures, verify
from bellclone.calculus import BellEnsemble, bxor, to_dense
from bellclone.dense import Cut
from bellclone.labels import B1, B3
from bellclone.measures import (
    MeasureReport,
    binary_entropy,
    ec_sigma1,
    ec_sigma_n,
    ed_rho2n,
    ed_rho_m,
    ed_sigma1,
    ed_sigma_n,
    irreversibility_gap,
)
from bellclone.protocols import build_sigma_n, prepare_rho_m

# Frozen 50-digit reference values (independent mpmath evaluation).
H2_QUARTER = 0.8112781244591328  # 2 - (3/4) log2(3)
EC_SIGMA1_QUARTER = 0.35457890266526987  # H2(1/2 + sqrt(3)/4)
ED_SIGMA1_QUARTER = 0.18872187554086714  # 1 - H2(1/4)
GAP_0999 = 0.0085233302225297


def h2_oracle(x: float) -> float:
    """50-digit binary entropy, evaluated independently with mpmath."""
    mp.dps = 50
    x = mpf(x)
    if x == 0 or x == 1:
        return 0.0
    return float(-x * mplog(x, 2) - (1 - x) * mplog(1 - x, 2))


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter_frozen_value(self):
        assert binary_entropy(0.25) == pytest.approx(H2_QUARTER, abs=1e-15)
        assert binary_entropy(0.25) == pytest.approx(
            2.0 - 0.75 * math.log2(3.0), abs=1e-15
        )

    @pytest.mark.parametrize("x", [0.01, 0.2, 0.37, 0.5, 0.9])
    def test_against_high_precision_oracle(self, x):
        assert binary_entropy(x) == pytest.approx(h2_oracle(x), abs=1e-14)

    def test_domain(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                binary_entropy(bad)

    def test_symmetry(self):
        for k in range(1, 1000):
            x = k / 1000.0
            assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) <= 1e-12

    def test_concavity_midpoints(self):
        xs = [k / 1000.0 for k in range(1001)]
        for a, b in zip(xs[:-2], xs[2:]):
            mid = binary_entropy((a + b) / 2.0)
            assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2.0 - 1e-12


class TestSigmaFormulas:
    def test_separable_boundary(self):
        assert ec_sigma1(0.5) == pytest.approx(0.0, abs=1e-12)
        assert ed_sigma1(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_pure_limit(self):
        p = 1.0 - 1e-9
        assert ec_sigma1(p) == pytest.approx(1.0, abs=1e-6)
        assert ed_sigma1(p) == pytest.approx(1.0, abs=1e-6)

    def test_quarter_frozen_values(self):
        assert ec_sigma1(0.25) == pytest.approx(EC_SIGMA1_QUARTER, abs=1e-14)
        assert ed_sigma1(0.25) == pytest.approx(ED_SIGMA1_QUARTER, abs=1e-14)
        assert ec_sigma1(0.25) > ed_sigma1(0.25)

    def test_quarter_against_oracle(self):
        mp.dps = 50
        ec = h2_oracle(float(mpf("0.5") + mpsqrt(mpf("0.25") * mpf("0.75"))))
        assert ec_sigma1(0.25) == pytest.approx(ec, abs=1e-13)
        assert ed_sigma1(0.25) == pytest.approx(1.0 - h2_oracle(0.25), abs=1e-14)

    def test_n_pair_forms(self):
        for p in (0.1, 0.25, 0.8):
            assert ec_sigma_n(p, 1) == pytest.approx(ec_sigma1(p), abs=1e-15)
            assert ed_sigma_n(p, 1) == pytest.approx(ed_sigma1(p), abs=1e-15)
            for n in (2, 4, 7):
                assert ed_sigma_n(p, n) == pytest.approx(
                    n - binary_entropy(p), abs=1e-12
                )
                assert ec_sigma_n(p, n) == pytest.approx(
                    ec_sigma1(p) + n - 1, abs=1e-12
                )

    def test_cost_dominates_distillable(self):
        for k in range(1, 1000):
            p = k / 1000.0
            if p == 0.5:
                continue
            assert ec_sigma1(p) > ed_sigma1(p)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                ec_sigma1(bad)
            with pytest.raises(ValueError):
                ed_sigma1(bad)
        with pytest.raises(ValueError):
            ec_sigma_n(0.3, 0)


class TestIrreversibilityGap:
    def test_small_but_positive_near_pure(self):
        gap = irreversibility_gap(0.999)
        assert gap == pytest.approx(GAP_0999, abs=1e-13)
        assert gap > 0.0

    def test_independent_of_copies(self):
        for p in (0.1, 0.25, 0.9):
            base = irreversibility_gap(p, 1)
            for n in (2, 5, 11):
                assert irreversibility_gap(p, n) == pytest.approx(base, abs=1e-12)

    def test_half_rejected(self):
        with pytest.raises(ValueError):
            irreversibility_gap(0.5)


class TestTwoStateFamily:
    def test_values(self):
        assert ed_rho2n(1) == 0.0
        assert ed_rho2n(2) == 1.0
        assert ed_rho2n(5) == 4.0
        with pytest.raises(ValueError):
            ed_rho2n(0)

    def test_single_pair_mixture_is_separable(self):
        e = BellEnsemble({(B1,): 0.5, (B3,): 0.5})
        state = to_dense(e)
        assert dense.log_negativity(state, Cut.alice_bob(state)) <= 1e-12

    def test_distillation_cross_check_two_pairs(self):
        # Un-cloning route: one bilateral C-NOT turns the correlated
        # two-pair mixture into (unknown pair) (x) pure |B1>, yielding
        # the promised 1 ebit.
        e = BellEnsemble({(B1, B1): 0.5, (B3, B3): 0.5})
        out = bxor(e, 0, 1)
        assert all(s[1] == B1 for s in out.entries)
        assert out.entries == {(B1, B1): 0.5, (B3, B1): 0.5}
        assert ed_rho2n(2) == 1.0

    def test_log_negativity_upper_bound(self):
        for n in (1, 2, 3, 4):
            e = BellEnsemble({(B1,) * n: 0.5, (B3,) * n: 0.5})
            state = to_dense(e)
            ln = dense.log_negativity(state, Cut.alice_bob(state))
            assert ln >= ed_rho2n(n) - 1e-9


class TestRhoMFamily:
    def test_small_m_values(self):
        assert ed_rho_m(2) == 0.0
        assert ed_rho_m(3) == 2.0
        assert ed_rho_m(4) == 2.0
        with pytest.raises(ValueError):
            ed_rho_m(1)

    def test_parity_table(self):
        assert [ed_rho_m(m) for m in range(2, 9)] == [0.0, 2.0, 2.0, 4.0, 4.0, 6.0, 6.0]

    def test_matches_preparation_cost_to_64(self):
        for m in range(2, 65):
            _, ledger = prepare_rho_m(m)
            assert ledger.ebits_consumed == ed_rho_m(m)

    def test_log_negativity_upper_bound(self):
        for m in (2, 3, 4, 5):
            state = to_dense(BellEnsemble.uniform_strings(m))
            ln = dense.log_negativity(state, Cut.alice_bob(state))
            assert ln >= ed_rho_m(m) - 1e-9


class TestSigmaBoundWitness:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_log_negativity_dominates_distillable(self, p, n):
        state = to_dense(build_sigma_n(p, n).ensemble)
        ln = dense.log_negativity(state, Cut.alice_bob(state))
        assert ln >= ed_sigma_n(p, n) - 1e-9


class TestMeasureReport:
    def test_round_trip_dict(self):
        report = MeasureReport("log-negativity", 1.0, "smolin", "A0:rest", "dense-witness")
        assert report.to_dict() == {
            "quantity": "log-negativity",
            "state": "smolin",
            "cut": "A0:rest",
            "value": 1.0,
            "provenance": "dense-witness",
        }

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            MeasureReport("log-negativity", -0.5, "smolin")

    def test_tiny_negative_clamped(self):
        report = MeasureReport("log-negativity", -1e-12, "smolin")
        assert report.value == 0.0

    def test_unknown_provenance_rejected(self):
        with pytest.raises(ValueError):
            MeasureReport("log-negativity", 0.5, "smolin", "alice:bob", "guess")


# -- the array forms against the one-number formulas they replaced ----------------------------

def ref_binary_entropy(x):
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs x in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def ref_check_p(p):
    if not 0.0 < p < 1.0:
        raise ValueError(f"mixing probability must lie in (0, 1), got {p}")


def ref_check_n(n):
    if n < 1:
        raise ValueError(f"number of pairs must be >= 1, got {n}")


def ref_ec_sigma1(p):
    ref_check_p(p)
    return ref_binary_entropy(min(1.0, 0.5 + math.sqrt(p * (1.0 - p))))


def ref_ed_sigma1(p):
    ref_check_p(p)
    return 1.0 - ref_binary_entropy(p)


def ref_ec_sigma_n(p, n):
    ref_check_n(n)
    return ref_ec_sigma1(p) + (n - 1)


def ref_ed_sigma_n(p, n):
    ref_check_n(n)
    return ref_ed_sigma1(p) + (n - 1)


def ref_irreversibility_gap(p, n=1):
    ref_check_p(p)
    ref_check_n(n)
    if p == 0.5:
        raise ValueError("gap vanishes at p = 1/2; not an irreversibility witness")
    return ref_ec_sigma_n(p, n) - ref_ed_sigma_n(p, n)


#: Grids of p in (0, 1): the formula-suite claim's (0.5 is entry 499), the two
#: golden ``measures --curve sigma`` runs' (--grid 9 and 19), the CLI tests'
#: (--grid 99), and p = 1/2 with the floats within 2^-52 of either end.
EDGES = [5e-324, 2.0**-1074 * 3, 2.0**-53, 2.0**-52, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
GRIDS = {
    "claim": np.arange(1, 1000) / 1000.0,
    "grid-9": np.arange(1, 10) / 10,
    "grid-19": np.arange(1, 20) / 20,
    "grid-99": np.arange(1, 100) / 100,
    "edges": np.array(EDGES),
}


def same(array, values):
    """Bit-identical entry by entry, as np.array_equal sees it."""
    return array.dtype == np.float64 and np.array_equal(array, np.array(values, dtype=float).reshape(array.shape))


class TestArrayForms:
    def test_claim_grid_matches_the_division_it_replaced(self):
        grid = GRIDS["claim"]
        assert grid.tolist() == [k / 1000.0 for k in range(1, 1000)]
        assert grid[499] == 0.5 and np.count_nonzero(grid == 0.5) == 1

    @pytest.mark.parametrize("grid", GRIDS)
    def test_single_pair_forms_are_bit_identical(self, grid):
        ps = GRIDS[grid]
        assert same(binary_entropy(ps), [ref_binary_entropy(p) for p in ps.tolist()])
        assert same(binary_entropy(1.0 - ps), [ref_binary_entropy(1.0 - p) for p in ps.tolist()])
        assert same(ec_sigma1(ps), [ref_ec_sigma1(p) for p in ps.tolist()])
        assert same(ed_sigma1(ps), [ref_ed_sigma1(p) for p in ps.tolist()])

    @pytest.mark.parametrize("grid", GRIDS)
    def test_n_pair_forms_broadcast_bit_identically(self, grid):
        ps, ns = GRIDS[grid], (1, 2, 5, 9)
        column = np.array(ns)[:, None]
        for fn, ref in ((ec_sigma_n, ref_ec_sigma_n), (ed_sigma_n, ref_ed_sigma_n)):
            assert same(fn(ps, column), [[ref(p, n) for p in ps.tolist()] for n in ns])
            for n in ns:
                assert same(fn(ps, n), [ref(p, n) for p in ps.tolist()])
        off = ps[ps != 0.5]
        assert same(irreversibility_gap(off, column), [[ref_irreversibility_gap(p, n) for p in off.tolist()] for n in ns])

    def test_numbers_give_python_floats(self):
        for p in EDGES:
            for fn, ref in ((binary_entropy, ref_binary_entropy), (ec_sigma1, ref_ec_sigma1), (ed_sigma1, ref_ed_sigma1)):
                assert type(fn(p)) is float and fn(p) == ref(p)
            for n in (1, 2, 5, 9):
                for fn, ref in ((ec_sigma_n, ref_ec_sigma_n), (ed_sigma_n, ref_ed_sigma_n)):
                    assert type(fn(p, n)) is float and fn(p, n) == ref(p, n)
                if p != 0.5:
                    assert type(irreversibility_gap(p, n)) is float
                    assert irreversibility_gap(p, n) == ref_irreversibility_gap(p, n)
        for x in (0.0, 1.0, 0, 1):
            assert type(binary_entropy(x)) is float and binary_entropy(x) == 0.0
        assert same(binary_entropy(np.array([0.0, 1.0, 0.5])), [0.0, 0.0, ref_binary_entropy(0.5)])

    def test_shape_is_kept(self):
        ps = GRIDS["grid-19"].reshape(1, 19)
        assert binary_entropy(ps).shape == ec_sigma_n(ps, 3).shape == (1, 19)
        assert ec_sigma_n(ps, np.array([[2], [3]])).shape == (2, 19)
        assert ed_sigma_n(0.25, np.array([2, 3])).shape == (2,)
        assert isinstance(binary_entropy([0.25]), np.ndarray)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (binary_entropy, (-0.1,)),
            (binary_entropy, (1.1,)),
            (binary_entropy, (-1,)),
            (binary_entropy, (float("nan"),)),
            (ec_sigma1, (0.0,)),
            (ed_sigma1, (1.0,)),
            (ec_sigma1, (-0.5,)),
            (ed_sigma1, (2,)),
            (ec_sigma_n, (0.3, 0)),
            (ed_sigma_n, (0.3, -2)),
            (ec_sigma_n, (1.5, 0)),  # the pair count is checked first
            (irreversibility_gap, (0.5,)),
            (irreversibility_gap, (0.0, 0)),  # then p before n
            (irreversibility_gap, (0.5, 0)),
        ],
    )
    def test_scalar_messages_are_unchanged(self, fn, args):
        ref = globals()[f"ref_{fn.__name__}"]
        with pytest.raises(ValueError) as want:
            ref(*args)
        with pytest.raises(ValueError) as got:
            fn(*args)
        assert str(got.value) == str(want.value)

    def test_array_errors_name_the_first_entry_outside_the_domain(self):
        with pytest.raises(ValueError, match=r"^binary entropy needs x in \[0, 1\], got -0\.5 \(at index 2\)$"):
            binary_entropy(np.array([0.0, 0.5, -0.5, 2.0]))
        with pytest.raises(ValueError, match=r"^mixing probability must lie in \(0, 1\), got 1\.0 \(at index 3\)$"):
            ec_sigma1(np.array([0.1, 0.2, 0.3, 1.0, 0.0]))
        with pytest.raises(ValueError, match=r"^mixing probability must lie in \(0, 1\), got 0\.0 \(at index \(1, 0\)\)$"):
            ed_sigma1(np.array([[0.1, 0.2], [0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"^number of pairs must be >= 1, got 0 \(at index 1\)$"):
            ec_sigma_n(0.3, np.array([2, 0, -1]))
        with pytest.raises(ValueError, match=r"^number of pairs must be >= 1, got -1 \(at index \(2, 0\)\)$"):
            ed_sigma_n(GRIDS["grid-9"], np.array([[2], [5], [-1]]))
        with pytest.raises(ValueError, match=r"^gap vanishes at p = 1/2; not an irreversibility witness \(at index 499\)$"):
            irreversibility_gap(GRIDS["claim"], 3)
        with pytest.raises(ValueError, match=r"^mixing probability must lie in \(0, 1\), got nan \(at index 0\)$"):
            irreversibility_gap([float("nan"), 0.5])


MEASURE_FNS = ("binary_entropy", "ec_sigma1", "ed_sigma1", "ec_sigma_n", "ed_sigma_n", "irreversibility_gap")


@pytest.fixture
def measure_calls(monkeypatch):
    """Every call of a sigma_n closed form, nested calls included, as (name, args)."""
    calls = []
    for name in MEASURE_FNS:
        def counted(*args, _name=name, _fn=getattr(measures, name)):
            calls.append((_name, args))
            return _fn(*args)

        monkeypatch.setattr(measures, name, counted)
    return calls


class TestOnePassPerFormula:
    def test_formula_suite_makes_at_most_twelve_calls(self, measure_calls):
        record = verify.claim_formula_suite()
        assert record.passed
        assert len(measure_calls) <= 12
        # No call is per point: every p argument is an array of the grid's size
        # (the two endpoints of H2 aside), so the count does not grow with the grid.
        for name, args in measure_calls:
            assert np.size(args[0]) >= 998 or (name == "binary_entropy" and np.size(args[0]) == 2)

    def test_formula_suite_records_plain_values(self):
        measured = verify.claim_formula_suite().to_dict()["measured"]
        assert {key: type(value) for key, value in measured.items()} == {
            "strict_gap_everywhere": bool,
            "values_at_half": float,
            "worst_gap_n_dependence": float,
            "worst_entropy_asymmetry": float,
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_sigma_curve_rows_are_the_one_number_rows(self, n, measure_calls):
        counts = []
        for grid in (1, 19, 99, 999):
            measure_calls.clear()
            rows = cli._sigma_curve_rows(n, grid)
            counts.append(len(measure_calls))
            want = []
            for k in range(1, grid + 1):
                p = k / (grid + 1)
                ecn, edn = ref_ec_sigma_n(p, n), ref_ed_sigma_n(p, n)
                want.append(
                    {"p": p, "ec_sigma1": ref_ec_sigma1(p), "ed_sigma1": ref_ed_sigma1(p), "ec_sigmaN": ecn, "ed_sigmaN": edn, "gap": ecn - edn}
                )
            assert rows == want and all(list(row) == list(ref) for row, ref in zip(rows, want))
            assert all(type(value) is float for row in rows for value in row.values())
        assert len(set(counts)) == 1

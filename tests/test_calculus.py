import numpy as np
import pytest
from numpy.testing import assert_allclose

from bellclone import dense
from bellclone.calculus import (
    BellEnsemble,
    apply_steps,
    apply_steps_dense,
    bilateral_hadamard,
    bxor,
    discriminate_sets,
    mix,
    one_sided_pauli,
    to_dense,
)
from bellclone.labels import (
    B1,
    B2,
    B3,
    B4,
    LABELS,
    BellLabel,
    label_from_bits,
    label_from_name,
    string_bits,
)


class TestLabels:
    def test_bit_encoding(self):
        assert (B1.a, B1.b) == (0, 0)
        assert (B2.a, B2.b) == (0, 1)
        assert (B3.a, B3.b) == (1, 0)
        assert (B4.a, B4.b) == (1, 1)
        assert [l.index for l in LABELS] == [1, 2, 3, 4]

    def test_parsing(self):
        assert label_from_name("b3") == B3
        assert label_from_bits("01") == B2
        with pytest.raises(ValueError):
            label_from_name("B5")
        with pytest.raises(ValueError):
            label_from_bits("2")
        with pytest.raises(ValueError):
            BellLabel(0, 2)

    def test_string_bits(self):
        assert string_bits((B1, B4)) == "00 11"


class TestEnsembleBasics:
    def test_sorted_lexicographically(self):
        e = BellEnsemble({(B4,): 0.2, (B1,): 0.3, (B3,): 0.5})
        assert list(e.entries) == [(B1,), (B3,), (B4,)]

    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            BellEnsemble({(B1,): 0.5})
        with pytest.raises(ValueError, match="length"):
            BellEnsemble({(B1,): 0.5, (B1, B2): 0.5})
        with pytest.raises(ValueError, match="negative"):
            BellEnsemble({(B1,): 1.5, (B2,): -0.5})
        with pytest.raises(ValueError):
            BellEnsemble({})

    def test_tiny_probabilities_pruned(self):
        e = BellEnsemble({(B1,): 1.0 - 1e-16, (B2,): 1e-16})
        assert list(e.entries) == [(B1,)]


class TestSerialization:
    def test_smolin_golden_text(self):
        e = BellEnsemble.uniform_strings(2)
        assert e.to_text() == (
            "0.25 00 00\n"
            "0.25 01 01\n"
            "0.25 10 10\n"
            "0.25 11 11\n"
        )

    def test_round_trip(self):
        e = BellEnsemble(
            {(B1, B1, B1): 0.4, (B2, B2, B2): 0.1, (B3, B3, B3): 0.3, (B4, B4, B4): 0.2}
        )
        assert BellEnsemble.from_text(e.to_text()) == e

    def test_seventeen_significant_digits(self):
        e = BellEnsemble({(B1,): 0.1, (B2,): 0.9})
        first = e.to_text().splitlines()[0]
        assert first == "0.10000000000000001 00"


class TestBxor:
    def test_unknown_onto_ancilla(self):
        e = bxor(BellEnsemble.point((B3, B1)), 0, 1)
        assert e.entries == {(B3, B3): 1.0}

    def test_all_zero_fixed_point(self):
        e = bxor(BellEnsemble.point((B1, B1)), 0, 1)
        assert e.entries == {(B1, B1): 1.0}

    def test_phase_flip_pair(self):
        e = bxor(BellEnsemble.point((B2, B2)), 0, 1)
        assert e.entries == {(B1, B2): 1.0}

    @pytest.mark.parametrize("la", LABELS)
    @pytest.mark.parametrize("lb", LABELS)
    def test_involution(self, la, lb):
        e = BellEnsemble.point((la, lb))
        assert bxor(bxor(e, 0, 1), 0, 1) == e

    def test_source_equals_target_rejected(self):
        with pytest.raises(ValueError):
            bxor(BellEnsemble.point((B1, B2)), 1, 1)


class TestBilateralHadamard:
    def test_swaps_components_of_mixture(self):
        e = mix([BellEnsemble.point((B1,)), BellEnsemble.point((B2,))], [0.3, 0.7])
        out = bilateral_hadamard(e, 0)
        assert out.entries == {(B1,): 0.3, (B3,): 0.7}

    def test_fixed_points(self):
        assert bilateral_hadamard(BellEnsemble.point((B1,)), 0).entries == {(B1,): 1.0}
        assert bilateral_hadamard(BellEnsemble.point((B4,)), 0).entries == {(B4,): 1.0}

    @pytest.mark.parametrize("label", LABELS)
    def test_involution(self, label):
        e = BellEnsemble.point((label,))
        assert bilateral_hadamard(bilateral_hadamard(e, 0), 0) == e


class TestOneSidedPauli:
    def test_x_flips_bitflip_component(self):
        out = one_sided_pauli(BellEnsemble.point((B1,)), 0, 1, "bob")
        assert out.entries == {(B3,): 1.0}

    def test_z_flips_phase_component(self):
        out = one_sided_pauli(BellEnsemble.point((B1,)), 0, 3, "alice")
        assert out.entries == {(B2,): 1.0}

    @pytest.mark.parametrize("idx", [1, 2, 3])
    @pytest.mark.parametrize("label", LABELS)
    def test_involution(self, idx, label):
        e = BellEnsemble.point((label,))
        out = one_sided_pauli(one_sided_pauli(e, 0, idx, "bob"), 0, idx, "bob")
        assert out == e

    def test_identity_index_rejected(self):
        with pytest.raises(ValueError):
            one_sided_pauli(BellEnsemble.point((B1,)), 0, 0, "bob")


class TestDiscriminateSets:
    def test_point_mass(self):
        branches = discriminate_sets(BellEnsemble.point((B1, B1)), 1)
        assert len(branches) == 1
        bit, prob, cond = branches[0]
        assert (bit, prob) == (0, 1.0)
        assert cond.entries == {(B1,): 1.0}

    def test_uniform_single_pair(self):
        branches = discriminate_sets(BellEnsemble.uniform_strings(1), 0)
        assert [(b, p, c) for b, p, c in branches] == [(0, 0.5, None), (1, 0.5, None)]

    def test_phase_information_discarded(self):
        e = BellEnsemble({(B1, B2): 0.5, (B3, B4): 0.5})
        branches = discriminate_sets(e, 1)
        assert branches[0][0] == 0 and branches[0][1] == 0.5
        assert branches[0][2].entries == {(B1,): 1.0}
        assert branches[1][2].entries == {(B3,): 1.0}

    def test_matches_dense_parity_measurement(self):
        e = BellEnsemble(
            {(B1, B1): 0.4, (B2, B2): 0.1, (B3, B3): 0.3, (B4, B4): 0.2}
        )
        state = to_dense(e)
        rho = state.density_matrix()
        even = np.zeros((4, 4), dtype=complex)
        even[0, 0] = even[3, 3] = 1.0
        odd = np.eye(4) - even
        for (bit, prob, _), proj in zip(discriminate_sets(e, 1), (even, odd)):
            full = np.kron(np.eye(4), proj)
            assert prob == pytest.approx(np.trace(full @ rho).real, abs=1e-12)


class TestMix:
    def test_single_component_identity(self):
        e = BellEnsemble.point((B2,))
        assert mix([e], [1.0]) == e

    def test_two_outcome_preparation_mixture(self):
        out = mix([BellEnsemble.point((B1,)), BellEnsemble.point((B2,))], [0.5, 0.5])
        assert out.entries == {(B1,): 0.5, (B2,): 0.5}

    def test_self_mixture_is_idempotent(self):
        e = BellEnsemble({(B1,): 0.25, (B4,): 0.75})
        assert mix([e, e, e], [0.5, 0.25, 0.25]) == e

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            mix([BellEnsemble.point((B1,)), BellEnsemble.point((B1, B1))], [0.5, 0.5])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            mix([BellEnsemble.point((B1,))], [0.9])


class TestToDense:
    def test_single_string_projector(self):
        state = to_dense(BellEnsemble.point((B1,)))
        assert dense.fidelity(state, dense.bell_vector(B1)) == pytest.approx(1.0, abs=1e-14)

    def test_smolin_regrouping_identity(self):
        # The same operator arises from pairing (A0,B0)(A1,B1) and from
        # pairing Alice's qubits with each other; build the regrouped
        # form independently and compare.
        paired = to_dense(BellEnsemble.uniform_strings(2))
        branches = []
        for label in LABELS:
            b = dense.bell_vector(label).reshape(2, 2)
            outer = np.multiply.outer(b, b)  # axes (A0, A1, B0, B1)
            vec = np.transpose(outer, (0, 2, 1, 3)).reshape(-1)
            branches.append(dense.PureBranch(vec, 0.25))
        regrouped = dense.DenseState.from_arrays([b.amplitudes for b in branches], [0.25] * 4, paired.qubit_labels)
        assert dense.trace_distance(paired, regrouped) <= 1e-12

    def test_three_pair_uniform_spectrum(self):
        state = to_dense(BellEnsemble.uniform_strings(3))
        eigs = np.linalg.eigvalsh(state.density_matrix())
        assert_allclose(np.sort(eigs)[-4:], [0.25] * 4, atol=1e-12)
        assert np.sort(eigs)[:-4].max() <= 1e-12

    def test_register_cap(self):
        with pytest.raises(ValueError, match="too large"):
            to_dense(BellEnsemble.point((B1,) * 8))



def _kron_rows(e: BellEnsemble) -> np.ndarray:
    """One np.kron product of Bell vectors per string, in entry order."""
    rows = []
    for string in e.entries:
        vec = np.ones(1, dtype=complex)
        for label in string:
            vec = np.kron(vec, dense.bell_vector(label))
        rows.append(vec)
    return np.array(rows)


class TestToDenseRows:
    """Batched row construction against the per-string np.kron construction."""

    @staticmethod
    def ensembles():
        import itertools

        from bellclone.protocols import prepare_rho_m

        for n_pairs in (1, 2, 3):
            strings = list(itertools.product(LABELS, repeat=n_pairs))
            yield from (BellEnsemble.point(s) for s in strings)
            yield BellEnsemble({s: (i + 1) / (len(strings) * (len(strings) + 1) / 2) for i, s in enumerate(strings)})
        yield prepare_rho_m(5)[0]

    def test_rows_bit_identical_to_kron(self):
        for e in self.ensembles():
            state = to_dense(e)
            rows = _kron_rows(e)
            assert np.array_equal(state.amplitudes != 0, rows != 0)
            # Rescaled by the same batch check, so the stored rows agree with np.kron's bit for bit.
            from_kron = dense.DenseState.from_arrays(rows, list(e.entries.values()), state.qubit_labels)
            assert np.array_equal(state.amplitudes, from_kron.amplitudes)
            assert len(state.support) == len(set(state.support.tolist())) == (rows != 0).any(axis=0).sum()
            assert_allclose(state.weights, list(e.entries.values()), rtol=1e-15, atol=0)


def _random_ensemble(rng, n_pairs: int) -> BellEnsemble:
    n_strings = int(rng.integers(1, 7))
    strings = set()
    while len(strings) < n_strings:
        strings.add(tuple(LABELS[i] for i in rng.integers(0, 4, size=n_pairs)))
    probs = rng.random(len(strings)) + 0.1
    probs /= probs.sum()
    return BellEnsemble(dict(zip(sorted(strings), probs)))


def _random_op(rng, n_pairs: int) -> tuple:
    kind = rng.integers(0, 3)
    if kind == 0 and n_pairs >= 2:
        s, t = rng.choice(n_pairs, size=2, replace=False)
        return ("bxor", int(s), int(t))
    if kind == 1:
        return ("bilateral_hadamard", int(rng.integers(0, n_pairs)))
    side = "alice" if rng.integers(0, 2) else "bob"
    return ("one_sided_pauli", int(rng.integers(0, n_pairs)), int(rng.integers(1, 4)), side)


class TestOracleEquivalence:
    """Random rewrite sequences agree with the dense circuit execution."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sequences(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n_pairs = int(rng.integers(2, 5))
        e = _random_ensemble(rng, n_pairs)
        state = to_dense(e)
        total = 1.0
        for _ in range(int(rng.integers(5, 21))):
            op = _random_op(rng, n_pairs)
            e = apply_steps(e, [op])
            state = apply_steps_dense(state, [op])
            total = sum(e.entries.values())
            assert abs(total - 1.0) <= 1e-12
        assert dense.trace_distance(to_dense(e), state) < 1e-10

    def test_seven_pair_register(self):
        # 14 qubits: the largest supported register, compared in the
        # branch-span metric.
        rng = np.random.default_rng(77)
        e = _random_ensemble(rng, 7)
        state = to_dense(e)
        for op in [("bxor", 0, 6), ("bilateral_hadamard", 3), ("bxor", 3, 1)]:
            e = apply_steps(e, [op])
            state = apply_steps_dense(state, [op])
        assert dense.trace_distance(to_dense(e), state) < 1e-10


class TestDenseStepRoutes:
    @pytest.mark.parametrize(
        "op, message",
        [
            (("one_sided_pauli", 0, 1, "charlie"), "unknown side 'charlie'"),
            (("one_sided_pauli", 0, 0, "alice"), r"Pauli index must be 1 \(x\), 2 \(y\) or 3 \(z\)"),
            (("parity_measure", 3), "pair index 3 out of range for 2 pairs"),
            (("teleport", BellEnsemble.point((B1, B1))), "teleportation needs a one-pair input"),
        ],
        ids=["unknown-side", "pauli-index-0", "parity-pair-out-of-range", "two-pair-teleport-input"],
    )
    def test_invalid_step_rejected_by_both_routes(self, op, message):
        e = BellEnsemble.point((B1, B2))
        with pytest.raises(ValueError, match=message):
            apply_steps(e, [op])
        with pytest.raises(ValueError, match=message):
            apply_steps_dense(to_dense(e), [op])

    def test_permutation_steps_call_no_general_gate(self, monkeypatch):
        state = to_dense(BellEnsemble({(B1, B2, B3): 0.25, (B4, B1, B3): 0.75}))

        def refuse(*args):
            raise AssertionError("matrix gate applied")

        passes, apply_gates = [], dense.apply_gates
        monkeypatch.setattr(dense, "_gate", refuse)  # every matrix gate, monomial or not, is checked through it
        monkeypatch.setattr(dense, "apply_gates", lambda s, gates: passes.append(s) or apply_gates(s, gates))
        for op in [("bxor", 0, 2), ("bxor", 2, 1), ("random_pauli_x",)]:
            apply_steps_dense(state, [op])
        assert len(passes) == 2  # each bxor went through the gate pass, as C-NOT layers only

    def test_bxor_pair_errors_are_the_symbolic_ones(self):
        e = BellEnsemble.point((B1, B2))
        for op, message in [
            (("bxor", 1, 1), "source and target pair must differ"),
            (("bxor", 0, 2), "pair index 2 out of range for 2 pairs"),
            (("bxor", -1, 0), "pair index -1 out of range for 2 pairs"),
            (("bxor", 3, 5), "pair index 3 out of range for 2 pairs"),
        ]:
            for run in (lambda: apply_steps(e, [op]), lambda: apply_steps_dense(to_dense(e), [("bxor", 0, 1), op])):
                with pytest.raises(ValueError, match=message):
                    run()


class TestFromTextBoundary:
    def test_duplicate_string_rejected_with_its_line(self):
        text = "0.25 00 01\n0.5 11 11\n\n0.25 00 01\n"
        with pytest.raises(ValueError, match=r"line 4: duplicate string 00 01 \(first on line 1\)"):
            BellEnsemble.from_text(text)

    def test_malformed_line_is_named(self):
        with pytest.raises(ValueError, match="line 2: not a Bell label bit pair"):
            BellEnsemble.from_text("0.5 00\n0.5 2\n")
        with pytest.raises(ValueError, match="line 1: could not convert"):
            BellEnsemble.from_text("half 00\n")
        with pytest.raises(ValueError, match="line 1: no Bell labels"):
            BellEnsemble.from_text("1.0\n")


class TestNonFiniteProbabilities:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_constructor_rejects(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BellEnsemble({(B1,): bad, (B2,): 1.0})

    def test_from_text_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            BellEnsemble.from_text("nan 00\n1 01\n")

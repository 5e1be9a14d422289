import dataclasses
import functools
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bellclone import calculus, dense, protocols, verify
from bellclone.calculus import PARTIES, BellEnsemble, mix, to_dense
from bellclone.dense import DenseState, pauli
from bellclone.labels import B1, B2, B3, B4, LABELS
from bellclone.protocols import (
    LedgerStep,
    ResourceLedger,
    build_sigma_n,
    clone_four_1_to_n,
    clone_four_dense,
    clone_pair_1_to_n,
    clone_pair_dense,
    distill_quasi_pure,
    distill_quasi_pure_dense,
    eq_filter_choi,
    ideal_channel,
    necessity_witness_four,
    necessity_witness_two,
    pair_reduction_table,
    prepare_quasi_pure,
    prepare_rho_m,
    prepare_rho_m_dense,
    smolin_ensemble,
    teleport_two_qubit,
)

ALL_PAIRS = list(itertools.combinations(LABELS, 2))


def _phase_canonical(m: np.ndarray) -> bytes:
    flat = m.reshape(-1)
    idx = int(np.argmax(np.abs(flat) > 1e-6))
    out = m / (flat[idx] / abs(flat[idx]))
    return (np.round(out, 6) + 0.0).tobytes()  # +0.0 folds -0.0 into +0.0


def clifford_factors() -> list[tuple[str, np.ndarray]]:
    """The 24 single-qubit Clifford operators (mod phase), as shortest
    words over H, S, X, Y, Z in breadth-first order."""
    generators = (("H", dense.HADAMARD), ("S", dense.PHASE_S), ("X", pauli(1)), ("Y", pauli(2)), ("Z", pauli(3)))
    identity = np.eye(2, dtype=complex)
    seen = {_phase_canonical(identity)}
    order = [("I", identity)]
    frontier = [("", identity)]
    while frontier:
        new = []
        for word, m in frontier:
            for g, gm in generators:
                m2 = m @ gm
                key = _phase_canonical(m2)
                if key not in seen:
                    seen.add(key)
                    order.append((word + g, m2))
                    new.append((word + g, m2))
        frontier = new
    return order


def bell_label_map(u_alice: np.ndarray, v_bob: np.ndarray):
    """Label permutation induced by U (x) V, or None if some Bell state
    leaves the Bell basis (checked by dense overlaps)."""
    full = np.kron(u_alice, v_bob)
    mapping = {}
    for src in LABELS:
        out = full @ dense.bell_vector(src)
        for dst in LABELS:
            if abs(abs(np.vdot(dense.bell_vector(dst), out)) - 1.0) < 1e-9:
                mapping[src] = dst
                break
        else:
            return None
    return mapping


def searched_reduction(pair) -> tuple:
    """The first local Clifford pair, over the 24 x 24 table in
    breadth-first order, whose label map sends ``pair`` onto {B1, B3}:
    (alice word, bob word, alice matrix, bob matrix, label map)."""
    factors = clifford_factors()
    for (wa, ma), (wb, mb) in itertools.product(factors, factors):
        mapping = bell_label_map(ma, mb)
        if mapping is not None and {mapping[l] for l in pair} == {B1, B3}:
            return wa, wb, ma, mb, mapping
    raise AssertionError("no reduction found")


class TestCliffordFactors:
    """The breadth-first search that the six-row reduction table records."""

    def test_table_has_24_elements(self):
        factors = clifford_factors()
        assert len(factors) == 24
        assert factors[0][0] == "I"

    def test_all_unitary(self):
        for _, m in clifford_factors():
            assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_reduction_table_equals_search(self, pair):
        red = pair_reduction_table(*pair)
        wa, wb, ma, mb, mapping = searched_reduction(pair)
        assert (red.alice_word, red.bob_word) == (wa, wb)
        assert np.array_equal(red.alice_matrix, ma) and np.array_equal(red.bob_matrix, mb)
        assert red.label_map == mapping


class TestPairReduction:
    def test_canonical_pair_needs_no_rotation(self):
        red = pair_reduction_table(B1, B3)
        assert (red.alice_word, red.bob_word) == ("I", "I")

    def test_phase_pair_uses_hadamards(self):
        red = pair_reduction_table(B1, B2)
        assert (red.alice_word, red.bob_word) == ("H", "H")
        assert red.label_map[B2] == B3 and red.label_map[B1] == B1

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_reduction_lands_on_b1_b3(self, pair):
        red = pair_reduction_table(*pair)
        assert {red.label_map[l] for l in pair} == {B1, B3}

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_label_map_certified_densely(self, pair):
        red = pair_reduction_table(*pair)
        full = np.kron(red.alice_matrix, red.bob_matrix)
        for src, dst in red.label_map.items():
            out = full @ dense.bell_vector(src)
            overlap = abs(np.vdot(dense.bell_vector(dst), out))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_identical_labels_rejected(self):
        with pytest.raises(ValueError):
            pair_reduction_table(B2, B2)

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_inverse_is_built_once(self, pair):
        red = pair_reduction_table(*pair)
        assert red.inverse() is red.inverse()
        assert red.inverse().pair_matrix is red.inverse().pair_matrix
        assert red.inverse().label_map == red.inverse_map


class TestClonePair:
    def test_point_inputs_clone_exactly(self):
        out, ledger = clone_pair_1_to_n(B3, (B1, B3), 2)
        assert out.entries == {(B3, B3): 1.0}
        assert ledger.ebits_consumed == 1.0
        assert ledger.classical_bits == 0

        out, ledger = clone_pair_1_to_n(B1, (B1, B3), 5)
        assert out.entries == {(B1,) * 5: 1.0}
        assert ledger.ebits_consumed == 4.0

    def test_linearity_on_mixed_input(self):
        rho_sep = mix([BellEnsemble.point((B1,)), BellEnsemble.point((B2,))], [0.5, 0.5])
        out, _ = clone_pair_1_to_n(rho_sep, (B1, B2), 2)
        assert out.entries == {(B1, B1): 0.5, (B2, B2): 0.5}

    def test_input_outside_pair_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            clone_pair_1_to_n(B2, (B1, B3), 2)

    def test_single_copy_is_identity_and_free(self):
        out, ledger = clone_pair_1_to_n(B4, (B2, B4), 1)
        assert out.entries == {(B4,): 1.0}
        assert ledger.ebits_consumed == 0.0

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_dense_agreement_all_pairs(self, pair):
        for inp in pair:
            for n in (2, 3):
                sym, ledger = clone_pair_1_to_n(inp, pair, n)
                assert sym.entries == {(inp,) * n: 1.0}
                assert ledger.ebits_consumed == n - 1
                dn = clone_pair_dense(inp, pair, n)
                target = to_dense(sym).branches[0].amplitudes
                assert dense.fidelity(dn, target) == pytest.approx(1.0, abs=1e-12)

    def test_ledger_is_locc(self):
        _, ledger = clone_pair_1_to_n(B2, (B2, B4), 3)
        assert ledger.locc_violations() == []
        parties = {s.party for s in ledger.steps}
        assert parties <= {"alice", "bob", "classical"}


class TestPrepareRhoM:
    def test_two_pairs_is_smolin(self):
        e, ledger = prepare_rho_m(2)
        assert e == smolin_ensemble()
        assert ledger.ebits_consumed == 0.0

    @pytest.mark.parametrize("m,expected", [(3, 2.0), (4, 2.0), (5, 4.0), (6, 4.0)])
    def test_parity_cost(self, m, expected):
        e, ledger = prepare_rho_m(m)
        assert ledger.ebits_consumed == expected
        assert e.allclose(BellEnsemble.uniform_strings(m), tol=0.0)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_dense_execution_matches(self, m):
        e, _ = prepare_rho_m(m)
        td = dense.trace_distance(to_dense(e), prepare_rho_m_dense(m))
        assert td < 1e-12

    def test_structure_up_to_32(self):
        for m in range(2, 33):
            e, ledger = prepare_rho_m(m)
            assert set(e.entries.values()) == {0.25}
            assert all(len(set(s)) == 1 for s in e.entries)
            assert ledger.ebits_consumed == (m - 1 if m % 2 else m - 2)
            assert ledger.locc_violations() == []

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            prepare_rho_m(1)


class TestTeleportation:
    @pytest.mark.parametrize("label", LABELS)
    def test_bell_states_pass_smolin_channel_exactly(self, label):
        channel = to_dense(smolin_ensemble())
        inp = to_dense(BellEnsemble.point((label,)), role="input")
        out = teleport_two_qubit(channel, inp)
        assert dense.fidelity(out, dense.bell_vector(label)) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_channel_moves_any_state(self):
        rng = np.random.default_rng(41)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        inp = DenseState.pure(vec, dense.pair_register(1, role="input"))
        out = teleport_two_qubit(ideal_channel(), inp)
        assert dense.fidelity(out, vec) == pytest.approx(1.0, abs=1e-12)

    def test_product_input_is_filtered(self):
        # |00><00| keeps only its I(x)I and z(x)z components.
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        inp = DenseState.pure(vec, dense.pair_register(1, role="input"))
        out = teleport_two_qubit(to_dense(smolin_ensemble()), inp)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        assert_allclose(out.density_matrix(), expected, atol=1e-12)

    def test_alice_measurement_statistics_uniform(self):
        channel = to_dense(smolin_ensemble())
        inp = to_dense(BellEnsemble.point((B2,)), role="input")
        combined = dense.tensor(inp, channel)
        post, outcomes = dense.bell_measurement(combined, (0, 2))
        probs = np.bincount(outcomes, weights=post.weights)
        assert probs == pytest.approx([0.25] * 4, abs=1e-12)

    def test_choi_matches_term_by_term_form(self):
        channel = to_dense(smolin_ensemble())
        choi = dense.choi_matrix(lambda s: teleport_two_qubit(channel, s))
        residual = np.max(np.abs(choi - eq_filter_choi()))
        assert residual < 1e-9

    def test_filter_choi_is_built_once_read_only(self):
        terms = [np.kron(np.kron(pauli(i), pauli(i)), np.kron(pauli(i), pauli(i)).T) / 16.0 for i in range(4)]
        choi = eq_filter_choi()
        assert choi is eq_filter_choi() and not choi.flags.writeable
        assert np.array_equal(choi, sum(terms, np.zeros((16, 16), dtype=complex)))
        with pytest.raises(ValueError, match="read-only"):
            choi[0, 0] = 1.0

    def test_filter_choi_equals_kraus_assembly(self):
        omega = np.zeros(16, dtype=complex)
        omega[[0, 5, 10, 15]] = 0.5
        reference = np.outer(omega, omega.conj())
        expected = np.zeros((16, 16), dtype=complex)
        for k in range(4):
            kraus = np.kron(np.kron(pauli(k), pauli(k)), np.eye(4))
            expected += 0.25 * (kraus @ reference @ kraus.conj().T)
        assert_allclose(eq_filter_choi(), expected, atol=1e-14)

    def test_three_pair_channel_gives_the_teleport_step_output(self):
        channel, source = prepare_rho_m(3)[0], BellEnsemble({(B2,): 0.3, (B4,): 0.7})
        got = teleport_two_qubit(to_dense(channel), to_dense(source, role="input"))
        want = calculus.apply_steps_dense(to_dense(channel), [("teleport", source)])
        assert got.qubit_labels == want.qubit_labels == to_dense(channel).qubit_labels[2:]  # channel pairs 1 and 2
        assert np.array_equal(got.amplitudes, want.amplitudes) and np.array_equal(got.weights, want.weights)
        assert dense.trace_distance(got, to_dense(calculus.teleport(channel, source))) <= 1e-12


def tags_after_teleport(ledger):
    """The qubits that the ledger lines after its last Bell measurement name, in order of first mention."""
    last = max(i for i, line in enumerate(ledger.steps) if line.operation == "bell-measure")
    return list(dict.fromkeys(q.tag for line in ledger.steps[last + 1 :] for q in line.qubits))


class TestTeleportOutputNames:
    """The dense output of a teleport names its qubits as the ledger's later lines do."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_clone_four_output_is_the_corrected_pairs(self, n):
        out, ledger = protocols.clone_four_dense(B2, n), protocols.clone_four_1_to_n(B2, n)[1]
        assert [q.tag for q in out.qubit_labels] == tags_after_teleport(ledger) == [f"{p}{k}" for k in range(1, n + 1) for p in "AB"]

    def test_a_step_after_the_teleport_acts_on_the_named_qubits(self):
        steps = (("teleport", BellEnsemble.point((B2,))), ("bxor", 0, 1))
        program = protocols.Program(prepare_rho_m(3)[0], steps, inputs=3)
        out, ledger = protocols.run_dense(program), protocols.derive_ledger(program)
        assert [q.tag for q in out.qubit_labels] == tags_after_teleport(ledger) == ["A1", "B1", "A2", "B2"]
        assert [line.operands for line in ledger.steps[-2:]] == [("A1", "A2"), ("B1", "B2")]


class TestCloneFour:
    def test_single_label_inputs(self):
        out, ledger = clone_four_1_to_n(B4, 2)
        assert out.entries == {(B4, B4): 1.0}
        assert ledger.ebits_consumed == 2.0

        out, ledger = clone_four_1_to_n(B2, 3)
        assert out.entries == {(B2, B2, B2): 1.0}
        assert ledger.ebits_consumed == 2.0

    def test_uniform_input_two_copies_is_smolin(self):
        out, _ = clone_four_1_to_n((0.25, 0.25, 0.25, 0.25), 2)
        assert out == smolin_ensemble()

    @pytest.mark.parametrize("label", LABELS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_dense_teleportation_route_agrees(self, label, n):
        sym, _ = clone_four_1_to_n(label, n)
        dn = clone_four_dense(label, n)
        assert dense.fidelity(dn, to_dense(sym).branches[0].amplitudes) == pytest.approx(
            1.0, abs=1e-12
        )
        assert dense.trace_distance(to_dense(sym), dn) < 1e-10

    def test_mixed_input_clones_jointly(self):
        q = (0.4, 0.1, 0.3, 0.2)
        sym, _ = clone_four_1_to_n(q, 2)
        assert sym.entries == {
            (B1, B1): 0.4,
            (B2, B2): 0.1,
            (B3, B3): 0.3,
            (B4, B4): 0.2,
        }
        dn = clone_four_dense(q, 2)
        assert dense.trace_distance(to_dense(sym), dn) < 1e-10

    def test_parity_cost_and_classical_bits(self):
        for n, expected in [(1, 0.0), (2, 2.0), (3, 2.0), (4, 4.0), (5, 4.0)]:
            _, ledger = clone_four_1_to_n(B1, n)
            assert ledger.ebits_consumed == expected
            assert ledger.classical_bits == 4
            assert ledger.locc_violations() == []

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            clone_four_1_to_n((0.5, 0.5, 0.5, -0.5), 2)


class TestQuasiPure:
    def test_uniform_case_reproduces_three_pair_ancilla(self):
        e, ledger = prepare_quasi_pure((0.25, 0.25, 0.25, 0.25), 3)
        assert e.allclose(BellEnsemble.uniform_strings(3), tol=0.0)
        assert ledger.ebits_consumed == 2.0

    def test_point_mass_rejected_at_boundary(self):
        with pytest.raises(ValueError, match="1/2"):
            prepare_quasi_pure((1.0, 0.0, 0.0, 0.0), 3)

    def test_even_copies_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            prepare_quasi_pure((0.25, 0.25, 0.25, 0.25), 4)

    def test_generic_vector(self):
        p = (0.4, 0.1, 0.3, 0.2)
        e, ledger = prepare_quasi_pure(p, 3)
        assert len(e.entries) == 4
        assert e.probability((B1, B1, B1)) == 0.4
        assert e.probability((B4, B4, B4)) == 0.2
        assert ledger.ebits_consumed == 2.0
        # cross-check against the dense teleportation route
        dn = clone_four_dense(p, 3)
        assert dense.trace_distance(to_dense(e), dn) < 1e-10


class TestDistillQuasiPure:
    def test_generic_vector_branches(self):
        e, _ = prepare_quasi_pure((0.4, 0.1, 0.3, 0.2), 3)
        branches, ledger = distill_quasi_pure(e)
        assert [(bit, prob) for bit, prob, _ in branches] == [(0, 0.5), (1, 0.5)]
        assert branches[0][2].entries == {(B1, B1): 1.0}
        assert branches[1][2].entries == {(B3, B3): 1.0}
        assert ledger.ebits_distilled == 2.0
        assert ledger.classical_bits == 2

    def test_point_mass_input(self):
        branches, ledger = distill_quasi_pure(BellEnsemble.point((B1, B1, B1)))
        assert branches == [(0, 1.0, branches[0][2])]
        assert branches[0][2].entries == {(B1, B1): 1.0}
        assert ledger.ebits_distilled == 2.0

    def test_uniform_three_pair_is_reversible(self):
        e, prep = prepare_quasi_pure((0.25, 0.25, 0.25, 0.25), 3)
        branches, ledger = distill_quasi_pure(e)
        assert prep.ebits_consumed == ledger.ebits_distilled == 2.0
        assert [prob for _, prob, _ in branches] == [0.5, 0.5]

    def test_dense_route_agrees(self):
        e, _ = prepare_quasi_pure((0.4, 0.1, 0.3, 0.2), 3)
        sym_branches, _ = distill_quasi_pure(e)
        dense_branches = distill_quasi_pure_dense(e)
        for (bit, prob, cond), (dbit, dprob, dstate) in zip(sym_branches, dense_branches):
            assert bit == dbit
            assert prob == pytest.approx(dprob, abs=1e-12)
            assert dense.trace_distance(to_dense(cond), dstate) < 1e-10

    @pytest.mark.parametrize("n", [3, 5])
    def test_dense_rows_stay_bell_products(self, n):
        # Measuring each party's qubit in the Z basis and dropping it leaves
        # every row a Bell product on n - 1 pairs: 2^(n-1) of 4^(n-1) nonzero.
        e, _ = prepare_quasi_pure((0.4, 0.1, 0.3, 0.2), n)
        for _, _, state in distill_quasi_pure_dense(e):
            assert state.n_qubits == 2 * (n - 1)
            assert (state.amplitudes != 0).sum(axis=1).tolist() == [2 ** (n - 1)] * len(state.weights)

    def test_non_constant_strings_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            distill_quasi_pure(BellEnsemble.point((B1, B2)))

    def test_locc_audit(self):
        e, _ = prepare_quasi_pure((0.3, 0.2, 0.3, 0.2), 3)
        _, ledger = distill_quasi_pure(e)
        assert ledger.locc_violations() == []


class TestSigmaBuild:
    def test_single_pair_is_identity(self):
        build = build_sigma_n(0.42, 1)
        assert build.ensemble == build.start
        assert build.steps == (("bilateral_hadamard", 0), ("bilateral_hadamard", 0))

    def test_three_pairs(self):
        build = build_sigma_n(0.3, 3)
        assert build.ensemble.entries == {(B1, B1, B1): 0.3, (B2, B2, B2): 0.7}
        fanned = protocols.apply_steps(build.start, build.steps[:3])  # before the final Hadamards
        assert fanned.entries == {(B1, B1, B1): 0.3, (B3, B3, B3): 0.7}

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_exact_round_trip(self, p, n):
        build = build_sigma_n(p, n)
        assert build.ensemble.entries == {(B1,) * n: p, (B2,) * n: 1.0 - p}
        back = protocols.apply_steps(build.ensemble, build.inverse_steps)
        assert back.entries == build.start.entries

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_probability_domain(self, p):
        with pytest.raises(ValueError):
            build_sigma_n(p, 2)


class TestNecessityWitnesses:
    def test_two_state_budget(self):
        before, after = necessity_witness_two()
        assert before.value <= 1e-9
        assert after.value >= 1.0 - 1e-9
        assert before.provenance == after.provenance == "dense-witness"

    def test_linearity_claim_clones_the_mixture_once(self, monkeypatch):
        from bellclone import verify

        calls = []
        original = protocols.clone_pair_1_to_n
        monkeypatch.setattr(protocols, "clone_pair_1_to_n", lambda *a: calls.append(a) or original(*a))
        record = verify.claim_linearity_witnesses()
        assert len(calls) == 1 and record.passed
        assert record.measured["reports"][:2] == [r.to_dict() for r in necessity_witness_two()]

    def test_four_state_budget(self):
        before, after = necessity_witness_four()
        assert before.value <= 1e-9
        assert after.value >= 2.0 - 1e-9


class TestLedger:
    def test_audit_flags_cross_party_step(self):
        alice, bob = dense.pair_register(2)[0], dense.pair_register(2)[3]
        step = LedgerStep("alice", "cnot", (alice, bob))
        clean = LedgerStep("bob", "cnot", (bob,))
        classical = LedgerStep("classical", "broadcast-outcomes", words=(4,))
        assert ResourceLedger(steps=[step, clean, classical]).locc_violations() == [step]

    def test_lines_name_the_register_qubits(self):
        _, ledger = clone_four_1_to_n(B1, 2)
        measure = next(s for s in ledger.steps if s.operation == "bell-measure")
        assert [(q.party, q.role) for q in measure.qubits] == [("alice", "input"), ("alice", "source")]
        assert measure.operands == ("A_in", "A0")

    def test_to_dict(self):
        ledger = ResourceLedger(ebits_consumed=2.0, classical_bits=4)
        assert ledger.to_dict() == {
            "ebits_consumed": 2.0,
            "ebits_distilled": 0.0,
            "classical_bits": 4,
        }


class TestPrograms:
    """The step lists behind the protocols and what is derived from them."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_distribution_rejected(self, bad):
        with pytest.raises(ValueError, match="distribution"):
            clone_four_1_to_n((bad, 0.5, 0.25, 0.25), 2)
        with pytest.raises(ValueError, match="distribution"):
            prepare_quasi_pure((bad, 0.5, 0.25, 0.25), 3)

    def test_ebit_rule(self):
        e = BellEnsemble({(B1, B1, B3): 0.5, (B1, B2, B3): 0.5})
        assert [protocols.ebit_cost(e, (k,)) for k in range(2)] == [1, 0]
        with pytest.raises(ValueError, match="no ebit rule"):
            protocols.ebit_cost(e, (2,))  # a pure B3 pair is not a shared |B1>

    @pytest.mark.parametrize("pair", [5, -1])
    def test_ebit_cost_rejects_a_pair_outside_the_ensemble(self, pair):
        e = BellEnsemble.point((B1, B1))
        with pytest.raises(ValueError, match=f"pair index {pair} out of range for 2 pairs"):
            protocols.ebit_cost(e, (pair,))
        with pytest.raises(ValueError, match=f"pair index {pair} out of range for 2 pairs"):
            protocols.ebit_cost(e, (0, pair))

    def test_ebit_cost_counts_each_distinct_pair_once(self):
        assert protocols.ebit_cost(BellEnsemble.point((B1, B1)), (0, 0)) == 1
        assert protocols.ebit_cost(BellEnsemble.point((B1, B1)), [1, 0, 1]) == 2
        assert protocols.ebit_cost(BellEnsemble({(B1, B1): 0.5, (B1, B2): 0.5}), (1, 0, 1, 0)) == 1
        assert protocols.ebit_cost(BellEnsemble.point((B1,) * 3), range(2, -1, -1)) == 3

    def test_input_pairs_are_not_charged(self):
        program = protocols.Program(BellEnsemble.point((B1, B1, B1)), (("bxor", 0, 2),), inputs=1)
        ledger = protocols.derive_ledger(program)
        assert ledger.ebits_consumed == 2.0
        assert [(s.party, s.operation) + s.operands for s in ledger.steps] == [
            ("alice", "cnot", "A0", "A2"),
            ("bob", "cnot", "B0", "B2"),
        ]

    def test_four_state_cloning_is_computed(self):
        # A Bell-diagonal input with every component: each label is teleported.
        out, _ = clone_four_1_to_n((0.125, 0.375, 0.25, 0.25), 4)
        assert out.entries == {(l,) * 4: q for l, q in zip(LABELS, (0.125, 0.375, 0.25, 0.25))}

    @pytest.mark.parametrize(
        "run",
        [
            lambda: clone_four_dense(B1, 6),
            lambda: distill_quasi_pure_dense(BellEnsemble.point((B1,) * 7)),
            lambda: prepare_rho_m_dense(8),
            lambda: clone_pair_dense(B1, (B1, B2), 8),
        ],
    )
    def test_dense_limits_raise_before_work(self, run):
        with pytest.raises(protocols.DenseLimitError):
            run()

    def test_four_state_dense_limit_checked_before_preparation(self, monkeypatch):
        calls = []
        original = protocols._rho_m_program
        monkeypatch.setattr(protocols, "_rho_m_program", lambda m: calls.append(m) or original(m))
        with pytest.raises(protocols.DenseLimitError):
            clone_four_dense(B1, 6)
        assert calls == []
        clone_four_dense(B1, 2)  # a fitting register still prepares rho_3
        assert calls == [3]

    def test_four_state_dense_route_derives_no_ledger(self, monkeypatch):
        want = clone_four_dense(B2, 3)
        monkeypatch.setattr(protocols, "derive_ledger", lambda *args: pytest.fail("ledger derived"))
        got = clone_four_dense(B2, 3)
        assert np.array_equal(got.support, want.support) and np.array_equal(got.values, want.values)


# ---------------------------------------------------------------------------
# The derived ledger against the line-by-line derivation it replaced
# ---------------------------------------------------------------------------


def ref_ebit_cost(e: BellEnsemble, pair: int) -> int:
    marginal = {}
    for s, p in e.entries.items():
        marginal[s[pair]] = marginal.get(s[pair], 0.0) + p
    if set(marginal) == {B1}:
        return 1
    if len(marginal) != 2 or max(marginal.values()) > 0.5 + 1e-12:
        raise ValueError(f"no ebit rule for pair {pair}: neither |B1> nor a separable two-label mixture")
    return 0


def ref_line(register, party, operation, pairs, *words) -> LedgerStep:
    return LedgerStep(party, operation, tuple([register[calculus.party_qubit(k, party)] for k in pairs]), words)


def ref_step_lines(op: tuple, register) -> list[LedgerStep]:
    name = op[0]
    if name == "bxor":
        return [ref_line(register, party, "cnot", op[1:]) for party in PARTIES]
    if name == "local_clifford":
        _, k, red = op
        words = (red.alice_word, red.bob_word)
        return [ref_line(register, party, "unitary", (k,), word) for party, word in zip(PARTIES, words)]
    if name == "bilateral_hadamard":
        return [ref_line(register, party, "unitary", op[1:], "H") for party in PARTIES]
    if name == "one_sided_pauli":
        _, k, index, side = op
        return [ref_line(register, side, "unitary", (k,), "XYZ"[index - 1])]
    if name == "random_pauli_x":
        return [ref_line(register, "bob", "random-pauli-x", range(len(register) // 2))]
    if name == "parity_measure":
        measure = [ref_line(register, party, "measure-z", op[1:]) for party in PARTIES]
        return measure + [LedgerStep("classical", "compare-parity", words=(2,))]
    if name == "teleport":
        joint = dense.pair_register(1, role="input") + register
        lines = [ref_line(joint, party, "bell-measure", (0, 1)) for party in PARTIES]
        lines.append(LedgerStep("classical", "broadcast-outcomes", words=(4,)))
        for k in range(2, len(joint) // 2):
            lines += [ref_line(joint, party, "pauli-correct", (k,)) for party in PARTIES]
        return lines
    raise ValueError(f"no ledger rule for step {name!r}")


def ref_derive_ledger(program: protocols.Program) -> ResourceLedger:
    ledger = ResourceLedger()
    e = program.initial
    ledger.ebits_consumed += sum(ref_ebit_cost(e, k) for k in range(program.inputs, e.n_pairs))
    register = dense.pair_register(e.n_pairs)
    lines = [line for op in program.steps for line in ref_step_lines(op, register)]
    ledger.classical_bits += sum(line.words[0] for line in lines if line.party == "classical")
    ledger.steps += lines
    return ledger


def _ledger_program_builders():
    """Each ledger program's name, and a function that builds it.  The names
    are fixed at import, the programs built on first use: a fault in the
    engine that builds them then fails the tests that use them instead of
    the collection of this module."""
    for pair in ALL_PAIRS:
        for n in range(1, 7):
            yield f"clone_pair-{pair[0]}{pair[1]}-{n}", lambda pair=pair, n=n: protocols._clone_pair_program(pair[1], pair, n)
    for m in range(2, 41):
        yield f"rho_{m}", lambda m=m: protocols._rho_m_program(m)
    for n in range(1, 6):
        yield f"clone_four-{n}", lambda n=n: protocols._clone_four_program((0.25, 0.25, 0.25, 0.25), n)[0]
    for n in (3, 5, 7):
        yield f"distill-{n}", lambda n=n: protocols._distill_program(prepare_quasi_pure((0.4, 0.1, 0.3, 0.2), n)[0])


LEDGER_PROGRAM_BUILDERS = dict(_ledger_program_builders())


@functools.cache
def ledger_program(name: str) -> protocols.Program:
    """The ledger program ``name``, built once."""
    return LEDGER_PROGRAM_BUILDERS[name]()


#: The six pair reductions, then their inverses.
REDUCTIONS = [pair_reduction_table(*p) for p in ALL_PAIRS]
REDUCTIONS += [r.inverse() for r in REDUCTIONS]

#: A reduction whose label map sends B2 to B1 as well: no local Clifford.
NOT_A_PERMUTATION = dataclasses.replace(REDUCTIONS[0], label_map={B1: B1, B2: B1, B3: B3, B4: B4})

#: Register layouts for the LOCC audit: party_qubit as built, with the
#: parties swapped, with Bob's qubit of each pair on Alice's, and with the
#: parties swapped on pair 1 only.
LAYOUTS = {
    "as-built": calculus.party_qubit,
    "swapped": lambda pair, party: 2 * pair + (party == "alice"),
    "bob-on-alice": lambda pair, party: 2 * pair,
    "pair-1-swapped": lambda pair, party: 2 * pair + ((party == "bob") != (pair == 1)),
}


def line_audit(lines: list[LedgerStep]) -> list[LedgerStep]:
    """The LOCC audit read line by line: each line naming a qubit of another party."""
    return [s for s in lines if any(q.party != s.party for q in s.qubits)]


#: The most rows a drawn program's dense route may reach: a teleport
#: multiplies them by up to 16 per source string (one per pair of outcomes),
#: random_pauli_x by 2, and a closing parity measurement at most doubles them.
MAX_DENSE_ROWS = 256


@st.composite
def whole_programs(draw):
    """A valid Program with every step kind: 2-6 pairs (a teleport needs 2n + 2
    <= 14 qubits), 1-6 strings with dyadic weights, then 1-12 steps drawn from
    bxor, bilateral_hadamard, one_sided_pauli, local_clifford (the six reductions
    and their inverses), random_pauli_x and a teleport of a random one-pair
    source, while the dense rows stay within MAX_DENSE_ROWS; maybe a parity
    measurement last."""
    n = draw(st.integers(2, 6), label="pairs")
    strings = draw(st.lists(st.tuples(*[st.sampled_from(LABELS)] * n), min_size=1, max_size=6, unique=True))
    weights = [1.0]
    for _ in strings[1:]:  # halve one weight: every weight stays a power of 1/2
        i = draw(st.integers(0, len(weights) - 1))
        weights[i : i + 1] = [weights[i] / 2] * 2
    initial, rows, steps = BellEnsemble(dict(zip(strings, weights))), len(strings), []
    for _ in range(draw(st.integers(1, 12), label="steps")):
        pair = st.integers(0, n - 1)
        kinds = ["teleport"] * (n > 1 and 32 * rows <= MAX_DENSE_ROWS) + ["random_pauli_x"] * (2 * rows <= MAX_DENSE_ROWS)
        kinds += ["bxor"] * (n > 1) + ["bilateral_hadamard", "one_sided_pauli", "local_clifford"]
        kind = draw(st.sampled_from(kinds))
        if kind == "bxor":
            steps.append(("bxor", *draw(st.lists(pair, min_size=2, max_size=2, unique=True))))
        elif kind == "bilateral_hadamard":
            steps.append((kind, draw(pair)))
        elif kind == "one_sided_pauli":
            steps.append((kind, draw(pair), draw(st.integers(1, 3)), draw(st.sampled_from(PARTIES))))
        elif kind == "local_clifford":
            steps.append((kind, draw(pair), draw(st.sampled_from(REDUCTIONS))))
        elif kind == "random_pauli_x":
            steps.append((kind,))
            rows *= 2
        else:
            labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=2, unique=True))
            steps.append((kind, BellEnsemble({(label,): 1 / len(labels) for label in labels})))
            n, rows = n - 1, 16 * len(labels) * rows
    if draw(st.booleans()):
        steps.append(("parity_measure", draw(st.integers(0, n - 1))))
    return protocols.Program(initial, tuple(steps), inputs=initial.n_pairs)


class TestRandomWholePrograms:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(program=whole_programs())
    def test_interpreters_and_ledger_agree(self, program):
        """apply_steps and apply_steps_dense give the same state (trace distance
        < 1e-10), or the same branches with probabilities within 1e-12; the
        ledger passes the LOCC audit, and the dense result's qubits are the
        ledger's final register (less a measured pair)."""
        sym = calculus.apply_steps(program.initial, program.steps)
        got = calculus.apply_steps_dense(to_dense(program.initial), program.steps)
        ledger = protocols.derive_ledger(program)
        final = ledger._segments[-1][0]
        assert ledger.locc_violations() == [] and line_audit(ledger.steps) == []
        if program.steps[-1][0] != "parity_measure":
            assert dense.trace_distance(to_dense(sym), got) < 1e-10
            assert got.qubit_labels == final
            return
        measured = [calculus.party_qubit(program.steps[-1][1], party) for party in PARTIES]
        kept = tuple(q for i, q in enumerate(final) if i not in measured)
        assert [bit for bit, _, _ in got] == [bit for bit, _, _ in sym]
        for (_, prob, cond), (_, dprob, dstate) in zip(sym, got):
            assert abs(prob - dprob) <= 1e-12
            if cond is None:
                assert dstate is None and kept == ()
            else:
                assert dense.trace_distance(to_dense(cond), dstate) < 1e-10
                assert dstate.qubit_labels == kept


class TestDerivedLedger:
    @pytest.mark.parametrize("name", list(LEDGER_PROGRAM_BUILDERS))
    def test_matches_line_by_line_derivation(self, name):
        program = ledger_program(name)
        got, want = protocols.derive_ledger(program), ref_derive_ledger(program)
        assert got.to_dict() == want.to_dict()
        assert got.steps == want.steps
        for line, ref in zip(got.steps, want.steps):
            assert type(line) is LedgerStep
            assert all(q is r for q, r in zip(line.qubits, ref.qubits))
        assert got.locc_violations() == []

    def test_sigma_round_trip_has_a_ledger(self):
        """Bilateral Hadamards and C-NOTs: one H or C-NOT line per party and step."""
        build = build_sigma_n(0.3, 4)
        program = protocols.Program(build.start, build.steps + build.inverse_steps, inputs=1)
        got, want = protocols.derive_ledger(program), ref_derive_ledger(program)
        assert got.to_dict() == want.to_dict() == {"ebits_consumed": 3.0, "ebits_distilled": 0.0, "classical_bits": 0}
        assert got.steps == want.steps
        assert len(got.steps) == 32
        assert got.locc_violations() == []

    def test_sigma_round_trip_charging_its_seed_breaks_the_ebit_rule(self):
        build = build_sigma_n(0.3, 4)
        program = protocols.Program(build.start, build.steps + build.inverse_steps, inputs=0)
        for derive in (ref_derive_ledger, protocols.derive_ledger):
            with pytest.raises(ValueError, match="no ebit rule for pair 0"):
                derive(program)

    def test_pauli_lines_name_the_side_that_applies_them(self):
        steps = (("one_sided_pauli", 1, 2, "alice"), ("one_sided_pauli", 0, 3, "bob"), ("one_sided_pauli", 1, 1, "bob"))
        ledger = protocols.derive_ledger(protocols.Program(BellEnsemble.point((B1, B1)), steps))
        assert [(line.party, line.operation, line.operands) for line in ledger.steps] == [
            ("alice", "unitary", ("A1", "Y")),
            ("bob", "unitary", ("B0", "Z")),
            ("bob", "unitary", ("B1", "X")),
        ]
        assert ledger.locc_violations() == []

    def test_a_rejected_program_leaves_a_given_ledger_as_it_was(self):
        ledger = protocols.derive_ledger(ledger_program("distill-3"), ResourceLedger(ebits_consumed=1.0, classical_bits=3))
        before, lines = ledger.to_dict(), list(ledger.steps)
        channel = BellEnsemble.point((B1, B1, B1))
        for steps in (
            (("bxor", 0, 7),),
            (("teleport", BellEnsemble.point((B2,))), ("parity_measure", 0), ("random_pauli_x",)),
            (("random_pauli_x",), ("teleport", BellEnsemble.point((B2,))), ("swap", 0, 1)),
        ):
            with pytest.raises(ValueError):
                protocols.derive_ledger(protocols.Program(channel, steps), ledger)
            assert ledger.to_dict() == before
            assert ledger.steps == lines

    @pytest.mark.parametrize(
        "op, message",
        [
            (("bxor", 0, 0), "source and target pair must differ"),
            (("bxor", -1, 1), "pair index -1 out of range for 2 pairs"),
            (("parity_measure", 3), "pair index 3 out of range for 2 pairs"),
            (("local_clifford", 2, pair_reduction_table(B1, B2)), "pair index 2 out of range for 2 pairs"),
            (("teleport", BellEnsemble.point((B1, B1))), "teleportation needs a one-pair input"),
        ],
        ids=[
            "bxor-onto-itself",
            "bxor-negative-pair",
            "parity-pair-out-of-range",
            "clifford-pair-out-of-range",
            "two-pair-teleport-input",
        ],
    )
    def test_invalid_step_rejected_with_the_symbolic_message(self, op, message):
        program = protocols.Program(BellEnsemble.point((B1, B2)), (op,), inputs=2)
        with pytest.raises(ValueError, match=message):
            calculus.apply_steps(program.initial, program.steps)
        with pytest.raises(ValueError, match=message):
            protocols.derive_ledger(program)
        with pytest.raises(ValueError, match=message):
            calculus.apply_steps_dense(to_dense(program.initial), program.steps)

    @pytest.mark.parametrize("after", [("bxor", 1, 2), ("parity_measure", 1), ("random_pauli_x",)])
    def test_no_step_follows_a_parity_measurement(self, after):
        program = protocols.Program(BellEnsemble.point((B1, B2, B3)), (("parity_measure", 0), after), inputs=3)
        for read in (
            lambda: calculus.apply_steps(program.initial, program.steps),
            lambda: calculus.apply_steps_dense(to_dense(program.initial), program.steps),
            lambda: protocols.derive_ledger(program),
        ):
            with pytest.raises(ValueError, match="a parity_measure step ends a step list"):
                read()

    def test_steps_after_a_teleport_act_on_the_remaining_pairs(self):
        channel, source = BellEnsemble.point((B1, B1, B1)), BellEnsemble.point((B2,))
        bad = protocols.Program(channel, (("teleport", source), ("bxor", 0, 2)), inputs=3)
        for read in (lambda: calculus.apply_steps(bad.initial, bad.steps), lambda: protocols.derive_ledger(bad)):
            with pytest.raises(ValueError, match="pair index 2 out of range for 2 pairs"):
                read()
        ledger = protocols.derive_ledger(protocols.Program(channel, (("teleport", source), ("bxor", 0, 1)), inputs=3))
        assert [line.operands for line in ledger.steps[-2:]] == [("A1", "A2"), ("B1", "B2")]
        assert ledger.locc_violations() == []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_ledger_and_symbolic_run_accept_the_same_programs(self, data):
        """On random short step lists of every kind, valid or not: derive_ledger
        and apply_steps_dense raise exactly when apply_steps does, with its
        message, and an accepted program's ledger never names a channel qubit
        that an earlier Bell measurement consumed; under each register layout,
        its LOCC audit flags exactly the lines that a line-by-line audit of its
        steps flags."""
        n = data.draw(st.integers(1, 5), label="pairs")
        index = st.integers(-1, n)
        source = st.lists(st.sampled_from(LABELS), min_size=1, max_size=2).map(lambda s: BellEnsemble.point(tuple(s)))
        step = st.one_of(
            st.tuples(st.just("bxor"), index, index),
            st.tuples(st.just("bilateral_hadamard"), index),
            st.tuples(st.just("one_sided_pauli"), index, st.integers(0, 4), st.sampled_from(["alice", "bob", "carol"])),
            st.tuples(st.just("local_clifford"), index, st.sampled_from(REDUCTIONS + [NOT_A_PERMUTATION])),
            st.just(("random_pauli_x",)),
            st.tuples(st.just("parity_measure"), index),
            st.tuples(st.just("teleport"), source),
            st.tuples(st.just("swap"), index),
        )
        initial = BellEnsemble.point(tuple(data.draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))))
        program = protocols.Program(initial, tuple(data.draw(st.lists(step, max_size=6), label="steps")), inputs=n)
        try:
            calculus.apply_steps(program.initial, program.steps)
        except ValueError as exc:
            for run in (protocols.derive_ledger, lambda p: calculus.apply_steps_dense(to_dense(p.initial), p.steps)):
                with pytest.raises(ValueError) as got:
                    run(program)
                assert str(got.value) == str(exc)
            return
        calculus.apply_steps_dense(to_dense(program.initial), program.steps)
        consumed = set()
        for line in protocols.derive_ledger(program).steps:
            assert not consumed & set(line.qubits), line
            if line.operation == "bell-measure":  # each teleport brings a fresh input pair
                consumed.update(q for q in line.qubits if q.role != "input")
        layout = data.draw(st.sampled_from(sorted(LAYOUTS)), label="layout")
        with mock.patch.object(calculus, "party_qubit", LAYOUTS[layout]):
            ledger = protocols.derive_ledger(program)
            violations = ledger.locc_violations()
            assert violations == line_audit(ledger.steps)

    def test_appends_to_a_given_ledger(self):
        ledger = ResourceLedger(ebits_consumed=1.0, classical_bits=3, steps=[LedgerStep("classical", "x", (), (3,))])
        program = ledger_program("distill-3")
        protocols.derive_ledger(program, ledger)
        want = ref_derive_ledger(program)
        assert (ledger.ebits_consumed, ledger.classical_bits) == (1.0 + want.ebits_consumed, 3 + want.classical_bits)
        assert ledger.steps[1:] == want.steps

    def test_ebit_rule_over_many_pairs(self):
        e = BellEnsemble({(B1, B1, B3, B1, B2): 0.5, (B1, B2, B3, B1, B4): 0.5})
        assert protocols.ebit_cost(e) == 0
        assert protocols.ebit_cost(e, (0, 1, 3)) == 2
        with pytest.raises(ValueError, match="no ebit rule for pair 2"):
            protocols.ebit_cost(e, (0, 2, 4))
        assert protocols.ebit_cost(e, (4, 1)) == 0

    def test_audit_flags_each_crossing_line_once(self):
        a0, b0, a1, b1 = dense.pair_register(2)
        lines = [
            LedgerStep("alice", "cnot", (a0, a1)),
            LedgerStep("alice", "cnot", (b0, b1)),
            LedgerStep("bob", "cnot", (b0, a1)),
            LedgerStep("bob", "random-pauli-x", (b0, b1)),
            LedgerStep("classical", "compare-parity", (), (2,)),
            LedgerStep("classical", "oops", (a0,)),
        ]
        assert ResourceLedger(steps=lines).locc_violations() == [lines[1], lines[2], lines[5]]

    @pytest.mark.parametrize("layout", ["as-built", "pair-1-swapped"])
    def test_audit_of_hand_built_and_derived_lines(self, layout):
        """Hand-built lines before and between derived segments: the audit
        flags, in order, what the line-by-line audit of ``steps`` flags."""
        b0 = dense.pair_register(1)[1]
        crossing, clean = LedgerStep("alice", "measure-z", (b0,)), LedgerStep("bob", "measure-z", (b0,))
        ledger = ResourceLedger(steps=[crossing, clean])
        with mock.patch.object(calculus, "party_qubit", LAYOUTS[layout]):
            protocols.derive_ledger(ledger_program("clone_four-2"), ledger)
            ledger.steps += [crossing]
            protocols.derive_ledger(ledger_program("distill-3"), ledger)
            violations = ledger.locc_violations()
            lines = ledger.steps
        assert type(lines) is list
        assert len(lines) == 3 + sum(len(ref_derive_ledger(ledger_program(k)).steps) for k in ("clone_four-2", "distill-3"))
        assert violations == line_audit(lines)
        assert [s for s in violations if s is crossing] == [crossing, crossing]
        # The pair-1 swap crosses both teleport Bell measurements and both C-NOTs from pair 1.
        assert len(violations) == (2 if layout == "as-built" else 6)
        assert ledger.locc_violations() == violations

    def test_swapped_parties_fail_the_audit_once_caches_are_warm(self, monkeypatch):
        """Once every cache is warm, party_qubit swaps the parties: a fresh ledger
        of each protocol, the teleport segment on its own too, fails the LOCC
        audit, and passes again once the swap is undone.  The owner table is
        read at audit time, so none outlives the swap."""
        quasi_pure, _ = prepare_quasi_pure((0.4, 0.1, 0.3, 0.2), 3)

        def fresh_ledgers():
            return {
                "rho_m": prepare_rho_m(5)[1],
                "clone_pair": clone_pair_1_to_n(B1, (B1, B3), 3)[1],
                "clone_four": clone_four_1_to_n(B1, 2)[1],
                "teleport": protocols.derive_ledger(protocols._clone_four_program(B1, 2)[0]),
                "distill": distill_quasi_pure(quasi_pure)[1],
            }

        for name, ledger in fresh_ledgers().items():
            assert verify.locc_audit(ledger).passed, name
        monkeypatch.setattr(calculus, "party_qubit", LAYOUTS["swapped"])
        for name, ledger in fresh_ledgers().items():
            assert not verify.locc_audit(ledger).passed, name
            assert ledger.locc_violations() == line_audit(ledger.steps), name
        monkeypatch.undo()
        for name, ledger in fresh_ledgers().items():
            assert verify.locc_audit(ledger).passed, name

    def test_ledger_and_audit_allocate_little(self):
        """Deriving rho_16384's ledger and auditing it stay within 0.5 MiB of traced
        allocation: no line is built, and the charged pairs are not listed one
        by one.  The program and the register, which is cached and shared, are
        built before tracing starts."""
        program = protocols._rho_m_program(16384)
        dense.pair_register(program.initial.n_pairs)
        tracemalloc.start()
        try:
            assert protocols.derive_ledger(program).locc_violations() == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**19

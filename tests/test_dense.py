import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bellclone import dense, protocols
from bellclone.calculus import BellEnsemble, teleport_two_qubit, to_dense
from bellclone.dense import (
    CNOT,
    Cut,
    DenseState,
    HADAMARD,
    PureBranch,
    QubitLabel,
    apply_unitary,
    bell_measurement,
    bell_vector,
    choi_matrix,
    fidelity,
    from_density_matrix,
    log_negativity,
    pair_register,
    partial_trace,
    partial_transpose,
    pauli,
    tensor,
    trace_distance,
)
from bellclone.labels import B1, B2, B3, B4, LABELS

SQ2 = np.sqrt(2.0)

# Literal amplitude table, straight from the Bell-state definitions.
BELL_LITERALS = {
    B1: np.array([1, 0, 0, 1]) / SQ2,
    B2: np.array([1, 0, 0, -1]) / SQ2,
    B3: np.array([0, 1, 1, 0]) / SQ2,
    B4: np.array([0, 1, -1, 0]) / SQ2,
}


def embed_op(op4: np.ndarray, n: int, pair: tuple[int, int]) -> np.ndarray:
    """Bit-level embedding of a two-qubit operator; independent oracle
    for the vectorized gate machinery."""
    q1, q2 = pair
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        ib = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        for j in range(dim):
            jb = [(j >> (n - 1 - q)) & 1 for q in range(n)]
            if all(ib[q] == jb[q] for q in range(n) if q not in (q1, q2)):
                full[i, j] = op4[2 * ib[q1] + ib[q2], 2 * jb[q1] + jb[q2]]
    return full


def pure_state(vec, n_pairs):
    return DenseState.pure(np.asarray(vec, dtype=complex), pair_register(n_pairs))


def state_of(branches, labels):
    """The state of :class:`PureBranch` rows, built through ``from_arrays``."""
    branches = tuple(branches)
    return DenseState.from_arrays([b.amplitudes for b in branches], [b.weight for b in branches], labels)


def outcome_states(post, outcomes):
    """The rows of a Bell measurement grouped by outcome:
    ``{outcome: (probability, post-state on the other qubits)}``."""
    grouped = {}
    for o in sorted(set(outcomes.tolist())):
        rows = outcomes == o
        prob = float(post.weights[rows].sum())
        grouped[o] = (prob, DenseState.from_arrays(post.amplitudes[rows], post.weights[rows] / prob, post.qubit_labels))
    return grouped


def without_pair(rows, n, pair, label):
    """<B_label| on the pair of each n-qubit row; the rest stay in register order."""
    psi = np.moveaxis(rows.reshape((len(rows),) + (2,) * n), [q + 1 for q in pair], (1, 2))
    return np.einsum("i,kir->kr", bell_vector(label).conj(), psi.reshape(len(rows), 4, -1))


class TestBellState:
    @pytest.mark.parametrize("label", LABELS)
    def test_literal_amplitudes(self, label):
        assert_allclose(bell_vector(label), BELL_LITERALS[label], atol=1e-15)

    def test_orthonormal_basis(self):
        for li, lj in itertools.product(LABELS, LABELS):
            ip = np.vdot(bell_vector(li), bell_vector(lj))
            assert ip == pytest.approx(1.0 if li == lj else 0.0, abs=1e-15)

    def test_swap_symmetry(self):
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        for label in (B1, B2, B3):
            assert_allclose(swap @ bell_vector(label), bell_vector(label), atol=1e-15)
        assert_allclose(swap @ bell_vector(B4), -bell_vector(B4), atol=1e-15)


class TestPauli:
    def test_identity(self):
        assert_allclose(pauli(0), np.eye(2))

    @pytest.mark.parametrize("idx", [1, 2, 3])
    def test_involution_unitary_hermitian(self, idx):
        s = pauli(idx)
        assert_allclose(s @ s, np.eye(2), atol=1e-15)
        assert_allclose(s, s.conj().T, atol=1e-15)

    def test_x_on_bob_side_flips_bitflip_label(self):
        out = np.kron(np.eye(2), pauli(1)) @ bell_vector(B1)
        assert abs(np.vdot(bell_vector(B3), out)) == pytest.approx(1.0, abs=1e-15)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            pauli(4)


class TestApplyUnitary:
    def test_identity_is_noop(self):
        state = pure_state(np.kron(BELL_LITERALS[B2], BELL_LITERALS[B4]), 2)
        out = apply_unitary(state, np.eye(4), (1, 2))
        assert trace_distance(state, out) <= 1e-14

    def test_bilateral_cnot_clones_b3(self):
        state = pure_state(np.kron(BELL_LITERALS[B3], BELL_LITERALS[B1]), 2)
        out = apply_unitary(state, CNOT, (0, 2))
        out = apply_unitary(out, CNOT, (1, 3))
        target = np.kron(BELL_LITERALS[B3], BELL_LITERALS[B3])
        assert fidelity(out, target) == pytest.approx(1.0, abs=1e-14)

    def test_matches_bit_level_embedding(self):
        rng = np.random.default_rng(11)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        state = pure_state(vec, 2)
        for pair in [(0, 2), (3, 1), (2, 0)]:
            out = apply_unitary(state, CNOT, pair)
            expected = embed_op(CNOT, 4, pair) @ vec
            assert_allclose(out.branches[0].amplitudes, expected, atol=1e-13)

    def test_hadamard_pair_maps_b2_to_b3(self):
        state = pure_state(BELL_LITERALS[B2], 1)
        out = apply_unitary(state, HADAMARD, (0,))
        out = apply_unitary(out, HADAMARD, (1,))
        assert fidelity(out, BELL_LITERALS[B3]) == pytest.approx(1.0, abs=1e-14)

    def test_hadamard_pair_flips_sign_of_b4(self):
        hh = np.kron(HADAMARD, HADAMARD)
        assert_allclose(hh @ bell_vector(B4), -bell_vector(B4), atol=1e-14)

    def test_rejects_non_unitary(self):
        state = pure_state(BELL_LITERALS[B1], 1)
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(state, np.array([[1, 1], [0, 1]], dtype=complex), (0,))

    def test_non_unitary_rejected_on_every_call(self):
        state = pure_state(BELL_LITERALS[B1], 1)
        shear = np.array([[1, 1], [0, 1]], dtype=complex)
        for bad in (shear, np.where(np.eye(2) == 1, np.nan, 0)):
            for _ in range(3):
                with pytest.raises(ValueError, match="unitary"):
                    apply_unitary(state, bad, (0,))
                with pytest.raises(ValueError, match="unitary"):
                    apply_unitary(state, bad.copy(), (1,))

    def test_each_distinct_gate_checked_once(self, monkeypatch):
        checked = []
        original = dense.check_unitary
        monkeypatch.setattr(dense, "check_unitary", lambda u: checked.append(u.shape) or original(u))
        rng = np.random.default_rng(29)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        state = pure_state(np.kron(BELL_LITERALS[B2], BELL_LITERALS[B4]), 2)
        out = [apply_unitary(state, gate, (0, 3)) for gate in (u, u.copy(), np.array(u))]
        assert checked == [(4, 4)]
        assert all(trace_distance(o, out[0]) <= 1e-14 for o in out)
        apply_unitary(state, u @ u, (1, 2))
        assert checked == [(4, 4), (4, 4)]

    def test_rejects_bad_targets(self):
        state = pure_state(BELL_LITERALS[B1], 1)
        with pytest.raises(ValueError):
            apply_unitary(state, CNOT, (0, 0))
        with pytest.raises(ValueError):
            apply_unitary(state, CNOT, (0, 5))

    def test_preserves_branch_inner_products(self):
        rng = np.random.default_rng(23)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        u, _ = np.linalg.qr(g)
        vecs = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        labels = pair_register(1) + (dense.QubitLabel("alice", 1, "ancilla"),)
        outs = [
            apply_unitary(DenseState.pure(v, labels), u, (0, 1, 2)) for v in vecs
        ]
        for i in range(4):
            for j in range(4):
                before = np.vdot(vecs[i], vecs[j])
                after = np.vdot(outs[i].branches[0].amplitudes, outs[j].branches[0].amplitudes)
                assert abs(before - after) <= 1e-12


class TestBellMeasurement:
    def test_measuring_a_bell_pair_is_deterministic(self):
        state = pure_state(np.kron(BELL_LITERALS[B2], BELL_LITERALS[B4]), 2)
        post, outcomes = bell_measurement(state, (0, 1))
        assert outcomes.tolist() == [LABELS.index(B2)]
        assert post.weights.tolist() == [1.0]
        assert fidelity(post, BELL_LITERALS[B4]) == pytest.approx(1.0, abs=1e-14)

    def test_cross_pair_measurement_is_uniform(self):
        # Measuring one half of each of two B1 pairs: entanglement
        # swapping, uniform over the four outcomes.
        vec = np.kron(BELL_LITERALS[B1], BELL_LITERALS[B1])
        state = pure_state(vec, 2)
        post, outcomes = bell_measurement(state, (1, 2))
        grouped = outcome_states(post, outcomes)
        assert list(grouped) == [0, 1, 2, 3]
        for label, (prob, rest) in zip(LABELS, grouped.values()):
            expected_prob = np.vdot(
                vec, embed_op(np.outer(bell_vector(label), bell_vector(label).conj()), 4, (1, 2)) @ vec
            ).real
            assert prob == pytest.approx(expected_prob, abs=1e-14)
            assert prob == pytest.approx(0.25, abs=1e-14)
            # the unmeasured halves, qubits 0 and 3, collapse onto the same Bell state
            assert fidelity(rest, bell_vector(label)) == pytest.approx(1.0, abs=1e-13)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        state = state_of((PureBranch(vecs[0], 0.3), PureBranch(vecs[1], 0.7)), pair_register(2))
        post, outcomes = bell_measurement(state, (0, 3))
        grouped = outcome_states(post, outcomes)
        for o, (prob, _) in grouped.items():
            proj = embed_op(np.outer(bell_vector(LABELS[o]), bell_vector(LABELS[o]).conj()), 4, (0, 3))
            assert prob == pytest.approx(np.trace(proj @ state.density_matrix()).real, abs=1e-12)
        assert sum(p for p, _ in grouped.values()) == pytest.approx(1.0, abs=1e-12)


class TestPartialTrace:
    def test_keep_everything(self):
        state = pure_state(BELL_LITERALS[B3], 1)
        assert partial_trace(state, [0, 1]) is state

    def test_half_of_a_bell_pair_is_maximally_mixed(self):
        state = pure_state(BELL_LITERALS[B1], 1)
        reduced = partial_trace(state, [0])
        assert_allclose(reduced.density_matrix(), np.eye(2) / 2, atol=1e-14)

    def test_three_pair_uniform_reduces_to_smolin(self):
        uniform3 = state_of(
            tuple(
                PureBranch(np.kron(np.kron(v, v), v), 0.25)
                for v in BELL_LITERALS.values()
            ),
            pair_register(3),
        )
        smolin = state_of(
            tuple(PureBranch(np.kron(v, v), 0.25) for v in BELL_LITERALS.values()),
            pair_register(2),
        )
        reduced = partial_trace(uniform3, [0, 1, 2, 3])
        assert trace_distance(reduced, smolin) <= 1e-12

    def test_nested_traces_agree(self):
        rng = np.random.default_rng(17)
        vecs = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        state = state_of(
            tuple(PureBranch(v, w) for v, w in zip(vecs, (0.5, 0.25, 0.25))),
            pair_register(2),
        )
        once = partial_trace(state, [0, 1, 3])
        twice = partial_trace(once, [0, 2])  # original qubits 0 and 3
        direct = partial_trace(state, [0, 3])
        assert np.max(np.abs(twice.density_matrix() - direct.density_matrix())) <= 1e-12

    def test_empty_keep_rejected(self):
        state = pure_state(BELL_LITERALS[B1], 1)
        with pytest.raises(ValueError):
            partial_trace(state, [])


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        state = pure_state(vec, 1)
        eigs = np.linalg.eigvalsh(partial_transpose(state, Cut.of(2, [0])))
        assert eigs.min() >= -1e-12

    def test_bell_pair_literal(self):
        state = pure_state(BELL_LITERALS[B1], 1)
        pt = partial_transpose(state, Cut.of(2, [0]))
        expected = 0.5 * np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert_allclose(pt, expected, atol=1e-14)
        eigs = np.linalg.eigvalsh(pt)
        assert eigs.min() == pytest.approx(-0.5, abs=1e-12)

    def test_result_is_hermitian_unit_trace(self):
        rng = np.random.default_rng(29)
        vecs = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        state = state_of(
            (PureBranch(vecs[0], 0.5), PureBranch(vecs[1], 0.5)), pair_register(2)
        )
        pt = partial_transpose(state, Cut.of(4, [1, 2]))
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-13
        assert np.trace(pt).real == pytest.approx(1.0, abs=1e-12)

    def test_smolin_is_ppt_across_two_vs_two(self):
        smolin = state_of(
            tuple(PureBranch(np.kron(v, v), 0.25) for v in BELL_LITERALS.values()),
            pair_register(2),
        )
        pt = partial_transpose(smolin, Cut.alice_bob(smolin))
        assert np.linalg.eigvalsh(pt).min() >= -1e-10


class TestLogNegativity:
    def test_bell_pair_is_one_ebit(self):
        state = pure_state(BELL_LITERALS[B1], 1)
        assert log_negativity(state, Cut.of(2, [0])) == pytest.approx(1.0, abs=1e-12)

    def test_smolin_cuts(self):
        smolin = state_of(
            tuple(PureBranch(np.kron(v, v), 0.25) for v in BELL_LITERALS.values()),
            pair_register(2),
        )
        assert log_negativity(smolin, Cut.alice_bob(smolin)) <= 1e-9
        for q in range(4):
            assert log_negativity(smolin, Cut.one_vs_rest(smolin, q)) >= 1.0 - 1e-9

    def test_correlated_two_pair_mixture_holds_one_ebit(self):
        state = state_of(
            (
                PureBranch(np.kron(BELL_LITERALS[B1], BELL_LITERALS[B1]), 0.5),
                PureBranch(np.kron(BELL_LITERALS[B2], BELL_LITERALS[B2]), 0.5),
            ),
            pair_register(2),
        )
        assert log_negativity(state, Cut.alice_bob(state)) >= 1.0 - 1e-9

    def test_zero_iff_ppt(self):
        smolin = state_of(
            tuple(PureBranch(np.kron(v, v), 0.25) for v in BELL_LITERALS.values()),
            pair_register(2),
        )
        cases = [
            (pure_state(BELL_LITERALS[B1], 1), Cut.of(2, [0])),
            (smolin, Cut.alice_bob(smolin)),
            (smolin, Cut.one_vs_rest(smolin, 0)),
        ]
        for state, cut in cases:
            ln = log_negativity(state, cut)
            min_eig = np.linalg.eigvalsh(partial_transpose(state, cut)).min()
            assert (ln <= 1e-12) == (min_eig >= -1e-10)


class TestFidelity:
    def test_self_and_orthogonal(self):
        state = pure_state(BELL_LITERALS[B1], 1)
        assert fidelity(state, BELL_LITERALS[B1]) == pytest.approx(1.0, abs=1e-14)
        assert fidelity(state, BELL_LITERALS[B2]) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_two_qubit(self):
        mixed = from_density_matrix(np.eye(4) / 4, pair_register(1))
        assert fidelity(mixed, BELL_LITERALS[B1]) == pytest.approx(0.25, abs=1e-12)

    def test_dimension_mismatch(self):
        state = pure_state(BELL_LITERALS[B1], 1)
        with pytest.raises(ValueError):
            fidelity(state, np.ones(8) / np.sqrt(8))


def pauli_filter(state):
    """Apply sigma_k (x) sigma_k with probability 1/4 each, on qubits 0-1
    of any register: (sigma_k (x) sigma_k) (x) I."""
    rest = np.eye(2 ** (state.n_qubits - 2))
    kraus = [np.kron(np.kron(pauli(k), pauli(k)), rest) for k in range(4)]
    rho = state.density_matrix()
    out = sum(k @ rho @ k.conj().T for k in kraus) / 4.0
    return from_density_matrix(out, state.qubit_labels)


class TestChoiMatrix:
    def test_identity_channel_is_rank_one_projector(self):
        choi = choi_matrix(lambda s: s)
        omega = np.zeros(16, dtype=complex)
        omega[[0, 5, 10, 15]] = 0.5
        assert_allclose(choi, np.outer(omega, omega.conj()), atol=1e-12)

    def test_pauli_filter_channel_matches_term_sum(self):
        choi = choi_matrix(pauli_filter)
        expected = np.zeros((16, 16), dtype=complex)
        for k in range(4):
            op = np.kron(pauli(k), pauli(k))
            expected += np.kron(op, op.T) / 16.0
        assert np.max(np.abs(choi - expected)) <= 1e-12
        assert np.linalg.eigvalsh(choi).min() >= -1e-9

    def test_nonlinear_channel_detected(self):
        def squared(state):
            rho = state.density_matrix()
            rho = rho @ rho
            return from_density_matrix(rho / np.trace(rho).real, state.qubit_labels)

        with pytest.raises(ValueError, match="not linear"):
            choi_matrix(squared)


class TestTraceDistance:
    def test_zero_for_equal_and_one_for_orthogonal(self):
        a = pure_state(BELL_LITERALS[B1], 1)
        b = pure_state(BELL_LITERALS[B3], 1)
        assert trace_distance(a, a) <= 1e-14
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_large_register_span_path(self):
        # 12 qubits: forced through the branch-span route.
        v1 = BELL_LITERALS[B1]
        v3 = BELL_LITERALS[B3]
        big1 = np.kron(np.kron(np.kron(v1, v1), np.kron(v1, v1)), np.kron(v1, v1))
        big3 = np.kron(np.kron(np.kron(v3, v3), np.kron(v3, v3)), np.kron(v3, v3))
        a = pure_state(big1, 6)
        b = pure_state(big3, 6)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
        half = state_of(
            (PureBranch(big1, 0.5), PureBranch(big3, 0.5)), pair_register(6)
        )
        assert trace_distance(a, half) == pytest.approx(0.5, abs=1e-12)
        assert trace_distance(half, half) <= 1e-13


class TestStateValidation:
    def test_branch_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            PureBranch(np.array([1.0, 1.0]), 1.0)

    def test_at_least_one_branch(self):
        with pytest.raises(ValueError, match="at least one branch"):
            DenseState.from_arrays(np.zeros((0, 4)), [], pair_register(1))

    def test_weights_must_sum_to_one(self):
        good = PureBranch(BELL_LITERALS[B1], 0.5)
        with pytest.raises(ValueError, match="sum"):
            state_of((good,), pair_register(1))

    def test_label_count_checked(self):
        with pytest.raises(ValueError, match="labels"):
            state_of((PureBranch(BELL_LITERALS[B1], 1.0),), pair_register(2))

    def test_tensor_concatenates_registers(self):
        a = pure_state(BELL_LITERALS[B1], 1)
        b = pure_state(BELL_LITERALS[B4], 1)
        ab = tensor(a, b)
        assert ab.n_qubits == 4
        assert fidelity(ab, np.kron(BELL_LITERALS[B1], BELL_LITERALS[B4])) == pytest.approx(
            1.0, abs=1e-14
        )


# ---------------------------------------------------------------------------
# Rank-sized spectra against test-local density-matrix formulas
# ---------------------------------------------------------------------------


def random_mixture(rng, n_qubits, weights, real=False):
    """Random branches on alternating Alice/Bob qubits (pair_register for even n)."""
    k = len(weights)
    vecs = rng.normal(size=(k, 2**n_qubits))
    if not real:
        vecs = vecs + 1j * rng.normal(size=(k, 2**n_qubits))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    weights = np.asarray(weights, dtype=float) / np.sum(weights)
    labels = tuple(QubitLabel(("alice", "bob")[q % 2], q // 2) for q in range(n_qubits))
    return state_of(tuple(PureBranch(v, w) for v, w in zip(vecs, weights)), labels)


def reference_reduced(rho, keep):
    """Reduced density matrix by an explicit index contraction of rho."""
    n = len(rho).bit_length() - 1
    rest = [q for q in range(n) if q not in keep]
    rho = rho.reshape((2,) * (2 * n))
    rho = np.transpose(rho, keep + rest + [n + q for q in keep] + [n + q for q in rest])
    dk, dr = 2 ** len(keep), 2 ** len(rest)
    return np.einsum("ajbj->ab", rho.reshape(dk, dr, dk, dr))


def reference_trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.density_matrix() - b.density_matrix()))))


def reference_bell_outcome(state, label, pair):
    """Probability and post-state density matrix of one Bell outcome,
    by the explicit projector of that outcome alone, then a trace over
    the measured pair."""
    proj = embed_op(np.outer(bell_vector(label), bell_vector(label).conj()), state.n_qubits, pair)
    rho = proj @ state.density_matrix() @ proj
    prob = float(np.trace(rho).real)
    return prob, reference_reduced(rho / prob, [q for q in range(state.n_qubits) if q not in pair])


class TestRankSizedSpectra:
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize(
        "keep, weights",
        [
            ([0, 1, 2, 3], (0.5, 0.3, 0.2)),  # 3 x 4 columns < 16 kept dims
            ([1, 2, 4, 5], (0.6, 0.4)),
            ([0, 5], (0.7, 0.3)),  # 2 x 16 columns >= 4 kept dims
            ([0, 1, 2, 3], (0.25,) * 4),  # 4 x 4 columns = 16 kept dims
        ],
    )
    def test_partial_trace_matches_density_matrix_eigh(self, real, keep, weights):
        state = random_mixture(np.random.default_rng(len(keep) + len(weights)), 6, weights, real)
        reduced = partial_trace(state, keep)
        ref = reference_reduced(state.density_matrix(), keep)
        assert np.max(np.abs(reduced.density_matrix() - ref)) <= 1e-12
        weights_out = [b.weight for b in reduced.branches]
        assert weights_out == sorted(weights_out, reverse=True)
        assert_allclose(weights_out, np.linalg.eigvalsh(ref)[::-1][: len(weights_out)], atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_trace_distance_matches_density_matrix_eigvalsh(self, n):
        rng = np.random.default_rng(100 + n)
        # Up to 4 qubits the branches of each state span the whole space.
        k = 2**n + 1 if n <= 4 else 3
        a, b = (random_mixture(rng, n, rng.random(k) + 0.1) for _ in range(2))
        assert trace_distance(a, b) == pytest.approx(reference_trace_distance(a, b), abs=1e-12)
        assert trace_distance(a, a) <= 1e-12
        assert trace_distance(b, b) <= 1e-12

    def test_log_negativity_same_on_real_and_complex_partial_transposes(self, monkeypatch):
        seen = []  # per log_negativity call, the dtypes passed to eigvalsh
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen[-1].add(m.dtype) or original(m))
        state = to_dense(BellEnsemble.uniform_strings(3))
        cut = Cut.alice_bob(state)
        # A global phase of i leaves every partial-transpose entry exactly
        # real; S on one of Alice's qubits, a local unitary, makes them complex.
        phased = state_of(tuple(PureBranch(1j * b.amplitudes, b.weight) for b in state.branches), state.qubit_labels)
        rotated = apply_unitary(state, dense.PHASE_S, (0,))
        values = [seen.append(set()) or log_negativity(s, cut) for s in (state, phased, rotated)]
        assert values == pytest.approx([2.0] * 3, abs=1e-12)
        assert seen[0] == seen[1] == {np.dtype(float)}
        assert np.dtype(complex) in seen[2]

    @pytest.mark.parametrize("pair", [(0, 3), (4, 1), (2, 3)])
    def test_batched_bell_measurement_matches_per_outcome(self, pair):
        state = random_mixture(np.random.default_rng(7), 6, (0.2, 0.5, 0.3))
        grouped = outcome_states(*bell_measurement(state, pair))
        assert list(grouped) == [0, 1, 2, 3]
        for label, (prob, post) in zip(LABELS, grouped.values()):
            ref_prob, ref_rho = reference_bell_outcome(state, label, tuple(sorted(pair)))
            assert prob == pytest.approx(ref_prob, abs=1e-14)
            assert np.max(np.abs(post.density_matrix() - ref_rho)) <= 1e-13


class TestSpectrumShapes:
    """Which matrices the oracle diagonalizes; no timing is asserted."""

    @pytest.fixture
    def spectra(self, monkeypatch):
        seen = []
        for name in ("eigh", "eigvalsh", "svd"):
            original = getattr(np.linalg, name)

            def record(m, *args, _original=original, _name=name, **kwargs):
                seen.append((_name, m.shape, m.dtype))
                return _original(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, record)
        return seen

    def test_four_state_cloning_never_diagonalizes_the_register(self, spectra):
        dn = protocols.clone_four_dense(B3, 5)
        sym, _ = protocols.clone_four_1_to_n(B3, 5)
        assert trace_distance(to_dense(sym), dn) <= 1e-10
        assert spectra
        assert all(shape != (1024, 1024) for _, shape, _ in spectra)

    @pytest.mark.parametrize("probe", [0, 4, 28])
    def test_teleportation_takes_no_trace_or_spectrum(self, spectra, monkeypatch, probe):
        traced = []
        original = dense.partial_trace
        monkeypatch.setattr(dense, "partial_trace", lambda *a: traced.append(1) or original(*a))
        channel = to_dense(protocols.prepare_rho_m(6)[0])
        out = teleport_two_qubit(channel, choi_probe_inputs()[probe])
        assert out.n_qubits == 10
        assert traced == [] and spectra == []

    def test_rho5_log_negativity_is_real(self, spectra):
        state = to_dense(protocols.prepare_rho_m(5)[0])
        log_negativity(state, Cut.alice_bob(state))
        assert spectra
        assert all(max(shape[-2:]) <= 2 and dtype == np.dtype(float) for _, shape, dtype in spectra)


# ---------------------------------------------------------------------------
# Batched kernels against per-branch reference implementations
# ---------------------------------------------------------------------------
#
# Each reference runs one branch at a time through PureBranch and
# state_of(branches, labels); the batched kernels, which act on the whole
# (k, 2**n) amplitude array at once, must agree with them within 1e-13.


def ref_apply_matrix(vec, n, u, targets):
    k = len(targets)
    psi = np.moveaxis(vec.reshape((2,) * n), targets, range(k))
    psi = (u @ psi.reshape(2**k, -1)).reshape((2,) * n)
    return np.moveaxis(psi, range(k), targets).reshape(-1)


def ref_apply_unitary(state, u, targets):
    branches = tuple(
        PureBranch(ref_apply_matrix(b.amplitudes, state.n_qubits, u, targets), b.weight) for b in state.branches
    )
    return state_of(branches, state.qubit_labels)


def ref_tensor(left, right):
    branches = [
        PureBranch(np.kron(lb.amplitudes, rb.amplitudes), lb.weight * rb.weight)
        for lb in left.branches
        for rb in right.branches
    ]
    return state_of(tuple(branches), left.qubit_labels + right.qubit_labels)


def ref_fidelity(state, target):
    return float(sum(b.weight * abs(np.vdot(target, b.amplitudes)) ** 2 for b in state.branches))


def ref_bell_measurement(state, pair):
    q1, q2 = sorted(pair)
    shape = (2,) * state.n_qubits
    rows = np.array([bell_vector(label) for label in LABELS])
    subs = np.array(
        [
            rows.conj() @ np.moveaxis(b.amplitudes.reshape(shape), (q1, q2), (0, 1)).reshape(4, -1)
            for b in state.branches
        ]
    )
    out = []
    for k, label in enumerate(LABELS):
        prob, branches = 0.0, []
        for b, sub in zip(state.branches, subs[:, k]):
            p_b = float(np.vdot(sub, sub).real)
            prob += b.weight * p_b
            if p_b > 1e-14:
                full = np.moveaxis(np.outer(rows[k], sub / np.sqrt(p_b)).reshape(shape), (0, 1), (q1, q2))
                branches.append(PureBranch(full.reshape(-1), b.weight * p_b))
        if prob > 1e-14:
            branches = tuple(PureBranch(br.amplitudes, br.weight / prob) for br in branches)
            out.append((label, prob, state_of(branches, state.qubit_labels)))
    return out


def ref_eigenbranches(vals, vecs, labels):
    branches = [PureBranch(v / np.linalg.norm(v), float(w)) for v, w in zip(vecs.T, vals) if w > 1e-13]
    total = sum(b.weight for b in branches)
    return state_of(tuple(PureBranch(b.amplitudes, b.weight / total) for b in branches), labels)


def ref_partial_trace(state, keep):
    keep = sorted(keep)
    n, dim = state.n_qubits, 2 ** len(keep)
    cols = [
        np.sqrt(b.weight) * np.moveaxis(b.amplitudes.reshape((2,) * n), keep, range(len(keep))).reshape(dim, -1)
        for b in state.branches
    ]
    a = np.concatenate(cols, axis=1)
    labels = tuple(state.qubit_labels[q] for q in keep)
    if a.shape[1] < dim:
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        return ref_eigenbranches(s**2, u, labels)
    vals, vecs = np.linalg.eigh(a @ a.conj().T)
    return ref_eigenbranches(vals[::-1], vecs[:, ::-1], labels)


def ref_partial_transpose(state, cut):
    n, left = state.n_qubits, sorted(cut.left)
    dl, dr = 2 ** len(left), 2 ** (n - len(left))
    pt = np.zeros((dl, dr, dl, dr), dtype=complex)
    for b in state.branches:
        m = np.moveaxis(b.amplitudes.reshape((2,) * n), left, range(len(left))).reshape(dl, dr)
        pt += b.weight * np.einsum("kj,il->ijkl", m, m.conj())
    return pt.reshape(dl * dr, dl * dr)


def ref_log_negativity(state, cut):
    """One eigvalsh of the whole partial transpose (in real arithmetic when
    it is exactly real), as log_negativity did before it diagonalized blocks."""
    eigs = np.linalg.eigvalsh(dense._real_if_exact(partial_transpose(state, cut)))
    return max(0.0, float(np.log2(np.sum(np.abs(eigs)))))


def ref_parity_measure(state, pair):
    keep = [q for q in range(state.n_qubits) if q // 2 != pair]
    out = []
    for bit in (0, 1):
        proj = np.diag([complex((x >> 1) ^ (x & 1) == bit) for x in range(4)])
        weighted, prob = [], 0.0
        for b in state.branches:
            psi = ref_apply_matrix(b.amplitudes, state.n_qubits, proj, (2 * pair, 2 * pair + 1))
            p_b = float(np.vdot(psi, psi).real)
            prob += b.weight * p_b
            if p_b > 1e-14:
                weighted.append(PureBranch(psi / np.sqrt(p_b), b.weight * p_b))
        if prob > 1e-14:
            post = state_of(tuple(PureBranch(br.amplitudes, br.weight / prob) for br in weighted), state.qubit_labels)
            out.append((bit, prob, ref_partial_trace(post, keep) if keep else None))
    return out


#: The correction per Bell outcome, in LABELS order: B1 -> I, B2 -> z, B3 -> x, B4 -> y.
REF_CORRECTIONS = np.array([pauli(0), pauli(3), pauli(1), pauli(2)])


def ref_teleport(channel, input_state):
    """Alice's and then Bob's Bell measurement, outcome by outcome.  Each
    projection leaves its pair, (A_in, A0) or (B_in, B0), in the outcome's
    Bell state, so contracting qubits 0-3 with those two Bell vectors reads
    off every row's receiving qubits (no partial trace); then each outcome's
    corrections act on all of its rows at once."""
    n = input_state.n_qubits + channel.n_qubits
    rows, weights = [], []
    for la, pa, state_a in ref_bell_measurement(ref_tensor(input_state, channel), (0, 2)):
        for lb, pb, out in ref_bell_measurement(state_a, (1, 3)):
            va, vb = (bell_vector(label).reshape(2, 2).conj() for label in (la, lb))
            psi = out.amplitudes.reshape((-1, 2, 2, 2, 2) + (2,) * (n - 4))  # A_in, B_in, A0, B0, receivers
            psi = np.einsum("ac,bd,kabcd...->k...", va, vb, psi)
            for first, label in ((0, la), (1, lb)):  # Alice's receivers, then Bob's
                corr = REF_CORRECTIONS[LABELS.index(label)]
                for q in range(first, n - 4, 2):
                    psi = np.moveaxis(np.tensordot(corr, psi, axes=(1, q + 1)), 0, q + 1)
            rows.append(psi.reshape(len(psi), -1))
            weights.append(pa * pb * out.weights)
    return DenseState.from_arrays(np.concatenate(rows), np.concatenate(weights), channel.qubit_labels[2:])


def assert_same_state(state, ref, atol=1e-13):
    assert state.qubit_labels == ref.qubit_labels
    assert np.max(np.abs(state.density_matrix() - ref.density_matrix())) <= atol


def mixed_bell_and_random(rng, n_qubits):
    """Bell-product branches (whose Bell outcomes are pruned) plus one
    random complex branch, on alternating Alice/Bob qubits."""
    labels = random_mixture(rng, n_qubits, (1.0,)).qubit_labels
    vecs = []
    for _ in range(3):
        vec = np.ones(1, dtype=complex)
        for _ in range(n_qubits // 2):
            vec = np.kron(vec, bell_vector(LABELS[rng.integers(4)]))
        vecs.append(np.kron(vec, np.ones(2 ** (n_qubits % 2)) / np.sqrt(2 ** (n_qubits % 2))))
    vecs.append(random_mixture(rng, n_qubits, (1.0,)).amplitudes[0])
    return state_of(tuple(PureBranch(v, w) for v, w in zip(vecs, (0.4, 0.3, 0.2, 0.1))), labels)


QUBITS = range(2, 11)


class TestBatchedKernelsMatchPerBranch:
    @pytest.mark.parametrize("n", QUBITS)
    def test_apply_unitary(self, n):
        rng = np.random.default_rng(200 + n)
        state = random_mixture(rng, n, (0.5, 0.3, 0.2))
        u4, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        u2 = dense.PHASE_S @ HADAMARD
        pairs = [(n - 1, 0), (1, n - 2) if n > 3 else (1, 0)]
        for u, targets in [(u2, (0,)), (u2, (n - 1,))] + [(u4, pair) for pair in pairs]:
            assert_same_state(apply_unitary(state, u, targets), ref_apply_unitary(state, u, targets))

    @pytest.mark.parametrize("n", QUBITS[1:])  # a two-qubit register would leave no qubits
    def test_bell_measurement(self, n):
        rng = np.random.default_rng(300 + n)
        for state in (random_mixture(rng, n, (0.2, 0.5, 0.3)), mixed_bell_and_random(rng, n)):
            for pair in [(0, 1), (n - 1, 0)] + ([(1, 3)] if n > 3 else []):
                got, ref = outcome_states(*bell_measurement(state, pair)), ref_bell_measurement(state, pair)
                assert list(got) == [label.index - 1 for label, _, _ in ref]
                for (prob, post), (label, ref_prob, ref_post) in zip(got.values(), ref):
                    assert prob == pytest.approx(ref_prob, abs=1e-13)
                    assert len(post.weights) == len(ref_post.branches)
                    rest = without_pair(ref_post.amplitudes, n, sorted(pair), label)
                    assert_same_state(post, DenseState.from_arrays(rest, ref_post.weights, post.qubit_labels))

    @pytest.mark.parametrize(
        "n, keep, weights",
        [
            (2, [0], (0.6, 0.4)),
            (4, [0, 1, 3], (0.5, 0.5)),
            (5, [1, 4], (0.3, 0.3, 0.4)),
            (7, [0, 2, 3, 5, 6], (0.7, 0.3)),
            (8, [1, 2, 3, 4], (0.2, 0.8)),
            (10, [0, 2, 4, 6, 7, 8, 9], (0.5, 0.25, 0.25)),
            (10, [1, 3, 5, 7, 9], (0.5, 0.25, 0.25)),
        ],
    )
    def test_partial_trace_both_routes(self, n, keep, weights):
        state = random_mixture(np.random.default_rng(400 + n), n, weights)
        got = partial_trace(state, keep)
        assert_same_state(got, ref_partial_trace(state, keep))

    @pytest.mark.parametrize("n", QUBITS)
    def test_partial_transpose(self, n):
        state = random_mixture(np.random.default_rng(500 + n), n, (0.6, 0.3, 0.1))
        for left in ([0], list(range(0, n, 2)), [n - 1, 1]):
            cut = Cut.of(n, left)
            assert np.max(np.abs(partial_transpose(state, cut) - ref_partial_transpose(state, cut))) <= 1e-13

    @pytest.mark.parametrize("n", QUBITS)
    def test_tensor_mixture_fidelity(self, n):
        rng = np.random.default_rng(600 + n)
        left = random_mixture(rng, n - 1, (0.5, 0.5))
        right = random_mixture(rng, 1, (0.25, 0.75))
        assert_same_state(tensor(left, right), ref_tensor(left, right))
        a, b = random_mixture(rng, n, (0.3, 0.7)), random_mixture(rng, n, (0.1, 0.2, 0.7))
        target = random_mixture(rng, n, (1.0,)).amplitudes[0]
        for state in (a, b):
            assert fidelity(state, target) == pytest.approx(ref_fidelity(state, target), abs=1e-13)

    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 4, 5])
    def test_parity_measure(self, n_pairs):
        from bellclone.calculus import _parity_measure

        rng = np.random.default_rng(700 + n_pairs)
        states = [random_mixture(rng, 2 * n_pairs, (0.5, 0.5)), mixed_bell_and_random(rng, 2 * n_pairs)]
        states.append(to_dense(BellEnsemble({(B1,) * n_pairs: 0.5, (B3,) * n_pairs: 0.5})))
        for state in states:
            for pair in range(n_pairs):
                got, ref = _parity_measure(state, pair), ref_parity_measure(state, pair)
                assert [bit for bit, _, _ in got] == [bit for bit, _, _ in ref]
                for (_, prob, post), (_, ref_prob, ref_post) in zip(got, ref):
                    assert prob == pytest.approx(ref_prob, abs=1e-13)
                    assert (post is None) == (ref_post is None)
                    if post is not None:
                        assert_same_state(post, ref_post)


class TestDiscardingBellMeasurement:
    """``bell_measurement`` against the per-outcome reference
    ``ref_bell_measurement`` with the measured pair projected out of each
    post-state."""

    @pytest.mark.parametrize("n", range(3, 11))
    def test_rows_are_the_reference_post_states_without_the_pair(self, n):
        rng = np.random.default_rng(900 + n)
        pairs = [(0, 1), (n - 1, 0)] + ([(3, 0), (1, 3)] if n > 3 else [(2, 0)])
        for state in (random_mixture(rng, n, (0.2, 0.5, 0.3)), mixed_bell_and_random(rng, n)):
            for pair in dict.fromkeys(pairs):
                post, outcomes = bell_measurement(state, pair)
                assert post.qubit_labels == tuple(l for q, l in enumerate(state.qubit_labels) if q not in pair)
                assert outcomes.shape == post.weights.shape
                ref_outcomes = ref_bell_measurement(state, pair)
                assert sorted(set(outcomes.tolist())) == [label.index - 1 for label, _, _ in ref_outcomes]
                for label, prob, ref in ref_outcomes:
                    rows = outcomes == label.index - 1
                    assert post.weights[rows].sum() == pytest.approx(prob, abs=1e-13)
                    assert np.max(np.abs(post.weights[rows] - prob * ref.weights)) <= 1e-13
                    expected = without_pair(ref.amplitudes, n, sorted(pair), label)
                    assert np.max(np.abs(post.amplitudes[rows] - expected)) <= 1e-13

    def test_two_qubit_register_leaves_nothing(self):
        state = random_mixture(np.random.default_rng(902), 2, (0.5, 0.5))
        with pytest.raises(ValueError, match="no qubits"):
            bell_measurement(state, (0, 1))


def choi_probe_inputs():
    """The inputs of the probe reconstruction :func:`ref_choi_matrix`: the
    basis kets, the (|x> + |y>) and (|x> + i|y>) superpositions, and the
    seeded mixture of ``choi_matrix``'s linearity check."""
    kets = np.eye(4, dtype=complex)
    labels = pair_register(1, role="input")
    vecs = list(kets)
    for x, y in itertools.permutations(range(4), 2):
        vecs += [(kets[x] + kets[y]) / SQ2, (kets[x] + 1j * kets[y]) / SQ2]
    inputs = [DenseState.pure(v, labels) for v in vecs]
    rng = np.random.default_rng(dense._CHOI_CHECK_SEED)
    probe = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    return inputs + [state_of((PureBranch(probe[0], 0.375), PureBranch(probe[1], 0.625)), labels)]


def teleport_channels():
    yield "smolin", to_dense(protocols.smolin_ensemble())
    yield "ideal", protocols.ideal_channel()
    for m in range(3, 7):
        yield f"rho_{m}", to_dense(protocols.prepare_rho_m(m)[0])


class TestBatchedTeleportation:
    @pytest.mark.parametrize("name, channel", list(teleport_channels()))
    def test_every_choi_probe_input(self, name, channel):
        inputs = choi_probe_inputs()
        assert len(inputs) == 29
        for inp in inputs:
            assert_same_state(teleport_two_qubit(channel, inp), ref_teleport(channel, inp))


# ---------------------------------------------------------------------------
# One-run Choi matrices against the probe reconstruction
# ---------------------------------------------------------------------------


def ref_choi_matrix(channel):
    """Choi matrix rebuilt by linearity from the 28 pure probe inputs of
    :func:`choi_probe_inputs`, each run through the channel on its own."""
    kets = np.eye(4, dtype=complex)
    outputs = iter(channel(inp).density_matrix() for inp in choi_probe_inputs()[:28])
    diag = [next(outputs) for _ in range(4)]
    choi = np.zeros((16, 16), dtype=complex)
    for x, y in itertools.permutations(range(4), 2):
        plus, phase = next(outputs), next(outputs)
        block = plus + 1j * phase - (1 + 1j) / 2 * (diag[x] + diag[y])
        choi += 0.25 * np.kron(block, np.outer(kets[x], kets[y]))
    for x in range(4):
        choi += 0.25 * np.kron(diag[x], np.outer(kets[x], kets[x]))
    return choi


def first_output_pair(channel):
    """Teleportation through ``channel`` keeping output pair 0 and every
    carried qubit: a two-qubit channel in the sense of ``choi_matrix``."""
    def run(state):
        out = teleport_two_qubit(channel, state)
        return partial_trace(out, [0, 1] + list(range(out.n_qubits - state.n_qubits + 2, out.n_qubits)))

    return run


def choi_channels():
    yield "identity", lambda s: s
    yield "pauli-filter", pauli_filter
    for name, channel in teleport_channels():
        if channel.n_qubits == 4:
            yield name, lambda s, channel=channel: protocols.teleport_two_qubit(channel, s)
        elif channel.n_qubits + 4 <= dense.MAX_REGISTER_QUBITS:
            yield name, first_output_pair(channel)


REFERENCE = pair_register(1, role="reference")


def random_pure(rng, labels):
    vec = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return DenseState.pure(vec / np.linalg.norm(vec), labels)


class TestOneRunChoi:
    @pytest.mark.parametrize("name, channel", list(choi_channels()))
    def test_matches_probe_reconstruction(self, name, channel):
        assert np.max(np.abs(choi_matrix(channel) - ref_choi_matrix(channel))) <= 1e-13

    def test_rho6_input_and_reference_exceed_the_register(self):
        # 4 input and reference qubits next to rho_6's 12 make 16 > 14.
        channel = first_output_pair(rho(6))
        assert ref_choi_matrix(channel).shape == (16, 16)
        with pytest.raises(ValueError, match="exceeds"):
            choi_matrix(channel)

    def test_channel_runs_once_then_on_the_probe(self):
        seen = []
        choi_matrix(lambda s: seen.append(s.qubit_labels) or s)
        assert seen == [pair_register(1, role="input") + REFERENCE, pair_register(1, role="input")]

    def test_dropped_reference_raises(self):
        with pytest.raises(ValueError, match="reference"):
            choi_matrix(lambda s: partial_trace(s, [0, 1]))

    def test_reordered_reference_raises(self):
        def swap_halves(state):
            amps = state.amplitudes.reshape(-1, 4, 4).transpose(0, 2, 1).reshape(len(state.weights), -1)
            return DenseState.from_arrays(amps, state.weights, state.qubit_labels[2:] + state.qubit_labels[:2])

        with pytest.raises(ValueError, match="reference"):
            choi_matrix(swap_halves)

    @pytest.mark.parametrize("name, channel", [c for c in teleport_channels() if c[1].n_qubits <= 8])
    def test_product_input_keeps_its_reference(self, name, channel):
        rng = np.random.default_rng(77)
        inp = random_mixture(rng, 2, (0.4, 0.6))
        inp = DenseState.from_arrays(inp.amplitudes, inp.weights, pair_register(1, role="input"))
        for reference in (random_pure(rng, REFERENCE), random_pure(rng, REFERENCE[:1])):
            out = teleport_two_qubit(channel, tensor(inp, reference))
            assert_same_state(out, tensor(teleport_two_qubit(channel, inp), reference))

    @pytest.mark.parametrize("at", [0, 1, 2, 3, None])
    def test_tensor_inserts_after_the_first_at_qubits(self, at):
        rng = np.random.default_rng(79)
        left, right = random_mixture(rng, 3, (0.5, 0.5)), random_mixture(rng, 2, (0.25, 0.75))
        out = tensor(left, right, at=at)
        ref = ref_tensor(left, right)  # left's qubits 0-2, then right's 3-4
        order = list(range(3 if at is None else at)) + [3, 4] + list(range(3 if at is None else at, 3))
        amps = ref.amplitudes.reshape((-1,) + (2,) * 5).transpose([0] + [q + 1 for q in order])
        assert np.max(np.abs(out.amplitudes - amps.reshape(len(ref.weights), -1))) <= 1e-15
        assert np.array_equal(out.weights, ref.weights)
        assert out.qubit_labels == tuple(ref.qubit_labels[q] for q in order)

    def test_tensor_position_is_checked(self):
        rng = np.random.default_rng(80)
        left, right = random_mixture(rng, 4, (1.0,)), random_mixture(rng, 2, (1.0,))
        for at in (0, 4):
            out = tensor(left, right, at=at)
            assert out.qubit_labels == left.qubit_labels[:at] + right.qubit_labels + left.qubit_labels[at:]
            assert out.support.max() < 2**6
        for at in (-1, 5):
            with pytest.raises(ValueError, match=f"tensor position {at} outside 0..4"):
                tensor(left, right, at=at)

    def test_teleport_channel_checks(self):
        """A channel must hold Alice's then Bob's qubit of every pair: swapped
        owners would Bell-measure Alice's input with Bob's qubit, and an odd
        qubit would be kept with no correction."""
        rng = np.random.default_rng(81)
        channel, inp = protocols.ideal_channel(), random_pure(rng, pair_register(1, role="input"))
        a0, b0, a1, b1 = channel.qubit_labels
        swapped = DenseState.from_arrays(channel.amplitudes, channel.weights, (b0, a0, a1, b1))
        stray = tensor(channel, random_pure(rng, (QubitLabel("bob", 9),)))
        for bad in (swapped, stray):
            with pytest.raises(ValueError, match="channel must hold one Alice qubit then one Bob qubit per pair"):
                teleport_two_qubit(bad, inp)

    def test_teleport_input_checks(self):
        channel = protocols.ideal_channel()
        rng = np.random.default_rng(78)
        with pytest.raises(ValueError, match="two-qubit state"):
            teleport_two_qubit(channel, random_pure(rng, pair_register(1, role="input")[:1]))
        swapped = pair_register(1, role="input")[::-1]
        for labels in (swapped, swapped + REFERENCE):
            with pytest.raises(ValueError, match="one Alice qubit then one Bob qubit"):
                teleport_two_qubit(channel, random_pure(rng, labels))


# ---------------------------------------------------------------------------
# Block-sparse log-negativity against one eigvalsh of the whole matrix
# ---------------------------------------------------------------------------


def rho(m):
    return to_dense(protocols.prepare_rho_m(m)[0])


def cuts_of(state):
    """Alice:Bob, the crossing cut {0, 3} and every 1:rest cut."""
    n = state.n_qubits
    return [Cut.alice_bob(state), Cut.of(n, {0, 3})] + [Cut.one_vs_rest(state, q) for q in range(n)]


def random_qubit_unitary(rng):
    return np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]


def block_stacks(state, cut):
    return dense._partial_transpose_blocks(state.weights, dense._measured(state, cut)[0], state.n_qubits)


#: The partial transpose of one pair's Bell projectors, in the Bell basis
#: (LABELS order): column j is the image of LABELS[j]'s projector.
BELL_PARTIAL_TRANSPOSE = 0.5 * np.array([[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1]])


def bell_diagonal_log_negativity(e, cut):
    """Log-negativity of a Bell-diagonal ensemble (pair k on qubits 2k and
    2k + 1), exact at any size: the partial transpose stays Bell-diagonal,
    mapped by BELL_PARTIAL_TRANSPOSE on each pair the cut splits and left
    alone on the others (a Bell projector is real and symmetric), so the
    trace norm is the sum of |(M^(x)S (x) I) p|."""
    p = np.zeros((4,) * e.n_pairs)
    for string, weight in e.items():
        p[tuple(LABELS.index(label) for label in string)] = weight
    for k in range(e.n_pairs):
        if (2 * k in cut.left) != (2 * k + 1 in cut.left):
            p = np.moveaxis(np.tensordot(BELL_PARTIAL_TRANSPOSE, p, axes=(1, k)), 0, k)
    return max(0.0, float(np.log2(np.abs(p).sum())))


@st.composite
def bell_diagonal_cuts(draw, pairs=(1, 5), rotate=True):
    """A random Bell-diagonal ensemble on ``pairs`` (least, most) pairs, its
    dense state, with ``rotate`` sometimes with one random single-qubit
    unitary applied, and a random cut."""
    n_pairs = draw(st.integers(*pairs))
    strings = draw(st.lists(st.tuples(*[st.sampled_from(LABELS)] * n_pairs), min_size=1, max_size=6, unique=True))
    weights = [draw(st.floats(0.1, 1.0)) for _ in strings]
    e = BellEnsemble({s: w / sum(weights) for s, w in zip(strings, weights)})
    state = to_dense(e)
    n = state.n_qubits
    if rotate and draw(st.booleans()):
        u = random_qubit_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        state = apply_unitary(state, u, (draw(st.integers(0, n - 1)),))
    return e, state, Cut.of(n, draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))


class TestBlockLogNegativity:
    @pytest.fixture
    def full_route(self, monkeypatch):
        """One entry per log_negativity call that forms the whole matrix, as
        its block route declined."""
        calls, original = [], dense._partial_transpose_blocks

        def counted(*args):
            blocks = original(*args)
            calls.extend([1] if blocks is None else [])
            return blocks

        monkeypatch.setattr(dense, "_partial_transpose_blocks", counted)
        return calls

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_rho_m_on_every_cut_class(self, full_route, m):
        e = protocols.prepare_rho_m(m)[0]
        state = to_dense(e)
        cuts = cuts_of(state)
        for cut in cuts:
            value = log_negativity(state, cut)
            assert value == pytest.approx(bell_diagonal_log_negativity(e, cut), abs=1e-12)
            if state.n_qubits <= dense.MAX_DENSE_QUBITS:  # the whole-matrix reference too
                assert value == pytest.approx(ref_log_negativity(state, cut), abs=1e-12)
        # rho_m holds m - 1 ebits across Alice:Bob at odd m, m - 2 at even m.
        assert abs(log_negativity(state, Cut.alice_bob(state)) - (m - 2 + m % 2)) <= dense.ATOL_EIG
        # rho_3..rho_7 take the block route; the 4-qubit rows of rho_2 count as dense.
        assert len(full_route) == (len(cuts) + 1 if m == 2 else 0)

    def test_rho5_alice_bob_is_exactly_four(self):
        # The benchmark gate compares this value exactly.
        state = rho(5)
        assert log_negativity(state, Cut.alice_bob(state)) == 4.0

    def test_s_rotated_rho3(self, full_route):
        state = apply_unitary(rho(3), dense.PHASE_S, (0,))
        for cut in cuts_of(state):
            assert log_negativity(state, cut) == pytest.approx(ref_log_negativity(state, cut), abs=1e-12)
        assert full_route == []

    def test_rounding_noise_only_merges_blocks(self, full_route):
        state = rho(4)
        amps = state.amplitudes.copy()
        rng = np.random.default_rng(4)
        for row in amps:  # 1e-17 on three zero amplitudes of every row
            row[rng.choice(np.flatnonzero(row == 0), 3, replace=False)] += 1e-17
        noisy = DenseState.from_arrays(amps, state.weights, state.qubit_labels)
        for cut in cuts_of(state):
            value = log_negativity(noisy, cut)
            assert value == pytest.approx(ref_log_negativity(noisy, cut), abs=1e-12)
            assert value == pytest.approx(log_negativity(state, cut), abs=1e-12)
        assert full_route == []
        cut = Cut.alice_bob(state)
        assert max(b.shape[-1] for b in block_stacks(noisy, cut)) > max(b.shape[-1] for b in block_stacks(state, cut))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_random_mixtures_take_the_full_route(self, full_route, n):
        state = random_mixture(np.random.default_rng(300 + n), n, (0.6, 0.4))
        cut = Cut.alice_bob(state)
        assert log_negativity(state, cut) == pytest.approx(ref_log_negativity(state, cut), abs=1e-12)
        assert full_route == [1]

    @pytest.mark.parametrize("m, gate", [(3, dense.PHASE_S), (4, None), (5, None)])
    def test_block_entries_are_the_partial_transpose_entries(self, m, gate):
        """Bit for bit: each entry sums the same products in the same order."""
        gate = random_qubit_unitary(np.random.default_rng(m)) if gate is None else gate
        state = apply_unitary(rho(m), gate, (1,))
        for cut in (Cut.alice_bob(state), Cut.of(state.n_qubits, {0, 3})):
            lower = np.tril(partial_transpose(state, cut))
            got = np.concatenate([b[b != 0] for b in block_stacks(state, cut)])
            assert np.array_equal(np.sort_complex(got), np.sort_complex(lower[lower != 0]))

    def test_cut_and_size_guards(self):
        state = rho(3)
        with pytest.raises(ValueError, match="does not partition"):
            log_negativity(state, Cut.of(4, {0}))
        for n in (11, 14):  # dense rows, whose partial transpose takes the whole matrix
            big = random_mixture(np.random.default_rng(n), n, (1.0,))
            for route in (log_negativity, partial_transpose):
                tracemalloc.start()
                try:
                    with pytest.raises(ValueError, match="register too large to materialize a partial transpose"):
                        route(big, Cut.alice_bob(big))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 8 * 16 * 2**n  # a few copies of the row (16 bytes an entry), never the matrix

    @settings(max_examples=30, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(bell_diagonal_cuts())
    def test_random_bell_diagonal_ensembles(self, case):
        _, state, cut = case
        assert log_negativity(state, cut) == pytest.approx(ref_log_negativity(state, cut), abs=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(bell_diagonal_cuts(pairs=(5, 7), rotate=False))
    def test_bell_diagonal_ensembles_up_to_fourteen_qubits(self, case):
        e, state, cut = case
        assert log_negativity(state, cut) == pytest.approx(bell_diagonal_log_negativity(e, cut), abs=1e-12)


class TestBatchedState:
    def test_branches_view_is_read_only_and_cached(self):
        state = random_mixture(np.random.default_rng(1), 4, (0.5, 0.5))
        assert state.branches is state.branches
        assert [b.weight for b in state.branches] == state.weights.tolist()
        with pytest.raises(ValueError):
            state.branches[0].amplitudes[0] = 0.0
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 0.0

    def test_batch_checks_norms_weights_and_nan(self):
        labels = pair_register(1)
        rows = np.array([BELL_LITERALS[B1], BELL_LITERALS[B2]], dtype=complex)
        with pytest.raises(ValueError, match="norm"):
            DenseState.from_arrays(rows * 1.01, [0.5, 0.5], labels)
        with pytest.raises(ValueError, match="norm"):
            DenseState.from_arrays(np.where(rows == 0, np.nan, rows), [0.5, 0.5], labels)
        with pytest.raises(ValueError, match="positive"):
            DenseState.from_arrays(rows, [1.5, -0.5], labels)
        with pytest.raises(ValueError, match="sum"):
            DenseState.from_arrays(rows, [0.5, 0.4], labels)
        with pytest.raises(ValueError, match="positive"):
            DenseState.from_arrays(rows, [0.5, np.nan], labels)
        with pytest.raises(ValueError, match="weights"):
            DenseState.from_arrays(rows, [1.0], labels)
        with pytest.raises(ValueError, match="norm"):
            PureBranch(np.array([np.nan, 0.0]))
        for amps in (BELL_LITERALS[B1], rows[None]):  # a vector, not rows; a stack of row arrays
            with pytest.raises(ValueError, match="rows of length"):
                DenseState.from_arrays(amps, [1.0], labels)
        with pytest.raises(ValueError, match="rows of length"):
            DenseState.pure(rows / np.sqrt(2), labels)

    def test_fidelity_rejects_unnormalized_target(self):
        state = pure_state(BELL_LITERALS[B1], 1)
        with pytest.raises(ValueError, match="norm"):
            fidelity(state, 2 * BELL_LITERALS[B1])
        with pytest.raises(ValueError, match="norm"):
            fidelity(state, np.full(4, np.nan))
        assert fidelity(state, BELL_LITERALS[B1] * (1 + 5e-10)) == pytest.approx(1.0, abs=1e-8)


def random_bell_ensemble(rng, n_pairs):
    strings = {tuple(LABELS[i] for i in rng.integers(0, 4, size=n_pairs)) for _ in range(int(rng.integers(1, 6)))}
    probs = rng.random(len(strings)) + 0.1
    return BellEnsemble(dict(zip(sorted(strings), probs / probs.sum())))


def explicit_flips(state, x_targets=(), cnots=()):
    """X on each of ``x_targets``, then each C-NOT, gate by gate through the explicit matrices."""
    for q in x_targets:
        state = apply_unitary(state, pauli(1), (q,))
    for pair in cnots:
        state = apply_unitary(state, CNOT, pair)
    return state


def flipped_half(state, x_targets):
    """The rows of ``state`` with X on each of ``x_targets``: the second half of :func:`dense.mix_flipped`."""
    return dense.mix_flipped(state, x_targets).amplitudes[len(state.weights) :]


class TestAxisFlips:
    """X and C-NOT as index-row gathers against the explicit-matrix route."""

    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_ordered_pair_matches_the_matrices(self, n):
        rng = np.random.default_rng(900 + n)
        state = random_mixture(rng, n, (0.5, 0.3, 0.2))
        for s, t in itertools.permutations(range(n), 2):
            got = dense.apply_cnot_layers(state, [[(s, t)]])
            assert np.abs(got.amplitudes - explicit_flips(state, cnots=[(s, t)]).amplitudes).max() <= 1e-15
            assert got.weights.tolist() == state.weights.tolist() and got.qubit_labels == state.qubit_labels
        for q in range(n):
            got = flipped_half(state, [q])
            assert np.abs(got - explicit_flips(state, x_targets=[q]).amplitudes).max() <= 1e-15

    @pytest.mark.parametrize("n", range(4, 11))
    def test_products_of_distinct_gates(self, n):
        rng = np.random.default_rng(950 + n)
        state = random_mixture(rng, n, (0.6, 0.4))
        for _ in range(10):
            q = [int(x) for x in rng.permutation(n)]
            cnots = [(q[0], q[1]), (q[2], q[3])] + ([(q[4], q[1])] if n > 4 else [])
            got = dense.apply_cnot_layers(state, [cnots[:2], cnots[2:]])
            assert np.abs(got.amplitudes - explicit_flips(state, cnots=cnots).amplitudes).max() <= 1e-15
            got = flipped_half(state, q[:2])
            assert np.abs(got - explicit_flips(state, x_targets=q[:2]).amplitudes).max() <= 1e-15
        bob = list(range(1, n, 2))
        flipped = explicit_flips(state, x_targets=bob)
        got = dense.mix_flipped(state, bob)
        assert np.abs(got.amplitudes - np.concatenate([state.amplitudes, flipped.amplitudes])).max() <= 1e-15
        assert np.abs(got.weights - np.concatenate([state.weights, state.weights]) / 2).max() <= 1e-16

    @pytest.mark.parametrize("n_pairs", [2, 3, 5, 7])
    def test_bit_identical_on_bell_ensemble_rows(self, n_pairs):
        rng = np.random.default_rng(970 + n_pairs)
        n = 2 * n_pairs
        for _ in range(4):
            state = to_dense(random_bell_ensemble(rng, n_pairs))
            s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
            got = dense.apply_cnot_layers(state, [[(s, t)]])
            assert np.array_equal(got.amplitudes, apply_unitary(state, CNOT, (s, t)).amplitudes)
            q = int(rng.integers(n))
            assert np.array_equal(flipped_half(state, [q]), apply_unitary(state, pauli(1), (q,)).amplitudes)

    def test_checks_and_messages_of_apply_unitary(self):
        state = random_mixture(np.random.default_rng(5), 4, (1.0,))
        for cnots in ([(1, 2), (0, 1)], [(0, 2), (2, 3)], [(3, 3)]):
            with pytest.raises(ValueError, match="target qubits must be distinct"):
                dense.apply_cnot_layers(state, [cnots])
        with pytest.raises(ValueError, match="target qubits must be distinct"):
            dense.mix_flipped(state, [2, 2])
        for cnots in ([(0, -1)], [(5, 0)]):
            with pytest.raises(ValueError, match="target qubit out of range"):
                dense.apply_cnot_layers(state, [cnots])
        with pytest.raises(ValueError, match="target qubit out of range"):
            dense.mix_flipped(state, [4])


class TestStateConstruction:
    def test_unit_rows_are_stored_unchanged(self):
        labels = pair_register(1)
        rng = np.random.default_rng(12)
        while True:  # a normalized row whose computed norm is not exactly 1
            off = rng.normal(size=4) + 1j * rng.normal(size=4)
            off /= np.linalg.norm(off)
            if dense._squared_row_norms(off) != 1.0:
                break
        rows = np.array([[0, 0, -1j, 0], [0.5, 0.5j, -0.5, 0.5], off, [1 + 1e-12, 0, 0, 0]], dtype=complex)
        norms = np.sqrt(dense._squared_row_norms(rows))
        assert norms.tolist()[:2] == [1.0, 1.0] and 1.0 not in norms.tolist()[2:]
        state = DenseState.from_arrays(rows, [0.25] * 4, labels)
        assert np.array_equal(state.amplitudes[:2], rows[:2])
        assert np.array_equal(state.amplitudes[2:], rows[2:] / norms[2:, None])
        assert state.amplitudes[3].tolist() == [1, 0, 0, 0]

    def test_weights_rescaled_only_off_one(self):
        rows = np.array([BELL_LITERALS[B1], BELL_LITERALS[B3]], dtype=complex)
        exact = DenseState.from_arrays(rows, [0.1, 0.9], pair_register(1))
        assert exact.weights.tolist() == [0.1, 0.9]
        off = DenseState.from_arrays(rows, [0.1, 0.9 + 1e-12], pair_register(1))
        assert off.weights.tolist() == (np.array([0.1, 0.9 + 1e-12]) / (0.1 + (0.9 + 1e-12))).tolist()

    def test_from_arrays_does_not_alias_its_inputs(self):
        # Unit rows and weights summing to exactly 1: nothing is divided.
        rows = np.array([[0.5, 0.5, 0.5, -0.5], [0, 1j, 0, 0]])
        weights = np.array([0.5, 0.5])
        state = DenseState.from_arrays(rows, weights, pair_register(1))
        rows[:] = 7.0
        weights[:] = 3.0
        assert np.array_equal(state.amplitudes, [[0.5, 0.5, 0.5, -0.5], [0, 1j, 0, 0]])
        assert state.weights.tolist() == [0.5, 0.5]
        assert not state.amplitudes.flags.writeable and not state.weights.flags.writeable

    def test_kernels_store_read_only_arrays(self):
        state = to_dense(random_bell_ensemble(np.random.default_rng(3), 3))
        for out in (dense.apply_cnot_layers(state, [[(0, 2)]]), dense.mix_flipped(state, [1, 3]), apply_unitary(state, HADAMARD, (2,))):
            assert not out.amplitudes.flags.writeable and not out.weights.flags.writeable
            assert not np.shares_memory(out.amplitudes, state.amplitudes)


class TestMemory:
    def test_four_state_cloning_peak_stays_below_parent(self):
        import tracemalloc

        protocols.clone_four_dense(B3, 5)  # fill the symbolic caches first
        tracemalloc.start()
        try:
            protocols.clone_four_dense(B3, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 22.34 MiB is the peak of the per-branch teleport this replaced (2-vCPU
        # Xeon, Python 3.11, numpy 2.4); a teleport holding all 16 Bell outcomes
        # of every branch unpruned would exceed it.
        assert peak <= 22.4 * 2**20

    def test_rho5_log_negativity_peak(self):
        import tracemalloc

        state = to_dense(protocols.prepare_rho_m(5)[0])
        cut = Cut.alice_bob(state)
        log_negativity(state, cut)
        tracemalloc.start()
        try:
            log_negativity(state, cut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 32.06 MiB is the peak of the one 1024 x 1024 partial transpose and
        # its eigvalsh that this replaced (2-vCPU Xeon, Python 3.11, numpy 2.4).
        assert peak <= 4 * 2**20


def _random_rows(rng, k: int, n_qubits: int) -> np.ndarray:
    rows = rng.normal(size=(k, 2**n_qubits)) + 1j * rng.normal(size=(k, 2**n_qubits))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def count_gate_shapes(monkeypatch) -> list[list[tuple]]:
    """Record, per :func:`dense.apply_gates` pass, the shape of each matrix gate
    (``None`` for a C-NOT layer); the pass runs as before."""
    calls, apply_gates = [], dense.apply_gates

    def counted(state, gates):
        gates = list(gates)
        calls.append([None if u is None else np.shape(u) for u, _ in gates])
        return apply_gates(state, gates)

    monkeypatch.setattr(dense, "apply_gates", counted)
    return calls


class TestPairGates:
    """A step on both qubits of one pair is one 4x4 gate."""

    REDUCTIONS = [protocols.pair_reduction_table(a, b) for a, b in itertools.combinations(LABELS, 2)]

    @pytest.mark.parametrize("reduction", REDUCTIONS + [r.inverse() for r in REDUCTIONS], ids=lambda r: r.alice_word + "," + r.bob_word)
    def test_local_clifford_is_one_pair_gate(self, reduction, monkeypatch):
        from bellclone.calculus import apply_steps_dense

        # The exact product: parts in {0, +-1/2, +-1}, within an ulp of np.kron's
        # entries, which round (1/sqrt(2))^2 off 1/2.
        parts = np.concatenate([reduction.pair_matrix.real.ravel(), reduction.pair_matrix.imag.ravel()])
        assert set(parts.tolist()) <= {0.0, 0.5, -0.5, 1.0, -1.0}
        assert abs(reduction.pair_matrix - np.kron(reduction.alice_matrix, reduction.bob_matrix)).max() <= 2**-53
        assert reduction.pair_matrix is reduction.pair_matrix  # built once per reduction
        rng = np.random.default_rng(41)
        state = DenseState.from_arrays(_random_rows(rng, 3, 10), [0.5, 0.3, 0.2], pair_register(5))
        wants = [apply_unitary(apply_unitary(state, reduction.alice_matrix, (2 * k,)), reduction.bob_matrix, (2 * k + 1,)) for k in range(5)]
        calls = count_gate_shapes(monkeypatch)
        for k, want in enumerate(wants):
            got = apply_steps_dense(state, [("local_clifford", k, reduction)])
            assert abs(got.amplitudes - want.amplitudes).max() <= 1e-15
            assert np.array_equal(got.weights, state.weights)
        assert calls == [[(4, 4)]] * 5  # one pass per step, of one 4x4 gate

    def test_bilateral_hadamard_is_one_pair_gate(self, monkeypatch):
        from bellclone.calculus import _BILATERAL_HADAMARD, apply_steps_dense

        assert np.array_equal(_BILATERAL_HADAMARD * 2, np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]))  # exact halves
        rng = np.random.default_rng(43)
        state = DenseState.from_arrays(_random_rows(rng, 3, 10), [0.5, 0.3, 0.2], pair_register(5))
        wants = [apply_unitary(apply_unitary(state, HADAMARD, (2 * k,)), HADAMARD, (2 * k + 1,)) for k in range(5)]
        calls = count_gate_shapes(monkeypatch)
        for k, want in enumerate(wants):
            got = apply_steps_dense(state, [("bilateral_hadamard", k)])
            assert abs(got.amplitudes - want.amplitudes).max() <= 1e-15
        assert calls == [[(4, 4)]] * 5

    def test_no_targets_is_a_global_phase(self):
        rng = np.random.default_rng(9)
        state = DenseState.from_arrays(_random_rows(rng, 2, 4), [0.5, 0.5], pair_register(2))
        out = apply_unitary(state, np.array([[1j]]), [])
        assert np.array_equal(out.amplitudes, 1j * state.amplitudes)



# ---------------------------------------------------------------------------
# Teleportation corrections as one Pauli frame, against one 2x2 product per receiver
# ---------------------------------------------------------------------------


def ref_corrected_rows(state, pairs, receivers):
    """Bell-measure ``pairs`` at once and drop them, then correct each
    receiver of each pair in turn by the stacked 2x2 product of every
    row's outcome matrix for that pair, with no rescale.  Returns the
    corrected rows and the uncorrected measurement's post-state."""
    post, outcomes = bell_measurement(state, *pairs)
    amps, k, n = post.amplitudes, len(post.weights), post.n_qubits
    for i, qubits in enumerate(receivers):
        digit = (outcomes >> 2 * (len(pairs) - 1 - i)) & 3  # pair i's outcome, first pair most significant
        for q in qubits:
            psi = np.moveaxis(amps.reshape((k,) + (2,) * n), q + 1, 1).reshape(k, 2, -1)
            psi = REF_CORRECTIONS[digit] @ psi
            amps = np.moveaxis(psi.reshape((k,) + (2,) * n), 1, q + 1).reshape(k, -1)
    return amps, post


def assert_identical_states(got, want):
    assert np.array_equal(got.amplitudes, want.amplitudes)
    assert np.array_equal(got.weights, want.weights)
    assert got.qubit_labels == want.qubit_labels


class TestPauliFrameCorrections:
    """The frame's rows are bit-identical to per-receiver products: every
    factor is +-1 or +-i, so a row phase left out (which no density
    matrix shows) fails here."""

    @pytest.mark.parametrize(
        "pairs, receivers",
        [
            (((0, 1),), [[0]]),  # first qubit of what is left
            (((2, 5),), [[3]]),  # middle
            (((0, 7),), [[5]]),  # last
            (((1, 2),), [[0, 5]]),  # i^2 on the y rows
            (((3, 4),), [[0, 2, 5]]),  # i^3
            (((0, 1),), [[0, 1, 2, 3]]),  # i^4 = 1
            (((6, 7),), [[0, 1, 2, 4, 5]]),  # i^5 = i
            (((0, 2), (1, 3)), [[0, 2], [1, 3]]),  # the teleport's joint measurement
            (((0, 2), (1, 3)), [[1, 2, 3], []]),  # i^3 for the first pair only
            (((5, 1), (2, 7)), [[3], [0, 2, 1]]),  # pairs apart, listed out of order
        ],
    )
    def test_rows_equal_per_receiver_products(self, pairs, receivers):
        rng = np.random.default_rng(1300 + sum(map(len, receivers)) + 10 * pairs[0][0])
        for state in (random_mixture(rng, 8, (0.4, 0.35, 0.25)), mixed_bell_and_random(rng, 8)):
            got, outcomes = bell_measurement(state, *pairs, receivers=receivers)
            assert sorted(set(outcomes.tolist())) == list(range(4 ** len(pairs)))  # rows of every outcome, mixed
            amps, plain = ref_corrected_rows(state, pairs, receivers)
            assert np.array_equal(outcomes, bell_measurement(state, *pairs)[1])
            assert np.array_equal(got.amplitudes, amps)
            assert np.array_equal(got.weights, plain.weights) and got.qubit_labels == plain.qubit_labels

    @pytest.mark.parametrize("name, channel", list(teleport_channels()))
    def test_teleportation_with_carried_reference(self, name, channel):
        rng = np.random.default_rng(1310 + channel.n_qubits)
        inputs = [random_pure(rng, pair_register(1, role="input"))]
        if channel.n_qubits + 4 <= dense.MAX_REGISTER_QUBITS:
            inputs.append(random_pure(rng, pair_register(1, role="input") + REFERENCE))
        n_receive = channel.n_qubits // 2 - 1
        receivers = [list(range(0, 2 * n_receive, 2)), list(range(1, 2 * n_receive, 2))]  # Alice's, Bob's
        for inp in inputs:
            amps, plain = ref_corrected_rows(tensor(inp, channel, at=2), ((0, 2), (1, 3)), receivers)
            labels = channel.qubit_labels[2:] + inp.qubit_labels[2:]
            want = DenseState._from_kernel(np.arange(amps.shape[1]), amps, plain.weights, labels)
            assert_identical_states(teleport_two_qubit(channel, inp), want)

    def test_bad_pairs_and_receivers_are_rejected(self):
        state = random_mixture(np.random.default_rng(1330), 6, (1.0,))
        for receivers in ([[0]], [[0], [2]], [[-1], [0]], [[1, 1], [0]], [[0], [0]]):
            with pytest.raises(ValueError, match="receivers"):
                bell_measurement(state, (0, 2), (1, 3), receivers=receivers)
        for pairs in ((), ((0, 1, 2),), ((0, 2), (2, 3)), ((4, 6),)):
            with pytest.raises(ValueError, match="two distinct register qubits"):
                bell_measurement(state, *pairs)


# ---------------------------------------------------------------------------
# Trace distance on the rows' joint support, against the whole register
# ---------------------------------------------------------------------------


def full_register_trace_distance(a, b):
    """The joint-span trace distance with every register index kept."""

    def real_if_exact(m):
        return m.real if np.iscomplexobj(m) and not m.imag.any() else m

    vecs = real_if_exact(np.concatenate([a.amplitudes, b.amplitudes]).T)
    signed = np.concatenate([a.weights, -b.weights])
    u, s, _ = np.linalg.svd(vecs, full_matrices=False)
    coords = u[:, s > 1e-13].conj().T @ vecs
    diff = real_if_exact((coords * signed) @ coords.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def bell_products(strings, weights):
    return to_dense(BellEnsemble({tuple(s): w for s, w in zip(strings, weights)}))


def with_residues(state, size=1e-18):
    """Every amplitude moved by ``size``, as rounding leaves it after H gates."""
    return DenseState.from_arrays(state.amplitudes + size, state.weights, state.qubit_labels)


class TestSupportTraceDistance:
    def pairs(self):
        rng = np.random.default_rng(1320)
        rho_5 = to_dense(protocols.prepare_rho_m(5)[0])
        yield "rho_5 dense", rho_5, protocols.prepare_rho_m_dense(5)
        yield "rho_7 vs uniform", to_dense(protocols.prepare_rho_m(7)[0]), to_dense(BellEnsemble.uniform_strings(7))
        mixed = bell_products([(B1, B3, B4, B2, B1), (B2, B2, B3, B4, B1), (B4, B3, B3, B1, B2)], (0.5, 0.3, 0.2))
        yield "sparse mixtures", rho_5, mixed
        yield "dense rows", random_mixture(rng, 10, (0.5, 0.3, 0.2)), random_mixture(rng, 10, (0.6, 0.4))
        yield "sparse vs dense", mixed, random_mixture(rng, 10, (0.7, 0.3))
        yield "residues", with_residues(rho_5), rho_5
        yield "both with residues", with_residues(mixed), with_residues(rho_5, 3e-18)

    def test_equals_the_full_register(self):
        for name, a, b in self.pairs():
            for x, y in ((a, b), (b, a), (a, a)):
                assert abs(trace_distance(x, y) - full_register_trace_distance(x, y)) <= 1e-15, name

    @pytest.mark.parametrize("n_pairs", [1, 4, 7])
    def test_disjoint_supports(self, n_pairs):
        # B1/B2 live on |00>, |11> of each pair and B3/B4 on |01>, |10>.
        a = bell_products([(B1,) * n_pairs], [1.0])
        b = bell_products([(B4,) * n_pairs, (B3,) * n_pairs], [0.5, 0.5])
        assert abs(trace_distance(a, b) - 1.0) <= 1e-15
        assert abs(full_register_trace_distance(a, b) - 1.0) <= 1e-15

    def test_svd_has_one_row_per_support_index(self, monkeypatch):
        shapes = []
        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: shapes.append(m.shape) or original(m, **kw))
        rho_7 = to_dense(protocols.prepare_rho_m(7)[0])
        trace_distance(rho_7, rho_7)
        trace_distance(with_residues(rho_7), rho_7)
        assert shapes == [(2**8, 8), (2**14, 8)]


# ---------------------------------------------------------------------------
# Norm-preserving kernels store their rows unrescaled; composed C-NOT runs
# ---------------------------------------------------------------------------


def random_cnot_layers(rng, n, count):
    """``count`` layers of one to three C-NOTs on distinct qubits each."""
    layers = []
    for _ in range(count):
        q = [int(x) for x in rng.permutation(n)]
        layers.append([(q[2 * i], q[2 * i + 1]) for i in range(int(rng.integers(1, min(3, n // 2) + 1)))])
    return layers


def max_norm_error(state):
    return abs(np.sqrt(dense._squared_row_norms(state.amplitudes)) - 1.0).max()


class TestUnscaledKernelRows:
    @pytest.mark.parametrize("n", range(4, 15))
    def test_composed_cnot_run_equals_the_steps(self, n):
        rng = np.random.default_rng(1400 + n)
        k = (n - 4) % 8 + 1  # 1..8 rows over the range
        state = random_mixture(rng, n, rng.random(k) + 0.1)
        for count in (1, 2, 8):
            layers = random_cnot_layers(rng, n, count)
            want = state
            for cnots in layers:  # gate by gate through the explicit C-NOT matrix
                want = explicit_flips(want, cnots=cnots)
            got = dense.apply_cnot_layers(state, layers)
            assert np.array_equal(got.amplitudes, want.amplitudes)
            assert np.array_equal(got.weights, want.weights) and got.qubit_labels == want.qubit_labels
            assert not got.amplitudes.flags.writeable

    def test_cnot_run_errors_name_the_bad_qubits(self):
        state = random_mixture(np.random.default_rng(1415), 4, (1.0,))
        with pytest.raises(ValueError, match="target qubits must be distinct"):
            dense.apply_cnot_layers(state, [[(0, 1)], [(2, 2)]])
        with pytest.raises(ValueError, match="target qubit out of range"):
            dense.apply_cnot_layers(state, [[(0, 4)]])

    @pytest.mark.parametrize(
        "program",
        [
            protocols._rho_m_program(6),
            protocols._rho_m_program(7),  # random_pauli_x, then a run of six
            protocols._clone_pair_program(B2, (B2, B4), 6),
            protocols._distill_program(BellEnsemble({(B1,) * 5: 0.5, (B4,) * 5: 0.5})),
            # Pair 1 carries pair 0's bit on to pair 2 only if the C-NOTs run in order.
            protocols.Program(BellEnsemble.point((B3, B1, B2)), (("bxor", 0, 1), ("bxor", 1, 2))),
        ],
    )
    def test_run_dense_equals_step_by_step(self, program):
        from bellclone.calculus import apply_steps_dense

        want = to_dense(program.initial)
        for op in program.steps:
            want = apply_steps_dense(want, [op])
        got = protocols.run_dense(program)
        if isinstance(want, list):  # a parity measurement's (bit, probability, post-state) branches
            assert [(b, p) for b, p, _ in got] == [(b, p) for b, p, _ in want]
            got, want = [s for _, _, s in got], [s for _, _, s in want]
        else:
            got, want = [got], [want]
        for g, w in zip(got, want):
            assert np.array_equal(g.amplitudes, w.amplitudes) and np.array_equal(g.weights, w.weights)

    def test_long_chain_keeps_rows_unit(self):
        rng = np.random.default_rng(1420)
        n = 6
        state = random_mixture(rng, n, (0.5, 0.3, 0.2))
        for step in range(240):
            kind = step % 4
            if kind == 0:
                u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
                state = apply_unitary(state, u, [int(q) for q in rng.choice(n, 2, replace=False)])
            elif kind == 1:
                state = apply_unitary(state, dense.PHASE_S @ HADAMARD, (int(rng.integers(n)),))
            elif kind == 2:
                state = dense.apply_cnot_layers(state, [[tuple(int(q) for q in rng.choice(n, 2, replace=False))]])
            else:
                state = dense.apply_cnot_layers(state, random_cnot_layers(rng, n, 3))
            assert max_norm_error(state) <= 1e-12, step

    def test_a_drifting_kernel_still_fails_the_norm_check(self, monkeypatch):
        """Each kernel output is still checked: rows scaled by 1 + 1e-6
        on their way into a kernel's state raise, since nothing rescales them."""
        state = random_mixture(np.random.default_rng(1430), 6, (0.6, 0.4))
        from_kernel = DenseState._from_kernel.__func__

        def drifting(cls, support, values, *rest, **kw):
            return from_kernel(cls, support, values * (1 + 1e-6), *rest, **kw)

        monkeypatch.setattr(DenseState, "_from_kernel", classmethod(drifting))
        for kernel in (
            lambda: dense.apply_cnot_layers(state, [[(0, 1)]]),
            lambda: dense.mix_flipped(state, [1, 3]),
            lambda: dense.apply_cnot_layers(state, [[(0, 1)], [(1, 2)]]),
            lambda: apply_unitary(state, HADAMARD, (2,)),
            lambda: bell_measurement(state, (0, 2), (1, 3), receivers=[[0], [1]]),
        ):
            with pytest.raises(ValueError, match="norm"):
                kernel()
        with pytest.raises(ValueError, match="not unitary"):
            apply_unitary(state, np.diag([1.0, 1.0 + 1e-6]), (0,))


# ---------------------------------------------------------------------------
# Support kernels against explicit full-register matrices
# ---------------------------------------------------------------------------

SUPPORT_SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def sparse_states(draw, min_qubits=2, max_qubits=8):
    """A state on a few random support indices: random complex rows; rows of
    equal-magnitude entries (+-1, +-i) that are |+> or |-> on some qubits, whose
    columns a Hadamard on one of those qubits cancels exactly; or Bell
    products.  Returns the state and a generator for further draws."""
    n = draw(st.integers(min_qubits, max_qubits))
    kind = draw(st.sampled_from(["random", "cancelling", "bell"] if n % 2 == 0 else ["random", "cancelling"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "bell":
        return to_dense(random_bell_ensemble(rng, n // 2)), rng
    k = int(rng.integers(1, 4))
    if kind == "cancelling":  # |+> or |-> on each flip qubit: a Hadamard on one cancels half the columns
        flips = [1 << (n - 1 - int(q)) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
        corners = list(itertools.product((0, 1), repeat=len(flips)))
        minus = rng.integers(0, 2, size=len(flips))
        base = np.unique(rng.integers(0, 2**n, size=int(rng.integers(1, 5))) & ~sum(flips))
        support = (base[:, None] | np.array([np.dot(flips, c) for c in corners])).ravel()
        signs = np.array([(-1) ** int(np.dot(minus, c)) for c in corners])
        values = (rng.choice(np.array([1, -1, 1j, -1j]), size=(k, len(base), 1)) * signs).reshape(k, -1)
    else:
        support = rng.choice(2**n, size=int(rng.integers(1, min(2**n, 24) + 1)), replace=False)
        values = rng.normal(size=(k, len(support))) + 1j * rng.normal(size=(k, len(support)))
    amps = np.zeros((k, 2**n), dtype=complex)
    amps[:, support] = values
    weights = rng.random(k) + 0.1
    labels = tuple(QubitLabel(("alice", "bob")[q % 2], q // 2) for q in range(n))
    return DenseState.from_arrays(amps / np.linalg.norm(amps, axis=1, keepdims=True), weights / weights.sum(), labels), rng


def random_gate(rng, n, kind):
    """A unitary of ``kind`` and its targets: a phased permutation ("monomial"),
    an exact Hadamard product or a random unitary ("general"), or a global phase
    on no qubit ("none")."""
    m = 0 if kind == "none" else int(rng.integers(1, min(3, n) + 1))
    targets = [int(q) for q in rng.permutation(n)[:m]]
    phases = rng.choice(np.array([1, -1, 1j, -1j, np.exp(0.3j)]), size=2**m)
    if kind == "general":
        if rng.random() < 0.75:
            return reduce(np.kron, [HADAMARD] * m), targets
        return np.linalg.qr(rng.normal(size=(2**m, 2**m)) + 1j * rng.normal(size=(2**m, 2**m)))[0], targets
    return np.eye(2**m, dtype=complex)[rng.permutation(2**m)] * phases, targets


def assert_support_invariants(state):
    """No support index twice, and no column that every row has zero."""
    assert len(set(state.support.tolist())) == len(state.support)
    assert state.values.any(axis=0).all()
    assert state.values.shape == (len(state.weights), len(state.support))


def ref_rows(state, u, targets):
    return np.array([ref_apply_matrix(row, state.n_qubits, u, targets) for row in state.amplitudes])


class TestSupportKernelsAgainstMatrices:
    @settings(SUPPORT_SETTINGS, max_examples=150)
    @given(sparse_states(), st.sampled_from(["monomial", "general", "none"]))
    def test_apply_unitary(self, drawn, kind):
        state, rng = drawn
        u, targets = random_gate(rng, state.n_qubits, kind)
        got = apply_unitary(state, u, targets)
        assert np.abs(got.amplitudes - ref_rows(state, u, targets)).max() <= 1e-13
        assert np.array_equal(got.weights, state.weights) and got.qubit_labels == state.qubit_labels
        assert_support_invariants(got)

    def test_exact_cancellation_drops_the_column(self):
        plus = DenseState.pure(np.array([1, 1, 0, 0]) / SQ2, pair_register(1))
        got = apply_unitary(plus, HADAMARD, (1,))
        assert got.support.tolist() == [0] and got.amplitudes[0, 1] == 0

    @SUPPORT_SETTINGS
    @given(sparse_states())
    def test_apply_cnot_layers(self, drawn):
        state, rng = drawn
        layers = random_cnot_layers(rng, state.n_qubits, int(rng.integers(1, 4)))
        want = state
        for cnots in layers:
            for pair in cnots:
                want = ref_apply_unitary(want, CNOT, pair)
        got = dense.apply_cnot_layers(state, layers)
        assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-15
        assert_support_invariants(got)

    @SUPPORT_SETTINGS
    @given(sparse_states())
    def test_mix_flipped(self, drawn):
        state, rng = drawn
        x_targets = [int(q) for q in rng.permutation(state.n_qubits)[: int(rng.integers(0, state.n_qubits + 1))]]
        flipped = state.amplitudes
        for q in x_targets:
            flipped = np.array([ref_apply_matrix(row, state.n_qubits, pauli(1), (q,)) for row in flipped])
        got = dense.mix_flipped(state, x_targets)
        assert np.abs(got.amplitudes - np.concatenate([state.amplitudes, flipped])).max() <= 1e-15
        assert np.array_equal(got.weights, np.concatenate([state.weights, state.weights]) / 2)
        assert_support_invariants(got)

    @SUPPORT_SETTINGS
    @given(sparse_states(min_qubits=3), st.integers(1, 2), st.booleans())
    def test_bell_measurement(self, drawn, m, corrected):
        state, rng = drawn
        n = state.n_qubits
        m = min(m, (n - 1) // 2)
        qubits = [int(q) for q in rng.permutation(n)]
        pairs = [tuple(qubits[2 * i : 2 * i + 2]) for i in range(m)]
        kept = n - 2 * m
        receivers = [[int(q) for q in part] for part in np.array_split(rng.permutation(kept)[: int(rng.integers(0, kept + 1))], m)]
        post, outcomes = bell_measurement(state, *pairs, receivers=receivers if corrected else None)
        assert_support_invariants(post)
        if corrected:
            amps, plain = ref_corrected_rows(state, pairs, receivers)
            assert np.array_equal(post.amplitudes, amps) and np.array_equal(post.weights, plain.weights)
            return
        measured = [q for pair in pairs for q in sorted(pair)]
        psi = np.moveaxis(state.amplitudes.reshape((-1,) + (2,) * n), [q + 1 for q in measured], range(1, 2 * m + 1))
        bras = reduce(np.kron, [np.array([bell_vector(label) for label in LABELS])] * m).conj()  # [o, measured bits]
        subs = np.einsum("om,kmr->kor", bras, psi.reshape(len(state.weights), 4**m, -1))
        p = np.einsum("kor,kor->ko", subs, subs.conj()).real
        keep = (p > 1e-14) & (state.weights @ p > 1e-14)
        assert np.array_equal(outcomes, np.nonzero(keep)[1])
        assert np.abs(post.amplitudes - subs[keep] / np.sqrt(p[keep])[:, None]).max() <= 1e-13
        weights = (state.weights[:, None] * p)[keep]
        assert np.abs(post.weights - weights / weights.sum()).max() <= 1e-13
        assert post.qubit_labels == tuple(l for q, l in enumerate(state.qubit_labels) if q not in measured)

    @SUPPORT_SETTINGS
    @given(sparse_states(min_qubits=1, max_qubits=5), sparse_states(min_qubits=1, max_qubits=3), st.integers(0, 5))
    def test_tensor_at(self, left, right, at):
        (left, _), (right, _) = left, right
        at = min(at, left.n_qubits)
        got = tensor(left, right, at=at)
        nl, nr = left.n_qubits, right.n_qubits
        rows = [np.kron(a, b).reshape((2,) * (nl + nr)) for a in left.amplitudes for b in right.amplitudes]
        want = np.array([np.moveaxis(r, range(nl, nl + nr), range(at, at + nr)).reshape(-1) for r in rows])
        assert np.abs(got.amplitudes - want).max() <= 1e-13
        assert got.qubit_labels == left.qubit_labels[:at] + right.qubit_labels + left.qubit_labels[at:]
        assert_support_invariants(got)

    @SUPPORT_SETTINGS
    @given(sparse_states())
    def test_trace_distance_and_fidelity(self, drawn):
        state, rng = drawn
        other = state
        for _ in range(2):  # another state on an overlapping support
            u, targets = random_gate(rng, state.n_qubits, "general")
            other = apply_unitary(other, u, targets)
        for a, b in ((state, other), (other, state), (state, state)):
            assert abs(trace_distance(a, b) - full_register_trace_distance(a, b)) <= 1e-14
        target = other.amplitudes[0]
        pure = DenseState.from_arrays(other.amplitudes[:1], [1.0], other.qubit_labels)
        assert fidelity(state, target) == pytest.approx(ref_fidelity(state, target), abs=1e-13)
        assert fidelity(state, pure) == pytest.approx(ref_fidelity(state, pure.amplitudes[0]), abs=1e-13)

    def test_fidelity_target_state_is_one_row_on_the_register(self):
        mixed = to_dense(BellEnsemble({(B1,): 0.5, (B2,): 0.5}))
        for target in (mixed, to_dense(BellEnsemble.point((B1, B1)))):
            with pytest.raises(ValueError, match="one-row state"):
                fidelity(mixed, target)


# ---------------------------------------------------------------------------
# A run of affine steps as one gate pass, against one kernel call per step
# ---------------------------------------------------------------------------

#: The six pair reductions and their inverses.
ALL_REDUCTIONS = TestPairGates.REDUCTIONS + [r.inverse() for r in TestPairGates.REDUCTIONS]


@st.composite
def affine_runs(draw):
    """Rows on 1-7 pairs (:func:`sparse_states`) and a run of 1-12 affine steps
    of every kind on them: every Pauli index and side, and every reduction."""
    pairs = draw(st.integers(1, 7))
    state, _ = draw(sparse_states(2 * pairs, 2 * pairs))
    pair = st.integers(0, pairs - 1)
    kinds = [
        st.tuples(st.just("bilateral_hadamard"), pair),
        st.tuples(st.just("one_sided_pauli"), pair, st.integers(1, 3), st.sampled_from(["alice", "bob"])),
        st.tuples(st.just("local_clifford"), pair, st.sampled_from(ALL_REDUCTIONS)),
    ]
    if pairs > 1:
        kinds.append(st.lists(pair, min_size=2, max_size=2, unique=True).map(lambda ends: ("bxor", *ends)))
    return state, draw(st.lists(st.one_of(kinds), min_size=1, max_size=12))


def one_step(state, op):
    """An affine step as its own kernel call, pair k on qubits 2k (Alice) and 2k + 1 (Bob)."""
    from bellclone.calculus import _BILATERAL_HADAMARD

    name, k = op[0], op[1]
    if name == "bxor":
        return dense.apply_cnot_layers(state, [[(2 * k, 2 * op[2]), (2 * k + 1, 2 * op[2] + 1)]])
    if name == "one_sided_pauli":
        return apply_unitary(state, pauli(op[2]), (2 * k + (op[3] == "bob"),))
    return apply_unitary(state, _BILATERAL_HADAMARD if name == "bilateral_hadamard" else op[2].pair_matrix, (2 * k, 2 * k + 1))


def sorted_columns(state):
    order = np.argsort(state.support)
    return state.support[order], state.values[:, order]


class TestAffineRunIsOnePass:
    @settings(SUPPORT_SETTINGS, max_examples=80)
    @given(affine_runs())
    def test_run_equals_one_kernel_call_per_step(self, drawn):
        from bellclone.calculus import apply_steps_dense

        state, steps = drawn
        got = apply_steps_dense(state, steps)
        want = reduce(one_step, steps, state)
        for a, b in zip(sorted_columns(got), sorted_columns(want)):
            assert np.array_equal(a, b)
        assert got.weights is state.weights and got.qubit_labels == state.qubit_labels
        assert_support_invariants(got)

    def test_a_run_builds_one_state(self, monkeypatch):
        from bellclone.calculus import apply_steps_dense

        red = protocols.pair_reduction_table(B2, B4)
        steps = [("bilateral_hadamard", 0), ("bxor", 0, 2), ("one_sided_pauli", 1, 2, "bob"), ("local_clifford", 2, red)]
        steps += [("bxor", 2, 1), ("local_clifford", 0, red.inverse()), ("one_sided_pauli", 2, 3, "alice")]
        state = to_dense(BellEnsemble({(B1, B2, B3): 0.25, (B4, B1, B3): 0.75}))
        built, from_kernel = [], DenseState._from_kernel.__func__

        def counted(cls, *args, **kw):
            built.append(args[0].size)
            return from_kernel(cls, *args, **kw)

        monkeypatch.setattr(DenseState, "_from_kernel", classmethod(counted))
        got = apply_steps_dense(state, steps)
        assert built == [got.support.size]  # one state, at the end of the run
        monkeypatch.undo()
        assert np.array_equal(got.amplitudes, reduce(one_step, steps, state).amplitudes)

"""Certificates for the bit-packed label calculus.

* Exhaustive: every rewrite rule and the parity discrimination, on every
  label string of 1 to 3 pairs, against the dense oracle.
* Property-based: random circuits on 64-4096 pairs against a per-label
  reference interpreter (the tuple rules the packed engine replaced):
  equal entries in equal order, bit-identical discrimination
  probabilities, conserved probability and the claimed involutions.
* Exact structure and ledger of prepare_rho_m at 4096 and 4097 pairs.
"""

import copy
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellclone import dense
from bellclone.calculus import (
    PRUNE_EPS,
    BellEnsemble,
    append_b1,
    apply_rewrite_op,
    dense_rewrite_op,
    discriminate_sets,
    relabel_pair,
    to_dense,
)
from bellclone.labels import B1, B2, B3, B4, LABELS, BellLabel
from bellclone.protocols import pair_reduction_table, prepare_rho_m

REWRITES = ("bxor", "bilateral_hadamard", "one_sided_pauli")


def _all_ops(n_pairs: int) -> list[tuple]:
    ops = [("bxor", s, t) for s, t in itertools.permutations(range(n_pairs), 2)]
    ops += [("bilateral_hadamard", k) for k in range(n_pairs)]
    ops += [
        ("one_sided_pauli", k, idx, side)
        for k in range(n_pairs)
        for idx in (1, 2, 3)
        for side in ("alice", "bob")
    ]
    return ops


def _all_strings(n_pairs: int):
    return itertools.product(LABELS, repeat=n_pairs)


def _dense_parity(state: dense.DenseState, pair: int) -> dict[int, tuple[float, dense.DenseState | None]]:
    """Dense parity measurement of one pair's computational-basis bits:
    {parity: (probability, reduced post-state on the other pairs)}."""
    n = state.n_qubits
    out = {}
    for bit in (0, 1):
        branches, prob = [], 0.0
        for b in state.branches:
            psi = np.moveaxis(b.amplitudes.reshape((2,) * n), (2 * pair, 2 * pair + 1), (0, 1)).copy()
            for xa, xb in itertools.product((0, 1), repeat=2):
                if xa ^ xb != bit:
                    psi[xa, xb] = 0.0
            psi = np.moveaxis(psi, (0, 1), (2 * pair, 2 * pair + 1)).reshape(-1)
            p_b = float(np.vdot(psi, psi).real)
            prob += b.weight * p_b
            if p_b > 1e-14:
                branches.append((psi / np.sqrt(p_b), b.weight * p_b))
        if prob <= 1e-14:
            continue
        if n == 2:
            out[bit] = (prob, None)
            continue
        post = dense.DenseState(
            tuple(dense.PureBranch(v, w / prob) for v, w in branches), state.qubit_labels
        )
        keep = [q for q in range(n) if q not in (2 * pair, 2 * pair + 1)]
        out[bit] = (prob, dense.partial_trace(post, keep))
    return out


class TestExhaustiveAgainstDense:
    """Every rule on every label string of up to 3 pairs (64 strings)."""

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_rewrites(self, n_pairs):
        for string in _all_strings(n_pairs):
            e = BellEnsemble.point(string)
            start = to_dense(e)
            for op in _all_ops(n_pairs):
                sym = apply_rewrite_op(e, op)
                assert len(sym.entries) == 1, op
                fid = dense.fidelity(dense_rewrite_op(start, op), to_dense(sym).branches[0].amplitudes)
                assert abs(1.0 - fid) <= 1e-12, (string, op)

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_discriminate_sets(self, n_pairs):
        for string in _all_strings(n_pairs):
            e = BellEnsemble.point(string)
            state = to_dense(e)
            for pair in range(n_pairs):
                sym = discriminate_sets(e, pair)
                dn = _dense_parity(state, pair)
                assert [bit for bit, _, _ in sym] == sorted(dn) == [string[pair].a]
                for bit, prob, cond in sym:
                    assert abs(prob - dn[bit][0]) <= 1e-12
                    if cond is None:
                        assert n_pairs == 1 and dn[bit][1] is None
                    else:
                        assert dense.trace_distance(to_dense(cond), dn[bit][1]) < 1e-10

    def test_discriminate_mixture(self):
        rng = random.Random(3)
        weights = [rng.random() + 0.1 for _ in range(64)]
        e = BellEnsemble(
            {s: w / sum(weights) for s, w in zip(_all_strings(3), weights)}
        )
        state = to_dense(e)
        for pair in range(3):
            sym = discriminate_sets(e, pair)
            dn = _dense_parity(state, pair)
            assert [bit for bit, _, _ in sym] == sorted(dn) == [0, 1]
            for bit, prob, cond in sym:
                assert abs(prob - dn[bit][0]) <= 1e-12
                assert dense.trace_distance(to_dense(cond), dn[bit][1]) < 1e-10

    @pytest.mark.parametrize("pair", list(itertools.combinations(LABELS, 2)))
    def test_relabel_pair_matches_local_cliffords(self, pair):
        red = pair_reduction_table(*pair)
        for string in _all_strings(2):
            e = BellEnsemble.point(string)
            for k, mapping, (ua, ub) in (
                (0, red.label_map, (red.alice_matrix, red.bob_matrix)),
                (1, red.inverse_map, (red.alice_matrix.conj().T, red.bob_matrix.conj().T)),
            ):
                dn = dense.apply_unitary(to_dense(e), ua, (2 * k,))
                dn = dense.apply_unitary(dn, ub, (2 * k + 1,))
                sym = relabel_pair(e, k, mapping)
                fid = dense.fidelity(dn, to_dense(sym).branches[0].amplitudes)
                assert abs(1.0 - fid) <= 1e-12

    def test_relabel_pair_rejects_non_permutations(self):
        with pytest.raises(ValueError, match="permutation"):
            relabel_pair(BellEnsemble.point((B1,)), 0, {B1: B1, B2: B1, B3: B3, B4: B4})

    def test_append_b1(self):
        e = BellEnsemble({(B2, B4): 0.5, (B3, B1): 0.5})
        out = append_b1(e, 3)
        assert out.entries == {(B2, B4, B1, B1, B1): 0.5, (B3, B1, B1, B1, B1): 0.5}
        assert append_b1(e, 0) == e
        with pytest.raises(ValueError):
            append_b1(e, -1)


# ---------------------------------------------------------------------------
# Reference interpreter: the per-label tuple rules
# ---------------------------------------------------------------------------


def ref_apply(entries: dict, op: tuple) -> dict:
    out = {}
    for s, p in entries.items():
        s = list(s)
        if op[0] == "bxor":
            _, src, tgt = op
            ls, lt = s[src], s[tgt]
            s[src], s[tgt] = BellLabel(ls.a, ls.b ^ lt.b), BellLabel(ls.a ^ lt.a, lt.b)
        elif op[0] == "bilateral_hadamard":
            label = s[op[1]]
            s[op[1]] = BellLabel(label.b, label.a)
        else:
            da, db = {1: (1, 0), 2: (1, 1), 3: (0, 1)}[op[2]]
            s[op[1]] = s[op[1]].flipped(da, db)
        t = tuple(s)
        out[t] = out.get(t, 0.0) + p
    return dict(sorted(out.items()))


def ref_discriminate(entries: dict, pair: int) -> list:
    buckets, probs = {0: {}, 1: {}}, {0: 0.0, 1: 0.0}
    for s, p in entries.items():
        bit, rest = s[pair].a, s[:pair] + s[pair + 1 :]
        probs[bit] += p
        buckets[bit][rest] = buckets[bit].get(rest, 0.0) + p
    out = []
    for bit in (0, 1):
        if probs[bit] > PRUNE_EPS:
            cond = {s: p / probs[bit] for s, p in buckets[bit].items()}
            out.append((bit, probs[bit], dict(sorted((s, p) for s, p in cond.items() if p > PRUNE_EPS))))
    return out


@st.composite
def circuits(draw):
    """A random ensemble on 64-4096 pairs and a random rewrite circuit.

    Strings share a random base and differ in a few fields, so ordering
    depends on deep fields and discrimination merges strings."""
    n = draw(st.integers(64, 4096))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = [rng.choice(LABELS) for _ in range(n)]
    strings = set()
    for _ in range(draw(st.integers(1, 6))):
        s = list(base)
        for k in rng.sample(range(n), 3):
            s[k] = rng.choice(LABELS)
        strings.add(tuple(s))
    weights = [rng.random() + 0.1 for _ in strings]
    entries = {s: w / sum(weights) for s, w in zip(strings, weights)}
    pair = st.integers(0, n - 1)
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(REWRITES))
        k = draw(pair)
        if kind == "bxor":
            t = draw(st.integers(0, n - 2))
            ops.append(("bxor", k, t + (t >= k)))
        elif kind == "bilateral_hadamard":
            ops.append(("bilateral_hadamard", k))
        else:
            ops.append(("one_sided_pauli", k, draw(st.integers(1, 3)), draw(st.sampled_from(("alice", "bob")))))
    return entries, ops, draw(pair)


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(circuits())
def test_random_circuits_match_reference(case):
    entries, ops, measured = case
    e = BellEnsemble(entries)
    ref = dict(sorted(entries.items()))
    assert list(e.entries.items()) == list(ref.items())
    values = sorted(ref.values())
    for op in ops:
        out = apply_rewrite_op(e, op)
        assert apply_rewrite_op(out, op) == e  # every rewrite step is an involution
        e, ref = out, ref_apply(ref, op)
        assert list(e.entries.items()) == list(ref.items())
        assert sorted(e.entries.values()) == values
        assert abs(sum(e.entries.values()) - 1.0) <= 1e-12
    got = [(bit, prob, list(cond.entries.items())) for bit, prob, cond in discriminate_sets(e, measured)]
    want = [(bit, prob, list(cond.items())) for bit, prob, cond in ref_discriminate(ref, measured)]
    assert got == want


@pytest.mark.parametrize("m", [4096, 4097])
def test_prepare_rho_m_exact_at_scale(m):
    e, ledger = prepare_rho_m(m)
    assert e == BellEnsemble.uniform_strings(m)
    assert e.to_text() == "".join(f"0.25 {' '.join([bits] * m)}\n" for bits in ("00", "01", "10", "11"))
    last = m - 1
    if m % 2:
        steps = [("bob", "random-pauli-x") + tuple(f"B{k}" for k in range(m))]
        circuit = [(k, last) for k in range(last)]
    else:
        steps = []
        circuit = [(0, k) for k in range(1, last)] + [(k, last) for k in range(last)]
    for s, t in circuit:
        steps += [("alice", "cnot", f"A{s}", f"A{t}"), ("bob", "cnot", f"B{s}", f"B{t}")]
    assert [(st.party, st.operation) + st.operands for st in ledger.steps] == steps
    assert ledger.to_dict() == {
        "ebits_consumed": float(m - 1 if m % 2 else m - 2),
        "ebits_distilled": 0.0,
        "classical_bits": 0,
    }
    assert not ledger.locc_violations()


class TestInternedLabels:
    def test_construction_returns_the_shared_label(self):
        assert BellLabel(1, 0) is B3
        assert B2.flipped(1, 0) is B4
        assert copy.deepcopy(B4) is B4
        assert pickle.loads(pickle.dumps(B2)) is B2

    def test_hash_consistent_with_equality(self):
        assert {BellLabel(a, b) for a in (0, 1) for b in (0, 1)} == set(LABELS)
        assert hash(BellLabel(0, 1)) == hash(B2)


# ---------------------------------------------------------------------------
# The protocol step kinds: symbolic against dense on every string
# ---------------------------------------------------------------------------


def _protocol_steps(n_pairs: int) -> list[tuple]:
    """Every instance of the step kinds the protocols add to the rewrites."""
    reductions = [pair_reduction_table(*pair) for pair in itertools.combinations(LABELS, 2)]
    steps = [("local_clifford", k, red) for k in range(n_pairs) for red in reductions]
    steps += [("local_clifford", k, red.inverse()) for k in range(n_pairs) for red in reductions]
    steps += [("random_pauli_x",)] + [("parity_measure", k) for k in range(n_pairs)]
    return steps + [("teleport", BellEnsemble.point((x,))) for x in LABELS if n_pairs >= 2]


@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_protocol_steps_match_dense(n_pairs):
    for string in _all_strings(n_pairs):
        e = BellEnsemble.point(string)
        start = to_dense(e)
        for op in _protocol_steps(n_pairs):
            sym, dn = apply_rewrite_op(e, op), dense_rewrite_op(start, op)
            if op[0] != "parity_measure":
                assert dense.trace_distance(to_dense(sym), dn) < 1e-10, (string, op)
                continue
            assert [(bit, prob) for bit, prob, _ in sym] == [(string[op[1]].a, 1.0)]
            assert [(bit, abs(prob - 1.0) <= 1e-12) for bit, prob, _ in dn] == [(string[op[1]].a, True)]
            if n_pairs == 1:
                assert sym[0][2] is None and dn[0][2] is None
            else:
                assert dense.trace_distance(to_dense(sym[0][2]), dn[0][2]) < 1e-10, (string, op)


def test_protocol_steps_on_a_mixture():
    """The mixing and measuring steps on a full-support three-pair mixture."""
    rng = random.Random(5)
    weights = [rng.random() + 0.1 for _ in range(64)]
    e = BellEnsemble({s: w / sum(weights) for s, w in zip(_all_strings(3), weights)})
    state = to_dense(e)
    source = BellEnsemble({(B1,): 0.125, (B2,): 0.25, (B3,): 0.5, (B4,): 0.125})
    for op in [("random_pauli_x",), ("teleport", source)]:
        assert dense.trace_distance(to_dense(apply_rewrite_op(e, op)), dense_rewrite_op(state, op)) < 1e-10
    for pair in range(3):
        sym, dn = apply_rewrite_op(e, ("parity_measure", pair)), dense_rewrite_op(state, ("parity_measure", pair))
        assert [bit for bit, _, _ in sym] == [bit for bit, _, _ in dn] == [0, 1]
        for (_, prob, cond), (_, dprob, dstate) in zip(sym, dn):
            assert abs(prob - dprob) <= 1e-12
            assert dense.trace_distance(to_dense(cond), dstate) < 1e-10


def test_teleport_rule_on_every_point_mass_of_a_three_pair_channel():
    """Receiver k gets x ^ c0 ^ ck: all 4 inputs x 64 channel strings,
    against the dense Bell measurements and Pauli corrections."""
    worst = 0.0
    for x in LABELS:
        op = ("teleport", BellEnsemble.point((x,)))
        for channel in _all_strings(3):
            e = BellEnsemble.point(channel)
            sym = apply_rewrite_op(e, op)
            c0 = channel[0]
            expected = tuple(x.flipped(c0.a ^ ck.a, c0.b ^ ck.b) for ck in channel[1:])
            assert sym.entries == {expected: 1.0}
            worst = max(worst, dense.trace_distance(to_dense(sym), dense_rewrite_op(to_dense(e), op)))
    assert worst < 1e-12


def test_teleport_needs_a_receiving_pair():
    with pytest.raises(ValueError, match="two or more pairs"):
        apply_rewrite_op(BellEnsemble.point((B1,)), ("teleport", BellEnsemble.point((B2,))))
    with pytest.raises(ValueError, match="one-pair input"):
        apply_rewrite_op(BellEnsemble.point((B1, B1)), ("teleport", BellEnsemble.point((B2, B2))))

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
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellclone import calculus, dense
from bellclone.calculus import (
    PRUNE_EPS,
    BellEnsemble,
    _unpack,
    append_b1,
    apply_steps,
    apply_steps_dense,
    bilateral_hadamard,
    bxor,
    discriminate_sets,
    mix,
    one_sided_pauli,
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
        post = dense.DenseState.from_arrays([v for v, _ in branches], [w / prob for _, w in branches], state.qubit_labels)
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
                sym = apply_steps(e, [op])
                assert len(sym.entries) == 1, op
                fid = dense.fidelity(apply_steps_dense(start, [op]), to_dense(sym).branches[0].amplitudes)
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
    def test_local_clifford_step_matches_local_cliffords(self, pair):
        red = pair_reduction_table(*pair)
        for string in _all_strings(2):
            e = BellEnsemble.point(string)
            for k, reduction in ((0, red), (1, red.inverse())):
                dn = dense.apply_unitary(to_dense(e), reduction.alice_matrix, (2 * k,))
                dn = dense.apply_unitary(dn, reduction.bob_matrix, (2 * k + 1,))
                sym = apply_steps(e, [("local_clifford", k, reduction)])
                fid = dense.fidelity(dn, to_dense(sym).branches[0].amplitudes)
                assert abs(1.0 - fid) <= 1e-12

    def test_local_clifford_step_rejects_non_permutations(self):
        not_a_permutation = SimpleNamespace(label_map={B1: B1, B2: B1, B3: B3, B4: B4})
        with pytest.raises(ValueError, match="permutation"):
            apply_steps(BellEnsemble.point((B1,)), [("local_clifford", 0, not_a_permutation)])

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
        out = apply_steps(e, [op])
        assert apply_steps(out, [op]) == e  # every rewrite step is an involution
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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=70))
    def test_pack_equals_the_digit_string_formula(self, labels):
        string = tuple(labels)
        packed = calculus._pack(string)
        assert packed == int("".join(f"{l.a}{l.b}" for l in string), 2)
        assert _unpack(packed, len(string)) == string


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
            sym, dn = apply_steps(e, [op]), apply_steps_dense(start, [op])
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
        assert dense.trace_distance(to_dense(apply_steps(e, [op])), apply_steps_dense(state, [op])) < 1e-10
    for pair in range(3):
        sym, dn = apply_steps(e, [("parity_measure", pair)]), apply_steps_dense(state, [("parity_measure", pair)])
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
            sym = apply_steps(e, [op])
            c0 = channel[0]
            expected = tuple(x.flipped(c0.a ^ ck.a, c0.b ^ ck.b) for ck in channel[1:])
            assert sym.entries == {expected: 1.0}
            worst = max(worst, dense.trace_distance(to_dense(sym), apply_steps_dense(to_dense(e), [op])))
    assert worst < 1e-12


def test_teleport_needs_a_receiving_pair():
    with pytest.raises(ValueError, match="two or more pairs"):
        apply_steps(BellEnsemble.point((B1,)), [("teleport", BellEnsemble.point((B2,)))])
    with pytest.raises(ValueError, match="one-pair input"):
        apply_steps(BellEnsemble.point((B1, B1)), [("teleport", BellEnsemble.point((B2, B2)))])


# ---------------------------------------------------------------------------
# The column kernel against the per-string formulas it replaced
# ---------------------------------------------------------------------------

REDUCTIONS = [pair_reduction_table(*p) for p in itertools.combinations(LABELS, 2)]
REDUCTIONS += [r.inverse() for r in REDUCTIONS]


def _ref_shift(n: int, pair: int) -> int:
    if pair < 0 or pair >= n:
        raise ValueError(f"pair index {pair} out of range for {n} pairs")
    return 2 * (n - 1 - pair)


def _ref_relabel(strings: list[int], n: int, pair: int, table) -> list[int]:
    sh = _ref_shift(n, pair)
    delta = [new ^ old for old, new in enumerate(table)]
    return [x ^ (delta[(x >> sh) & 3] << sh) for x in strings]


def ref_packed_step(strings: list[int], n: int, op: tuple) -> list[int]:
    """One step on packed strings by the per-string formulas (and the
    validation order) of the one-step rewrites before the column kernel."""
    name = op[0]
    if name == "bxor":
        _, source, target = op
        b_s, b_t = _ref_shift(n, source), _ref_shift(n, target)
        if source == target:
            raise ValueError("source and target pair must differ")
        a_s, a_t = b_s + 1, b_t + 1
        return [x ^ (((x >> a_s) & 1) << a_t) ^ (((x >> b_t) & 1) << b_s) for x in strings]
    if name == "bilateral_hadamard":
        return _ref_relabel(strings, n, op[1], (0b00, 0b10, 0b01, 0b11))
    if name == "one_sided_pauli":
        _, pair, index, side = op
        sh = _ref_shift(n, pair)
        if index not in (1, 2, 3):
            raise ValueError("Pauli index must be 1 (x), 2 (y) or 3 (z)")
        if side not in ("alice", "bob"):
            raise ValueError(f"unknown side {side!r}")
        flip = (0b10, 0b11, 0b01)[index - 1] << sh
        return [x ^ flip for x in strings]
    if name == "local_clifford":
        table = [op[2].label_map[l].index - 1 for l in LABELS]
        if sorted(table) != [0, 1, 2, 3]:
            raise ValueError("label map must be a permutation of the four labels")
        return _ref_relabel(strings, n, op[1], table)
    raise AssertionError(f"not an affine step: {name}")


def ref_packed_steps(e: BellEnsemble, ops) -> BellEnsemble:
    """The step list, one step and one re-sort at a time."""
    for op in ops:
        strings = ref_packed_step(list(e._probs), e.n_pairs, op)
        e = BellEnsemble._make(e.n_pairs, dict(sorted(zip(strings, e._probs.values()))))
    return e


def _packed(n: int) -> st.SearchStrategy:
    return st.integers(0, 4**n - 1)


@st.composite
def packed_ensembles(draw, max_pairs: int = 9, max_strings: int = 16):
    n = draw(st.integers(1, max_pairs))
    strings = draw(st.sets(_packed(n), min_size=1, max_size=min(max_strings, 4**n)))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(strings), max_size=len(strings)))
    total = sum(weights)
    return BellEnsemble({_unpack(x, n): w / total for x, w in zip(strings, weights)})


def affine_steps(n: int) -> st.SearchStrategy:
    pair = st.integers(0, n - 1)
    kinds = [
        st.tuples(st.just("bilateral_hadamard"), pair),
        st.tuples(st.just("one_sided_pauli"), pair, st.integers(1, 3), st.sampled_from(("alice", "bob"))),
        st.tuples(st.just("local_clifford"), pair, st.sampled_from(REDUCTIONS)),
    ]
    if n >= 2:
        kinds.append(st.tuples(st.just("bxor"), pair, pair).filter(lambda op: op[1] != op[2]))
    return st.one_of(kinds)


@st.composite
def affine_programs(draw):
    e = draw(packed_ensembles())
    return e, draw(st.lists(affine_steps(e.n_pairs), max_size=24))


class _Unpermuted:
    """A label map that is not a permutation."""

    label_map = {B1: B1, B2: B1, B3: B3, B4: B4}


def invalid_steps(n: int) -> st.SearchStrategy:
    bad_pair = st.one_of(st.integers(-3, -1), st.integers(n, n + 3))
    good_pair = st.integers(0, n - 1)
    return st.one_of(
        st.tuples(st.just("bxor"), bad_pair, good_pair),
        st.tuples(st.just("bxor"), good_pair, bad_pair),
        good_pair.map(lambda k: ("bxor", k, k)),
        st.tuples(st.just("bilateral_hadamard"), bad_pair),
        st.tuples(st.just("one_sided_pauli"), bad_pair, st.integers(1, 3), st.just("bob")),
        st.tuples(st.just("one_sided_pauli"), good_pair, st.sampled_from((0, 4)), st.just("alice")),
        st.tuples(st.just("one_sided_pauli"), good_pair, st.integers(1, 3), st.just("charlie")),
        st.tuples(st.just("local_clifford"), bad_pair, st.sampled_from(REDUCTIONS)),
        st.tuples(st.just("local_clifford"), st.one_of(good_pair, bad_pair), st.just(_Unpermuted())),
    )


KERNEL_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestColumnKernel:
    """apply_steps transposes each run of affine steps into columns once;
    it must equal the per-string formulas step by step."""

    @KERNEL_SETTINGS
    @given(affine_programs())
    def test_runs_match_per_string_formulas(self, case):
        e, ops = case
        want = ref_packed_steps(e, ops)
        got = apply_steps(e, ops)
        assert got == want
        assert list(got.entries.items()) == list(want.entries.items())

    @KERNEL_SETTINGS
    @given(affine_programs())
    def test_one_step_functions_match_per_string_formulas(self, case):
        e, ops = case
        public = {
            "bxor": lambda e, op: bxor(e, op[1], op[2]),
            "bilateral_hadamard": lambda e, op: bilateral_hadamard(e, op[1]),
            "one_sided_pauli": lambda e, op: one_sided_pauli(e, *op[1:]),
        }
        for op in ops:
            want = ref_packed_steps(e, [op])
            if op[0] in public:  # a local Clifford has no one-step function
                assert public[op[0]](e, op) == want
            assert apply_steps(e, [op]) == want
            e = want

    @KERNEL_SETTINGS
    @given(st.data())
    def test_invalid_step_raises_its_own_error_before_any_work(self, data):
        e, ops = data.draw(affine_programs())
        bad = data.draw(invalid_steps(e.n_pairs))
        at = data.draw(st.integers(0, len(ops)))
        later = data.draw(st.lists(st.one_of(affine_steps(e.n_pairs), invalid_steps(e.n_pairs)), max_size=4))
        program = ops[:at] + [bad] + ops[at:] + later
        with pytest.raises(ValueError) as want:
            ref_packed_steps(e, program)
        with pytest.raises(ValueError) as got:
            apply_steps(e, program)
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError) as alone:
            apply_steps(e, [bad])
        assert str(alone.value) == str(got.value)

    def test_validation_precedes_the_transposition(self, monkeypatch):
        e = BellEnsemble({(B1, B2, B3): 0.5, (B4, B4, B1): 0.5})
        calls = []
        original = calculus._columns
        monkeypatch.setattr(calculus, "_columns", lambda *a: calls.append(a) or original(*a))
        with pytest.raises(ValueError, match="out of range"):
            apply_steps(e, [("bxor", 0, 1), ("bilateral_hadamard", 2), ("one_sided_pauli", 3, 1, "bob")])
        assert calls == []
        apply_steps(e, [("bxor", 0, 1), ("bilateral_hadamard", 2), ("random_pauli_x",), ("bxor", 2, 0)])
        assert len(calls) == 2  # one transposition per run on each side of the mixing step

    @KERNEL_SETTINGS
    @given(packed_ensembles())
    def test_random_pauli_x_mask_equals_the_per_pair_loop(self, e):
        flipped = ref_packed_steps(e, [("one_sided_pauli", k, 1, "bob") for k in range(e.n_pairs)])
        want = mix([e, flipped], [0.5, 0.5])
        got = apply_steps(e, [("random_pauli_x",)])
        assert got == want
        assert list(got.entries.items()) == list(want.entries.items())

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(packed_ensembles(max_pairs=40, max_strings=70))
    def test_transposition_round_trips(self, e):
        strings = list(e._probs)
        cols = calculus._columns(strings, e.n_pairs)
        assert len(cols) == 2 * e.n_pairs
        for k in range(e.n_pairs):
            sh = 2 * (e.n_pairs - 1 - k)
            for i, x in enumerate(strings):
                assert (cols[2 * k] >> i & 1, cols[2 * k + 1] >> i & 1) == (x >> sh + 1 & 1, x >> sh & 1)
        assert calculus._strings(cols, len(strings)) == strings

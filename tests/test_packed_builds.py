"""Protocol programs and symbolic checks built on packed strings.

The builders of :mod:`bellclone.protocols` and :meth:`BellEnsemble.point`
wrap packed integers directly.  Each is held here against a reference
that spells its strings out as label tuples and goes through the merging,
pruning and checking constructor: equal strings in equal order, the same
probabilities bit for bit, and the same exceptions.  One ``verify.run_all()``
then builds no ensemble through that constructor and unpacks no string.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellclone import calculus, protocols, verify
from bellclone.calculus import BellEnsemble, append_b1, apply_steps
from bellclone.labels import B1, B2, B3, B4, LABELS, BellLabel

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def assert_same(e: BellEnsemble, ref: BellEnsemble) -> None:
    """Equal pair counts, strings in equal order and bit-identical ``float`` probabilities."""
    assert e.n_pairs == ref.n_pairs
    assert list(e._probs.items()) == list(ref._probs.items())
    assert all(type(p) is float for p in e._probs.values())


def raised(call) -> tuple[type, str] | None:
    """The type and message of the exception ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - every exception type is compared
        return type(exc), str(exc)
    return None


# ---------------------------------------------------------------------------
# Label-tuple references: the builders as written before the packed layout
# ---------------------------------------------------------------------------


def ref_rho_m_initial(m: int) -> BellEnsemble:
    last = m - 1
    if m % 2:
        return BellEnsemble({(B1,) * last + (tail,): 0.5 for tail in (B1, B2)})
    return BellEnsemble({(first,) + (B1,) * (m - 2) + (tail,): 0.25 for first in (B1, B3) for tail in (B1, B2)})


def ref_four_source(q) -> BellEnsemble:
    return BellEnsemble({(label,): qk for label, qk in zip(LABELS, q) if qk > 0})


def ref_sigma_start(p, n: int) -> BellEnsemble:
    return BellEnsemble({(B1,) + (B1,) * (n - 1): p, (B2,) + (B1,) * (n - 1): 1.0 - p})


def ref_clone_pair_initial(input_state, pair, n: int) -> BellEnsemble:
    """The checks of the clone-pair program and its initial, on label tuples."""
    pair = tuple(pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ValueError("declared set must contain two distinct labels")
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    if isinstance(input_state, BellLabel):
        input_state = BellEnsemble({(input_state,): 1.0})
    if input_state.n_pairs != 1:
        raise ValueError("clone input must be a single-pair state")
    support = {s[0] for s in input_state.entries}
    if not support <= set(pair):
        bad = ", ".join(sorted(l.name for l in support - set(pair)))
        raise ValueError(f"input state {bad} lies outside the declared pair")
    protocols.pair_reduction_table(*pair)
    return append_b1(input_state, n - 1)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

strings = st.lists(st.sampled_from(LABELS), min_size=1, max_size=70).map(tuple)


@st.composite
def sixteenths(draw) -> tuple[float, ...]:
    """A Bell-diagonal distribution in multiples of 1/16, zeros included."""
    cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=3, max_size=3)))
    return tuple((hi - lo) / 16 for lo, hi in zip([0, *cuts], [*cuts, 16]))


#: Distributions with an entry of 1e-16, which the builders prune.
PRUNED = [(1 - 1e-16, 1e-16, 0.0, 0.0), (0.5, 0.5 - 1e-16, 1e-16, 0.0), (0.25, 0.25, 0.5 - 1e-16, 1e-16)]

distributions = st.one_of(sixteenths(), st.sampled_from(PRUNED).flatmap(st.permutations).map(tuple))

mixing = st.one_of(
    st.integers(1, 15).map(lambda k: k / 16),
    st.sampled_from([1e-16, 1 - 1e-16, 0.1, 0.3, 0.7, np.float64(0.2)]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------


class TestRhoM:
    @pytest.mark.parametrize("m", [*range(2, 65), 4095, 4096])
    def test_initial_equals_the_label_tuple_reference(self, m):
        assert_same(protocols._rho_m_program(m).initial, ref_rho_m_initial(m))

    def test_too_few_pairs_is_rejected_as_before(self):
        with pytest.raises(ValueError, match=r"^rho_m needs m >= 2 pairs, got 1$"):
            protocols._rho_m_program(1)


class TestPoint:
    @PROPERTY
    @given(strings)
    def test_equals_the_constructor(self, string):
        ref = BellEnsemble({string: 1.0})
        assert_same(BellEnsemble.point(string), ref)
        assert_same(BellEnsemble.point(list(string)), ref)
        assert_same(BellEnsemble.point(iter(string)), ref)
        assert BellEnsemble.point(string).entries == {string: 1.0}

    @PROPERTY
    @given(strings, st.integers(0, 70), st.sampled_from(["B1", 1, None, (0, 1), [0, 1], 0.5]))
    def test_a_non_label_entry_raises_as_the_constructor_does(self, string, at, bad):
        string = string[:at] + (bad,) + string[at:]
        assert raised(lambda: BellEnsemble.point(string)) == raised(lambda: BellEnsemble({string: 1.0}))

    @pytest.mark.parametrize("empty", [(), [], iter(())])
    def test_an_empty_string_raises_as_the_constructor_does(self, empty):
        expected = (ValueError, "Bell strings must have at least one pair")
        assert raised(lambda: BellEnsemble.point(empty)) == raised(lambda: BellEnsemble({(): 1.0})) == expected

    def test_a_label_is_not_a_string(self):
        assert raised(lambda: BellEnsemble.point(B1)) == raised(lambda: BellEnsemble({tuple(B1): 1.0}))


class TestCloneFour:
    @PROPERTY
    @given(distributions, st.integers(1, 6))
    def test_source_and_initial_equal_the_references(self, q, n):
        program, rho = protocols._clone_four_program(q, n)
        (name, source), = program.steps
        assert name == "teleport"
        assert_same(source, ref_four_source(q))
        assert_same(program.initial, apply_steps(ref_rho_m_initial(n + 1), rho.steps))

    @pytest.mark.parametrize("label", LABELS)
    def test_a_label_input_is_its_point_mass(self, label):
        (_, source), = protocols._clone_four_program(label, 2)[0].steps
        assert_same(source, BellEnsemble({(label,): 1.0}))

    def test_the_prune_keeps_the_reference_total(self):
        # 1e-16 entries are dropped before the total is checked, by both routes.
        (_, source), = protocols._clone_four_program((1 - 2e-16, 1e-16, 1e-16, 0.0), 1)[0].steps
        assert_same(source, ref_four_source((1 - 2e-16, 1e-16, 1e-16, 0.0)))
        assert len(source) == 1


class TestSigma:
    @PROPERTY
    @given(mixing, st.integers(1, 70))
    def test_start_and_ensemble_equal_the_references(self, p, n):
        build = protocols.build_sigma_n(p, n)
        ref = ref_sigma_start(p, n)
        assert_same(build.start, ref)
        assert_same(build.ensemble, apply_steps(ref, build.steps))

    @pytest.mark.parametrize("p", [1e-16, 1 - 1e-16])
    def test_a_pruned_branch_leaves_one_string(self, p):
        assert len(protocols.build_sigma_n(p, 3).start) == 1


class TestClonePair:
    @PROPERTY
    @given(
        st.one_of(
            st.sampled_from(LABELS),
            st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True).map(
                lambda ls: BellEnsemble({(l,): 1 / len(ls) for l in ls})
            ),
            st.sampled_from([BellEnsemble.uniform_strings(2), BellEnsemble({(B1, B2): 1.0})]),
        ),
        st.lists(st.one_of(st.sampled_from(LABELS), st.just("B1")), min_size=0, max_size=3),
        st.integers(-1, 4),
    )
    def test_rejections_and_initial_equal_the_reference(self, input_state, pair, n):
        expected = raised(lambda: ref_clone_pair_initial(input_state, pair, n))
        got = raised(lambda: protocols._clone_pair_program(input_state, pair, n))
        assert got == expected
        if expected is None:
            program = protocols._clone_pair_program(input_state, pair, n)
            assert_same(program.initial, ref_clone_pair_initial(input_state, pair, n))

    def test_an_outside_mixture_names_every_outside_label(self):
        mixed = BellEnsemble({(l,): 0.25 for l in LABELS})
        with pytest.raises(ValueError, match=r"^input state B2, B4 lies outside the declared pair$"):
            protocols._clone_pair_program(mixed, (B3, B1), 2)


class TestVerifyAllBuildsPacked:
    def test_run_all_unpacks_nothing_and_builds_nothing_through_the_constructor(self, monkeypatch):
        counts = {"unpack": 0, "init": 0}
        unpack, init = calculus._unpack, BellEnsemble.__init__

        def counted_unpack(*args):
            counts["unpack"] += 1
            return unpack(*args)

        def counted_init(self, *args):
            counts["init"] += 1
            init(self, *args)

        monkeypatch.setattr(calculus, "_unpack", counted_unpack)
        monkeypatch.setattr(BellEnsemble, "__init__", counted_init)
        records = verify.run_all()
        assert all(r.passed for r in records)
        assert counts == {"unpack": 0, "init": 0}
        # The counters see what they count: one label view and one constructor call.
        assert BellEnsemble.point((B2,)).entries and BellEnsemble({(B1,): 1.0})
        assert counts == {"unpack": 1, "init": 1}

    def test_the_checks_compare_ensembles(self):
        good = BellEnsemble({(B3, B3): 1.0})
        assert verify.symbolic_target(good, (B3, B3)).passed
        assert not verify.symbolic_target(good, (B3,)).passed
        assert not verify.symbolic_target(BellEnsemble({(B3, B3): 0.5, (B4, B4): 0.5}), (B3, B3)).passed
        assert verify.correlated_clones(BellEnsemble.uniform_strings(5)).passed
        assert not verify.correlated_clones(BellEnsemble({(B1, B1, B1): 0.5, (B1, B2, B1): 0.5})).passed
        branches = [(0, 0.5, BellEnsemble.point((B1, B1))), (1, 0.5, BellEnsemble.uniform_strings(2))]
        assert verify.pure_branches(branches).measured == [1, 4]
        expected = {0: BellEnsemble.point((B1, B1)), 1: BellEnsemble.uniform_strings(2)}
        assert verify.exact_conditionals(branches, expected).passed
        assert not verify.exact_conditionals(branches, {**expected, 1: BellEnsemble.point((B3, B3))}).passed

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_distill_rejects_a_non_constant_string(self, n):
        e = BellEnsemble({(B1,) * n: 0.5, (B1,) * (n - 1) + (B2,): 0.5})
        with pytest.raises(ValueError, match="^input must be a mixture of constant Bell strings$"):
            protocols.distill_quasi_pure(e)
        protocols.distill_quasi_pure(BellEnsemble.uniform_strings(n))

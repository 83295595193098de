import math
import random
import re
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretaplab import info_theory
from wiretaplab.errors import BudgetError
from wiretaplab.info_theory import (
    _HAN_FILTER,
    JointDistribution,
    _entropy_of_weights,
    _coprime_exponents,
    _han_holds_exactly,
    _marginal_weights,
    _project,
    _weight_powers_ge,
    check_han_collection,
    check_han_subsets,
    conditional_entropy,
    entropy,
    is_function_of,
    is_independent,
    marginal,
    mutual_information,
    random_rational_distribution,
)

H = Fraction(1, 2)


def uniform_pair():
    return JointDistribution.uniform((("A", 2), ("B", 2)))


def copied_bit():
    return JointDistribution((("A", 2), ("B", 2)), {(0, 0): H, (1, 1): H})


def standard_code_first_view(d=2):
    """Joint of (M, Y1, Y3) for the standard non-linear relay code.

    Built directly from the defining formulas Y1 = L, Y3 = L*(M+L-L) = L*M
    with M, L independent uniform; independent of the code engine.
    """
    weights = {}
    for m, l in product(range(d), repeat=2):
        weights[(m, l, (l * m) % d)] = 1
    return JointDistribution.from_weights((("M", d), ("Y1", d), ("Y3", d)), weights)


class TestConstruction:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            JointDistribution((("A", 2),), {(0,): Fraction(1, 3)})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution(
                (("A", 2),), {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})

    def test_key_outside_alphabet(self):
        with pytest.raises(ValueError):
            JointDistribution((("A", 2),), {(2,): Fraction(1)})

    def test_zero_entries_dropped(self):
        d = JointDistribution((("A", 2),), {(0,): Fraction(1), (1,): Fraction(0)})
        assert (1,) not in d.table

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution.uniform((("A", 2), ("A", 2)))

    @pytest.mark.parametrize("bad", [
        {(0,): -1, (1,): 3},
        {(0,): 1.0, (1,): 1},
        {(0,): Fraction(1, 2), (1,): 1},
        {(0,): 0, (1,): 0},
        {},
    ])
    def test_from_weights_rejects(self, bad):
        with pytest.raises(ValueError):
            JointDistribution.from_weights((("A", 2),), bad)

    def test_negative_weight_named_in_error(self):
        with pytest.raises(ValueError, match="negative"):
            JointDistribution.from_weights((("A", 2),), {(0,): -1, (1,): 3})

    @pytest.mark.parametrize("weights, message", [
        ({(0, 0): 1, (1,): 1, (0, 1, 1): 1}, "key (1,) has wrong arity"),
        ({(0, 1): 1, (2, 0): 1, (0, 3): 1}, "value 2 outside alphabet of A"),
        ({(0, 0): 1, (1, 1): 0.5, (0, 1): "1"}, "weight 0.5 is not an int"),
        ({(0, 0): 1, (1, 1): -2, (0, 1): -3}, "negative weight -2"),
    ])
    def test_first_offending_key_named(self, weights, message):
        # keys are checked in order, so the first bad key is the one named
        with pytest.raises(ValueError, match=re.escape(message)):
            JointDistribution.from_weights((("A", 2), ("B", 2)), weights)

    @pytest.mark.parametrize("value", [0.5, 1.0])
    def test_non_int_key_values_refused(self, value):
        # 1.0 equals 1 and hashes like it, so it must not hide behind a 1
        # earlier in the same column
        variables = (("A", 2), ("B", 2))
        message = re.escape(f"value {value!r} of A is not an int")
        with pytest.raises(ValueError, match=message):
            JointDistribution.from_weights(variables, {(1, 0): 1, (value, 1): 1})
        with pytest.raises(ValueError, match=message):
            JointDistribution(variables, {(1, 0): Fraction(1, 2), (value, 1): Fraction(1, 2)})

    def test_int_like_weights_and_values_accepted(self):
        # bools are ints, as keys and as weights
        d = JointDistribution.from_weights((("A", 2),), {(False,): True, (1,): 2})
        assert d.weights == {(False,): 1, (1,): 2}
        assert d.total == 3

    def test_weights_divided_by_gcd(self):
        d = JointDistribution.from_weights((("A", 3),), {(0,): 4, (1,): 0, (2,): 6})
        assert d.weights == {(0,): 2, (2,): 3}
        assert d.total == 5
        assert d.table == {(0,): Fraction(2, 5), (2,): Fraction(3, 5)}

    def test_fraction_table_to_weights(self):
        d = JointDistribution((("A", 3),), {(0,): Fraction(1, 6), (1,): Fraction(1, 2),
                                            (2,): Fraction(1, 3)})
        assert d.weights == {(0,): 1, (1,): 3, (2,): 2}
        assert d.total == 6

    def test_json_round_trip(self):
        d = standard_code_first_view()
        again = JointDistribution.from_json_dict(d.to_json_dict())
        assert again == d


class TestMarginal:
    def test_uniform_pair_onto_a(self):
        m = marginal(uniform_pair(), "A")
        assert m.table == {(0,): H, (1,): H}

    def test_point_mass_stays_point_mass(self):
        d = JointDistribution((("A", 2), ("B", 3)), {(1, 2): Fraction(1)})
        for names in ("A", "B", ("A", "B")):
            m = marginal(d, names)
            assert list(m.table.values()) == [Fraction(1)]

    def test_copied_bit_onto_b_is_uniform(self):
        m = marginal(copied_bit(), "B")
        assert m.table == {(0,): H, (1,): H}

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match=re.escape("unknown variable(s): ['C']")):
            marginal(uniform_pair(), "C")

    def test_unknown_names_listed_sorted(self):
        with pytest.raises(KeyError, match=re.escape("unknown variable(s): ['C', 'D']")):
            marginal(uniform_pair(), ("A", "D", "C"))


class TestEntropy:
    def test_uniform_bit(self):
        d = JointDistribution.uniform((("A", 2),))
        assert entropy(d, "A") == 1.0

    def test_point_mass(self):
        d = JointDistribution((("A", 4),), {(3,): Fraction(1)})
        assert entropy(d, "A") == 0.0

    def test_uniform_z3(self):
        d = JointDistribution.uniform((("A", 3),))
        assert math.isclose(entropy(d, "A"), math.log2(3), rel_tol=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            entropy(uniform_pair(), ())

    @pytest.mark.parametrize("weights", [
        # a weight past the float range: int-to-float conversion overflows
        {(0, 0): 2 ** 1100, (1, 1): 3},
        # floats hold the weights, but sum(w * log2(w)) overflows to inf
        {(0, 0): 2 ** 1019, (1, 1): 2 ** 1019 + 1},
    ])
    def test_weights_past_the_float_range_raise_value_error(self, weights):
        d = JointDistribution.from_weights((("A", 2), ("B", 2)), weights)
        limit = re.escape("2**1024, the float range")
        with pytest.raises(ValueError, match=limit):
            entropy(d, "A")
        with pytest.raises(ValueError, match=limit):
            check_han_subsets(d, ("A", "B"), (), 1)

    def test_large_weights_inside_the_float_range(self):
        d = JointDistribution.from_weights((("A", 2),), {(0,): 2 ** 1012, (1,): 2 ** 1012 + 1})
        assert entropy(d, "A") == 1.0

    def test_conditional_identity(self):
        d = copied_bit()
        assert conditional_entropy(d, "A", "B") == pytest.approx(0.0, abs=1e-12)
        assert conditional_entropy(d, "A", ()) == pytest.approx(1.0, abs=1e-12)


class TestMutualInformation:
    def test_independent_uniform_bits(self):
        assert mutual_information(uniform_pair(), "A", "B") == pytest.approx(
            0.0, abs=1e-12)
        assert is_independent(uniform_pair(), "A", "B")

    def test_copied_bit_one_bit(self):
        assert mutual_information(copied_bit(), "A", "B") == pytest.approx(
            1.0, abs=1e-12)
        assert not is_independent(copied_bit(), "A", "B")

    def test_standard_code_view_half_bit(self):
        # known half-bit leakage of the d=2 standard non-linear relay code
        d = standard_code_first_view()
        assert mutual_information(d, "M", ("Y1", "Y3")) == pytest.approx(
            0.5, abs=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            mutual_information(uniform_pair(), "A", ("A", "B"))

    def test_symmetry_on_random(self):
        rng = random.Random(11)
        for _ in range(50):
            d = random_rational_distribution(rng, (("A", 2), ("B", 3), ("C", 2)))
            ab = mutual_information(d, "A", ("B", "C"))
            ba = mutual_information(d, ("B", "C"), "A")
            assert ab == pytest.approx(ba, abs=1e-12)
            assert ab >= -1e-12

    def test_variables_outside_both_sets_ignored(self):
        # A and B are independent uniform bits; C = A xor B is not asked about
        d = JointDistribution.from_weights(
            (("A", 2), ("B", 2), ("C", 2)),
            {(a, b, a ^ b): 1 for a, b in product(range(2), repeat=2)})
        assert is_independent(d, "A", "B")
        assert not is_independent(d, "A", ("B", "C"))
        assert is_independent(JointDistribution.uniform(
            (("A", 2), ("B", 2), ("C", 2))), "A", "C")

    def test_zero_for_explicit_products(self):
        rng = random.Random(12)
        for _ in range(30):
            a = random_rational_distribution(rng, (("A", 3),))
            b = random_rational_distribution(rng, (("B", 2), ("C", 2)))
            d = JointDistribution.product_of(a, b)
            assert is_independent(d, "A", ("B", "C"))
            assert mutual_information(d, "A", ("B", "C")) == pytest.approx(
                0.0, abs=1e-12)


class TestIsFunctionOf:
    def test_copy_is_function(self):
        assert is_function_of(copied_bit(), "A", "B")

    def test_independent_is_not(self):
        assert not is_function_of(uniform_pair(), "A", "B")

    def test_standard_code_not_recoverable(self):
        assert not is_function_of(standard_code_first_view(), "M", ("Y1", "Y3"))

    def test_empty_given_is_point_mass_test(self):
        d = JointDistribution((("A", 2), ("B", 2)),
                              {(1, 0): H, (1, 1): H})
        assert is_function_of(d, "A", ())
        assert not is_function_of(d, "B", ())

    def test_target_of_several_variables(self):
        # A = C, B an independent bit: (A, B) is not a function of C
        d = JointDistribution.from_weights(
            (("A", 2), ("B", 2), ("C", 2)),
            {(c, b, c): 1 for b, c in product(range(2), repeat=2)})
        assert conditional_entropy(d, ("A", "B"), "C") == pytest.approx(1.0, abs=1e-12)
        assert not is_function_of(d, ("A", "B"), "C")
        assert is_function_of(d, ("A", "C"), "C")
        assert is_function_of(d, ("A", "B"), ("B", "C"))

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            is_function_of(copied_bit(), (), "B")

    def test_function_implies_full_information(self):
        rng = random.Random(13)
        for _ in range(40):
            d = random_rational_distribution(rng, (("A", 3), ("B", 3)))
            if is_function_of(d, "A", "B"):
                assert mutual_information(d, "A", "B") == pytest.approx(
                    entropy(d, "A"), abs=1e-12)


def y_equal_pair():
    # Y1 = Y2 uniform bit, no conditioning
    return JointDistribution(
        (("Y1", 2), ("Y2", 2)), {(0, 0): H, (1, 1): H})


class TestHanCollection:
    def test_full_set_collection_is_equality(self):
        d = JointDistribution.uniform((("Y1", 2), ("Y2", 3), ("X", 2)))
        res = check_han_collection(d, ("Y1", "Y2"), "X", [(0, 1)], 1)
        assert res.holds
        assert res.slack == 0.0

    def test_copied_pair_slack_one_bit(self):
        res = check_han_collection(y_equal_pair(), ("Y1", "Y2"), (), [(0,), (1,)], 1)
        assert res.holds
        assert res.slack == pytest.approx(1.0, abs=1e-12)

    def test_cover_count_precondition(self):
        d = JointDistribution.uniform((("Y1", 2), ("Y2", 2)))
        with pytest.raises(ValueError):
            check_han_collection(d, ("Y1", "Y2"), (), [(0,), (0, 1)], 1)

    def test_random_sweep_k3(self):
        rng = random.Random(20240917)
        variables = (("X", 2), ("Y1", 2), ("Y2", 2), ("Y3", 2))
        groups = ("Y1", "Y2", "Y3")
        for _ in range(1000):
            d = random_rational_distribution(rng, variables)
            for r in (1, 2, 3):
                assert check_han_subsets(d, groups, "X", r).holds


class TestHanSubsets:
    def test_r_equals_k_exact_zero(self):
        rng = random.Random(5)
        for _ in range(25):
            d = random_rational_distribution(rng, (("X", 2), ("Y1", 3), ("Y2", 2)))
            res = check_han_subsets(d, ("Y1", "Y2"), "X", 2)
            assert res.holds
            assert res.slack == 0.0

    def test_independent_uniform_r1_is_tight(self):
        d = JointDistribution.uniform((("Y1", 2), ("Y2", 2), ("Y3", 2)))
        res = check_han_subsets(d, ("Y1", "Y2", "Y3"), (), 1)
        assert res.holds
        assert res.slack == 0.0

    def test_random_sweep_k4(self):
        rng = random.Random(31337)
        variables = (("X", 2), ("Y1", 2), ("Y2", 2), ("Y3", 2), ("Y4", 2))
        groups = ("Y1", "Y2", "Y3", "Y4")
        for _ in range(500):
            d = random_rational_distribution(rng, variables)
            assert check_han_subsets(d, groups, "X", 2).holds

    def test_r_out_of_range(self):
        d = JointDistribution.uniform((("Y1", 2), ("Y2", 2)))
        with pytest.raises(ValueError):
            check_han_subsets(d, ("Y1", "Y2"), (), 3)

    def test_vector_groups_supported(self):
        # Y groups may be tuples of variables, matching the vector setting
        d = JointDistribution.uniform(
            (("A1", 2), ("A2", 2), ("B", 2), ("X", 2)))
        res = check_han_subsets(d, (("A1", "A2"), "B"), "X", 1)
        assert res.holds


class TestEntropyMonotone:
    def test_monotone_on_random(self):
        rng = random.Random(99)
        for _ in range(60):
            d = random_rational_distribution(rng, (("A", 2), ("B", 3), ("C", 2)))
            assert entropy(d, "A") <= entropy(d, ("A", "B")) + 1e-12
            assert entropy(d, ("A", "B")) <= entropy(d, ("A", "B", "C")) + 1e-12


class TestRandomDistributionBudget:
    def test_cell_cap_checked_before_drawing(self):
        rng = random.Random(3)
        state = rng.getstate()
        variables = [(f"Y{i}", 2) for i in range(64)]
        with pytest.raises(BudgetError):
            random_rational_distribution(rng, variables)
        assert rng.getstate() == state


# ---------------------------------------------------------------------------
# properties of the integer-weight form, over random weight tables

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def weight_tables(draw):
    """(variables, weights) on 1-4 variables, alphabets of 1-3, some zeros."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    variables = tuple((f"V{i}", s) for i, s in enumerate(sizes))
    keys = list(product(*(range(s) for s in sizes)))
    ws = draw(st.lists(st.integers(0, 40), min_size=len(keys), max_size=len(keys)))
    if not any(ws):
        ws[draw(st.integers(0, len(keys) - 1))] = 1
    return variables, dict(zip(keys, ws))


def fraction_weights(weights):
    """The Fraction -> lcm path: probabilities first, then a common denominator."""
    total = sum(weights.values())
    table = {k: Fraction(w, total) for k, w in weights.items() if w > 0}
    denom = math.lcm(*(p.denominator for p in table.values()))
    return {k: int(p * denom) for k, p in table.items()}, denom


def literal_project(weights, positions):
    """Oracle: the weights summed onto positions, each sub-key built one
    position at a time, cells in order of first occurrence."""
    out = {}
    for key, w in weights.items():
        sub = tuple(key[i] for i in positions)
        out[sub] = out.get(sub, 0) + w
    return out


def names_subset(draw, variables):
    names = [n for n, _ in variables]
    return draw(st.lists(st.sampled_from(names), min_size=1, unique=True))


class TestIntegerWeightProperties:
    @PROPERTY
    @given(weight_tables(), st.integers(1, 1000))
    def test_scaling_is_invisible(self, table, c):
        variables, weights = table
        d = JointDistribution.from_weights(variables, weights)
        scaled = JointDistribution.from_weights(
            variables, {k: c * w for k, w in weights.items()})
        assert scaled == d
        assert scaled.to_json_dict() == d.to_json_dict()

    @PROPERTY
    @given(weight_tables())
    def test_json_round_trip(self, table):
        d = JointDistribution.from_weights(*table)
        assert JointDistribution.from_json_dict(d.to_json_dict()) == d

    @PROPERTY
    @given(st.data())
    def test_marginal_matches_fraction_sums(self, data):
        variables, weights = data.draw(weight_tables())
        names = names_subset(data.draw, variables)
        pos = [i for i, (n, _) in enumerate(variables) if n in names]
        total = sum(weights.values())
        oracle: dict = {}
        for key, w in weights.items():
            if w:
                sub = tuple(key[i] for i in pos)
                oracle[sub] = oracle.get(sub, Fraction(0)) + Fraction(w, total)
        got = marginal(JointDistribution.from_weights(variables, weights), names)
        assert got.table == oracle

    @PROPERTY
    @given(st.data())
    def test_entropy_and_han_slack_bit_identical(self, data):
        variables, weights = data.draw(weight_tables())
        names = names_subset(data.draw, variables)
        d = JointDistribution.from_weights(variables, weights)
        old, denom = fraction_weights(weights)
        pos = tuple(i for i, (n, _) in enumerate(variables) if n in names)
        assert entropy(d, names) == _entropy_of_weights(literal_project(old, pos), denom)

        # first variable conditions when there are others, the rest are Y groups
        given_pos = (0,) if len(variables) > 1 else ()
        ys = [i for i in range(len(variables)) if i not in given_pos]
        k = len(ys)
        r = data.draw(st.integers(1, k))
        h_given = (_entropy_of_weights(literal_project(old, given_pos), denom)
                   if given_pos else 0.0)

        def cond_h(idx):
            key = tuple(sorted(set(given_pos) | {ys[i] for i in idx}))
            return _entropy_of_weights(literal_project(old, key), denom) - h_given

        slack = (sum(cond_h(s) for s in combinations(range(k), r))
                 - math.comb(k - 1, r - 1) * cond_h(range(k)))
        groups = [variables[i][0] for i in ys]
        given_names = [variables[i][0] for i in given_pos]
        assert check_han_subsets(d, groups, given_names, r).slack == slack


# ---------------------------------------------------------------------------
# projections, the marginal memo and the exact Han decision


class TestMarginalMemo:
    def test_project_keeps_keys_as_tuples_in_position_order(self):
        weights = {(0, 1, 2): 1, (1, 1, 0): 2, (0, 0, 2): 3}
        for positions in [(), (1,), (2,), (0, 2), (2, 0), (2, 1, 0), (0, 1, 2)]:
            got = _project(weights, positions)
            assert list(got.items()) == list(literal_project(weights, positions).items())
        assert _project(weights, (2,)) == {(2,): 4, (0,): 2}
        assert _project(weights, (2, 0)) == {(2, 0): 4, (0, 1): 2}
        assert _project(weights, ()) == {(): 6}

    @PROPERTY
    @given(st.data())
    def test_project_is_the_literal_sum(self, data):
        variables, weights = data.draw(weight_tables())
        positions = data.draw(st.lists(st.integers(0, len(variables) - 1), unique=True))
        got = _project(weights, positions)
        assert list(got.items()) == list(literal_project(weights, positions).items())

    @PROPERTY
    @given(st.data())
    def test_every_marginal_is_the_direct_projection(self, data):
        variables, weights = data.draw(weight_tables())
        d = JointDistribution.from_weights(variables, weights)
        n = len(variables)
        keys = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), unique=True).map(lambda p: tuple(sorted(p))),
            max_size=12))
        for key in keys:
            got = _marginal_weights(d, key)
            assert list(got.items()) == list(literal_project(d.weights, key).items())
        for key, got in d._marginals.items():
            assert list(got.items()) == list(literal_project(d.weights, key).items())

    def test_memo_is_not_part_of_the_value(self):
        rng = random.Random(4)
        variables = (("X", 2), ("Y1", 3), ("Y2", 2))
        a = random_rational_distribution(rng, variables)
        b = JointDistribution.from_weights(variables, a.weights)
        check_han_subsets(a, ("Y1", "Y2"), "X", 1)
        assert len(a._marginals) > len(b._marginals)
        assert [f.name for f in fields(a)] == ["variables", "weights", "total"]
        assert a == b
        assert repr(a) == repr(b)
        assert a.to_json_dict() == b.to_json_dict()
        # hash is over the fields: weights is a dict, so neither is hashable
        for dist in (a, b):
            with pytest.raises(TypeError, match="unhashable"):
                hash(dist)

    def test_han_calls_share_marginals(self):
        rng = random.Random(6)
        d = random_rational_distribution(rng, (("X", 2), ("Y1", 2), ("Y2", 2), ("Y3", 2)))
        check_han_subsets(d, ("Y1", "Y2", "Y3"), "X", 2)
        built = dict(d._marginals)
        check_han_collection(d, ("Y1", "Y2", "Y3"), "X", [(0, 1), (1, 2), (2, 0)], 2)
        assert d._marginals == built
        assert all(d._marginals[key] is table for key, table in built.items())


def spy_on(monkeypatch, name):
    calls = []
    real = getattr(info_theory, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(info_theory, name, spy)
    return calls


def conditionally_independent(rng, k, size=2):
    """Weights a(x) * prod_i b_i(y_i | x): the Y_i are independent given X."""
    a = [rng.randint(1, 9) for _ in range(size)]
    b = [[[rng.randint(1, 9) for _ in range(size)] for _ in range(size)] for _ in range(k)]
    weights = {}
    for key in product(range(size), repeat=k + 1):
        w = a[key[0]]
        for i, y in enumerate(key[1:]):
            w *= b[i][key[0]][y]
        weights[key] = w
    variables = (("X", size),) + tuple((f"Y{i + 1}", size) for i in range(k))
    return JointDistribution.from_weights(variables, weights)


class TestExactHanDecision:
    def test_r_equals_k_cancels_to_no_powers(self, monkeypatch):
        powers = spy_on(monkeypatch, "_weight_powers_ge")
        rng = random.Random(8)
        variables = (("X", 2), ("Y1", 2), ("Y2", 3), ("Y3", 2))
        for _ in range(20):
            d = random_rational_distribution(rng, variables)
            res = check_han_subsets(d, ("Y1", "Y2", "Y3"), "X", 3)
            assert res.holds and res.slack == 0.0
        assert powers == [([], [])] * 20

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_conditionally_independent_ys_are_ties_at_every_r(self, monkeypatch, k):
        exact = spy_on(monkeypatch, "_han_holds_exactly")
        rng = random.Random(k)
        groups = tuple(f"Y{i + 1}" for i in range(k))
        for _ in range(5):
            d = conditionally_independent(rng, k)
            for r in range(1, k + 1):
                res = check_han_subsets(d, groups, "X", r)
                assert res.holds
                assert abs(res.slack) <= _HAN_FILTER
        assert len(exact) == 5 * k

    def test_products_one_unit_apart(self):
        # two cells (2, 2) give 2^2 2^2 = 16; moving one unit gives (1, 3), 3^3 = 27
        even = {(0,): 2, (1,): 2}
        skewed = {(0,): 1, (1,): 3}
        assert not _weight_powers_ge([(even, 1)], [(skewed, 1)])
        assert _weight_powers_ge([(skewed, 1)], [(even, 1)])
        assert _weight_powers_ge([(even, 1)], [(even, 1)])
        # 6^6 = (2^2)^3 (3^3)^2: a tie between different bases
        six = {(0,): 6}
        assert _weight_powers_ge([(six, 1)], [({(0,): 2}, 3), ({(0,): 3}, 2)])
        assert _weight_powers_ge([({(0,): 2}, 3), ({(0,): 3}, 2)], [(six, 1)])
        assert not _weight_powers_ge([({(0,): 2}, 3), ({(0,): 3}, 2)], [(six, 1), (even, 1)])
        # 4^1581 = 2^3162 and 27^665 = 3^1995 differ by 2e-4 bits in 3162
        two, three = {(0,): 2}, {(0,): 3}
        assert not _weight_powers_ge([(two, 1581)], [(three, 665)])
        assert _weight_powers_ge([(three, 665)], [(two, 1581)])

    def test_coprime_exponents_cancel_ties(self):
        # 6^6 = 4^3 27^2, and 101 103 against 101 and 103 (past the small primes)
        assert _coprime_exponents({6: 6, 4: -3, 27: -2}) == {}
        assert _coprime_exponents({101 * 103: 2, 101: -2, 103: -2}) == {}
        assert _coprime_exponents({12: 1, 18: -1}) == {2: 1, 3: -1}
        assert _coprime_exponents({101 * 103: 1, 101 * 107: -1}) == {103: 1, 107: -1}

    @PROPERTY
    @given(st.dictionaries(st.sampled_from([2, 6, 9, 12, 101, 202, 303, 101 * 103, 103 * 107,
                                            107 * 107, 2 ** 40 * 101]),
                           st.integers(-5, 5), max_size=8))
    def test_coprime_exponents_keep_the_product(self, powers):
        coprime = _coprime_exponents(powers)
        product_of = lambda ps: math.prod(Fraction(b) ** e for b, e in ps.items())
        assert product_of(coprime) == product_of(powers)
        assert all(e and b > 1 for b, e in coprime.items())
        assert all(math.gcd(b, c) == 1 for b, c in combinations(coprime, 2))

    def test_undecided_log_comparison_raises_budget_error(self, monkeypatch):
        # the logs of 2^3162 and 3^1995 agree to 7 digits
        monkeypatch.setattr(info_theory, "_HAN_LOG_DIGITS", (3, 5))
        with pytest.raises(BudgetError, match="not decided at 5 digits"):
            _weight_powers_ge([({(0,): 2}, 1581)], [({(0,): 3}, 665)])

    def test_near_tie_at_a_large_total(self, monkeypatch):
        # conditionally independent Ys with weights near 10^6, then one
        # unit added: the slack is a hair above 0 and the products have
        # millions of bits, yet the first precision of the logs decides
        refinements = spy_on(monkeypatch, "_coprime_exponents")
        rng = random.Random(12)
        k = 3
        a = [rng.randint(900, 1000) for _ in range(2)]
        b = [[[rng.randint(90, 100) for _ in range(2)] for _ in range(2)] for _ in range(k)]
        weights = {}
        for key in product(range(2), repeat=k + 1):
            w = a[key[0]]
            for i, y in enumerate(key[1:]):
                w *= b[i][key[0]][y]
            weights[key] = w
        weights[(0,) * (k + 1)] += 1
        variables = (("X", 2),) + tuple((f"Y{i + 1}", 2) for i in range(k))
        d = JointDistribution.from_weights(variables, weights)
        assert d.total > 10 ** 9
        groups = ("Y1", "Y2", "Y3")
        for r in (1, 2):
            res = check_han_subsets(d, groups, "X", r)
            assert res.holds
            assert abs(res.slack) <= _HAN_FILTER
            h = math.comb(k - 1, r - 1)
            subset_keys = [(0,) + tuple(i + 1 for i in s)
                           for s in combinations(range(k), r)]
            y_key = tuple(range(k + 1))
            sides = Counter({(0,): len(subset_keys) - h})
            sides[y_key] += h
            sides.subtract(subset_keys)
            left = [(_marginal_weights(d, key), e) for key, e in sides.items() if e > 0]
            right = [(_marginal_weights(d, key), -e) for key, e in sides.items() if e < 0]
            # not a tie: the reversed comparison fails
            assert not _weight_powers_ge(right, left)
        assert refinements == []

    @PROPERTY
    @given(st.data())
    def test_exact_decision_agrees_with_clear_float_signs(self, data):
        variables, weights = data.draw(weight_tables())
        if len(variables) < 2:
            return
        d = JointDistribution.from_weights(variables, weights)
        names = [n for n, _ in variables]
        k = len(names) - 1
        r = data.draw(st.integers(1, k))
        h = math.comb(k - 1, r - 1)
        subset_keys = [(0,) + tuple(i + 1 for i in s) for s in combinations(range(k), r)]
        y_key = tuple(range(k + 1))
        res = check_han_subsets(d, names[1:], names[0], r)
        if abs(res.slack) > _HAN_FILTER:
            assert _han_holds_exactly(d, (0,), y_key, subset_keys, h) == (res.slack > 0)
        # one more copy of H(Y | X) on the right can fail: both signs get checked
        slack = res.slack - conditional_entropy(d, names[1:], names[0])
        if abs(slack) > _HAN_FILTER:
            assert _han_holds_exactly(d, (0,), y_key, subset_keys, h + 1) == (slack > 0)

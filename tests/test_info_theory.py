import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretaplab.errors import BudgetError
from wiretaplab.info_theory import (
    JointDistribution,
    _entropy_of_weights,
    _project,
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
        with pytest.raises(KeyError):
            marginal(uniform_pair(), "C")


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
        assert entropy(d, names) == _entropy_of_weights(_project(old, pos), denom)

        # first variable conditions when there are others, the rest are Y groups
        given_pos = (0,) if len(variables) > 1 else ()
        ys = [i for i in range(len(variables)) if i not in given_pos]
        k = len(ys)
        r = data.draw(st.integers(1, k))
        h_given = (_entropy_of_weights(_project(old, given_pos), denom)
                   if given_pos else 0.0)

        def cond_h(idx):
            key = tuple(sorted(set(given_pos) | {ys[i] for i in idx}))
            return _entropy_of_weights(_project(old, key), denom) - h_given

        slack = (sum(cond_h(s) for s in combinations(range(k), r))
                 - math.comb(k - 1, r - 1) * cond_h(range(k)))
        groups = [variables[i][0] for i in ys]
        given_names = [variables[i][0] for i in given_pos]
        assert check_han_subsets(d, groups, given_names, r).slack == slack

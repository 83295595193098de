import random
from itertools import product

import pytest

from wiretaplab.errors import BudgetError
from wiretaplab.algebra import (
    Matrix,
    build_mds_generator,
    is_prime,
    verify_mds,
)


def trial_division(n):
    """Oracle: n is prime iff no f with f * f <= n divides it."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def strong_probable_prime(n, a):
    """One Miller-Rabin round, written out: with n - 1 = t 2^s and t odd,
    a^t = 1 or a^(t 2^i) = -1 mod n for some i < s."""
    t, s = n - 1, 0
    while t % 2 == 0:
        t, s = t // 2, s + 1
    powers = [pow(a, t * 2 ** i, n) for i in range(s)]
    return powers[0] == 1 or n - 1 in powers


class TestPrimeField:
    def test_is_prime(self):
        primes = [n for n in range(2, 40) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]

    def test_matches_trial_division(self):
        assert all(is_prime(n) == trial_division(n) for n in range(-3, 30000))
        rng = random.Random(3)
        for n in rng.sample(range(10 ** 9, 10 ** 10), 200):
            assert is_prime(n) == trial_division(n), n

    def test_strong_pseudoprimes_are_composite(self):
        # the least strong pseudoprimes to the prime bases up to 7, 13, 31
        # and 37; the last passes every base up to 37, so base 41 is needed
        for n, factor in ((3215031751, 151), (3474749660383, 1303),
                          (3825123056546413051, 149491),
                          (318665857834031151167461, 399165290221)):
            assert n % factor == 0
            assert not is_prime(n)
        assert all(strong_probable_prime(318665857834031151167461, a)
                   for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))

    def test_large_numbers(self):
        for n in (2 ** 61 - 1, 10 ** 18 + 3, 10 ** 18 + 9):
            assert is_prime(n), n
        for n in (10 ** 18 + 1, 1000000007 * 998244353, (2 ** 61 - 1) * 1000003):
            assert not is_prime(n), n

    def test_beyond_the_exact_bound_is_refused(self):
        # the bound passes all thirteen bases, so the test cannot decide it
        bound = 3317044064679887385961981
        assert bound == 1287836182261 * 2575672364521
        assert all(strong_probable_prime(bound, a)
                   for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
        assert not is_prime(bound - 1)
        for n in (bound, bound + 2, 2 ** 89 - 1):
            with pytest.raises(BudgetError):
                is_prime(n)


def det2(m: Matrix, i: int, j: int) -> int:
    # closed-form 2x2 determinant of columns (i, j); independent of Bareiss
    a, b = m.entry(0, i), m.entry(0, j)
    c, e = m.entry(1, i), m.entry(1, j)
    return (a * e - b * c) % m.modulus


class TestMdsGenerator:
    def test_k2_r1_q2_is_all_ones(self):
        g = build_mds_generator(2, 1, 2)
        assert (g.rows, g.cols) == (1, 2)
        assert g.entries == (1, 1)
        assert verify_mds(g)

    def test_k4_r2_q7_all_six_submatrices(self):
        g = build_mds_generator(4, 2, 7)
        assert (g.rows, g.cols) == (2, 4)
        # identity block up front
        assert g.entry(0, 0) == 1 and g.entry(1, 1) == 1
        assert g.entry(0, 1) == 0 and g.entry(1, 0) == 0
        # oracle: 2x2 closed-form determinant over all 6 column pairs
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert len(pairs) == 6
        assert all(det2(g, i, j) != 0 for i, j in pairs)
        assert verify_mds(g)

    def test_q_smaller_than_k_rejected(self):
        with pytest.raises(ValueError):
            build_mds_generator(3, 2, 2)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            build_mds_generator(2, 2, 7)
        with pytest.raises(ValueError):
            build_mds_generator(2, 0, 7)
        with pytest.raises(ValueError):
            build_mds_generator(4, 2, 9)  # not prime

    def test_generator_verifies_up_to_k8(self):
        for q in (2, 3, 5, 7, 11):
            for k in range(2, min(8, q) + 1):
                for r in range(1, k):
                    assert verify_mds(build_mds_generator(k, r, q)), (k, r, q)


class TestVerifyMds:
    def test_identity_over_f3(self):
        assert verify_mds(Matrix.from_rows([[1, 0], [0, 1]], 3))

    def test_two_equal_columns_fail(self):
        m = Matrix.from_rows([[1, 1, 0], [2, 2, 1]], 5)
        assert not verify_mds(m)

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            verify_mds(Matrix.from_rows([[1, 0], [0, 1]], 6))

    def test_agrees_with_closed_form_on_random_2x4_over_f5(self):
        rng = random.Random(20240917)
        for _ in range(300):
            m = Matrix.from_rows(
                [[rng.randrange(5) for _ in range(4)] for _ in range(2)], 5)
            pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
            expected = all(det2(m, i, j) != 0 for i, j in pairs)
            assert verify_mds(m) == expected


class TestMatrix:
    def test_determinant_matches_cofactor_3x3(self):
        rng = random.Random(7)
        for _ in range(200):
            rows = [[rng.randrange(7) for _ in range(3)] for _ in range(3)]
            m = Matrix.from_rows(rows, 7)
            a, b, c = rows[0]
            d, e, f = rows[1]
            g, h, i = rows[2]
            cof = (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % 7
            assert m.determinant() == cof

    def test_determinant_over_zd_with_zero_divisors(self):
        m = Matrix.from_rows([[2, 1], [4, 5]], 6)
        assert m.determinant() == (2 * 5 - 1 * 4) % 6

    def test_text_round_trip(self):
        m = build_mds_generator(5, 3, 7)
        again = Matrix.from_text(m.to_text())
        assert again == m

    def test_from_text_validates(self):
        with pytest.raises(ValueError):
            Matrix.from_text("2 2 5\n1 2 3\n")

    def test_mat_vec(self):
        g = Matrix.from_rows([[1, 0, 2], [0, 1, 3]], 5)
        assert g.mat_vec((2, 3)) == (2, 3, (4 + 9) % 5)


class TestRank:
    def test_matches_the_size_of_the_row_span(self):
        # oracle: the rows span exactly p^rank vectors
        rng = random.Random(20261018)
        for _ in range(300):
            p = rng.choice((2, 3, 5, 7))
            rows, cols = rng.randint(0, 4), rng.randint(0, 4)
            m = Matrix(rows, cols, p, tuple(rng.randrange(p) for _ in range(rows * cols)))
            span = {m.mat_vec(v) for v in product(range(p), repeat=rows)}
            assert p ** m.rank() == len(span), m

    def test_square_rank_is_full_iff_the_determinant_is_nonzero(self):
        rng = random.Random(11)
        for _ in range(200):
            m = Matrix.from_rows([[rng.randrange(3) for _ in range(3)] for _ in range(3)], 3)
            assert (m.rank() == 3) == (m.determinant() != 0)

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            Matrix.from_rows([[2, 0], [0, 3]], 6).rank()

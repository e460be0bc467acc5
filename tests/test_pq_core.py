"""Tests for the two-parameter integer/factorial/binomial primitives."""

from fractions import Fraction

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqbernstein.pq_core import (
    FloatRangeError,
    PQPair,
    bracket_values,
    pq_binomial_expansion_check,
    pq_binomials,
    pq_factorials,
    pq_integer,
)
from pqbernstein.univariate import basis_row_exact

EXACT_PAIRS = [
    PQPair(Fraction(1), Fraction(1, 2)),
    PQPair(Fraction(3, 4), Fraction(1, 2)),
    PQPair(Fraction(9, 10), Fraction(3, 5)),
]


def rationals(min_num=1, max_num=20):
    return st.fractions(
        min_value=Fraction(1, 100), max_value=Fraction(1), max_denominator=50
    )


pair_strategy = (
    st.tuples(
        st.fractions(min_value=Fraction(1, 40), max_value=Fraction(39, 40), max_denominator=40),
        st.fractions(min_value=Fraction(1, 40), max_value=Fraction(1), max_denominator=40),
    )
    .filter(lambda ab: ab[0] != ab[1])
    .map(lambda ab: PQPair(max(ab), min(ab)))
)


class TestPQPair:
    def test_rejects_bad_orderings(self):
        with pytest.raises(ValueError):
            PQPair(Fraction(1, 2), Fraction(1, 2))  # q == p
        with pytest.raises(ValueError):
            PQPair(Fraction(1, 2), Fraction(3, 4))  # q > p
        with pytest.raises(ValueError):
            PQPair(Fraction(11, 10), Fraction(1, 2))  # p > 1
        with pytest.raises(ValueError):
            PQPair(Fraction(1, 2), Fraction(0))  # q == 0

    def test_accepts_p_equal_one(self):
        pq = PQPair(Fraction(1), Fraction(1, 2))
        assert pq.is_exact
        assert pq.ratio == Fraction(1, 2)

    def test_float_pair_not_exact(self):
        pq = PQPair(0.9, 0.6)
        assert not pq.is_exact
        ep, eq = pq.exact().p, pq.exact().q
        assert isinstance(ep, Fraction) and isinstance(eq, Fraction)


class TestPQInteger:
    def test_small_values_by_hand(self):
        # [0]=0, [1]=1, [2]=p+q, [3]=p^2+pq+q^2
        pq = PQPair(Fraction(3, 4), Fraction(1, 2))
        assert pq_integer(0, pq) == 0
        assert pq_integer(1, pq) == 1
        assert pq_integer(2, pq) == Fraction(3, 4) + Fraction(1, 2)
        p, q = pq.p, pq.q
        assert pq_integer(3, pq) == p * p + p * q + q * q

    def test_ratio_of_power_differences(self):
        # [n] == (p^n - q^n)/(p - q) whenever p != q
        pq = PQPair(Fraction(9, 10), Fraction(3, 5))
        p, q = pq.p, pq.q
        for n in range(1, 15):
            assert pq_integer(n, pq) == (p**n - q**n) / (p - q)

    def test_q_integer_degeneration_at_p_one(self):
        # at p = 1 the value is the classical q-integer (1-q^n)/(1-q)
        pq = PQPair(Fraction(1), Fraction(1, 2))
        q = pq.q
        for n in range(1, 12):
            assert pq_integer(n, pq) == (1 - q**n) / (1 - q)

    @given(pq=pair_strategy, n=st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_two_recurrences_exact(self, pq, n):
        p, q = pq.p, pq.q
        prev = pq_integer(n - 1, pq)
        cur = pq_integer(n, pq)
        assert cur == p * prev + q ** (n - 1)
        assert cur == q * prev + p ** (n - 1)

    @given(pq=pair_strategy, n=st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_float_matches_exact(self, pq, n):
        # against the exact [n] of the same float pair: the fsum of rounded
        # powers stays within 2 eps (below 1 eps over 400 random pairs, k <= 40)
        fpq = pq.floats()
        exact = pq_integer(n, fpq.exact())
        approx = pq_integer(n, fpq)
        assert abs(Fraction(approx) - exact) <= 2 * sys.float_info.epsilon * exact


class TestBracketTables:
    def test_bracket_values_match_pq_integer(self):
        pq = PQPair(Fraction(3, 4), Fraction(1, 2))
        vals = bracket_values(10, pq)
        assert vals == [pq_integer(i, pq) for i in range(11)]

    def test_factorial_is_running_product(self):
        pq = PQPair(Fraction(9, 10), Fraction(3, 5))
        acc = Fraction(1)
        facts = pq_factorials(8, pq)
        assert facts[0] == 1
        for n in range(1, 9):
            acc *= pq_integer(n, pq)
            assert facts[n] == acc

    def test_reduced_pair_gives_the_r_recurrence_bit_for_bit(self):
        # at (1, r) the recurrence is [i]_r = r [i-1]_r + 1, the form the
        # float basis and nodes were pinned with
        for p, q in ((0.9, 0.6), (0.5, 0.4), (1e-300, 1e-301), (0.9615, 0.905), (1.0, 0.999)):
            pq = PQPair(p, q).reduced()
            assert pq == PQPair(1.0, q / p)
            ref = [0.0]
            for _ in range(2048):
                ref.append(ref[-1] * pq.q + 1.0)
            assert bracket_values(2048, pq) == ref

    def test_float_factorial_names_the_first_zero_bracket(self):
        # [3] = p^2 + pq + q^2 underflows for p = 1e-300
        pq = PQPair(1e-300, 1e-301)
        assert pq_factorials(2, pq)[-1] == 1e-300 + 1e-301
        with pytest.raises(FloatRangeError, match=r"^\[3\]_\{p,q\} underflows to 0$"):
            pq_factorials(8, pq)


class TestBinomial:
    def test_boundary_cases(self):
        pq = PQPair(Fraction(3, 4), Fraction(1, 2))
        for n in range(0, 8):
            row = pq_binomials(n, pq)
            assert len(row) == n + 1
            assert row[0] == 1
            assert row[n] == 1
        with pytest.raises(ValueError):
            pq_binomials(-1, pq)
        with pytest.raises(ValueError):
            pq_factorials(-1, pq)

    def test_factorial_ratio_definition(self):
        pq = PQPair(Fraction(9, 10), Fraction(3, 5))
        fact = pq_factorials(11, pq)
        for n in range(0, 12):
            row = pq_binomials(n, pq)
            for k in range(0, n + 1):
                assert row[k] == fact[n] / (fact[k] * fact[n - k])

    @given(pq=pair_strategy, n=st.integers(min_value=0, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, pq, n):
        row = pq_binomials(n, pq)
        for k in {0, min(1, n), n // 3, n // 2, n}:
            assert row[k] == row[n - k]

    def test_float_binomial_accuracy(self):
        pq_exact = PQPair(Fraction(9, 10), Fraction(3, 5))
        pq_float = PQPair(0.9, 0.6)
        for n in (5, 20, 50):
            exact_row, float_row = pq_binomials(n, pq_exact), pq_binomials(n, pq_float)
            for k in range(0, n + 1, max(1, n // 7)):
                assert math.isclose(float_row[k], float(exact_row[k]), rel_tol=1e-11)

    def test_float_binomial_and_factorial_accuracy_at_p_below_one(self):
        # the binomial is p^(k(n-k)) [n over k]_r; both it and the factorial
        # stay within 1e-12 of the exact value where p^(k(n-k)) is far from 1
        pq_exact = PQPair(Fraction(3, 4), Fraction(1, 2))
        pq_float = PQPair(0.75, 0.5)
        for n in (7, 30, 56):
            exact_row, float_row = pq_binomials(n, pq_exact), pq_binomials(n, pq_float)
            for k in range(n + 1):
                assert math.isclose(float_row[k], float(exact_row[k]), rel_tol=1e-12)
            exact = float(pq_factorials(n, pq_exact)[-1])
            assert math.isclose(pq_factorials(n, pq_float)[-1], exact, rel_tol=1e-12)


class TestFallingProduct:
    def test_explicit_product(self):
        # the falling product is R_{n,0}(x) up to the factor p^{-n(n-1)/2};
        # R_{n,n}(x) = x^n carries the empty product
        pq = PQPair(Fraction(3, 4), Fraction(1, 2))
        x = Fraction(1, 3)
        p, q = pq.p, pq.q
        expected = Fraction(1)
        for s in range(4):
            expected *= p**s - q**s * x
        row = basis_row_exact(4, x, pq)
        assert row[0] == p ** -6 * expected
        assert row[4] == x**4


class TestBinomialExpansion:
    @pytest.mark.parametrize("pq", EXACT_PAIRS)
    def test_expansion_identity_exact(self, pq):
        # Gauss-style binomial theorem: the weighted binomial sum equals the
        # telescoping product form; checked for strict rational equality.
        a, b = Fraction(2, 7), Fraction(1, 3)
        x, y = Fraction(1, 5), Fraction(3, 4)
        for n in range(0, 13):
            assert pq_binomial_expansion_check(n, a, b, x, y, pq)

    def test_expansion_identity_float(self):
        pq = PQPair(0.9, 0.6)
        for n in range(0, 16):
            assert pq_binomial_expansion_check(n, 0.37, 1.4, 0.8, 0.25, pq)

"""Tests for the univariate operator: basis, moments, central moments."""

from fractions import Fraction

import math

import numpy as np
import pytest

from pqbernstein.bivariate import SCHEDULES
from pqbernstein.pq_core import PQPair, pq_integer
from pqbernstein.univariate import (
    basis_row,
    basis_row_exact,
    central_moment4_display,
    node,
    nodes,
    uni_apply,
    uni_central_moment,
    uni_moment_closed,
)

EXACT_PAIRS = [
    PQPair(Fraction(1), Fraction(1, 2)),
    PQPair(Fraction(3, 4), Fraction(1, 2)),
    PQPair(Fraction(9, 10), Fraction(3, 5)),
]
X_POINTS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


class TestNodes:
    def test_endpoints(self):
        pq = PQPair(Fraction(3, 4), Fraction(1, 2))
        for n in range(1, 8):
            assert node(n, 0, pq) == 0
            assert node(n, n, pq) == 1

    def test_strictly_increasing(self):
        pq = PQPair(Fraction(9, 10), Fraction(3, 5))
        for n in (3, 7, 12):
            ts = nodes(n, pq)
            assert all(ts[k] < ts[k + 1] for k in range(n))

    def test_nodes_stay_in_unit_interval(self):
        pq = PQPair(Fraction(3, 4), Fraction(1, 2))
        for n in (3, 9):
            for k in range(n + 1):
                assert 0 <= node(n, k, pq) <= 1


class TestBasis:
    @pytest.mark.parametrize("pq", EXACT_PAIRS)
    def test_partition_of_unity_exact(self, pq):
        for n in (1, 4, 9):
            for x in X_POINTS:
                row = basis_row_exact(n, x, pq)
                assert sum(row) == 1
                assert all(w >= 0 for w in row)

    def test_float_matches_exact(self):
        pq_e = PQPair(Fraction(9, 10), Fraction(3, 5))
        pq_f = PQPair(0.9, 0.6)
        for n in (1, 5, 12, 25):
            for xf in (0.0, 0.25, 0.5, 0.875, 1.0):
                xe = Fraction(xf)
                exact = np.array([float(w) for w in basis_row_exact(n, xe, pq_e)])
                approx = basis_row(n, xf, pq_f)
                assert np.allclose(approx, exact, rtol=1e-11, atol=1e-15)

    def test_endpoint_rows_are_delta(self):
        pq = PQPair(0.9, 0.6)
        n = 7
        r0 = basis_row(n, 0.0, pq)
        r1 = basis_row(n, 1.0, pq)
        assert r0[0] == 1.0 and np.all(r0[1:] == 0.0)
        assert r1[n] == 1.0 and np.all(r1[:n] == 0.0)

    def test_partition_of_unity_float_large_n(self):
        pq = PQPair(0.9, 0.6)
        xs = np.linspace(0.0, 1.0, 101)
        for n in (50, 100):
            for x in xs:
                row = basis_row(n, float(x), pq)
                assert abs(math.fsum(row) - 1.0) <= 1e-12
                assert np.all(row >= -1e-15)


def _reference_row(n, x, pq):
    """One basis row by a per-x loop over the same log-domain arithmetic."""
    if x in (0.0, 1.0):
        w = np.zeros(n + 1)
        w[0 if x == 0.0 else n] = 1.0
        return w
    r = pq.ratio
    logbr, acc = [], 0.0
    for _ in range(n):
        acc = acc * r + 1.0
        logbr.append(math.log(acc))
    logfact = np.concatenate(([0.0], np.cumsum(logbr)))
    logfall = np.concatenate(([0.0], np.cumsum(np.log1p(-(r ** np.arange(n)) * x))))
    k = np.arange(n + 1)
    return np.exp(logfact[n] - logfact[k] - logfact[n - k] + k * math.log(x) + logfall[n - k])


class TestBasisArray:
    @pytest.mark.parametrize("n", [1, 5, 32, 700, 2048])
    def test_equals_stacked_scalar_rows(self, n):
        xs = np.concatenate([[0.0, 1.0, 5e-324, 1 - 2**-53], np.linspace(0.0, 1.0, 23)])
        for pq in (PQPair(0.9, 0.6), PQPair(1.0, 1 - 1e-6), SCHEDULES["ii"].pair(max(n, 2))):
            W = basis_row(n, xs, pq)
            assert W.shape == (xs.size, n + 1)
            rows = np.stack([basis_row(n, float(x), pq) for x in xs])
            reference = np.stack([_reference_row(n, float(x), pq) for x in xs])
            assert W.tobytes() == rows.tobytes() == reference.tobytes()

    def test_equals_reference_on_a_fine_grid(self):
        # np.log and math.log differ in the last bit at a few of these x
        xs = np.linspace(0.0, 1.0, 4001)
        pq = PQPair(0.9, 0.6)
        reference = np.stack([_reference_row(5, float(x), pq) for x in xs])
        assert basis_row(5, xs, pq).tobytes() == reference.tobytes()

    def test_rejects_entries_outside_unit_interval(self):
        pq = PQPair(0.9, 0.6)
        for bad in (1.5, -0.25, math.nan, math.inf):
            with pytest.raises(ValueError, match="x must lie in"):
                basis_row(5, np.array([0.0, 0.5, bad]), pq)
            with pytest.raises(ValueError, match="x must lie in"):
                basis_row(5, bad, pq)

    @pytest.mark.parametrize("n", [128, 2048, 16384])
    def test_partition_of_unity_to_large_n(self, n):
        """|sum_k w_k - 1| at 101 points x in [0, 1], one call per pair.

        Error model.  w_k = exp(L_k) with
        L_k = l(n) - l(k) - l(n-k) + k ln x + lam(n-k), where
        l(m) = sum_{i<=m} ln [i]_r and lam(j) = sum_{s<j} ln(1 - r^s x)
        are running sums (np.cumsum) of at most n terms.  [i]_r <= i
        bounds |l| by n ln n; for these x (at most 0.99) each
        |ln(1 - r^s x)| <= ln 100 < ln n, so |lam| <= n ln n as well.
        Each addition rounds with relative error at most u = 2^-53 of a
        partial sum bounded by n ln n; taking the n roundings of a sum as
        independent, its error has standard deviation at most
        u n ln n sqrt(n).  L_k adds four such sums (the rounding of
        k ln x is smaller), so sd(dL_k) <= 4 u n^1.5 ln n.  exp turns an
        absolute error dL_k into the relative error dL_k of w_k, and the
        exact weights sum to 1 (math.fsum adds the computed ones almost
        exactly), so |sum - 1| <= max_k |dL_k|.  The tolerance allows
        four standard deviations: 16 u n^1.5 ln n.
        """
        xs = np.linspace(0.0, 1.0, 101)
        tol = 16 * 2.0**-53 * n**1.5 * math.log(n)
        for pq in (PQPair(1.0, 1.0 - 1e-6), SCHEDULES["i"].pair(n)):
            W = basis_row(n, xs, pq)
            assert W.min() >= 0.0
            worst = max(abs(math.fsum(row) - 1.0) for row in W)
            assert worst <= tol, (pq, worst, tol)


class TestOperator:
    def test_interpolates_endpoints(self):
        pq = PQPair(0.9, 0.6)
        f = lambda t: math.sin(3.0 * t) + 0.5
        for n in (2, 6, 11):
            assert uni_apply(f, n, 0.0, pq) == pytest.approx(f(0.0), abs=1e-14)
            assert uni_apply(f, n, 1.0, pq) == pytest.approx(f(1.0), abs=1e-14)

    @pytest.mark.parametrize("pq", EXACT_PAIRS)
    def test_exact_on_constants_and_linears(self, pq):
        for n in range(1, 10):
            for x in X_POINTS:
                assert uni_apply(lambda t: Fraction(1), n, x, pq) == 1
                assert uni_apply(lambda t: t, n, x, pq) == x

    def test_positivity_on_random_nonnegative_f(self):
        rng = np.random.default_rng(0)
        pq = PQPair(0.9, 0.6)
        vals = rng.uniform(0.0, 2.0, size=200)
        f = lambda t: float(np.interp(t, np.linspace(0, 1, 200), vals))
        for n in (3, 8, 15):
            for x in (0.1, 0.5, 0.9):
                assert uni_apply(f, n, x, pq) >= 0.0

    def test_monotone_in_f(self):
        # positivity implies monotonicity: f <= g pointwise => Bf <= Bg
        pq = PQPair(0.75, 0.5)
        f = lambda t: t * t
        g = lambda t: t * t + 0.25 * t + 0.01
        for n in (4, 9):
            for x in (0.2, 0.5, 0.8):
                assert uni_apply(f, n, x, pq) <= uni_apply(g, n, x, pq)


class TestMoments:
    @pytest.mark.parametrize("pq", EXACT_PAIRS)
    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_closed_forms_match_operator_exactly(self, pq, i):
        for n in range(1, 13):
            for x in X_POINTS:
                oracle = uni_apply(lambda t, i=i: t**i, n, x, pq)
                assert uni_moment_closed(i, n, x, pq) == oracle

    def test_float_moments_close_to_exact(self):
        pq_e = PQPair(Fraction(9, 10), Fraction(3, 5))
        pq_f = PQPair(0.9, 0.6)
        for i in range(5):
            for n in (3, 10, 40):
                for x in (0.25, 0.5, 0.75):
                    exact = float(uni_moment_closed(i, n, Fraction(x), pq_e))
                    approx = uni_moment_closed(i, n, x, pq_f)
                    assert math.isclose(approx, exact, rel_tol=1e-11, abs_tol=1e-15)


class TestCentralMoments:
    @pytest.mark.parametrize("pq", EXACT_PAIRS)
    def test_second_central_moment_closed_form(self, pq):
        # mu_2 = p^{n-1}/[n] * (x - x^2), strict rational equality
        for n in range(1, 13):
            br = pq_integer(n, pq)
            for x in X_POINTS:
                oracle = uni_apply(lambda t: (t - x) ** 2, n, x, pq)
                assert uni_central_moment(2, n, x, pq) == oracle
                assert oracle == pq.p ** (n - 1) / br * (x - x * x)

    @pytest.mark.parametrize("pq", EXACT_PAIRS)
    def test_fourth_central_moment_assembled(self, pq):
        for n in range(1, 13):
            for x in X_POINTS:
                oracle = uni_apply(lambda t: (t - x) ** 4, n, x, pq)
                assert uni_central_moment(4, n, x, pq) == oracle

    def test_display_fourth_moment_is_a_diagnostic_only(self):
        # the circulating display-form coefficients disagree with the exact
        # fourth central moment for general p < 1; this pins the gap so a
        # future "fix" does not silently swap the forms.
        pq = PQPair(0.75, 0.5)
        exact = float(
            uni_central_moment(
                4, 8, Fraction(1, 2), PQPair(Fraction(3, 4), Fraction(1, 2))
            )
        )
        display = central_moment4_display(8, 0.5, pq)
        assert math.isfinite(display)
        assert not math.isclose(display, exact, rel_tol=1e-6)


class TestClassicalDegeneration:
    def test_q_to_one_approaches_classical_bernstein(self):
        # at p = 1 and q -> 1 the operator tends to the classical Bernstein
        # polynomial; the error should shrink monotonically along q = 1-10^-k
        n, x = 12, 0.37
        f = lambda t: math.exp(t)

        def classical(n, x):
            return math.fsum(
                math.comb(n, k) * x**k * (1 - x) ** (n - k) * f(k / n)
                for k in range(n + 1)
            )

        target = classical(n, x)
        errs = []
        for k in range(2, 7):
            pq = PQPair(1.0, 1.0 - 10.0**-k)
            errs.append(abs(uni_apply(f, n, x, pq) - target))
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        assert errs[-1] < 1e-6

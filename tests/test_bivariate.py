"""Tests for the tensor-product bivariate operator."""

from fractions import Fraction

import math
import tracemalloc

import numpy as np
import pytest

from pqbernstein import bivariate
from pqbernstein.bivariate import (
    SCHEDULES,
    BiParams,
    ParamSchedule,
    _BLOCK_ROWS,
    _eval_grid,
    abs_error_grid,
    bi_apply,
    bi_apply_exact,
    bi_apply_grid,
    bi_moment_closed,
    korovkin_experiment,
)
from pqbernstein.functions import CORPUS, from_expression, monomial_2d
from pqbernstein.pq_core import PQPair
from pqbernstein.univariate import basis_row, nodes, uni_apply, uni_central_moment

EXACT_PAIRS = [
    (PQPair(Fraction(1), Fraction(1, 2)), PQPair(Fraction(3, 4), Fraction(1, 2))),
    (PQPair(Fraction(9, 10), Fraction(3, 5)), PQPair(Fraction(9, 10), Fraction(3, 5))),
]
XY_POINTS = [
    (Fraction(0), Fraction(0)),
    (Fraction(1, 4), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(3, 4), Fraction(1, 4)),
    (Fraction(1), Fraction(1)),
]


def _params(n, m, pq1=None, pq2=None):
    pq1 = pq1 or PQPair(0.9, 0.6)
    pq2 = pq2 or PQPair(0.75, 0.5)
    return BiParams(pq1=pq1, pq2=pq2, n=n, m=m)


class TestTensorStructure:
    def test_separable_function_factorizes(self):
        # for f(s,t) = g(s) h(t) the tensor operator factorizes into the two
        # univariate applications
        pq1, pq2 = PQPair(0.9, 0.6), PQPair(0.75, 0.5)
        g = lambda s: math.exp(s)
        h = lambda t: 1.0 + t * t
        params = _params(7, 5, pq1, pq2)
        for x, y in ((0.2, 0.7), (0.5, 0.5), (0.9, 0.1)):
            lhs = bi_apply(lambda s, t: g(s) * h(t), params, x, y)
            rhs = uni_apply(g, 7, x, pq1) * uni_apply(h, 5, y, pq2)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_grid_matches_pointwise(self):
        params = _params(6, 9)
        f = lambda s, t: np.sin(2.0 * s) * np.cos(t) + t
        xs = np.linspace(0, 1, 7)
        ys = np.linspace(0, 1, 5)
        grid = bi_apply_grid(f, params, xs, ys)
        assert grid.shape == (7, 5)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert grid[i, j] == pytest.approx(
                    bi_apply(f, params, float(x), float(y)), rel=1e-12, abs=1e-14
                )

    def test_exact_and_float_paths_agree(self):
        pq1 = PQPair(Fraction(3, 4), Fraction(1, 2))
        pq2 = PQPair(Fraction(9, 10), Fraction(3, 5))
        pe = BiParams(pq1=pq1, pq2=pq2, n=5, m=4)
        pf = BiParams(pq1=pq1.floats(), pq2=pq2.floats(), n=5, m=4)
        f_exact = lambda s, t: s * s * t + t
        for x, y in XY_POINTS:
            exact = float(bi_apply_exact(f_exact, pe, x, y))
            approx = bi_apply(lambda s, t: s * s * t + t, pf, float(x), float(y))
            assert math.isclose(approx, exact, rel_tol=1e-12, abs_tol=1e-14)

    def test_corner_interpolation(self):
        params = _params(4, 6)
        f = CORPUS["ripple"].fn
        for x, y in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
            assert bi_apply(f, params, x, y) == pytest.approx(f(x, y), abs=1e-14)


class TestMomentLemma:
    @pytest.mark.parametrize("pq1,pq2", EXACT_PAIRS)
    def test_all_six_identities_exact(self, pq1, pq2):
        monomials = {
            (0, 0): lambda s, t: Fraction(1),
            (1, 0): lambda s, t: s,
            (0, 1): lambda s, t: t,
            (1, 1): lambda s, t: s * t,
            (2, 0): lambda s, t: s * s,
            (0, 2): lambda s, t: t * t,
        }
        for n in range(1, 11):
            for m in range(1, 11):
                params = BiParams(pq1=pq1, pq2=pq2, n=n, m=m)
                for x, y in XY_POINTS:
                    for (i, j), f in monomials.items():
                        oracle = bi_apply_exact(f, params, x, y)
                        assert bi_moment_closed(i, j, params, x, y) == oracle, (
                            (i, j),
                            n,
                            m,
                        )

    def test_t2_uses_second_direction_bracket(self):
        # asymmetric degrees expose the denominator: the t^2 moment must be
        # governed by [m] in the second direction, not [n]
        pq1 = PQPair(Fraction(3, 4), Fraction(1, 2))
        pq2 = PQPair(Fraction(9, 10), Fraction(3, 5))
        params = BiParams(pq1=pq1, pq2=pq2, n=2, m=9)
        x, y = Fraction(1, 3), Fraction(2, 3)
        oracle = bi_apply_exact(lambda s, t: t * t, params, x, y)
        assert bi_moment_closed(0, 2, params, x, y) == oracle
        # the same closed form evaluated with the first direction's data
        wrong_params = BiParams(pq1=pq1, pq2=pq2, n=9, m=2)
        assert bi_moment_closed(0, 2, wrong_params, x, y) != oracle

    def test_product_form_at_every_bidegree_up_to_4(self):
        # B(s^i t^j) = B_n(e_i) B_m(e_j) for all 25 exponent pairs; n = 2
        # has i > n, where the closed form's brackets [n - k], k >= n, vanish
        pq1 = PQPair(Fraction(3, 4), Fraction(1, 2))
        pq2 = PQPair(Fraction(9, 10), Fraction(3, 5))
        points = [(Fraction(1, 3), Fraction(2, 3)), (Fraction(3, 4), Fraction(1, 5))]
        for n, m in [(7, 5), (2, 9), (4, 4)]:
            params = BiParams(pq1=pq1, pq2=pq2, n=n, m=m)
            for x, y in points:
                for i in range(5):
                    for j in range(5):
                        oracle = bi_apply_exact(lambda s, t: s**i * t**j, params, x, y)
                        assert bi_moment_closed(i, j, params, x, y) == oracle, (i, j, n, m)

    def test_float_moments_at_large_degree(self):
        # The log-domain float basis carries relative errors near 1e-10 at
        # n = 2048 (ROADMAP item 1; 5.6e-11 at worst here); item 1's convex
        # recurrence is the change that tightens this bound.
        pq = SCHEDULES["i"].pair(2048)
        params = BiParams(pq, pq, 2048, 2048)
        x, y = 0.3, 0.6
        for i in range(5):
            for j in range(5):
                closed = bi_moment_closed(i, j, params, x, y)
                approx = bi_apply(monomial_2d(i, j), params, x, y)
                assert approx == pytest.approx(closed, rel=1e-10), (i, j)

    @pytest.mark.parametrize("i,j", [(5, 0), (0, -1)])
    def test_rejects_exponents_outside_0_to_4(self, i, j):
        with pytest.raises(ValueError, match="moment order"):
            bi_moment_closed(i, j, _params(3, 3), 0.5, 0.5)

    @pytest.mark.parametrize("pq1,pq2", EXACT_PAIRS)
    def test_central_moment_remark_identities(self, pq1, pq2):
        for n in range(1, 11):
            for m in range(1, 11):
                params = BiParams(pq1=pq1, pq2=pq2, n=n, m=m)
                for x, y in XY_POINTS:
                    mu_x = bi_apply_exact(
                        lambda s, t: (s - x) ** 2, params, x, y
                    )
                    mu_y = bi_apply_exact(
                        lambda s, t: (t - y) ** 2, params, x, y
                    )
                    assert uni_central_moment(2, params.n, x, params.pq1) == mu_x
                    assert uni_central_moment(2, params.m, y, params.pq2) == mu_y


class TestSchedules:
    def test_builtin_schedules_are_admissible(self):
        for name, sched in SCHEDULES.items():
            for n in (2, 5, 50, 500):
                pq = sched.pair(n)
                assert 0.0 < pq.q < pq.p <= 1.0, (name, n)

    def test_declared_limits_match_empirical(self):
        for name, sched in SCHEDULES.items():
            n = 20000
            pq = sched.pair(n)
            a_emp = pq.p**n
            b_emp = pq.q**n
            assert a_emp == pytest.approx(sched.declared_a, rel=1e-3), name
            b = {"i": math.exp(-1), "ii": math.exp(-2), "iii": math.exp(-1)}[name]
            assert b_emp == pytest.approx(b, rel=1e-3), name

    def test_rejects_degrees_below_n_min(self):
        with pytest.raises(ValueError):
            SCHEDULES["i"].pair(1)


class TestKorovkin:
    def test_sup_error_decreases_for_quad(self):
        rows = korovkin_experiment(CORPUS["quad"].fn, SCHEDULES["i"], (8, 16, 32, 64))
        errs = [r.sup_error for r in rows]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        assert errs[-1] <= 0.02

    def test_test_monomial_errors_shrink(self):
        rows = korovkin_experiment(CORPUS["ripple"].fn, SCHEDULES["iii"], (8, 32))
        for key in ("e20", "e02"):
            assert rows[1].test_errors[key] < rows[0].test_errors[key]

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_monomial_columns_agree_with_the_moment_lemma(self, name):
        # B reproduces 1, s, t and st, and B(s^2) - x^2 = delta_n^2(x) >= 0 for
        # every y, so the e20 and e02 columns are the lattice maximum of
        # delta_n^2.  What is left is the partition-of-unity error of the
        # float basis (ROADMAP item 1): at most 7.6e-13 and 4.4e-11 relative.
        sched = SCHEDULES[name]
        degrees = range(2, 129)
        for grid in (50, 37):
            xs = np.linspace(0.0, 1.0, grid + 1)
            for row in korovkin_experiment(CORPUS["quad"].fn, sched, degrees, grid):
                for key in ("e00", "e10", "e01", "e11"):
                    assert row.test_errors[key] <= 1e-12, (row.n, grid, key)
                delta2 = np.max(uni_central_moment(2, row.n, xs, sched.pair(row.n)))
                for key in ("e20", "e02"):
                    assert row.test_errors[key] == pytest.approx(delta2, rel=1e-10), (row.n, key)

    def test_abs_error_grid_zero_for_linears(self):
        params = _params(6, 6)
        for name in ("linx", "const1"):
            err = abs_error_grid(CORPUS[name].fn, params, grid=20)
            assert err.shape == (21, 21)
            assert np.max(err) <= 1e-13
        with pytest.raises(ValueError, match="11 points"):
            abs_error_grid(CORPUS["linx"].fn, params, grid=9)


def _nested_fsum(f, params, x, y):
    """bi_apply as a nested math.fsum: one per row, then one over the rows,
    and the scale sum |wx[k] F[k, j] wy[j]| of bi_apply's error bound."""
    wx = basis_row(params.n, x, params.pq1)
    wy = basis_row(params.m, y, params.pq2)
    S, T = np.meshgrid(
        nodes(params.n, params.pq1.floats()), nodes(params.m, params.pq2.floats()), indexing="ij"
    )
    F = f(S, T)
    ref = math.fsum(wx[k] * math.fsum(wy * F[k, :]) for k in range(params.n + 1))
    return ref, float(np.abs(wx) @ np.abs(F) @ np.abs(wy))


def _assert_near_nested_fsum(f, params, x, y):
    # a-priori bound of any order of summation: (n + m + 2) u sum |wx F wy|
    ref, scale = _nested_fsum(f, params, x, y)
    got = bi_apply(f, params, x, y)
    assert abs(got - ref) <= (params.n + params.m + 2) * 2.0**-53 * scale, (x, y, got, ref)


class TestBiApplySums:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_equals_nested_fsum(self, name):
        pq = SCHEDULES[name].pair(300)
        params = BiParams(pq, pq, 300, 300)
        for fname in ("quad", "ripple"):
            for x, y in ((0.01, 0.02), (0.5, 0.49), (0.99, 0.98)):
                _assert_near_nested_fsum(CORPUS[fname].fn, params, x, y)

    def test_equals_nested_fsum_asymmetric(self):
        params = BiParams(PQPair(0.9, 0.6), PQPair(0.75, 0.5), 257, 129)
        for x, y in ((0.03, 0.6), (0.45, 0.55), (0.8, 0.97)):
            _assert_near_nested_fsum(CORPUS["ripple"].fn, params, x, y)

    def test_equals_nested_fsum_with_trimmed_rows_and_columns(self):
        # n + 1 = 1001 rows: the last block is partial.  Near 0 the nonzero
        # weights stop short of the last node, near 1 they start after the
        # first, so zero weights sit at both ends of the rows and columns.
        pq = SCHEDULES["i"].pair(1000)
        params = BiParams(pq, pq, 1000, 700)
        assert (params.n + 1) % _BLOCK_ROWS
        for x, y in ((0.02, 0.98), (0.98, 0.02), (0.03, 0.04), (0.97, 0.96)):
            for d, v in ((params.n, x), (params.m, y)):
                w = basis_row(d, v, pq)
                assert w[0] == 0 or w[-1] == 0
            _assert_near_nested_fsum(CORPUS["ripple"].fn, params, x, y)

    @pytest.mark.parametrize("block_rows", [1, 7, 1001])
    def test_value_does_not_depend_on_the_block_size(self, block_rows, monkeypatch):
        # each row is summed on its own, so regrouping the rows into other
        # blocks (a partial last block, or one block of all 1001) keeps the bits
        pq = SCHEDULES["i"].pair(1000)
        params = BiParams(pq, pq, 1000, 700)
        f = CORPUS["ripple"].fn
        points = ((0.02, 0.98), (0.5, 0.49), (0.97, 0.96))
        expected = [bi_apply(f, params, x, y).hex() for x, y in points]
        monkeypatch.setattr(bivariate, "_BLOCK_ROWS", block_rows)
        assert [bi_apply(f, params, x, y).hex() for x, y in points] == expected

    def test_peak_memory_is_bounded_at_n_2048(self):
        # f is evaluated a block of rows at a time: the (n+1) x (m+1) grid
        # of f values (33.6 MB) is never held
        pq = SCHEDULES["ii"].pair(2048)
        params = BiParams(pq, pq, 2048, 2048)
        tracemalloc.start()
        try:
            bi_apply(CORPUS["quad"].fn, params, 0.5, 0.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6

    def test_non_finite_f_at_a_zero_weight_node_in_a_late_slab(self):
        # every node is evaluated and checked, with zero weight or not; the
        # first non-finite node (row-major) is named
        def spike(s, t):
            return np.where(s > 0.99, np.inf, s * t)

        pq = SCHEDULES["ii"].pair(2048)
        k = int(np.flatnonzero(nodes(2048, pq) > 0.99)[0])
        assert k >= _BLOCK_ROWS and basis_row(2048, 0.2, pq)[k] == 0
        msg = "spike is not finite at the node (0.9902576318185723, 0.0): inf"
        with pytest.raises(ValueError) as err:
            bi_apply(spike, BiParams(pq, pq, 2048, 2048), 0.2, 0.6)
        assert str(err.value) == msg

    def test_non_finite_f_is_rejected(self):
        params = _params(4, 4)
        with pytest.raises(ValueError, match=r"expr:exp\(1000\*x\) is not finite"):
            bi_apply(from_expression("exp(1000*x)").fn, params, 0.5, 0.5)
        with pytest.raises(ValueError, match="not finite"):
            bi_apply_grid(lambda s, t: math.inf if s > 0.5 else s, params, [0.5], [0.5])
        # finite at every node, but the weights sum to 1 only up to rounding
        lattice = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match=r"e308 is not finite at the lattice point \("):
            bi_apply_grid(
                from_expression("1.7976931348623157e308").fn,
                _params(4, 4, pq2=PQPair(0.8, 0.7)),
                lattice,
                lattice,
            )


class TestEvalGrid:
    XS = nodes(37, PQPair(0.9, 0.6))
    YS = np.linspace(0.0, 1.0, 23)

    @pytest.mark.parametrize(
        "f",
        [CORPUS[name].fn for name in sorted(CORPUS)]
        + [from_expression(text).fn for text in ("1", "x", "y", "sin(pi*x)*exp(y)")]
        + [lambda s, t: math.sin(s) * t],  # scalar-only
    )
    def test_equals_per_node_scalar_calls(self, f):
        F = _eval_grid(f, self.XS, self.YS)
        scalar = np.array([[float(np.asarray(f(a, b))) for b in self.YS] for a in self.XS])
        assert F.dtype == np.float64 and F.flags["C_CONTIGUOUS"]
        assert F.shape == (self.XS.size, self.YS.size)
        assert F.tobytes() == scalar.tobytes()

    def test_peak_memory_is_about_one_grid(self):
        # no meshgrid: the node grids X and Y are never materialised
        t = nodes(2048, PQPair(0.95, 0.9))
        tracemalloc.start()
        try:
            F = _eval_grid(CORPUS["quad"].fn, t, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * F.nbytes

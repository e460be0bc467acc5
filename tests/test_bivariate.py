"""Tests for the tensor-product bivariate operator."""

from fractions import Fraction

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqbernstein.bivariate import (
    SCHEDULES,
    BiParams,
    ParamSchedule,
    _eval_grid,
    _exact_row_sums,
    bi_apply,
    bi_apply_exact,
    bi_apply_grid,
    bi_central_moment2,
    bi_moment_closed,
    korovkin_experiment,
    sup_error_grid,
)
from pqbernstein.functions import CORPUS, from_expression
from pqbernstein.pq_core import PQPair
from pqbernstein.univariate import basis_row, nodes, uni_apply

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
            "1": lambda s, t: Fraction(1),
            "s": lambda s, t: s,
            "t": lambda s, t: t,
            "st": lambda s, t: s * t,
            "s2": lambda s, t: s * s,
            "t2": lambda s, t: t * t,
        }
        for n in range(1, 11):
            for m in range(1, 11):
                params = BiParams(pq1=pq1, pq2=pq2, n=n, m=m)
                for x, y in XY_POINTS:
                    for which, f in monomials.items():
                        oracle = bi_apply_exact(f, params, x, y)
                        assert bi_moment_closed(which, params, x, y) == oracle, (
                            which,
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
        assert bi_moment_closed("t2", params, x, y) == oracle
        # the same closed form evaluated with the first direction's data
        wrong_params = BiParams(pq1=pq1, pq2=pq2, n=9, m=2)
        assert bi_moment_closed("t2", wrong_params, x, y) != oracle

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
                    assert bi_central_moment2("x", params, x, y) == mu_x
                    assert bi_central_moment2("y", params, x, y) == mu_y


class TestSchedules:
    def test_builtin_schedules_are_admissible(self):
        for name, sched in SCHEDULES.items():
            for n in (sched.n_min, 5, 50, 500):
                pq = sched.pair(n)
                assert 0.0 < pq.q < pq.p <= 1.0, (name, n)

    def test_declared_limits_match_empirical(self):
        for name, sched in SCHEDULES.items():
            n = 20000
            pq = sched.pair(n)
            a_emp = pq.p**n
            b_emp = pq.q**n
            assert a_emp == pytest.approx(sched.declared_a, rel=1e-3), name
            assert b_emp == pytest.approx(sched.declared_b, rel=1e-3), name

    def test_rejects_degrees_below_n_min(self):
        with pytest.raises(ValueError):
            SCHEDULES["i"].pair(1)


class TestKorovkin:
    def test_sup_error_decreases_for_quad(self):
        sched = SCHEDULES["i"]
        rows = korovkin_experiment(
            CORPUS["quad"].fn, sched, sched, [(n, n) for n in (8, 16, 32, 64)]
        )
        errs = [r.sup_error for r in rows]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        assert errs[-1] <= 0.02

    def test_test_monomial_errors_shrink(self):
        sched = SCHEDULES["iii"]
        rows = korovkin_experiment(
            CORPUS["ripple"].fn, sched, sched, [(8, 8), (32, 32)]
        )
        for key in ("e20", "e02"):
            assert rows[1].test_errors[key] < rows[0].test_errors[key]

    def test_sup_error_grid_zero_for_linears(self):
        params = _params(6, 6)
        assert sup_error_grid(CORPUS["linx"].fn, params, grid=20) <= 1e-13
        assert sup_error_grid(CORPUS["const1"].fn, params, grid=20) <= 1e-13


# |entry| <= 2**990 and at most 64 entries a row keep every partial sum
# below 2**1000; math.fsum raises OverflowError on intermediate overflow
_ENTRY = st.one_of(
    st.floats(min_value=-(2.0**990), max_value=2.0**990),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-53, 1.0, -1.0]),
)


@st.composite
def _rows(draw):
    cols = draw(st.integers(min_value=0, max_value=32))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols), min_size=1, max_size=6))
    if draw(st.booleans()):
        # exact cancellation, the negated copy in reverse order
        rows = [r + [-v for v in reversed(r)] for r in rows]
    return rows


def _fsum_bits(row) -> str:
    # an exactly zero sum is +0.0 here, whatever sign math.fsum gives it
    return (math.fsum(row) + 0.0).hex()


class TestExactRowSums:
    @given(rows=_rows())
    @settings(max_examples=200, deadline=None)
    def test_equals_fsum_bit_for_bit(self, rows):
        A = np.array(rows, dtype=float).reshape(len(rows), -1)
        assert [float(v).hex() for v in _exact_row_sums(A)] == [_fsum_bits(r) for r in rows]

    @pytest.mark.parametrize(
        "row",
        [
            [1.0, 2.0**-53],  # half-way, rounds down to even
            [1.0 + 2.0**-52, 2.0**-53],  # half-way, rounds up to even
            [1.0, 2.0**-53, 5e-324],  # just above half-way
            [5e-324, 5e-324, 5e-324],
            [1.7976931348623157e308, -1.7976931348623157e308, 5e-324],
            [0.1] * 10,
            [-1.5, 2.0**-60, -(2.0**-60)],
            [],
        ],
    )
    def test_rounding_cases(self, row):
        A = np.array(row, dtype=float).reshape(1, -1)
        assert float(_exact_row_sums(A)[0]).hex() == _fsum_bits(row)


def _nested_fsum(f, params, x, y):
    """bi_apply as a nested math.fsum: one per row, then one over the rows."""
    wx = basis_row(params.n, x, params.pq1)
    wy = basis_row(params.m, y, params.pq2)
    S, T = np.meshgrid(
        nodes(params.n, params.pq1.floats()), nodes(params.m, params.pq2.floats()), indexing="ij"
    )
    F = f(S, T)
    return math.fsum(wx[k] * math.fsum(wy * F[k, :]) for k in range(params.n + 1))


class TestBiApplySums:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_equals_nested_fsum(self, name):
        pq = SCHEDULES[name].pair(300)
        params = BiParams(pq, pq, 300, 300)
        for fname in ("quad", "ripple"):
            f = CORPUS[fname].fn
            for x, y in ((0.01, 0.02), (0.5, 0.49), (0.99, 0.98)):
                got = bi_apply(f, params, x, y)
                assert got.hex() == _nested_fsum(f, params, x, y).hex(), (fname, x, y)

    def test_equals_nested_fsum_asymmetric(self):
        params = BiParams(PQPair(0.9, 0.6), PQPair(0.75, 0.5), 257, 129)
        f = CORPUS["ripple"].fn
        for x, y in ((0.03, 0.6), (0.45, 0.55), (0.8, 0.97)):
            assert bi_apply(f, params, x, y).hex() == _nested_fsum(f, params, x, y).hex()

    def test_non_finite_f_is_rejected(self):
        params = _params(4, 4)
        with pytest.raises(ValueError, match=r"expr:exp\(1000\*x\) is not finite"):
            bi_apply(from_expression("exp(1000*x)").fn, params, 0.5, 0.5)
        with pytest.raises(ValueError, match="not finite"):
            bi_apply_grid(lambda s, t: math.inf if s > 0.5 else s, params, [0.5], [0.5])


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

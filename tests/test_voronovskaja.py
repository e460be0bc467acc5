"""Tests for the asymptotic (Voronovskaja-type) scaling experiments."""

import pytest

from pqbernstein.bivariate import SCHEDULES, BiParams, bi_apply
from pqbernstein.functions import CORPUS, from_expression
from pqbernstein.pq_core import bracket_values, pq_integer
from pqbernstein.univariate import uni_apply
from pqbernstein.voronovskaja import (
    DEFAULT_DEGREES,
    AsymptoticTrace,
    MissingDerivativesError,
    richardson_extrapolate,
    scaled_central_moment_limit_check,
    voronovskaja_trace,
)


class TestScaledCentralMoments:
    def test_order2_limit(self):
        # [n] mu_2(x) -> a (x - x^2) along schedule (i); modest degrees give
        # a loose bound, the acceptance suite checks the tight one at n=2048
        sched = SCHEDULES["i"]
        trace = scaled_central_moment_limit_check(
            2, sched, 0.5, degrees=(128, 256, 512)
        )
        assert trace.errors[-1] < trace.errors[0]
        assert trace.errors[-1] <= 5e-3 * 10

    def test_order2_zero_at_endpoints(self):
        sched = SCHEDULES["i"]
        for x in (0.0, 1.0):
            trace = scaled_central_moment_limit_check(2, sched, x, degrees=(64,))
            assert abs(trace.scaled_values[0]) <= 1e-12
            assert trace.predicted_limit == 0.0

    def test_order4_stays_within_bound_and_pins_residual(self):
        # the predicted fourth-order limit 3a x^2(1-x)^2 overshoots: the
        # scaled moment converges to 3a^2 x^2(1-x)^2 instead, leaving a
        # plateau error of 3a(1-a) x^2(1-x)^2 ~ 0.0436 at x = 1/2 for
        # schedule (i).  Both facts are pinned: the plateau stays under the
        # 5e-2 working tolerance, and the error against the a^2 limit
        # shrinks with degree.
        sched = SCHEDULES["i"]
        x = 0.5
        trace = scaled_central_moment_limit_check(
            4, sched, x, degrees=(256, 512, 1024)
        )
        assert all(e <= 5e-2 for e in trace.errors)
        a = sched.declared_a
        alt_limit = 3.0 * a * a * x * x * (1.0 - x) ** 2
        alt_errors = [abs(v - alt_limit) for v in trace.scaled_values]
        assert alt_errors[-1] < alt_errors[0]
        residual = abs(trace.predicted_limit - alt_limit)
        assert trace.errors[-1] == pytest.approx(residual, abs=2e-3)

    def test_brute_moment_matches_closed_second(self):
        sched = SCHEDULES["i"]
        pq = sched.pair(32)
        N = bracket_values(32, pq)[32]
        x = 0.3
        mu2 = uni_apply(lambda t: (t - x) ** 2, 32, x, pq)
        assert mu2 == pytest.approx(pq.p**31 / N * (x - x * x), rel=1e-11)

    def test_rejects_unsupported_order(self):
        with pytest.raises(ValueError):
            scaled_central_moment_limit_check(3, SCHEDULES["i"], 0.5, degrees=(8,))


class TestVoronovskajaTrace:
    def test_quad_converges_to_analytic_limit(self):
        # f = x^2 + y^2 at (1/2, 1/2): limit = a/4 * (2 + 2) / 2 = a/2
        sched = SCHEDULES["i"]
        trace = voronovskaja_trace(
            CORPUS["quad"], sched, (0.5, 0.5), degrees=(64, 128, 256)
        )
        a = sched.declared_a
        assert trace.predicted_limit == pytest.approx(0.5 * a, rel=1e-14)
        assert trace.errors[-1] < trace.errors[0]

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    @pytest.mark.parametrize("point", [(0.5, 0.5), (0.3, 0.6)])
    def test_quad_equals_its_closed_form(self, name, point):
        # By the moment lemma, [n](B quad - quad)(x, y) is exactly
        # p_n^(n-1) ((x - x^2) + (y - y^2)).  The log-domain basis weights
        # carry a relative error growing like n^2 eps, hence the tolerance
        # 4 n^2 eps [n] |f(x, y)|.
        sched = SCHEDULES[name]
        x, y = point
        trace = voronovskaja_trace(CORPUS["quad"], sched, point)
        assert trace.degrees == list(DEFAULT_DEGREES)
        for n, value in zip(trace.degrees, trace.scaled_values):
            pq = sched.pair(n)
            closed = pq.p ** (n - 1) * ((x - x * x) + (y - y * y))
            tol = 4 * n * n * 2.0**-52 * pq_integer(n, pq) * (x * x + y * y)
            assert abs(value - closed) <= tol, (n, value, closed)

    def test_linear_functions_scale_to_zero(self):
        # the operator reproduces linear functions, so the scaled trace is 0
        sched = SCHEDULES["i"]
        for name in ("const1", "linx", "liny"):
            trace = voronovskaja_trace(CORPUS[name], sched, (0.3, 0.6), degrees=(16, 64))
            assert all(abs(v) <= 1e-11 for v in trace.scaled_values)
            assert trace.predicted_limit == 0.0

    def test_mixed_term_probe_contributes(self):
        # f = xy has zero pure second partials, so the predicted limit is 0;
        # the scaled trace records the empirical mixed-derivative
        # contribution rather than assuming it vanishes
        sched = SCHEDULES["i"]
        trace = voronovskaja_trace(CORPUS["prodxy"], sched, (0.5, 0.5), degrees=(64, 256))
        assert trace.predicted_limit == 0.0
        assert trace.errors == [abs(v) for v in trace.scaled_values]

    def test_expression_functions_use_fd_partials(self):
        tf = from_expression("x^2 + y^2")
        sched = SCHEDULES["i"]
        trace = voronovskaja_trace(tf, sched, (0.5, 0.5), degrees=(64,))
        assert trace.predicted_limit == pytest.approx(0.5 * sched.declared_a, rel=1e-5)

    def test_missing_derivatives_raise(self):
        with pytest.raises(MissingDerivativesError):
            voronovskaja_trace(CORPUS["vee"], SCHEDULES["i"], (0.5, 0.5), degrees=(16,))

    def test_degrees_must_increase(self):
        with pytest.raises(ValueError):
            voronovskaja_trace(CORPUS["quad"], SCHEDULES["i"], (0.5, 0.5), degrees=(64, 64))


class TestRichardson:
    def test_exact_on_model_sequence(self):
        # v_n = L + c/n with a degree ratio of 2: extrapolation recovers L
        trace = AsymptoticTrace(
            degrees=[100, 200],
            scaled_values=[1.0 + 3.0 / 100, 1.0 + 3.0 / 200],
            predicted_limit=1.0,
        )
        assert richardson_extrapolate(trace) == pytest.approx(1.0, abs=1e-14)

    def test_improves_quad_estimate(self):
        sched = SCHEDULES["i"]
        trace = voronovskaja_trace(CORPUS["quad"], sched, (0.5, 0.5), degrees=(256, 512))
        extrap = richardson_extrapolate(trace)
        plain_err = abs(trace.scaled_values[-1] - trace.predicted_limit)
        extrap_err = abs(extrap - trace.predicted_limit)
        assert extrap_err < plain_err
        assert extrap_err <= 1e-2 * abs(trace.predicted_limit)


def test_non_finite_f_is_rejected():
    tf = from_expression("exp(800*x)")
    # exp(720) overflows at the point itself
    with pytest.raises(ValueError, match="second partials are not finite"):
        voronovskaja_trace(tf, SCHEDULES["i"], (0.9, 0.5), [16, 32])
    # exp(400) is finite at the point, exp(800) is not at the node x = 1
    with pytest.raises(ValueError, match="not finite at the node"):
        voronovskaja_trace(tf, SCHEDULES["i"], (0.5, 0.5), [16, 32])

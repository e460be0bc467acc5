"""Tests for moduli of continuity, K-functional surrogate, and certificates."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pqbernstein
from pqbernstein.bivariate import SCHEDULES, BiParams
from pqbernstein.convergence import (
    THEOREMS,
    HypothesisError,
    ModulusTable,
    _dilate,
    _mollify,
    certification_sweep,
    certify_bound,
    delta_m,
    delta_n,
    delta_nm,
    verify_lipschitz,
)
from pqbernstein.functions import CORPUS, LipschitzSpec, from_expression
from pqbernstein.pq_core import PQPair


def _params(n=8, m=8):
    sched = SCHEDULES["i"]
    return BiParams(pq1=sched.pair(n), pq2=sched.pair(m), n=n, m=m)


class TestModulus:
    def test_zero_at_zero_and_nondecreasing(self):
        table = ModulusTable(CORPUS["ripple"].fn)
        vals = [table.omega(d) for d in (0.0, 0.05, 0.1, 0.3, 0.8)]
        assert vals[0] == 0.0
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))

    def test_linear_function_modulus_is_exact(self):
        # omega(linx, delta) = delta for delta <= 1; the discrete estimate
        # is a lower bound, within grid resolution of the true value
        table = ModulusTable(CORPUS["linx"].fn)
        for d in (0.1, 0.25, 0.5):
            est = table.omega(d)
            assert est <= d + 1e-12
            assert est >= d - 0.02

    def test_subadditivity_weak_form(self):
        # omega(2 delta) <= 2 omega(delta) for every modulus of continuity.
        # The discrete estimator is exact only for radii up to 8 grid cells
        # (1/200 spacing) and a sound lower estimate beyond, so the check is
        # made where both radii fall in the exact range.
        table = ModulusTable(CORPUS["ripple"].fn)
        for d in (0.005, 0.01, 0.02):
            assert table.omega(2 * d) <= 2 * table.omega(d) + 1e-12

    def test_partial_moduli_bounded_by_complete(self):
        table = ModulusTable(CORPUS["prodxy"].fn)
        for d in (0.1, 0.3):
            full = table.omega(d)
            assert table.omega_partial("x", d) <= full + 1e-12
            assert table.omega_partial("y", d) <= full + 1e-12

    def test_partial_modulus_of_one_variable_function(self):
        # liny is constant in x, so its x-partial modulus vanishes
        table = ModulusTable(CORPUS["liny"].fn)
        assert table.omega_partial("x", 0.4) == 0.0
        assert table.omega_partial("y", 0.4) > 0.3

    def test_negative_delta_rejected(self):
        table = ModulusTable(CORPUS["quad"].fn)
        with pytest.raises(ValueError):
            table.omega(-0.1)
        with pytest.raises(ValueError):
            table.omega_partial("x", np.array([0.1, -0.1]))
        with pytest.raises(ValueError):
            table.peetre_k(-0.1)


def _brute_dilate(F, r):
    """Max over every disc offset (i, j), i^2 + j^2 <= r^2, of F at the
    edge-clamped index (a + i, b + j)."""
    rows, cols = F.shape
    a = np.arange(rows)[:, None]
    b = np.arange(cols)[None, :]
    out = np.full(F.shape, -np.inf)
    for i in range(-r, r + 1):
        for j in range(-r, r + 1):
            if i * i + j * j <= r * r:
                shifted = F[np.clip(a + i, 0, rows - 1), np.clip(b + j, 0, cols - 1)]
                out = np.maximum(out, shifted)
    return out


def _clamped_smoothing_matrix(size, kernel):
    """A @ v is the edge-clamped weighted sum sum_t kernel[t] v[clamp(a + t)]."""
    radius = len(kernel) // 2
    A = np.zeros((size, size))
    for a in range(size):
        for t, w in zip(range(-radius, radius + 1), kernel):
            A[a, min(max(a + t, 0), size - 1)] += w
    return A


class TestGridFilters:
    F = np.random.default_rng(20160121).random((23, 31))

    def test_dilation_equals_brute_force_disc_max(self):
        for r in range(1, 9):
            assert np.array_equal(_dilate(self.F, r), _brute_dilate(self.F, r))
        composed = _dilate(_dilate(self.F, 8), 4)
        assert np.array_equal(composed, _brute_dilate(_brute_dilate(self.F, 8), 4))

    def test_mollifier_matches_dense_clamped_sum(self):
        # sigma = 10 truncates at radius 40, wider than either side
        for sigma in (0.5, 2.5, 10.0):
            radius = int(4.0 * sigma + 0.5)
            t = np.arange(-radius, radius + 1)
            kernel = np.exp(-(t**2) / (2 * sigma * sigma))
            kernel /= kernel.sum()
            rows, cols = self.F.shape
            dense = (
                _clamped_smoothing_matrix(rows, kernel)
                @ self.F
                @ _clamped_smoothing_matrix(cols, kernel).T
            )
            assert np.max(np.abs(_mollify(self.F, sigma) - dense)) <= 1e-14

    def test_cli_import_loads_no_scipy(self):
        src = str(Path(pqbernstein.__file__).resolve().parent.parent)
        code = (
            "import sys, pqbernstein.cli\n"
            "print([m for m in sys.modules if m.startswith('scipy')])"
        )
        res = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert res.stdout.strip() == "[]"


class TestDeltas:
    def test_pythagorean_combination(self):
        params = _params(8, 16)
        for x, y in ((0.2, 0.7), (0.5, 0.5)):
            dn = delta_n(params, x)
            dm = delta_m(params, y)
            dnm = delta_nm(params, x, y)
            assert dnm == pytest.approx(math.hypot(dn, dm), rel=1e-14)

    def test_vanishes_at_corners(self):
        params = _params()
        assert delta_nm(params, 0.0, 0.0) == 0.0
        assert delta_nm(params, 1.0, 1.0) == 0.0

    def test_shrinks_with_degree(self):
        for x in (0.25, 0.5, 0.75):
            d8 = delta_n(_params(8, 8), x)
            d32 = delta_n(_params(32, 32), x)
            assert d32 < d8


class TestKSurrogate:
    def test_nonnegative_and_nondecreasing_in_delta(self):
        deltas = np.array([0.0, 0.01, 0.05, 0.1, 0.5])
        vals = ModulusTable(CORPUS["vee"].fn).peetre_k(deltas)
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_bounded_by_identity_candidate(self):
        # taking g = f (sigma = 0) shows K(delta) <= delta * ||f||_{C^2}
        # whenever f itself is smooth; for quad this is a finite bound
        val = ModulusTable(CORPUS["quad"].fn).peetre_k(0.01)
        assert val <= 0.01 * 20.0  # generous C^2-norm ceiling for x^2+y^2


class TestLipschitzVerification:
    def test_lip_half_fails_its_declared_class(self):
        # the product-increment class is so restrictive that the natural
        # candidate |x-1/2|^(1/2) |y-1/2|^(1/2) violates it
        tf = CORPUS["lip_half"]
        ok, excess = verify_lipschitz(tf.fn, tf.lipschitz)
        assert not ok
        assert excess > 0.1

    def test_constants_satisfy_any_class(self):
        ok, excess = verify_lipschitz(
            CORPUS["const1"].fn, LipschitzSpec(1.0, 0.5, 0.5)
        )
        assert ok
        assert excess <= 0.0


class TestCertificates:
    def test_known_theorem_ids(self):
        assert set(THEOREMS) == {
            "complete-modulus",
            "partial-moduli",
            "lipschitz",
            "c1",
            "peetre-k",
        }
        with pytest.raises(ValueError):
            certify_bound("no-such-theorem", CORPUS["quad"], _params())

    def test_certificate_passes_for_smooth_function(self):
        cert = certify_bound("complete-modulus", CORPUS["quad"], _params())
        assert cert.passed
        assert cert.lhs <= cert.rhs_conservative
        assert cert.pointwise_ok and cert.pointwise_ok_conservative
        assert cert.margin >= 0.0

    def test_coarse_grid_rejected(self):
        # at 1 or 2 points per axis the sup runs over the corners, where
        # Bf = f, so every certificate would pass vacuously
        for grid in (0, 1, 9):
            with pytest.raises(ValueError, match="11 points per axis"):
                certify_bound("complete-modulus", CORPUS["quad"], _params(), grid=grid)
            with pytest.raises(ValueError, match="11 points per axis"):
                certification_sweep(THEOREMS, [CORPUS["quad"]], [SCHEDULES["i"]], [4], grid)

    def test_hypothesis_rejection(self):
        with pytest.raises(HypothesisError):
            certify_bound("c1", CORPUS["vee"], _params())
        with pytest.raises(HypothesisError):
            certify_bound("lipschitz", CORPUS["quad"], _params())

    def test_sweep_covers_all_theorems_and_passes(self):
        certs, skipped = certification_sweep(
            THEOREMS,
            [CORPUS[k] for k in ("const1", "quad", "vee")],
            [SCHEDULES["i"]],
            [4, 8],
        )
        assert all(c.passed for c in certs)
        covered = {c.theorem_id for c in certs}
        assert covered == set(THEOREMS)
        # vee is neither C^1 nor in a declared Lipschitz class
        skipped_keys = {(s[0], s[1]) for s in skipped}
        assert ("c1", "vee") in skipped_keys
        assert ("lipschitz", "vee") in skipped_keys

    def test_lhs_shrinks_with_degree(self):
        lo = certify_bound("complete-modulus", CORPUS["ripple"], _params(4, 4))
        hi = certify_bound("complete-modulus", CORPUS["ripple"], _params(32, 32))
        assert hi.lhs < lo.lhs

    def test_sweep_equals_one_certify_bound_call_each(self):
        functions = [CORPUS[k] for k in ("const1", "quad", "vee", "lip_half")]
        sched = SCHEDULES["i"]
        certs, skipped = certification_sweep(THEOREMS, functions, [sched], [4, 8])
        ref_certs, ref_skipped = [], []
        for theorem in THEOREMS:
            for tf in functions:
                try:
                    for n in (4, 8):
                        params = BiParams(sched.pair(n), sched.pair(n), n, n)
                        ref_certs.append(
                            certify_bound(theorem, tf, params, schedule_name=sched.name)
                        )
                except HypothesisError as exc:
                    ref_skipped.append((theorem, tf.name, str(exc)))
        assert len(certs) == len(ref_certs)
        for cert, ref in zip(certs, ref_certs):
            assert vars(cert) == vars(ref)
        assert skipped == ref_skipped
        assert {(s[0], s[1]) for s in skipped} == {
            ("lipschitz", "quad"),
            ("lipschitz", "vee"),
            ("lipschitz", "lip_half"),
            ("c1", "vee"),
            ("c1", "lip_half"),
        }


def test_no_table_outlives_its_function():
    # An id(f)-keyed cache hands a freed function's tables to a new
    # function that reuses its id.  Alternate x and 10*x, freeing each:
    # every modulus, K value and certificate must scale with the live
    # function.
    ref = ModulusTable(lambda x, y: x + 0.0 * y)
    k_ref = ref.peetre_k(0.01)
    params = _params(8, 8)
    for i in range(50):
        scale = 10.0 if i % 2 else 1.0
        tf = from_expression("10*x" if i % 2 else "x")
        table = ModulusTable(tf.fn)
        assert table.omega(0.5) == pytest.approx(0.5 * scale, rel=1e-12)
        cert = certify_bound("complete-modulus", tf, params)
        assert cert.rhs == 2 * table.omega(cert.variants["delta_sup"])
        assert cert.rhs_conservative == 2 * table.omega(2 * cert.variants["delta_sup"])
        assert table.peetre_k(0.01) == pytest.approx(k_ref * scale, rel=1e-9)
        del tf, table, cert

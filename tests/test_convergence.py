"""Tests for moduli of continuity, K-functional surrogate, and certificates."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pqbernstein
from pqbernstein.bivariate import SCHEDULES, BiParams, _eval_grid
from pqbernstein.convergence import (
    LIPSCHITZ_SAMPLES,
    LIPSCHITZ_TOL,
    MOLLIFY_SCALES,
    OMEGA_GRID,
    THEOREMS,
    HypothesisError,
    ModulusTable,
    _DISC4_STAGES,
    _Dilations,
    _mollify,
    certification_sweep,
    certify_bound,
    verify_lipschitz,
)
from pqbernstein.functions import CORPUS, LipschitzSpec, TargetFunction2D, from_expression
from pqbernstein.pq_core import PQPair, pq_integer
from pqbernstein.univariate import uni_central_moment


def _params(n=8, m=8):
    sched = SCHEDULES["i"]
    return BiParams(pq1=sched.pair(n), pq2=sched.pair(m), n=n, m=m)


def _uniform_reference(theorem, tf, table, params):
    """(rhs, rhs_conservative) of one certificate, each theorem's uniform
    bound written as a scalar formula at the sup deltas, at x = y = 1/2.
    The C^1 norms come from the partials on a meshgrid."""
    dn2 = uni_central_moment(2, params.n, 0.5, params.pq1)
    dm2 = uni_central_moment(2, params.m, 0.5, params.pq2)
    dn, dm = math.sqrt(dn2), math.sqrt(dm2)
    if theorem == "complete-modulus":
        d = math.sqrt(dn2 + dm2)
        return 2 * table.omega(d), 2 * table.omega(2 * d)
    if theorem == "partial-moduli":
        rhs = table.omega_partial("x", dn) + table.omega_partial("y", dm)
        return rhs, 2 * (table.omega_partial("x", 2 * dn) + table.omega_partial("y", 2 * dm))
    if theorem == "lipschitz":
        sp = tf.lipschitz
        return (
            sp.M * dn**sp.alpha1 * dm**sp.alpha2,
            sp.M * dn ** (sp.alpha1 / 2) * dm ** (sp.alpha2 / 2),
        )
    if theorem == "c1":
        g = np.linspace(0.0, 1.0, OMEGA_GRID + 1)
        X, Y = np.meshgrid(g, g, indexing="ij")
        nx = float(np.max(np.abs(tf.fx(X, Y))))
        ny = float(np.max(np.abs(tf.fy(X, Y))))
        return nx * dn + ny * dm, nx * dn + ny * dm
    d_star = 0.5 * max(dn2, dm2)
    return 2 * table.peetre_k(d_star / 2), 2 * table.peetre_k(d_star / 2)


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


def _segment_dilate(F, r):
    """Reference disc dilation, edge-clamped: a max over rows i of the
    column-segment max of half-width isqrt(r^2 - i^2), shifted by i, on
    an np.pad copy of F."""
    rows, cols = F.shape
    P = np.pad(F, r, mode="edge")
    seg = [P[:, r : r + cols]]  # seg[w]: max over columns c-w..c+w
    for w in range(1, r + 1):
        wider = np.maximum(P[:, r - w : r - w + cols], P[:, r + w : r + w + cols])
        seg.append(np.maximum(seg[-1], wider))
    out = seg[r][r : r + rows].copy()
    for i in range(1, r + 1):
        S = seg[math.isqrt(r * r - i * i)]
        np.maximum(out, S[r - i : r - i + rows], out=out)
        np.maximum(out, S[r + i : r + i + rows], out=out)
    return out


def _clamped_smoothing_matrix(size, kernel):
    """A @ v is the edge-clamped weighted sum sum_t kernel[t] v[clamp(a + t)]."""
    radius = len(kernel) // 2
    A = np.zeros((size, size))
    for a in range(size):
        for t, w in zip(range(-radius, radius + 1), kernel):
            A[a, min(max(a + t, 0), size - 1)] += w
    return A


def _mollify_per_line(F, sigma):
    """Reference mollifier: one np.convolve per edge-padded line, axis 0
    then axis 1, through np.apply_along_axis."""
    radius = int(4.0 * sigma + 0.5)
    t = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * t**2)
    kernel /= kernel.sum()

    def smooth(v):
        return np.convolve(np.pad(v, radius, mode="edge"), kernel, mode="valid")

    for axis in (0, 1):
        F = np.apply_along_axis(smooth, axis, F)
    return F


def _lipschitz_pairs(f, spec):
    """Reference Lipschitz check: every pair of the flattened meshgrid, 256
    rows of pairs at a time, bound M*|s-x|^a1*|t-y|^a2 left to right."""
    xs = np.linspace(0.0, 1.0, LIPSCHITZ_SAMPLES)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    flatF = _eval_grid(f, xs, xs).ravel()
    flatX = X.ravel()
    flatY = Y.ravel()
    worst = 0.0
    for start in range(0, flatF.size, 256):
        end = min(start + 256, flatF.size)
        dv = np.abs(flatF[start:end, None] - flatF[None, :])
        dx = np.abs(flatX[start:end, None] - flatX[None, :]) ** spec.alpha1
        dy = np.abs(flatY[start:end, None] - flatY[None, :]) ** spec.alpha2
        viol = dv - spec.M * dx * dy
        worst = max(worst, float(np.max(viol)))
    return worst <= LIPSCHITZ_TOL, worst


def _full_ladder(table):
    """Reference complete-modulus ladder: the exact radii, then rungs of
    table._STEP up to the grid diagonal, with no early stop."""
    F = table.F
    deltas, values = [0.0], [0.0]
    for radius in table._EXACT_RADII:
        D = _segment_dilate(F, radius)
        deltas.append(radius * table.h)
        values.append(float(np.max(D - F)))
    while radius < int(math.ceil(math.sqrt(2.0) * OMEGA_GRID)):
        D = _segment_dilate(D, table._STEP)
        radius += table._STEP
        deltas.append(radius * table.h)
        values.append(float(np.max(D - F)))
    return np.array(deltas), np.maximum.accumulate(np.array(values))


class TestGridFilters:
    F = np.random.default_rng(20160121).random((23, 31))

    def test_dilation_equals_brute_force_disc_max(self):
        # shapes narrower than the padding and single rows and columns too
        rng = np.random.default_rng(1601)
        for F in (self.F, rng.random((3, 5)), rng.random((1, 9)), rng.random((9, 1))):
            dilations = _Dilations(F.shape)
            for r, D in dilations.discs(F, range(1, 9)):
                assert np.array_equal(D, _brute_dilate(F, r)), (F.shape, r)
            assert np.array_equal(D, _segment_dilate(F, 8)), F.shape

    def test_disc4_stages_sum_to_the_radius_4_disc(self):
        total = {(0, 0)}
        for stage in _DISC4_STAGES:
            total = {(a + c, b + d) for a, b in total for c, d in stage}
        disc = {(i, j) for i in range(-4, 5) for j in range(-4, 5) if i * i + j * j <= 16}
        assert total == disc

    def test_disc4_rungs_equal_brute_force_five_deep(self):
        rng = np.random.default_rng(2016)
        for shape in ((23, 31), (40, 17), (3, 5), (1, 9), (9, 1), (1, 1)):
            F = rng.random(shape)
            dilations = _Dilations(shape)
            _, D = next(dilations.discs(F, [8]))
            ref = _brute_dilate(F, 8)
            for depth in range(5):
                D = dilations.disc4(D)
                ref = _brute_dilate(ref, 4)
                assert np.array_equal(D, ref), (shape, depth)

    def test_partial_ladders_equal_abs_reference_bit_for_bit(self):
        # (0.5 - x) * 0 is +0.0 for x <= 0.5 and -0.0 above, so at large
        # shifts every x-increment is -0.0: the ladder must still read +0.0
        fns = [tf.fn for tf in CORPUS.values()]
        fns += [
            lambda x, y: (0.5 - x) * 0.0 * (1.0 + 0.0 * y),
            lambda x, y: (0.5 - y) * 0.0 * (1.0 + 0.0 * x),
        ]
        for f in fns:
            table = ModulusTable(f)
            for axis, G in (("x", table.F), ("y", table.F.T)):
                vals = [0.0] + [float(np.max(np.abs(G[d:] - G[:-d]))) for d in range(1, len(G))]
                ref = np.maximum.accumulate(np.array(vals))
                assert table._partial[axis].tobytes() == ref.tobytes(), axis

    def test_k_pairs_equal_direct_expressions_bit_for_bit(self):
        fns = [tf.fn for tf in CORPUS.values()]
        fns.append(lambda x, y: (0.5 - x) * 0.0 * (1.0 + 0.0 * y))
        for f in fns:
            table = ModulusTable(f)
            F, h = table.F, table.h
            ref = []
            for sigma in MOLLIFY_SCALES:
                G = F if sigma == 0 else _mollify(F, sigma / h)
                gx = (G[2:, :] - G[:-2, :]) / (2 * h)
                gy = (G[:, 2:] - G[:, :-2]) / (2 * h)
                gxx = (G[2:, :] - 2 * G[1:-1, :] + G[:-2, :]) / (h * h)
                gyy = (G[:, 2:] - 2 * G[:, 1:-1] + G[:, :-2]) / (h * h)
                norm = (
                    np.max(np.abs(G))
                    + np.max(np.abs(gx))
                    + np.max(np.abs(gxx))
                    + np.max(np.abs(gy))
                    + np.max(np.abs(gyy))
                )
                ref.append((float(np.max(np.abs(F - G))), float(norm)))
            got = [(dist.hex(), norm.hex()) for dist, norm in table._k_pairs]
            assert got == [(dist.hex(), norm.hex()) for dist, norm in ref]

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

    def test_mollifier_equals_per_line_convolution_bit_for_bit(self):
        cases = [(self.F, 10.0)]  # the kernel (81 taps) is wider than the array
        for tf in CORPUS.values():
            table = ModulusTable(tf.fn)
            cases += [(table.F, scale / table.h) for scale in MOLLIFY_SCALES if scale]
        for F, sigma in cases:
            got = _mollify(F, sigma)
            ref = _mollify_per_line(F, sigma)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), sigma

    def test_lipschitz_check_equals_pairwise_reference_bit_for_bit(self):
        cases = [
            (CORPUS["const1"].fn, CORPUS["const1"].lipschitz),
            (CORPUS["const1"].fn, LipschitzSpec(1.0, 0.5, 0.5)),
            (CORPUS["lip_half"].fn, CORPUS["lip_half"].lipschitz),
            # the worst pair has nonzero gaps on both axes, and its bound
            # rounds differently in the order M*(dx*dy)
            (from_expression("sin(pi*x)+sin(pi*y)").fn, LipschitzSpec(1.3, 0.3, 0.5)),
        ]
        for f, spec in cases:
            ok, worst = verify_lipschitz(f, spec)
            ref_ok, ref_worst = _lipschitz_pairs(f, spec)
            assert (ok, worst.hex()) == (ref_ok, ref_worst.hex()), spec

    def test_modulus_ladder_equals_full_march(self):
        probe = np.linspace(0.0, 1.5, 15001)
        for name in ("const1", "ripple", "quad"):
            table = ModulusTable(CORPUS[name].fn)
            deltas, values = _full_ladder(table)
            ref = values[np.searchsorted(deltas, probe + 1e-15, side="right") - 1]
            assert table.omega(probe).tobytes() == ref.tobytes(), name
        # a constant saturates at once: no rung past the exact radii
        const = ModulusTable(CORPUS["const1"].fn)
        assert len(const._complete[0]) == 1 + len(const._EXACT_RADII)
        # quad reaches max(F) nowhere short of the diagonal: the full ladder
        quad = ModulusTable(CORPUS["quad"].fn)
        assert len(quad._complete[0]) == len(_full_ladder(quad)[0])

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
    # the squared deltas of the bounds are second central moments
    def test_vanishes_at_corners(self):
        for name, sched in SCHEDULES.items():
            for n in (2, 8, 33):
                d2 = uni_central_moment(2, n, np.array([0.0, 1.0]), sched.pair(n))
                assert d2.tolist() == [0.0, 0.0], (name, n)

    def test_shrinks_with_degree(self):
        xs = np.array([0.25, 0.5, 0.75])
        for sched in SCHEDULES.values():
            d8 = uni_central_moment(2, 8, xs, sched.pair(8))
            d32 = uni_central_moment(2, 32, xs, sched.pair(32))
            assert np.all(0 < d32) and np.all(d32 < d8)


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

    def test_zero_delta_is_the_least_distance_when_every_norm_overflows(self):
        # every mollified C^2 norm of f overflows to inf; K(f, 0) is still
        # the sigma = 0 pair's distance, 0, and any delta > 0 gives inf
        table = ModulusTable(lambda x, y: 0.6e308 * np.cos(40 * x))
        with np.errstate(over="ignore", invalid="ignore"):
            vals = table.peetre_k(np.array([0.0, 1e-3]))
            assert all(math.isinf(norm) for _, norm in table._k_pairs)
        assert vals.tolist() == [0.0, math.inf]


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
        assert cert.pointwise_ok and cert.passed
        assert cert.margin >= 0.0

    def test_coarse_grid_rejected(self):
        # at 1 or 2 points per axis the sup runs over the corners, where
        # Bf = f, so every certificate would pass vacuously
        for grid in (0, 1, 9):
            with pytest.raises(ValueError, match="11 points per axis"):
                certify_bound("complete-modulus", CORPUS["quad"], _params(), grid=grid)
            with pytest.raises(ValueError, match="11 points per axis"):
                certification_sweep(THEOREMS, [CORPUS["quad"]], [SCHEDULES["i"]], [4], grid)

    def test_non_finite_certificate_rejected(self):
        # B f and f are finite, but |B f - f| overflows at 1.7e308, and at
        # 0.6e308 the bounds do while lhs stays finite: inf <= inf must not
        # pass, and no numpy warning may come first
        for theorem in ("complete-modulus", "partial-moduli", "peetre-k"):
            for scale in ("1.7e308", "0.6e308"):
                tf = from_expression(f"{scale}*cos(40*x)")
                with pytest.raises(ValueError, match=f"^{theorem} .* are not all finite$"):
                    certify_bound(theorem, tf, _params(4, 4), grid=10)

    def test_hypothesis_rejection(self):
        with pytest.raises(HypothesisError):
            certify_bound("c1", CORPUS["vee"], _params())
        with pytest.raises(HypothesisError):
            certify_bound("lipschitz", CORPUS["quad"], _params())
        # the C^1 norms come from the partials, so C^1 without them is refused
        with pytest.raises(HypothesisError, match="not registered as C"):
            certify_bound("c1", replace(CORPUS["quad"], fy=None), _params())

    def test_c1_is_read_from_the_first_partials(self):
        # analytic f_x and f_y are the C^1 registration: no flag is needed
        tf = TargetFunction2D(
            name="cubic",
            fn=lambda x, y: x**3 + x * y,
            fx=lambda x, y: 3 * x * x + y,
            fy=lambda x, y: x,
        )
        cert = certify_bound("c1", tf, _params())
        assert cert.theorem_id == "c1" and cert.passed
        # without f_y, or for an expression (second partials only), the sweep skips
        expr = from_expression("x^2")
        assert expr.fx is None and expr.fy is None and expr.has_second_partials
        certs, skipped = certification_sweep(
            ["c1"], [replace(tf, fy=None), expr], [SCHEDULES["i"]], [4]
        )
        assert certs == []
        assert [(s[1], s[2]) for s in skipped] == [
            ("cubic", "hypothesis 'c1-smoothness' violated: cubic is not registered as C^1"),
            ("expr:x^2", "hypothesis 'c1-smoothness' violated: expr:x^2 is not registered as C^1"),
        ]

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

    def test_uniform_columns_equal_bounds_at_sup_deltas(self):
        # the uniform columns must equal each bound evaluated once at the
        # sup deltas, bit for bit; on the default even lattice 1/2 is a
        # node, so they are also the grid maxima of the pointwise bounds
        functions = list(CORPUS.values())
        schedules = list(SCHEDULES.values())
        certs, _ = certification_sweep(THEOREMS, functions, schedules, [3, 4, 8, 16, 33])
        tables = {tf.name: ModulusTable(tf.fn) for tf in functions}
        seen = set()
        for c in certs:
            sched = SCHEDULES[c.schedule]
            params = BiParams(sched.pair(c.n), sched.pair(c.m), c.n, c.m)
            tf = CORPUS[c.f_name]
            rhs, cons = _uniform_reference(c.theorem_id, tf, tables[tf.name], params)
            assert (c.rhs.hex(), c.rhs_conservative.hex()) == (rhs.hex(), cons.hex()), c
            seen.add((c.theorem_id, c.schedule))
            xs = np.linspace(0.0, 1.0, 51)
            for d, pq in ((c.n, params.pq1), (c.m, params.pq2)):
                peak = uni_central_moment(2, d, 0.5, pq)
                assert np.max(uni_central_moment(2, d, xs, pq)) == peak
        assert len(seen) == len(THEOREMS) * len(SCHEDULES)
        # unequal degrees and schedules on the two axes, on another lattice
        params = BiParams(SCHEDULES["ii"].pair(5), SCHEDULES["iii"].pair(17), 5, 17)
        for theorem in THEOREMS:
            tf = CORPUS["const1" if theorem == "lipschitz" else "ripple"]
            c = certify_bound(theorem, tf, params, grid=37)
            rhs, cons = _uniform_reference(theorem, tf, tables[tf.name], params)
            assert (c.rhs.hex(), c.rhs_conservative.hex()) == (rhs.hex(), cons.hex()), c

    def test_odd_grid_uniform_column_is_the_sup_bound(self):
        # an odd lattice misses x = y = 1/2, where d_n and d_m peak; the
        # uniform column is still the bound there: ||f_x|| d_n + ||f_y|| d_m,
        # with ||f_x|| = ||f_y|| = 2 for x^2 + y^2 and d_n^2 = p^{n-1}/(4[n])
        # (the lattice maximum gives 1.047847)
        params = _params(4, 4)
        pq = params.pq1
        d = math.sqrt(pq.p**3 / (4 * pq_integer(4, pq)))
        cert = certify_bound("c1", CORPUS["quad"], params, grid=37)
        assert cert.rhs == pytest.approx(2 * d + 2 * d, rel=1e-15)
        assert cert.rhs == pytest.approx(1.048230, abs=1e-6)
        assert cert.rhs_conservative == cert.rhs

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
    xs = np.linspace(0.0, 1.0, 51)
    d_sup = math.sqrt(
        np.max(uni_central_moment(2, params.n, xs, params.pq1))
        + np.max(uni_central_moment(2, params.m, xs, params.pq2))
    )
    for i in range(50):
        scale = 10.0 if i % 2 else 1.0
        tf = from_expression("10*x" if i % 2 else "x")
        table = ModulusTable(tf.fn)
        assert table.omega(0.5) == pytest.approx(0.5 * scale, rel=1e-12)
        cert = certify_bound("complete-modulus", tf, params)
        assert cert.rhs == 2 * table.omega(d_sup)
        assert cert.rhs_conservative == 2 * table.omega(2 * d_sup)
        assert table.peetre_k(0.01) == pytest.approx(k_ref * scale, rel=1e-9)
        del tf, table, cert

"""Moduli of continuity and certification of the rate-of-convergence bounds.

Five bound families are certified for the tensor-product operator:

* ``complete-modulus``  |Bf - f| <= 2 w(f; d_nm)
* ``partial-moduli``    |Bf - f| <= w1(f; d_n) + w2(f; d_m)
                        (a variant with the constant 2 on each term is
                        also emitted and used as the conservative column)
* ``lipschitz``         |Bf - f| <= M d_n^{a1} d_m^{a2} for f in
                        Lip_M(a1,a2) (the exponent-a/2 variant is also
                        emitted; it is the weaker bound since d <= 1)
* ``c1``                |Bf - f| <= ||f'_x|| d_n + ||f'_y|| d_m
* ``peetre-k``          ||Bf - f|| <= 2 K(f; d*(x,y)/2), with
                        d*(x,y) = max(second central moments)/2 and K
                        replaced by a mollification-family upper bound

where d_n^2 = p1^{n-1}/[n] (x-x^2), d_m^2 = p2^{m-1}/[m] (y-y^2) and
d_nm^2 = d_n^2 + d_m^2.

Moduli of continuity are measured on a discrete grid, hence UNDERestimate
the true modulus; every omega-based certificate therefore also reports a
conservative column with omega evaluated at 2*delta, and the headline
pass/fail is judged on that conservative column.  The complete modulus
comes from numpy grey dilations by discrete discs (a disc is a stack of
row segments, so each dilation is a max of shifted, edge-padded copies);
the Peetre-K surrogate mollifies with a separable truncated Gaussian
(np.convolve over edge-padded rows and columns).  A certificate records
measured left-hand side, computed bound, margin and pass flag, in both a
pointwise form (node by node) and a uniform form (sup-grid deltas).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .bivariate import BiParams, ParamSchedule, bi_apply_grid, _eval_grid
from .functions import LipschitzSpec, TargetFunction2D, fd_partial
from .univariate import uni_central_moment

__all__ = [
    "THEOREMS",
    "ModulusEstimate",
    "ModulusTable",
    "complete_modulus",
    "partial_modulus",
    "delta_n",
    "delta_m",
    "delta_nm",
    "k_surrogate",
    "HypothesisError",
    "verify_lipschitz",
    "BoundCertificate",
    "certify_bound",
    "certification_sweep",
    "DEFAULT_MOLLIFY_SCALES",
]

THEOREMS = ("complete-modulus", "partial-moduli", "lipschitz", "c1", "peetre-k")

PASS_SLACK = 1e-12  # pass iff lhs <= rhs + PASS_SLACK

DEFAULT_MOLLIFY_SCALES = (0.0, 0.02, 0.05, 0.1, 0.2)


class HypothesisError(ValueError):
    """A theorem's hypothesis failed verification for the given function."""

    def __init__(self, hypothesis: str, detail: str):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis {hypothesis!r} violated: {detail}")


@dataclass(frozen=True)
class ModulusEstimate:
    delta: float
    value: float
    grid_resolution: int
    direction: str  # 'complete' | 'partial-x' | 'partial-y'


def _dilate(F: np.ndarray, r: int) -> np.ndarray:
    """Grey dilation of F by the discrete disc i^2 + j^2 <= r^2, with
    edge-clamped borders.

    The disc is a stack of 2r+1 row segments, so the result is a max over
    rows i of the segment max of half-width isqrt(r^2 - i^2), shifted by
    i.  Segment maxima of every half-width are built by widening one
    column at a time.  Only max operations are used, so the result is
    exact.
    """
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


def _mollify(F: np.ndarray, sigma: float) -> np.ndarray:
    """Discrete Gaussian mollification of F (sigma in grid cells), with
    edge-clamped borders: a separable np.convolve with the normalised
    Gaussian kernel truncated at 4 sigma."""
    radius = int(4.0 * sigma + 0.5)
    t = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * t**2)
    kernel /= kernel.sum()

    def smooth(v):
        return np.convolve(np.pad(v, radius, mode="edge"), kernel, mode="valid")

    for axis in (0, 1):
        F = np.apply_along_axis(smooth, axis, F)
    return F


class ModulusTable:
    """Grid moduli of continuity for one function, queryable at any delta.

    The complete modulus is built by iterated grey dilation with discrete
    discs (numpy, see ``_dilate``).  Compositions of discrete discs stay
    inside the continuous disc of the summed radius, so every ladder value
    is a valid LOWER estimate of the true modulus at its delta, converging
    from below as the grid refines.
    """

    _EXACT_RADII = tuple(range(1, 9))
    _STEP = 4  # incremental disc radius past the exact prefix

    def __init__(self, f: Callable, grid: int = 200):
        self.grid = grid
        xs = np.linspace(0.0, 1.0, grid + 1)
        self.h = 1.0 / grid
        self.F = _eval_grid(f, xs, xs)
        self._complete: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._partial: dict[str, np.ndarray] = {}

    def _build_complete(self) -> None:
        F = self.F
        deltas = [0.0]
        values = [0.0]
        # exact small radii resolve the bounds' typically tiny deltas
        for radius in self._EXACT_RADII:
            D = _dilate(F, radius)
            deltas.append(radius * self.h)
            values.append(float(np.max(D - F)))
        # then march outward by composed dilations from the last exact disc
        limit = int(math.ceil(math.sqrt(2.0) * self.grid))
        while radius < limit:
            D = _dilate(D, self._STEP)
            radius += self._STEP
            deltas.append(radius * self.h)
            values.append(float(np.max(D - F)))
        vals = np.maximum.accumulate(np.array(values))
        self._complete = (np.array(deltas), vals)

    def _build_partial(self, axis: str) -> None:
        F = self.F
        ax = 0 if axis == "x" else 1
        vals = [0.0]
        for d in range(1, self.grid + 1):
            if ax == 0:
                diff = np.abs(F[d:, :] - F[:-d, :])
            else:
                diff = np.abs(F[:, d:] - F[:, :-d])
            vals.append(float(np.max(diff)))
        self._partial[axis] = np.maximum.accumulate(np.array(vals))

    def omega(self, delta) -> np.ndarray | float:
        """Complete modulus at delta (scalar or array), from the ladder."""
        if self._complete is None:
            self._build_complete()
        deltas, values = self._complete
        d = np.asarray(delta, dtype=float)
        idx = np.searchsorted(deltas, d + 1e-15, side="right") - 1
        out = values[np.maximum(idx, 0)]
        return float(out) if np.isscalar(delta) or d.ndim == 0 else out

    def omega_partial(self, axis: str, delta) -> np.ndarray | float:
        if axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        if axis not in self._partial:
            self._build_partial(axis)
        vals = self._partial[axis]
        d = np.asarray(delta, dtype=float)
        idx = np.minimum((d / self.h + 1e-9).astype(int), self.grid)
        out = vals[idx]
        return float(out) if np.isscalar(delta) or d.ndim == 0 else out


_TABLE_CACHE: dict[tuple[int, int], ModulusTable] = {}


def modulus_table(f: Callable, grid: int = 200) -> ModulusTable:
    key = (id(f), grid)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = ModulusTable(f, grid)
    return _TABLE_CACHE[key]


def complete_modulus(f: Callable, delta: float, grid: int = 200) -> ModulusEstimate:
    """Grid estimate of the complete modulus w(f; delta)."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    t = modulus_table(f, grid)
    return ModulusEstimate(delta, float(t.omega(delta)), grid, "complete")


def partial_modulus(f: Callable, axis: str, delta: float, grid: int = 200) -> ModulusEstimate:
    """Grid estimate of the partial modulus (other coordinate frozen)."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    t = modulus_table(f, grid)
    return ModulusEstimate(delta, float(t.omega_partial(axis, delta)), grid, f"partial-{axis}")


# --- the delta quantities ----------------------------------------------------


def _delta2_axis(pq, n: int, v):
    return uni_central_moment(2, n, np.asarray(v, dtype=float), pq)


def delta_n(params: BiParams, x) -> np.ndarray | float:
    """sqrt(p1^{n-1}/[n] (x - x^2))."""
    out = np.sqrt(_delta2_axis(params.pq1, params.n, x))
    return float(out) if np.ndim(x) == 0 else out


def delta_m(params: BiParams, y) -> np.ndarray | float:
    out = np.sqrt(_delta2_axis(params.pq2, params.m, y))
    return float(out) if np.ndim(y) == 0 else out


def delta_nm(params: BiParams, x, y) -> np.ndarray | float:
    """sqrt(d_n^2 + d_m^2); satisfies d_nm^2 = d_n^2 + d_m^2 exactly."""
    out = np.sqrt(
        _delta2_axis(params.pq1, params.n, x) + _delta2_axis(params.pq2, params.m, y)
    )
    return float(out) if (np.ndim(x) == 0 and np.ndim(y) == 0) else out


# --- Peetre-K surrogate -------------------------------------------------------


class _KSurrogate:
    """Per-function mollification family: pairs (||f - g||, ||g||_C2).

    g_sigma is a discrete Gaussian mollification of f (``_mollify``);
    sigma = 0 means g = f itself.  Sup-norms on the grid, second partials by central
    finite differences; the C^2 norm follows
    ||g|| + sum_{j=1,2} (||d^j g/dx^j|| + ||d^j g/dy^j||).
    """

    def __init__(self, f: Callable, scales: Sequence[float], grid: int = 200):
        xs = np.linspace(0.0, 1.0, grid + 1)
        h = 1.0 / grid
        F = _eval_grid(f, xs, xs)
        self.pairs: list[tuple[float, float]] = []
        for sigma in scales:
            G = F if sigma == 0 else _mollify(F, sigma / h)
            dist = float(np.max(np.abs(F - G)))
            gx = (G[2:, :] - G[:-2, :]) / (2 * h)
            gy = (G[:, 2:] - G[:, :-2]) / (2 * h)
            gxx = (G[2:, :] - 2 * G[1:-1, :] + G[:-2, :]) / (h * h)
            gyy = (G[:, 2:] - 2 * G[:, 1:-1] + G[:, :-2]) / (h * h)
            norm = float(
                np.max(np.abs(G))
                + np.max(np.abs(gx))
                + np.max(np.abs(gxx))
                + np.max(np.abs(gy))
                + np.max(np.abs(gyy))
            )
            self.pairs.append((dist, norm))

    def value(self, delta) -> np.ndarray | float:
        d = np.asarray(delta, dtype=float)
        best = np.full(d.shape, np.inf)
        for dist, norm in self.pairs:
            best = np.minimum(best, dist + d * norm)
        return float(best) if d.ndim == 0 else best


_K_CACHE: dict[tuple[int, tuple[float, ...], int], _KSurrogate] = {}


def k_surrogate(
    f: Callable,
    delta,
    smoothing_family: Sequence[float] = DEFAULT_MOLLIFY_SCALES,
    grid: int = 200,
) -> np.ndarray | float:
    """Upper bound on the Peetre K-functional K(f, delta) by minimizing
    ||f - g|| + delta ||g||_C2 over a mollification family."""
    if np.any(np.asarray(delta) < 0):
        raise ValueError("delta must be >= 0")
    if not smoothing_family:
        raise ValueError("smoothing family must be nonempty")
    key = (id(f), tuple(smoothing_family), grid)
    if key not in _K_CACHE:
        _K_CACHE[key] = _KSurrogate(f, smoothing_family, grid)
    return _K_CACHE[key].value(delta)


# --- Lipschitz hypothesis verification ---------------------------------------


def verify_lipschitz(
    f: Callable, spec: LipschitzSpec, samples: int = 60, tol: float = 1e-9
) -> tuple[bool, float]:
    """Check |f(s,t)-f(x,y)| <= M |s-x|^a1 |t-y|^a2 on a subsampled pair
    grid; returns (ok, worst violation)."""
    xs = np.linspace(0.0, 1.0, samples)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    F = _eval_grid(f, xs, xs)
    flatF = F.ravel()
    flatX = X.ravel()
    flatY = Y.ravel()
    worst = 0.0
    chunk = 256
    for start in range(0, flatF.size, chunk):
        end = min(start + chunk, flatF.size)
        dv = np.abs(flatF[start:end, None] - flatF[None, :])
        dx = np.abs(flatX[start:end, None] - flatX[None, :]) ** spec.alpha1
        dy = np.abs(flatY[start:end, None] - flatY[None, :]) ** spec.alpha2
        viol = dv - spec.M * dx * dy
        worst = max(worst, float(np.max(viol)))
    return worst <= tol, worst


# --- certificates -------------------------------------------------------------


@dataclass
class BoundCertificate:
    """Measured error vs. theorem bound for one function and degree pair.

    ``passed`` is judged on the conservative columns (omega at 2*delta
    for the modulus theorems, the weaker a/2 exponent for the Lipschitz
    theorem), both pointwise and uniform.
    """

    theorem_id: str
    f_name: str
    schedule: str
    n: int
    m: int
    grid: int
    lhs: float  # sup over the grid of |Bf - f|
    rhs: float  # uniform bound, primary form
    rhs_conservative: float
    margin: float  # rhs_conservative - lhs
    pointwise_ok: bool
    pointwise_ok_conservative: bool
    passed: bool
    variants: dict[str, float] = field(default_factory=dict)
    notes: str = ""


def _lhs_matrix(tf: Callable, params: BiParams, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs = np.linspace(0.0, 1.0, grid + 1)
    B = bi_apply_grid(tf, params, xs, xs)
    F = _eval_grid(tf, xs, xs)
    return xs, np.abs(B - F), F


def _sup_partial_norms(tf: TargetFunction2D, grid: int = 200, fd_step: float = 1e-5):
    xs = np.linspace(0.0, 1.0, grid + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    if tf.has_analytic_partials:
        gx, gy = tf.fx(X, Y), tf.fy(X, Y)
    else:
        gx = fd_partial(tf.fn, X, Y, "x", 1, fd_step)
        gy = fd_partial(tf.fn, X, Y, "y", 1, fd_step)
    return float(np.max(np.abs(gx))), float(np.max(np.abs(gy)))


def certify_bound(
    theorem_id: str,
    tf: TargetFunction2D,
    params: BiParams,
    grid: int = 50,
    omega_grid: int = 200,
    schedule_name: str = "",
    smoothing_family: Sequence[float] = DEFAULT_MOLLIFY_SCALES,
) -> BoundCertificate:
    """Certify one theorem bound for one function at one degree pair.

    Raises HypothesisError when the function verifiably fails the
    theorem's hypothesis class (Lipschitz membership, C^1 smoothness).
    """
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem_id!r}; use one of {THEOREMS}")

    xs, lhsM, _ = _lhs_matrix(tf, params, grid)
    lhs_sup = float(np.max(lhsM))
    dn2 = _delta2_axis(params.pq1, params.n, xs)  # over x grid
    dm2 = _delta2_axis(params.pq2, params.m, xs)  # over y grid
    dn = np.sqrt(dn2)
    dm = np.sqrt(dm2)
    variants: dict[str, float] = {}
    notes = ""

    def finish(rhsM, rhsM_cons, rhs_u, rhs_uc) -> BoundCertificate:
        pw = bool(np.all(lhsM <= rhsM + PASS_SLACK))
        pwc = bool(np.all(lhsM <= rhsM_cons + PASS_SLACK))
        passed = pwc and lhs_sup <= rhs_uc + PASS_SLACK
        return BoundCertificate(
            theorem_id=theorem_id,
            f_name=tf.name,
            schedule=schedule_name,
            n=params.n,
            m=params.m,
            grid=grid,
            lhs=lhs_sup,
            rhs=rhs_u,
            rhs_conservative=rhs_uc,
            margin=rhs_uc - lhs_sup,
            pointwise_ok=pw,
            pointwise_ok_conservative=pwc,
            passed=passed,
            variants=variants,
            notes=notes,
        )

    if theorem_id == "complete-modulus":
        table = modulus_table(tf.fn, omega_grid)
        D = np.sqrt(dn2[:, None] + dm2[None, :])
        rhsM = 2 * table.omega(D)
        rhsM_cons = 2 * table.omega(2 * D)
        dsup = float(np.max(D))
        rhs_u = 2 * float(table.omega(dsup))
        rhs_uc = 2 * float(table.omega(2 * dsup))
        variants["delta_sup"] = dsup
        return finish(rhsM, rhsM_cons, rhs_u, rhs_uc)

    if theorem_id == "partial-moduli":
        table = modulus_table(tf.fn, omega_grid)
        w1 = table.omega_partial("x", dn)
        w2 = table.omega_partial("y", dm)
        w1c = table.omega_partial("x", 2 * dn)
        w2c = table.omega_partial("y", 2 * dm)
        # sharp form: w1 + w2; the conservative form carries 2(w1 + w2)
        rhsM = w1[:, None] + w2[None, :]
        rhsM_cons = 2 * (w1c[:, None] + w2c[None, :])
        dn_sup, dm_sup = float(np.max(dn)), float(np.max(dm))
        rhs_u = float(table.omega_partial("x", dn_sup) + table.omega_partial("y", dm_sup))
        rhs_uc = 2 * float(
            table.omega_partial("x", 2 * dn_sup) + table.omega_partial("y", 2 * dm_sup)
        )
        variants["rhs_sharp_uniform"] = rhs_u
        variants["sharp_pointwise_ok"] = float(np.all(lhsM <= rhsM + PASS_SLACK))
        return finish(rhsM, rhsM_cons, rhs_u, rhs_uc)

    if theorem_id == "lipschitz":
        if tf.lipschitz is None:
            raise HypothesisError("lipschitz-class", f"{tf.name} declares no Lipschitz class")
        ok, worst = verify_lipschitz(tf.fn, tf.lipschitz)
        if not ok:
            raise HypothesisError(
                "lipschitz-class",
                f"{tf.name} violates Lip_M({tf.lipschitz.alpha1},{tf.lipschitz.alpha2}) "
                f"with M={tf.lipschitz.M} (worst excess {worst:.3g})",
            )
        sp = tf.lipschitz
        # exponent convention: the sharp bound is d^alpha; the d^(alpha/2)
        # variant is larger (d <= 1) and kept as the conservative column
        rhsM = sp.M * dn[:, None] ** sp.alpha1 * dm[None, :] ** sp.alpha2
        rhsM_cons = sp.M * dn[:, None] ** (sp.alpha1 / 2) * dm[None, :] ** (sp.alpha2 / 2)
        dn_sup, dm_sup = float(np.max(dn)), float(np.max(dm))
        rhs_u = sp.M * dn_sup**sp.alpha1 * dm_sup**sp.alpha2
        rhs_uc = sp.M * dn_sup ** (sp.alpha1 / 2) * dm_sup ** (sp.alpha2 / 2)
        variants["rhs_derived_uniform"] = rhs_u
        variants["derived_pointwise_ok"] = float(np.all(lhsM <= rhsM + PASS_SLACK))
        return finish(rhsM, rhsM_cons, rhs_u, rhs_uc)

    if theorem_id == "c1":
        if not tf.c1:
            raise HypothesisError("c1-smoothness", f"{tf.name} is not registered as C^1")
        nx, ny = _sup_partial_norms(tf)
        rhsM = nx * dn[:, None] + ny * dm[None, :]
        dn_sup, dm_sup = float(np.max(dn)), float(np.max(dm))
        rhs_u = nx * dn_sup + ny * dm_sup
        variants["norm_fx"] = nx
        variants["norm_fy"] = ny
        return finish(rhsM, rhsM, rhs_u, rhs_u)

    # peetre-k
    D = 0.5 * np.maximum(dn2[:, None], dm2[None, :])
    rhsM = 2 * np.asarray(k_surrogate(tf.fn, D / 2, smoothing_family, omega_grid))
    dsup = float(np.max(D))
    rhs_u = 2 * float(k_surrogate(tf.fn, dsup / 2, smoothing_family, omega_grid))
    variants["delta_star_sup"] = dsup
    return finish(rhsM, rhsM, rhs_u, rhs_u)


def certification_sweep(
    theorems: Sequence[str],
    functions: Sequence[TargetFunction2D],
    schedules: Sequence[ParamSchedule],
    degrees: Sequence[int],
    grid: int = 50,
    omega_grid: int = 200,
) -> tuple[list[BoundCertificate], list[tuple[str, str, str]]]:
    """All certificates over the cross product, equal degrees n = m.

    Returns (certificates, skipped) where skipped holds
    (theorem, function, reason) for hypothesis failures.
    """
    certs: list[BoundCertificate] = []
    skipped: list[tuple[str, str, str]] = []
    for theorem in theorems:
        for tf in functions:
            for sched in schedules:
                for n in degrees:
                    params = BiParams(sched.pair(n), sched.pair(n), n, n)
                    try:
                        certs.append(
                            certify_bound(
                                theorem, tf, params, grid, omega_grid, sched.name
                            )
                        )
                    except HypothesisError as exc:
                        skipped.append((theorem, tf.name, str(exc)))
                        break  # same failure for every degree/schedule
                else:
                    continue
                break
    return certs, skipped

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
comes from grey dilations by discrete discs, each a max of shifted
contiguous slices of one flat edge-padded buffer (a small disc is a stack
of row segments; each outward rung dilates by the radius-4 disc as three
small offset sets in turn), marched outward until the dilation is max(f)
everywhere; the Peetre-K surrogate mollifies with a separable truncated
Gaussian (one np.convolve per edge-padded line, axis by axis); the
Lipschitz hypothesis is checked from per-axis power tables, over each
unordered pair of grid points once.  A certificate records
measured left-hand side, computed bound, margin and pass flag.  Each
theorem's bound is written once, in ``_bounds``, and evaluated at every
node of the certificate grid and once more at the sup deltas, where
x = y = 1/2; that last value is the uniform column.  Every bound is
nondecreasing in both deltas, so on an even grid, where 1/2 is a node,
the uniform column is the grid maximum of the pointwise bounds; an odd
grid misses 1/2, and its grid maximum would fall short of the theorem's
sup bound.

Where the work lives.  A ``ModulusTable`` holds every grid table of one
function, all derived from one evaluation of f on the OMEGA_GRID grid:
the complete and partial modulus ladders and the Peetre-K pairs.  A
table belongs to the ``certify_bound`` or ``certification_sweep`` call
that made it and is dropped with it; nothing is cached at module level.
The sweep runs function -> schedule -> degree: one table and one
hypothesis check per (function, theorem), then |Bf - f| and the squared
deltas once per (schedule, degree) for every theorem whose hypothesis
held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bivariate import BiParams, ParamSchedule, _eval_grid, abs_error_grid
from .functions import LipschitzSpec, TargetFunction2D
from .univariate import uni_central_moment

__all__ = [
    "THEOREMS",
    "ModulusTable",
    "HypothesisError",
    "verify_lipschitz",
    "BoundCertificate",
    "certify_bound",
    "certification_sweep",
    "OMEGA_GRID",
    "MOLLIFY_SCALES",
]

THEOREMS = ("complete-modulus", "partial-moduli", "lipschitz", "c1", "peetre-k")

PASS_SLACK = 1e-12  # pass iff lhs <= rhs + PASS_SLACK

OMEGA_GRID = 200  # cells per side of the grid behind the moduli, K pairs and C^1 norms

MOLLIFY_SCALES = (0.0, 0.02, 0.05, 0.1, 0.2)  # Peetre-K family; 0 means g = f

LIPSCHITZ_SAMPLES = 60  # points per side of the grid behind the Lipschitz check

LIPSCHITZ_TOL = 1e-9  # the Lipschitz check passes iff the worst violation <= this


class HypothesisError(ValueError):
    """A theorem's hypothesis failed verification for the given function."""

    def __init__(self, hypothesis: str, detail: str):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis {hypothesis!r} violated: {detail}")


def _max_of(dst: np.ndarray, terms) -> np.ndarray:
    """dst[k] = max over the pairs (src, o) in ``terms`` of src[k + o], for
    every k at which each shift stays inside the flat arrays, all of
    dst's size; the offsets o span zero.  Other entries of dst keep their
    values.  Returns dst."""
    offsets = [o for _, o in terms]
    lo, hi = -min(offsets), dst.size - max(offsets)
    out = dst[lo:hi]
    (a, oa), (b, ob) = terms[:2]
    np.maximum(a[lo + oa : hi + oa], b[lo + ob : hi + ob], out=out)
    for src, o in terms[2:]:
        np.maximum(out, src[lo + o : hi + o], out=out)
    return dst


# The radius-4 disc {i^2 + j^2 <= 16} is the Minkowski sum of these three
# offset sets (row, column): dilating by each in turn takes 4 + 3 + 3
# maxima, where the disc's own offsets would take 16.
_DISC4_STAGES = (
    ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)),
    ((-1, 0), (1, 0), (0, -2), (0, 2)),
    ((-2, 0), (2, 0), (0, -1), (0, 1)),
)


class _Dilations:
    """Grey dilations by discrete discs {i^2 + j^2 <= r^2}, with
    edge-clamped borders, of arrays of one shape.

    Each dilation edge-pads its input by ``PAD`` into a flat buffer and
    takes maxima of shifted contiguous slices of it: a shift (i, j) of
    the padded array is the flat offset i*W + j, W its padded width.  A
    slice position whose shift crosses a row end holds a value from the
    wrong row, but no dilation reaches further than PAD rows or columns,
    so the centre crop reads none of them.  Only max operations are used,
    so every result is exact.  The buffers are allocated once; a returned
    array is a view into them, valid until the next call.
    """

    PAD = 8  # the largest radius of ``discs``

    def __init__(self, shape: tuple[int, int]):
        rows, cols = shape
        pad = self.PAD
        self._width = cols + 2 * pad
        self._padded = np.zeros((rows + 2 * pad, self._width))
        self._out = np.zeros(self._padded.size)
        self._tmp = np.zeros(self._padded.size)
        self._crop = (slice(pad, pad + rows), slice(pad, pad + cols))
        self._stages = [[i * self._width + j for i, j in st] for st in _DISC4_STAGES]

    def _load(self, D: np.ndarray) -> np.ndarray:
        pad, P = self.PAD, self._padded
        P[self._crop] = D
        P[pad:-pad, :pad] = D[:, :1]
        P[pad:-pad, -pad:] = D[:, -1:]
        P[:pad] = P[pad]
        P[-pad:] = P[-pad - 1]
        return P.ravel()

    def _cropped(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self._padded.shape)[self._crop]

    def discs(self, F: np.ndarray, radii: Sequence[int]):
        """Yield (r, dilation of F by the disc of radius r) for each radius
        in turn, each at most PAD.  The disc is a stack of row segments, so
        each dilation is a max over rows i of the column-segment max of
        half-width isqrt(r^2 - i^2), shifted by i rows."""
        P = self._load(F)
        # seg[w][k]: max of P over the columns c-w..c+w of k's row; from
        # w = 2 on, seg[w-1] shifted by -1 and +1 covers them all
        seg = [P, *np.zeros((max(radii), P.size))]
        for w in range(1, len(seg)):
            terms = [(seg[w - 1], -1), (seg[w - 1], 1)] + ([(P, 0)] if w == 1 else [])
            _max_of(seg[w], terms)
        W = self._width
        for r in radii:
            terms = [(seg[math.isqrt(r * r - i * i)], i * W) for i in range(-r, r + 1)]
            yield r, self._cropped(_max_of(self._out, terms))

    def disc4(self, D: np.ndarray) -> np.ndarray:
        """The dilation of D by the radius-4 disc, as three stages, one per
        ``_DISC4_STAGES`` set."""
        src = self._load(D)
        for stage, dst in zip(self._stages, (self._out, self._tmp, self._out)):
            src = _max_of(dst, [(src, o) for o in stage])
        return self._cropped(src)


def _mollify(F: np.ndarray, sigma: float) -> np.ndarray:
    """Discrete Gaussian mollification of F (sigma in grid cells), with
    edge-clamped borders: a separable convolution with the normalised
    Gaussian kernel truncated at 4 sigma: axis 0, then axis 1, one
    np.convolve(..., "valid") per edge-padded line."""
    radius = int(4.0 * sigma + 0.5)
    t = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * t**2)
    kernel /= kernel.sum()

    def smooth_rows(G):
        out = np.empty_like(G)
        for row, line in zip(out, np.pad(G, ((0, 0), (radius, radius)), mode="edge")):
            row[:] = np.convolve(line, kernel, mode="valid")
        return out

    return smooth_rows(smooth_rows(F.T).T)


def _sup(a: np.ndarray) -> float:
    """max |a|, without an |a| array; +0.0 when every entry is a zero."""
    return float(max(0.0, a.max(), -a.min()))


def _nonnegative(delta) -> np.ndarray:
    d = np.asarray(delta, dtype=float)
    if np.any(d < 0):
        raise ValueError("delta must be >= 0")
    return d


class ModulusTable:
    """Grid tables of one function f, queryable at any delta (scalar or
    array; a scalar delta gives a float).

    Each table is built on first use from ``F``, the values of f on the
    (OMEGA_GRID + 1)^2 grid of [0,1]^2, which is evaluated once:

    * ``omega``: the complete-modulus ladder, by iterated grey dilation
      with discrete discs (see ``_Dilations``): the exact discs of radius
      1 to 8, then rungs of the radius-4 disc.  Compositions of discrete
      discs stay inside the continuous disc of the summed radius, so every
      ladder value is a valid LOWER estimate of the true modulus at its
      delta, converging from below as the grid refines.  The march stops
      at the grid diagonal, or once the dilation equals max(F) at every
      node: every later value would repeat, and omega returns the last
      value past the last delta.
    * ``omega_partial``: the x and y partial-modulus ladders (largest
      increment along one axis, the other coordinate frozen).
    * ``peetre_k``: the Peetre-K surrogate, from pairs
      (||f - g||, ||g||_C2) over the mollifications g of f at the scales
      ``MOLLIFY_SCALES`` (see ``_mollify``).

    The dilations, the increments and the difference quotients are
    written into buffers allocated once per table, and each sup-norm is
    max(max a, -min a), with no |a| array.  Every value is the float that
    the direct array expression gives.

    A table lives as long as the caller holds it; ``certify_bound`` and
    ``certification_sweep`` make one per function and drop it on return.
    """

    _EXACT_RADII = tuple(range(1, _Dilations.PAD + 1))
    _STEP = 4  # disc radius of each rung past the exact prefix: _Dilations.disc4
    h = 1.0 / OMEGA_GRID

    def __init__(self, f: Callable):
        self.f = f

    @cached_property
    def F(self) -> np.ndarray:
        xs = np.linspace(0.0, 1.0, OMEGA_GRID + 1)
        return _eval_grid(self.f, xs, xs)

    @cached_property
    def _complete(self) -> tuple[np.ndarray, np.ndarray]:
        F = self.F
        deltas = [0.0]
        values = [0.0]
        dilations, rise = _Dilations(F.shape), np.empty_like(F)
        # exact small radii resolve the bounds' typically tiny deltas
        for radius, D in dilations.discs(F, self._EXACT_RADII):
            deltas.append(radius * self.h)
            values.append(float(np.subtract(D, F, out=rise).max()))
        # then march outward by composed dilations from the last exact disc,
        # to the diagonal or until D is max(F) everywhere (rungs repeat after)
        limit = int(math.ceil(math.sqrt(2.0) * OMEGA_GRID))
        top = np.max(F)
        while radius < limit and np.min(D) < top:
            D = dilations.disc4(D)
            radius += self._STEP
            deltas.append(radius * self.h)
            values.append(float(np.subtract(D, F, out=rise).max()))
        return np.array(deltas), np.maximum.accumulate(np.array(values))

    @cached_property
    def _partial(self) -> dict[str, np.ndarray]:
        ladders = {}
        for axis, G in (("x", self.F), ("y", np.ascontiguousarray(self.F.T))):
            buf = np.empty(G.size)
            vals = [0.0]
            for d in range(1, OMEGA_GRID + 1):
                diff = buf[: (len(G) - d) * G.shape[1]].reshape(-1, G.shape[1])
                np.subtract(G[d:], G[:-d], out=diff)
                vals.append(_sup(diff))
            ladders[axis] = np.maximum.accumulate(np.array(vals))
        return ladders

    @cached_property
    def _k_pairs(self) -> list[tuple[float, float]]:
        # sup-norms on the grid, derivatives by central finite differences;
        # ||g||_C2 = ||g|| + ||g_x|| + ||g_xx|| + ||g_y|| + ||g_yy||, summed
        # in that order.  Each difference quotient is formed in one buffer
        # in the rounding order of (g[i+1] - 2 g[i] + g[i-1]) / h^2.
        F, h = self.F, self.h
        rows, cols = F.shape
        buf = np.empty(F.size)
        along_x = buf[: (rows - 2) * cols].reshape(rows - 2, cols)
        along_y = buf[: rows * (cols - 2)].reshape(rows, cols - 2)
        pairs = []
        for sigma in MOLLIFY_SCALES:
            G = F if sigma == 0 else _mollify(F, sigma / h)
            dist = _sup(np.subtract(F, G, out=buf.reshape(rows, cols)))
            norm = _sup(G)
            for q, hi, mid, lo in (
                (along_x, G[2:], G[1:-1], G[:-2]),
                (along_y, G[:, 2:], G[:, 1:-1], G[:, :-2]),
            ):
                norm += _sup(np.divide(np.subtract(hi, lo, out=q), 2 * h, out=q))
                np.multiply(mid, 2, out=q)
                np.add(np.subtract(hi, q, out=q), lo, out=q)
                norm += _sup(np.divide(q, h * h, out=q))
            pairs.append((dist, norm))
        return pairs

    def omega(self, delta) -> np.ndarray | float:
        """Complete modulus w(f; delta), from the ladder."""
        d = _nonnegative(delta)
        deltas, values = self._complete
        out = values[np.searchsorted(deltas, d + 1e-15, side="right") - 1]
        return float(out) if d.ndim == 0 else out

    def omega_partial(self, axis: str, delta) -> np.ndarray | float:
        """Partial modulus of f along ``axis`` ('x' or 'y')."""
        if axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        d = _nonnegative(delta)
        idx = np.minimum((d / self.h + 1e-9).astype(int), OMEGA_GRID)
        out = self._partial[axis][idx]
        return float(out) if d.ndim == 0 else out

    def peetre_k(self, delta) -> np.ndarray | float:
        """Upper bound on the Peetre K-functional K(f, delta): the minimum
        of ||f - g|| + delta ||g||_C2 over the mollification family."""
        d = _nonnegative(delta)
        best = np.full(d.shape, np.inf)
        for dist, norm in self._k_pairs:  # no delta ||g|| at delta = 0, where 0 * inf is nan
            best = np.minimum(best, dist + np.multiply(d, norm, out=np.zeros_like(d), where=d > 0))
        return float(best) if d.ndim == 0 else best


# --- hypotheses ---------------------------------------------------------------


def verify_lipschitz(f: Callable, spec: LipschitzSpec) -> tuple[bool, float]:
    """Check |f(s,t)-f(x,y)| <= M |s-x|^a1 |t-y|^a2 over all point pairs of
    the LIPSCHITZ_SAMPLES^2 grid; returns (worst <= LIPSCHITZ_TOL, worst
    violation).  The bound comes from two power tables, M |s-x|^a1 and
    |t-y|^a2, multiplied in that order, one grid row x_i at a time.  The
    violation of the pair ((i, j), (k, l)) is the same float as that of
    ((k, l), (i, j)), so row x_i is paired with the rows x_k, k >= i, only."""
    S = LIPSCHITZ_SAMPLES
    xs = np.linspace(0.0, 1.0, S)
    F = _eval_grid(f, xs, xs)
    gaps = np.abs(xs[:, None] - xs[None, :])
    bx = spec.M * gaps**spec.alpha1
    by = gaps**spec.alpha2
    viol_buf, bound_buf = np.empty(S**3), np.empty(S**3)
    worst = 0.0
    for i in range(S):
        shape = (S, S - i, S)
        viol = viol_buf[: (S - i) * S * S].reshape(shape)
        bound = bound_buf[: viol.size].reshape(shape)
        # viol[j, k - i, l] = |f(x_i, y_j) - f(x_k, y_l)| - bx[i, k] by[j, l]
        np.subtract(F[i][:, None, None], F[i:], out=viol)
        np.abs(viol, out=viol)
        np.multiply(bx[i, i:][:, None], by[:, None, :], out=bound)
        viol -= bound
        worst = max(worst, float(np.max(viol)))
    return worst <= LIPSCHITZ_TOL, worst


def _check_hypothesis(theorem_id: str, tf: TargetFunction2D):
    """Verify tf against one theorem's hypothesis class and return the
    constants its bound takes from the class: the LipschitzSpec for
    ``lipschitz``, the sup-norms of the first partials for ``c1``, None
    for the others.

    Raises ValueError for an unknown theorem and HypothesisError when tf
    verifiably fails the class (Lipschitz membership, C^1 smoothness).
    """
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem_id!r}; use one of {THEOREMS}")
    if theorem_id == "lipschitz":
        sp = tf.lipschitz
        if sp is None:
            raise HypothesisError("lipschitz-class", f"{tf.name} declares no Lipschitz class")
        ok, worst = verify_lipschitz(tf.fn, sp)
        if not ok:
            raise HypothesisError(
                "lipschitz-class",
                f"{tf.name} violates Lip_M({sp.alpha1},{sp.alpha2}) "
                f"with M={sp.M} (worst excess {worst:.3g})",
            )
        return sp
    if theorem_id == "c1":
        if tf.fx is None or tf.fy is None:
            raise HypothesisError("c1-smoothness", f"{tf.name} is not registered as C^1")
        xs = np.linspace(0.0, 1.0, OMEGA_GRID + 1)
        return tuple(_sup(_eval_grid(g, xs, xs)) for g in (tf.fx, tf.fy))
    return None


# --- certificates -------------------------------------------------------------


@dataclass
class BoundCertificate:
    """Measured error vs. theorem bound for one function and degree pair.

    The uniform columns ``rhs`` and ``rhs_conservative`` are each bound
    at the sup deltas (x = y = 1/2), which no pointwise bound exceeds.
    ``passed`` is the conservative pointwise check: lhs against
    the conservative bound (omega at 2*delta for the modulus theorems,
    the weaker a/2 exponent for the Lipschitz theorem), node by node; the
    uniform check then follows.  It fills both the ``status`` and the
    ``pointwise_ok_conservative`` columns of ``certify``.
    """

    theorem_id: str
    f_name: str
    schedule: str
    n: int
    m: int
    lhs: float  # sup over the grid of |Bf - f|
    rhs: float  # uniform bound, primary form
    rhs_conservative: float
    pointwise_ok: bool
    passed: bool
    notes: str = ""

    @property
    def margin(self) -> float:
        return self.rhs_conservative - self.lhs


class _Gap(NamedTuple):
    """|Bf - f| and the squared deltas on the certificate grid, for one
    function at one degree pair: what every theorem's certificate shares."""

    params: BiParams
    err: np.ndarray  # err[i, j] = |Bf - f| at (xs[i], xs[j])
    dn2: np.ndarray  # d_n^2 over the x grid, a column
    dm2: np.ndarray  # d_m^2 over the y grid, a row
    sup2: tuple[np.ndarray, np.ndarray]  # 1x1: d_n^2 and d_m^2 at x = y = 1/2, their peak


def _gap(tf: TargetFunction2D, params: BiParams, grid: int) -> _Gap:
    err = abs_error_grid(tf, params, grid)
    xs = np.linspace(0.0, 1.0, grid + 1)
    dn2 = uni_central_moment(2, params.n, xs, params.pq1)
    dm2 = uni_central_moment(2, params.m, xs, params.pq2)
    half = np.array([[0.5]])
    sup2 = (
        uni_central_moment(2, params.n, half, params.pq1),
        uni_central_moment(2, params.m, half, params.pq2),
    )
    return _Gap(params, err, dn2[:, None], dm2[None, :], sup2)


def _bounds(
    theorem_id: str, constants, table: ModulusTable, dn2: np.ndarray, dm2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One theorem's pointwise bound at the squared deltas ``dn2`` (a
    column) and ``dm2`` (a row), as the pair (sharp, conservative) of
    arrays.  Each bound is nondecreasing in both deltas."""
    dn, dm = np.sqrt(dn2), np.sqrt(dm2)
    if theorem_id == "complete-modulus":
        D = np.sqrt(dn2 + dm2)
        return 2 * table.omega(D), 2 * table.omega(2 * D)
    if theorem_id == "partial-moduli":
        # sharp form: w1 + w2; the conservative form carries 2(w1 + w2)
        wx, wy = table.omega_partial("x", dn), table.omega_partial("y", dm)
        wxc, wyc = table.omega_partial("x", 2 * dn), table.omega_partial("y", 2 * dm)
        return wx + wy, 2 * (wxc + wyc)
    if theorem_id == "lipschitz":
        sp = constants
        # exponent convention: the sharp bound is d^alpha; the d^(alpha/2)
        # variant is larger (d <= 1) and kept as the conservative column
        return (
            sp.M * dn**sp.alpha1 * dm**sp.alpha2,
            sp.M * dn ** (sp.alpha1 / 2) * dm ** (sp.alpha2 / 2),
        )
    if theorem_id == "c1":
        nx, ny = constants
        bound = nx * dn + ny * dm
        return bound, bound
    # peetre-k: 2 K(f; d*/2) with d* = max(d_n^2, d_m^2)/2
    d_star = 0.5 * np.maximum(dn2, dm2)
    bound = 2 * table.peetre_k(d_star / 2)
    return bound, bound


def _certificate(
    theorem_id: str,
    tf: TargetFunction2D,
    constants,
    table: ModulusTable,
    gap: _Gap,
    schedule_name: str,
) -> BoundCertificate:
    """One theorem's certificate, given its hypothesis constants (from
    ``_check_hypothesis``), the function's tables and the shared gap."""
    # out-of-range ladders and bounds give inf or nan: a nan node fails its
    # test, and a non-finite lhs or rhs raises below (inf <= inf would pass)
    with np.errstate(over="ignore", invalid="ignore"):
        sharp, cons = _bounds(theorem_id, constants, table, gap.dn2, gap.dm2)
        rhs, rhs_cons = (b.item() for b in _bounds(theorem_id, constants, table, *gap.sup2))
    lhs = float(np.max(gap.err))
    if not all(map(math.isfinite, (lhs, rhs, rhs_cons))):
        raise ValueError(
            f"{theorem_id} f={tf.name} schedule={schedule_name} n={gap.params.n} "
            f"m={gap.params.m}: lhs={lhs} rhs={rhs} rhs_conservative={rhs_cons} are not all finite"
        )
    return BoundCertificate(
        theorem_id=theorem_id,
        f_name=tf.name,
        schedule=schedule_name,
        n=gap.params.n,
        m=gap.params.m,
        lhs=lhs,
        rhs=rhs,
        rhs_conservative=rhs_cons,
        pointwise_ok=bool(np.all(gap.err <= sharp + PASS_SLACK)),
        # lhs <= cons node by node implies lhs <= rhs_cons, which no node's cons exceeds
        passed=bool(np.all(gap.err <= cons + PASS_SLACK)),
    )


def certify_bound(
    theorem_id: str,
    tf: TargetFunction2D,
    params: BiParams,
    grid: int = 50,
    schedule_name: str = "",
) -> BoundCertificate:
    """Certify one theorem bound for one function at one degree pair.

    Raises HypothesisError when the function verifiably fails the
    theorem's hypothesis class (Lipschitz membership, C^1 smoothness),
    and ValueError when lhs or a bound is not finite.
    """
    constants = _check_hypothesis(theorem_id, tf)
    return _certificate(
        theorem_id, tf, constants, ModulusTable(tf.fn), _gap(tf, params, grid), schedule_name
    )


def certification_sweep(
    theorems: Sequence[str],
    functions: Sequence[TargetFunction2D],
    schedules: Sequence[ParamSchedule],
    degrees: Sequence[int],
    grid: int = 50,
) -> tuple[list[BoundCertificate], list[tuple[str, str, str]]]:
    """All certificates over the cross product, equal degrees n = m.

    Returns (certificates, skipped) where skipped holds
    (theorem, function, reason) for hypothesis failures.  Both lists are
    theorem-major, in the order of ``theorems``, then function, schedule
    and degree: the order of one ``certify_bound`` call per combination.
    """
    certs: list[tuple[int, BoundCertificate]] = []
    skipped: list[tuple[int, tuple[str, str, str]]] = []
    for tf in functions:
        live = []
        for rank, theorem in enumerate(theorems):
            try:
                live.append((rank, theorem, _check_hypothesis(theorem, tf)))
            except HypothesisError as exc:
                skipped.append((rank, (theorem, tf.name, str(exc))))
        if not live:
            continue
        table = ModulusTable(tf.fn)
        for sched in schedules:
            for n in degrees:
                gap = _gap(tf, BiParams(sched.pair(n), sched.pair(n), n, n), grid)
                for rank, theorem, constants in live:
                    cert = _certificate(theorem, tf, constants, table, gap, sched.name)
                    certs.append((rank, cert))
    # sorted() is stable, so each theorem keeps the function/schedule/degree order
    return (
        [c for _, c in sorted(certs, key=itemgetter(0))],
        [s for _, s in sorted(skipped, key=itemgetter(0))],
    )

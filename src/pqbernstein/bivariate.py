"""Bivariate tensor (p,q)-Bernstein operator on [0,1]^2.

The bivariate operator is the tensor product of two univariate ones, with
an independent parameter pair and degree per axis.  This module also
houses the parameter schedules n -> (p_n, q_n) that turn the operators
into an approximation process, and the Korovkin-style sup-error
experiment over the six test monomials e_ij, 0 <= i+j <= 2.

Note on the shipped schedules: the convergence hypotheses ask for
p_n, q_n -> 1 with p_n^n -> a.  Since q_n < p_n forces q_n^n <= p_n^n,
any admissible schedule has b = lim q_n^n <= a; schedules claiming
b > a cannot exist.  The built-ins below are chosen admissible for all
generated degrees (n >= 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from .functions import monomial_2d
from .pq_core import PQPair, is_exact
from .univariate import (
    basis_row,
    basis_row_exact,
    nodes,
    uni_central_moment,
    uni_moment_closed,
)

Number = Union[int, float, Fraction]

__all__ = [
    "BiParams",
    "ParamSchedule",
    "SCHEDULES",
    "bi_apply",
    "bi_apply_exact",
    "bi_apply_grid",
    "bi_moment_closed",
    "bi_central_moment2",
    "KorovkinRow",
    "korovkin_experiment",
]


@dataclass(frozen=True)
class BiParams:
    """Degrees and parameter pairs for the two tensor directions."""

    pq1: PQPair
    pq2: PQPair
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"degrees must be >= 1, got n={self.n}, m={self.m}")


_N_MIN = 2  # the lowest degree of every schedule


@dataclass(frozen=True)
class ParamSchedule:
    """A rule n -> (p_n, q_n) with its declared limits a = lim p_n^n,
    b = lim q_n^n (b is diagnostic only; no limit formula uses it)."""

    name: str
    rule: Callable[[int], tuple[float, float]]
    declared_a: float
    declared_b: float

    def pair(self, n: int) -> PQPair:
        if n < _N_MIN:
            raise ValueError(f"schedule {self.name!r} admissible only for n >= {_N_MIN}")
        p, q = self.rule(n)
        return PQPair(p, q)


SCHEDULES: dict[str, ParamSchedule] = {
    "i": ParamSchedule(
        name="i",
        rule=lambda n: (n / (n + 1), 1 - 1 / n),
        declared_a=math.exp(-1),
        declared_b=math.exp(-1),
    ),
    "ii": ParamSchedule(
        name="ii",
        rule=lambda n: (math.exp(-1 / n), math.exp(-2 / n)),
        declared_a=math.exp(-1),
        declared_b=math.exp(-2),
    ),
    "iii": ParamSchedule(
        name="iii",
        rule=lambda n: (1.0, 1 - 1 / n),
        declared_a=1.0,
        declared_b=math.exp(-1),
    ),
}


def bi_apply(f: Callable, params: BiParams, x: float, y: float) -> float:
    """Double sum of basis times f at the tensor nodes (float path).

    Inner index j, outer k.  Each inner sum sum_j wy[j] f(s_k, t_j) and
    the outer sum sum_k wx[k] inner_k is correctly rounded from its
    rounded products, so the result depends neither on summation order
    nor on BLAS.  f is evaluated, and checked finite, at every node, in
    blocks of _BLOCK_ROWS node rows taken in row order, so memory stays
    bounded whatever the degrees.  Terms with a zero weight add nothing
    to an exact sum and are skipped: of each block only the rows and
    columns with a nonzero weight are summed.
    """
    wx = basis_row(params.n, float(x), params.pq1)
    wy = basis_row(params.m, float(y), params.pq2)
    sx = nodes(params.n, params.pq1.floats())
    ty = nodes(params.m, params.pq2.floats())
    cols = np.flatnonzero(wy)
    wy = wy[cols]
    inner = []
    for start in range(0, sx.size, _BLOCK_ROWS):
        rows = np.flatnonzero(wx[start : start + _BLOCK_ROWS])
        A = _eval_grid(f, sx[start : start + _BLOCK_ROWS], ty)[np.ix_(rows, cols)]
        A *= wy
        inner.append(_exact_row_sums(A))
    return float(_exact_row_sums((wx[wx != 0] * np.concatenate(inner))[None, :])[0])


# Exact row sums.  A finite x = mant * 2**e (np.frexp) is the integer
# mant * 2**(e + 1073) times 2**-1126, the weight of the lowest significand
# bit of the smallest subnormal 2**-1074 = 2**52 * 2**-1126.  So a row's
# exact sum is an integer T times 2**-1126, held in _DIGITS 32-bit digits:
# an entry's lowest bit sits at most at bit 2097, in digit 65, and its
# 53-bit significand reaches two digits further.
_LSB_SHIFT = 1126
_DIGITS = 68
_BLOCK_ROWS = 32
# bins[j] = 2**32 * hi[j] + lo[j] with 0 <= lo[j] < 2**32 and
# -2**31 <= hi[j] < 2**31; hi[j] is stored as hi[j] + 2**31, and this
# constant takes the 2**31 offsets out again
_BIAS = sum(1 << (32 * j + 31) for j in range(1, _DIGITS + 1))


def _exact_row_sums(A: np.ndarray) -> np.ndarray:
    """Correctly rounded (round-half-even) exact sum of each row of a
    finite 2-D float64 array, which it overwrites: bit for bit what
    ``math.fsum`` returns on the row.

    Each entry is cut into three signed 32-bit digits at its place in T;
    np.bincount adds the digits of each row into float64 bins, exactly
    while a row has fewer than 2**21 entries.  Each row's int64 bins then
    become one Python int, their low and high 32-bit halves read as two
    little-endian unsigned integers, and that int, divided by 2**1126,
    rounds once (int true division is correctly rounded).  The digits
    are cut in A's storage and one more buffer: in bi_apply's block loop,
    every array of block size allocated afresh costs page faults.
    """
    rows = A.shape[0]
    size = rows * _DIGITS
    v, e = np.frexp(A, out=(A, None))
    e += _LSB_SHIFT - 53  # position of the lowest significand bit in T
    at = ((e >> 5) + np.arange(0, size, _DIGITS)[:, None]).ravel()
    # in units of 2**(32 * (e >> 5) + 64 - 1126) an entry lies in
    # (-2**20, 2**20); its integer part is the top digit, and its fraction,
    # scaled by 2**32 twice, gives the other two (all exact, signs kept)
    e &= 31
    e -= 11
    np.ldexp(v, e, out=v)
    del e  # before the digit buffer is allocated
    bins = np.zeros(size)
    digit = np.empty_like(v)
    for place in (2, 1):  # the top digit goes two bins up, the middle one up
        np.trunc(v, out=digit)
        v -= digit
        v *= 2.0**32
        bins[place:] += np.bincount(at, digit.ravel(), size)[: size - place]
    bins += np.bincount(at, v.ravel(), size)
    T = bins.astype(np.int64)
    low = (T & 0xFFFFFFFF).astype("<u4").tobytes()
    high = ((T >> 32) + 2**31).astype("<u4").tobytes()
    width = 4 * _DIGITS
    scale = 1 << _LSB_SHIFT
    return np.array([
        (
            int.from_bytes(low[i : i + width], "little")
            + (int.from_bytes(high[i : i + width], "little") << 32)
            - _BIAS
        ) / scale
        for i in range(0, rows * width, width)
    ])


def bi_apply_exact(f: Callable, params: BiParams, x: Fraction, y: Fraction) -> Fraction:
    """Exact-rational double sum; f must map Fraction pairs to Fractions."""
    pq1, pq2 = params.pq1.exact(), params.pq2.exact()
    wx = basis_row_exact(params.n, Fraction(x), pq1)
    wy = basis_row_exact(params.m, Fraction(y), pq2)
    sx = nodes(params.n, pq1)
    ty = nodes(params.m, pq2)
    total = Fraction(0)
    for k in range(params.n + 1):
        inner = Fraction(0)
        for j in range(params.m + 1):
            inner += wy[j] * f(sx[k], ty[j])
        total += wx[k] * inner
    return total


def _eval_grid(f: Callable, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """f on the outer product grid, tolerating scalar-only callables.

    f is called once on the broadcast axes xs[:, None], ys[None, :] and
    its result is broadcast to a C-contiguous (len(xs), len(ys)) array.
    Every value must be finite: the first non-finite one raises
    ValueError naming f and the node.
    """
    shape = (len(xs), len(ys))
    with np.errstate(all="ignore"):
        try:
            F = np.asarray(f(xs[:, None], ys[None, :]), dtype=float)
            F = np.ascontiguousarray(np.broadcast_to(F, shape))
        except (TypeError, ValueError):
            F = np.array([[float(f(a, b)) for b in ys] for a in xs])
    finite = np.isfinite(F)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        name = getattr(f, "name", None) or getattr(f, "__name__", "f")
        raise ValueError(f"{name} is not finite at the node ({xs[i]}, {ys[j]}): {F[i, j]}")
    return F


def bi_apply_grid(
    f: Callable, params: BiParams, xs: Sequence[float], ys: Sequence[float]
) -> np.ndarray:
    """Operator values on a grid, as W1^T F W2 (fast sweep path).

    Returns an array of shape (len(xs), len(ys)).
    """
    W1 = np.ascontiguousarray(basis_row(params.n, xs, params.pq1).T)
    W2 = np.ascontiguousarray(basis_row(params.m, ys, params.pq2).T)
    F = _eval_grid(f, nodes(params.n, params.pq1.floats()), nodes(params.m, params.pq2.floats()))
    return W1.T @ F @ W2


_SELECTORS = ("1", "s", "t", "st", "s2", "t2")
# the Korovkin column of each selector: e_ij(x, y) = x^i y^j
_KOROVKIN_NAMES = ("e00", "e10", "e01", "e11", "e20", "e02")


def bi_moment_closed(which: str, params: BiParams, x: Number, y: Number) -> Number:
    """Closed form of the six bivariate moments: 1, s, t, st, s^2, t^2.

    The t^2 identity uses the second direction's bracket [m]_{p2,q2}; the
    double-sum oracle confirms this with asymmetric degrees (see the
    tests).
    """
    if which not in _SELECTORS:
        raise ValueError(f"unknown moment selector {which!r}; use one of {_SELECTORS}")
    exact = is_exact(params.pq1, x, y) and params.pq2.is_exact
    one: Number = Fraction(1) if exact else 1.0
    if not exact:
        x, y = float(x), float(y)
    if which == "1":
        return one
    if which == "s":
        return one * x
    if which == "t":
        return one * y
    if which == "st":
        return one * x * y
    if which == "s2":
        pq, n, v = params.pq1, params.n, x
    else:
        pq, n, v = params.pq2, params.m, y
    return uni_moment_closed(2, n, v, pq)


def bi_central_moment2(axis: str, params: BiParams, x: Number, y: Number) -> Number:
    """Second central moment along one axis:
    x-axis -> p1^{n-1}/[n] (x - x^2);  y-axis -> p2^{m-1}/[m] (y - y^2)."""
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if axis == "x":
        pq, n, v = params.pq1, params.n, x
    else:
        pq, n, v = params.pq2, params.m, y
    return uni_central_moment(2, n, v, pq)


@dataclass
class KorovkinRow:
    """Sup-errors at one degree pair, with the six test-function errors."""

    n: int
    m: int
    sup_error: float
    test_errors: dict[str, float] = field(default_factory=dict)
    warn: str = ""


def _check_grid(grid: int) -> None:
    """A sup over the uniform (grid+1)^2 lattice needs at least 11 points
    per axis.  At grid 0 or 1 the lattice is only the corners, where
    B f = f, so every error bound would hold vacuously."""
    if grid < 10:
        raise ValueError(f"grid resolution must be >= 11 points per axis, got {grid + 1}")


def abs_error_grid(f: Callable, params: BiParams, grid: int) -> np.ndarray:
    """|B f - f| on the uniform (grid+1)^2 lattice, boundary included:
    entry [i, j] is at (xs[i], xs[j]) with xs = linspace(0, 1, grid+1)."""
    _check_grid(grid)
    xs = np.linspace(0.0, 1.0, grid + 1)
    return np.abs(bi_apply_grid(f, params, xs, xs) - _eval_grid(f, xs, xs))


def korovkin_experiment(
    f: Callable, schedule: ParamSchedule, degrees: Sequence[int], grid: int = 50
) -> list[KorovkinRow]:
    """Sup-error table for f alongside the six Korovkin monomials
    e_ij(x, y) = x^i y^j, 0 <= i+j <= 2, at n = m = each degree with the
    schedule's pair on both axes.

    A row is flagged when the schedule's empirical limit has visibly
    stalled (degenerate schedule diagnostics), never raised.
    """
    def sup_error(g: Callable, params: BiParams) -> float:
        return float(np.max(abs_error_grid(g, params, grid)))

    rows = []
    for n in degrees:
        pq = schedule.pair(n)
        params = BiParams(pq, pq, n, n)
        errs = {e: sup_error(monomial_2d(w), params) for e, w in zip(_KOROVKIN_NAMES, _SELECTORS)}
        far = abs(pq.p**n - schedule.declared_a) > 0.5
        warn = "schedule far from declared limit" if far else ""
        rows.append(
            KorovkinRow(n=n, m=n, sup_error=sup_error(f, params), test_errors=errs, warn=warn)
        )
    return rows

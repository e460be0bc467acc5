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
    "TEST_MONOMIALS",
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


@dataclass(frozen=True)
class ParamSchedule:
    """A rule n -> (p_n, q_n) with its declared limits a = lim p_n^n,
    b = lim q_n^n (b is diagnostic only; no limit formula uses it)."""

    name: str
    rule: Callable[[int], tuple[float, float]]
    declared_a: float
    declared_b: float
    n_min: int = 2

    def pair(self, n: int) -> PQPair:
        if n < self.n_min:
            raise ValueError(
                f"schedule {self.name!r} admissible only for n >= {self.n_min}"
            )
        p, q = self.rule(n)
        return PQPair(p, q)

    def empirical_limits(self, n: int) -> tuple[float, float]:
        """(p_n^n, q_n^n) at a given degree, for limit diagnostics."""
        pq = self.pair(n)
        return pq.p**n, pq.q**n


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
    nor on BLAS.  Terms with a zero weight add nothing to an exact sum and
    are skipped; rows are summed in blocks of _BLOCK_ROWS, which bounds
    the memory of the sums.
    """
    wx = basis_row(params.n, float(x), params.pq1)
    wy = basis_row(params.m, float(y), params.pq2)
    sx = nodes(params.n, params.pq1.floats())
    ty = nodes(params.m, params.pq2.floats())
    F = _eval_grid(f, sx, ty)
    rows, cols = np.flatnonzero(wx), np.flatnonzero(wy)
    inner = np.empty(rows.size)
    for b in range(0, rows.size, _BLOCK_ROWS):
        block = rows[b : b + _BLOCK_ROWS]
        inner[b : b + _BLOCK_ROWS] = _exact_row_sums(F[np.ix_(block, cols)] * wy[cols])
    return float(_exact_row_sums((wx[rows] * inner)[None, :])[0])


# Exact row sums.  A finite x = mant * 2**e (np.frexp) is the integer
# mant * 2**(e + 1073) times 2**-1126, the weight of the lowest significand
# bit of the smallest subnormal 2**-1074 = 2**52 * 2**-1126.  So a row's
# exact sum is an integer T times 2**-1126, held in _DIGITS 32-bit digits:
# an entry's lowest bit sits at most at bit 2097, in digit 65, and its
# 53-bit significand reaches two digits further.
_LSB_SHIFT = 1126
_DIGITS = 68
_BLOCK_ROWS = 32


def _exact_row_sums(A: np.ndarray) -> np.ndarray:
    """Correctly rounded (round-half-even) exact sum of each row of a
    finite 2-D array: bit for bit what ``math.fsum`` returns on the row.

    Each entry is cut into three signed 32-bit digits at its place in T;
    np.bincount adds the digits of each row into float64 bins, exactly
    while a row has fewer than 2**21 entries.  Carries then normalise the
    bins in int64, and one Python int per row, divided by 2**1126, rounds
    once (int true division is correctly rounded).
    """
    rows = A.shape[0]
    mant, e = np.frexp(A)
    e += _LSB_SHIFT - 53  # position of the lowest significand bit in T
    # in units of 2**(32 * (e >> 5) + 64 - 1126) an entry lies in
    # (-2**20, 2**20); its integer part is the top digit, and its fraction,
    # scaled by 2**32 twice, gives the other two (all exact, signs kept)
    frac, hi = np.modf(np.ldexp(mant, (e & 31) - 11))
    frac, mid = np.modf(frac * 2.0**32)
    lo = frac * 2.0**32
    at = ((e >> 5) + np.arange(0, rows * _DIGITS, _DIGITS)[:, None]).ravel()
    size = rows * _DIGITS
    bins = np.bincount(at, lo.ravel(), size)
    bins[1:] += np.bincount(at, mid.ravel(), size)[:-1]
    bins[2:] += np.bincount(at, hi.ravel(), size)[:-2]
    T = bins.astype(np.int64).reshape(rows, _DIGITS)
    for j in range(_DIGITS - 1):
        T[:, j + 1] += T[:, j] >> 32
    low = (T[:, :-1] & 0xFFFFFFFF).astype("<u4")
    top = 32 * (_DIGITS - 1)
    scale = 1 << _LSB_SHIFT
    return np.array([
        (int.from_bytes(digits.tobytes(), "little") + (t << top)) / scale
        for digits, t in zip(low, T[:, -1].tolist())
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


# The Korovkin test set: e_ij(x,y) = x^i y^j for 0 <= i+j <= 2.
TEST_MONOMIALS: dict[str, Callable] = {
    "e00": lambda x, y: np.ones_like(np.asarray(x, dtype=float) * np.asarray(y, dtype=float)),
    "e10": lambda x, y: x * np.ones_like(np.asarray(y, dtype=float)),
    "e01": lambda x, y: np.ones_like(np.asarray(x, dtype=float)) * y,
    "e11": lambda x, y: x * y,
    "e20": lambda x, y: x * x * np.ones_like(np.asarray(y, dtype=float)),
    "e02": lambda x, y: np.ones_like(np.asarray(x, dtype=float)) * y * y,
}


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


def sup_error_grid(
    f: Callable, params: BiParams, grid: int = 50
) -> float:
    """sup over the uniform (grid+1)^2 lattice (boundary included) of
    |B f - f|."""
    xs = np.linspace(0.0, 1.0, grid + 1)
    B = bi_apply_grid(f, params, xs, xs)
    F = _eval_grid(f, xs, xs)
    return float(np.max(np.abs(B - F)))


def korovkin_experiment(
    f: Callable,
    sched1: ParamSchedule,
    sched2: ParamSchedule,
    degrees: Sequence[tuple[int, int]],
    grid: int = 50,
) -> list[KorovkinRow]:
    """Sup-error table for f alongside the six Korovkin monomials.

    A row is flagged when the schedule's empirical limits have visibly
    stalled (degenerate schedule diagnostics), never raised.
    """
    _check_grid(grid)
    rows = []
    for n, m in degrees:
        params = BiParams(sched1.pair(n), sched2.pair(m), n, m)
        errs = {name: sup_error_grid(g, params, grid) for name, g in TEST_MONOMIALS.items()}
        warn = ""
        pn, _ = sched1.empirical_limits(n)
        pm, _ = sched2.empirical_limits(m)
        if abs(pn - sched1.declared_a) > 0.5 or abs(pm - sched2.declared_a) > 0.5:
            warn = "schedule far from declared limit"
        rows.append(
            KorovkinRow(n=n, m=m, sup_error=sup_error_grid(f, params, grid), test_errors=errs, warn=warn)
        )
    return rows

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
from typing import Callable, Sequence

import numpy as np

from .functions import monomial_2d
from .pq_core import Number, PQPair
from .univariate import (
    basis_row,
    basis_row_exact,
    nodes,
    uni_moment_closed,
)

__all__ = [
    "BiParams",
    "ParamSchedule",
    "SCHEDULES",
    "bi_apply",
    "bi_apply_exact",
    "bi_apply_grid",
    "bi_moment_closed",
    "KOROVKIN_EXPONENTS",
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
    """A rule n -> (p_n, q_n) with its declared limit a = lim p_n^n."""

    name: str
    rule: Callable[[int], tuple[float, float]]
    declared_a: float

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
    ),
    "ii": ParamSchedule(
        name="ii",
        rule=lambda n: (math.exp(-1 / n), math.exp(-2 / n)),
        declared_a=math.exp(-1),
    ),
    "iii": ParamSchedule(
        name="iii",
        rule=lambda n: (1.0, 1 - 1 / n),
        declared_a=1.0,
    ),
}


_BLOCK_ROWS = 32  # node rows of f that bi_apply evaluates at a time


def bi_apply(f: Callable, params: BiParams, x: float, y: float) -> float:
    """Double sum of basis times f at the tensor nodes (float path).

    Inner index j, outer k.  f is evaluated, and checked finite, at every
    node, in blocks of _BLOCK_ROWS node rows taken in row order, so memory
    stays bounded whatever the degrees.  Each inner sum
    sum_j wy[j] f(s_k, t_j) is numpy's pairwise sum along its contiguous
    row, and the outer sum sum_k wx[k] inner_k is math.fsum of the rounded
    products.  No BLAS routine is called, and each row's sum depends on
    that row alone, so the result depends neither on the BLAS thread count
    nor on the block size.  The result is within
    (n + m + 2) u sum_jk |wx[k] wy[j] f(s_k, t_j)| of the exact sum of
    the rounded weights times f (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., 2002, sec. 4.2).  The log-domain basis
    weights themselves carry relative errors up to about 1e-10 at
    n = 2048, so an exact accumulator would not show in the result.
    """
    wx = basis_row(params.n, float(x), params.pq1)
    wy = basis_row(params.m, float(y), params.pq2)
    sx = nodes(params.n, params.pq1.floats())
    ty = nodes(params.m, params.pq2.floats())
    inner = np.concatenate([
        (_eval_grid(f, sx[start : start + _BLOCK_ROWS], ty) * wy).sum(axis=1)
        for start in range(0, sx.size, _BLOCK_ROWS)
    ])
    return math.fsum((wx * inner).tolist())


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
    _require_finite(F, xs, ys, f"{_name(f)} is not finite at the node")
    return F


def _name(f: Callable) -> str:
    return getattr(f, "name", None) or getattr(f, "__name__", "f")


def _require_finite(A: np.ndarray, xs: Sequence[float], ys: Sequence[float], what: str) -> None:
    """Raise ValueError "{what} (xs[i], ys[j]): A[i, j]" at the first non-finite A[i, j]."""
    if not np.isfinite(A).all():
        i, j = np.argwhere(~np.isfinite(A))[0]
        raise ValueError(f"{what} ({xs[i]}, {ys[j]}): {A[i, j]}")


def bi_apply_grid(
    f: Callable, params: BiParams, xs: Sequence[float], ys: Sequence[float]
) -> np.ndarray:
    """Operator values on a grid, as W1^T F W2 (fast sweep path).

    Returns an array of shape (len(xs), len(ys)).  Every value must be
    finite: f near the double range can overflow in the product, as the
    weights sum to 1 only up to rounding, and the first non-finite value
    raises ValueError naming f and the lattice point.
    """
    W1 = np.ascontiguousarray(basis_row(params.n, xs, params.pq1).T)
    W2 = np.ascontiguousarray(basis_row(params.m, ys, params.pq2).T)
    F = _eval_grid(f, nodes(params.n, params.pq1.floats()), nodes(params.m, params.pq2.floats()))
    with np.errstate(over="ignore", invalid="ignore"):
        B = W1.T @ F @ W2
    _require_finite(B, xs, ys, f"B {_name(f)} is not finite at the lattice point")
    return B


# the six Korovkin test monomials e_ij(x, y) = x^i y^j, 0 <= i+j <= 2, as
# exponent pairs (i, j) in column order e00, e10, e01, e11, e20, e02
KOROVKIN_EXPONENTS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


def bi_moment_closed(i: int, j: int, params: BiParams, x: Number, y: Number) -> Number:
    """Closed-form moment B(s^i t^j; x, y) for i, j in 0..4 (Lemma 2.3).

    The operator is a tensor product, so the moment is the product of the
    two univariate closed forms, each at its own axis's degree and pair:
    B_n(e_i; x) with (p1, q1) times B_m(e_j; y) with (p2, q2).  The t^2
    moment thus takes the second axis's bracket [m]_{p2,q2}, which the
    double-sum oracle confirms with asymmetric degrees (see the tests).
    An exponent outside 0..4 raises ValueError.
    """
    return uni_moment_closed(i, params.n, x, params.pq1) * uni_moment_closed(
        j, params.m, y, params.pq2
    )


@dataclass
class KorovkinRow:
    """Sup-errors at one degree n = m: ``sup_error`` for f, and
    ``test_errors`` for each Korovkin monomial x^i y^j, keyed f"e{i}{j}"
    in the order of KOROVKIN_EXPONENTS."""

    n: int
    sup_error: float
    test_errors: dict[str, float] = field(default_factory=dict)


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
    B, F = bi_apply_grid(f, params, xs, xs), _eval_grid(f, xs, xs)
    with np.errstate(over="ignore"):  # an overflow gives inf: _emit and _certificate reject it
        return np.abs(B - F)


def korovkin_experiment(
    f: Callable, schedule: ParamSchedule, degrees: Sequence[int], grid: int = 50
) -> list[KorovkinRow]:
    """Sup-error table for f alongside the six Korovkin monomials
    e_ij(x, y) = x^i y^j, 0 <= i+j <= 2, at n = m = each degree with the
    schedule's pair on both axes.
    """
    def sup_error(g: Callable, params: BiParams) -> float:
        return float(np.max(abs_error_grid(g, params, grid)))

    rows = []
    for n in degrees:
        pq = schedule.pair(n)
        params = BiParams(pq, pq, n, n)
        errs = {f"e{i}{j}": sup_error(monomial_2d(i, j), params) for i, j in KOROVKIN_EXPONENTS}
        rows.append(KorovkinRow(n=n, sup_error=sup_error(f, params), test_errors=errs))
    return rows

"""Univariate (p,q)-Bernstein operator, its basis and closed-form moments.

The operator reconstructs f on [0,1] from samples at the structured nodes
[k]_{p,q} / ([n]_{p,q} p^{k-n}) weighted by

    R_{n,k}(x) = p^{(k(k-1)-n(n-1))/2} [n over k]_{p,q} x^k
                 prod_{s=0}^{n-k-1} (p^s - q^s x).

Float evaluation does NOT use this formula literally: the huge opposing
p-powers cancel analytically.  With r = q/p one has
[n]_{p,q} = p^{n-1} [n]_r, hence

    R_{n,k}(x) = [n over k]_r x^k prod_{s=0}^{n-k-1} (1 - r^s x)

and the nodes collapse to [k]_r / [n]_r, i.e. the weight system is a
one-parameter basis in r.  All factors are then in [0,1] and a log-domain
evaluation is stable for degrees in the thousands.  The exact-rational
path keeps the literal formula above, so the two routes cross-check each
other.

Closed-form moments are the ones an exact-rational oracle confirms by
strict equality against the operator applied to monomials; a commonly
seen display form of two coefficients differs and is kept only as a
diagnostic (see the tests).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .pq_core import PQPair, bracket_values, is_exact, pq_binomial

Number = Union[int, float, Fraction]

__all__ = [
    "node",
    "nodes",
    "basis_row",
    "basis_row_exact",
    "uni_apply",
    "uni_moment_closed",
    "uni_central_moment",
    "central_moment4_display",
]


def _brackets(n: int, r: float) -> list[float]:
    """[0]_r, [1]_r, ..., [n]_r in float by [i]_r = 1 + r [i-1]_r."""
    br = [0.0]
    for _ in range(n):
        br.append(br[-1] * r + 1.0)
    return br


def node(n: int, k: int, pq: PQPair) -> Number:
    """Sample node k of degree n; lies in [0,1]."""
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"require 1 <= n and 0 <= k <= n, got n={n}, k={k}")
    return nodes(n, pq)[k]


def nodes(n: int, pq: PQPair) -> list[Fraction] | np.ndarray:
    """All n+1 nodes, ascending in k and in value.

    An exact pair gives Fractions from the literal [k]_{p,q} p^{n-k} /
    [n]_{p,q}; a float pair gives a float array of [k]_r / [n]_r.
    """
    if pq.is_exact:
        br = bracket_values(n, pq)
        return [br[k] * pq.p ** (n - k) / br[n] for k in range(n + 1)]
    br = np.array(_brackets(n, pq.ratio))
    return br / br[n]


def basis_row(n: int, x, pq: PQPair) -> np.ndarray:
    """All basis weights R_{n,0..n}(x) in float, via the r-reduced form.

    A scalar x gives one row of n+1 weights; a 1-D array x gives one row
    per entry, shape (len(x), n+1), each bit for bit the scalar row.  The
    log-factorials are computed once per call.  Endpoints are exact by
    construction: x=0 puts unit mass on k=0, x=1 on k=n.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    bad = ~((xs >= 0) & (xs <= 1))
    if bad.any():
        raise ValueError(f"x must lie in [0,1], got {float(xs[bad][0])!r}")
    w = np.zeros((xs.size, n + 1))
    w[xs == 0.0, 0] = 1.0
    w[xs == 1.0, n] = 1.0
    inner = np.flatnonzero((xs > 0.0) & (xs < 1.0))
    if inner.size:
        r = float(pq.ratio)
        xi = xs[inner]
        # log Gaussian-binomial via cumulative log [i]_r
        logfact = np.cumsum([0.0] + [math.log(b) for b in _brackets(n, r)[1:]])
        # cumulative log of the falling factors 1 - r^s x, s = 0..n-1
        logfall = np.zeros((inner.size, n + 1))
        np.cumsum(np.log1p(-(r ** np.arange(n)) * xi[:, None]), axis=1, out=logfall[:, 1:])
        k = np.arange(n + 1)
        logx = np.array([math.log(v) for v in xi.tolist()])[:, None]
        logw = logfact[n] - logfact[k] - logfact[n - k] + k * logx + logfall[:, n - k]
        w[inner] = np.exp(logw)
    return w if np.ndim(x) else w[0]


def basis_row_exact(n: int, x: Fraction, pq: PQPair) -> list[Fraction]:
    """Exact-rational basis weights from the literal defining formula."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    pq = pq.exact()
    x = Fraction(x)
    p, q = pq.p, pq.q
    out = []
    for k in range(n + 1):
        e = k * (k - 1) - n * (n - 1)  # always even
        pref = p ** (e // 2)
        prod = Fraction(1)
        ppow = Fraction(1)
        qpow = Fraction(1)
        for _ in range(n - k):
            prod *= ppow - qpow * x
            ppow *= p
            qpow *= q
        out.append(pref * pq_binomial(n, k, pq) * x**k * prod)
    return out


def uni_apply(f: Callable, n: int, x: Number, pq: PQPair) -> Number:
    """Apply the degree-n operator to f at x.

    Float mode accumulates over ascending k with error-free-transformation
    summation (math.fsum), so the result is independent of threading and
    reproducible across runs.  Exact mode requires f to map Fractions to
    Fractions.
    """
    if is_exact(pq, x):
        row = basis_row_exact(n, Fraction(x), pq)
        return sum((w * f(nd) for w, nd in zip(row, nodes(n, pq))), Fraction(0))
    row = basis_row(n, float(x), pq)
    nds = nodes(n, pq.floats())
    try:
        vals = np.asarray(f(nds), dtype=float)
        if vals.shape != nds.shape:
            raise ValueError
    except (TypeError, ValueError):
        vals = np.array([float(f(t)) for t in nds])
    return math.fsum(row * vals)


def _moment_terms(i: int, n: int, pq: PQPair) -> list:
    """Coefficients c_1..c_i with B(e_i; x) = sum_j c_j x^j.

    The i = 3, 4 coefficients are the ones the exact-rational oracle
    confirms by strict equality; an alternative display form of two of
    them circulates but fails the oracle (see the tests and the
    ``selftest`` report).
    """
    one = Fraction(1) if pq.is_exact else 1.0
    p, q = pq.p, pq.q
    br = bracket_values(max(n, 1), pq)

    def b(m: int):
        if m <= 0:
            return one * 0
        return br[m]

    N = b(n)
    if i == 0:
        return []
    if i == 1:
        return [one]
    if i == 2:
        return [p ** (n - 1) / N, q * b(n - 1) / N]
    if i == 3:
        return [
            p ** (2 * n - 2) / N**2,
            p ** (n - 2) * (2 * p + q) * q * b(n - 1) / N**2,
            q**3 * b(n - 1) * b(n - 2) / N**2,
        ]
    if i == 4:
        return [
            p ** (3 * n - 3) / N**3,
            q * (3 * p**2 + 3 * q * p + q**2) * b(n - 1) * p ** (2 * n - 4) / N**3,
            q**3 * (3 * p**2 + 2 * p * q + q**2) * b(n - 1) * b(n - 2) * p ** (n - 3) / N**3,
            q**6 * b(n - 1) * b(n - 2) * b(n - 3) / N**3,
        ]
    raise ValueError(f"moment order must be in 0..4, got {i}")


def uni_moment_closed(i: int, n: int, x: Number, pq: PQPair) -> Number:
    """Closed-form moment B(e_i; x) for i in 0..4.

    e_0 -> 1 and e_1 -> x (the operator is exact on constants and linear
    functions); higher moments use the closed-form coefficients.  Bracket
    factors [n-j] with n <= j evaluate to 0, which keeps the formulas
    total for small n.
    """
    if i not in (0, 1, 2, 3, 4):
        raise ValueError(f"moment order must be in 0..4, got {i}")
    one = Fraction(1) if is_exact(pq, x) else 1.0
    if not isinstance(one, Fraction):
        pq = pq.floats()
        x = float(x)
    if i == 0:
        return one
    terms = _moment_terms(i, n, pq)
    acc = one * 0
    xp = one
    for c in terms:
        xp = xp * x
        acc += c * xp
    return acc


def uni_central_moment(r: int, n: int, x: Number, pq: PQPair) -> Number:
    """Central moment B((t-x)^r; x) for r in {2, 4}.

    r=2 has the closed form p^{n-1}/[n] (x - x^2), the squared delta of
    the convergence bounds; its float path also takes an array x.  r=4 is
    assembled from the raw moments by the binomial expansion
    sum_j C(4,j) (-x)^{4-j} B(e_j; x).  A circulating direct expansion with
    A-coefficients mixes parameters inconsistently and is exposed
    separately as :func:`central_moment4_display` for comparison only.
    """
    if r not in (2, 4):
        raise ValueError(f"central moment order must be 2 or 4, got {r}")
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    exact = is_exact(pq, x)
    if not exact:
        pq = pq.floats()
        x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    if r == 2:
        return pq.p ** (n - 1) / bracket_values(n, pq)[n] * (x - x * x)
    acc = Fraction(0) if exact else 0.0
    for j in range(5):
        acc += math.comb(4, j) * (-x) ** (4 - j) * uni_moment_closed(j, n, x, pq)
    return acc


def central_moment4_display(n: int, x: float, pq: PQPair) -> float:
    """Diagnostic: the 4th central moment via the circulating display
    coefficients A_{1..4,n}, including their q-only brackets.

    Known to disagree with the oracle-checked assembly; kept so reports
    can show the discrepancy.  Float only.
    """
    pq = pq.floats()
    p, q = pq.p, pq.q
    br = bracket_values(n, pq)
    N = br[n]
    nq = (1 - q**n) / (1 - q)  # classical q-integer, as displayed
    a1 = (
        p ** (n - 3) * N**2 * (-(p**2) + 2 * p * q - q**2)
        + p ** (n - 5) * N * (-(p**3) + 3 * p * q**2 + q**3)
        - p ** (3 * n - 6) * (p**2 + p**3 + 2 * p * q**2 + q**3)
    ) / N**3
    a2 = (
        p ** (n - 3) * N**2 * (p**2 - 2 * p * q + q**2)
        + p ** (2 * n - 5) * N * (-(q**3) - 4 * p * q**2 - 3 * p**2 * q + 2 * p**3)
        - p ** (3 * n - 6) * (3 * p**3 + 3 * p * q**2 + 5 * p**2 * q + q**3)
    ) / N**3
    a3 = (
        p ** (2 * n - 4) * N * (-(p**2) + 3 * p * q + q**2)
        - p ** (3 * n - 5) * (3 * p**2 + q**2 + 3 * p * q)
    ) / nq**3
    a4 = p ** (3 * n - 3) / nq**3
    return a1 * x**4 + a2 * x**3 + a3 * x**2 + a4 * x

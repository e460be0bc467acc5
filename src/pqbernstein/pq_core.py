"""Two-parameter (p,q)-calculus primitives.

All operator and moment formulas in this package are built from the
(p,q)-integer

    [n]_{p,q} = p^{n-1} + p^{n-2} q + ... + q^{n-1}   (= (p^n - q^n)/(p - q)),

its factorial, the (p,q)-binomial coefficient, and the falling product
prod_{s=0}^{c-1} (p^s - q^s x), which the bases build as prefix products.

Every exported operation runs in two modes, chosen by the number type of
the parameter pair:

* exact mode -- ``fractions.Fraction`` inputs, closed under +,-,*,/ with
  no rounding.  Used as the oracle in all identity tests.
* float mode -- doubles.  Ratios homogeneous in (p,q) are evaluated at
  the reduced pair (1, q/p), where no power of p leaves the double range.
  Binomial coefficients go through the log domain of the reduced
  brackets so they stay usable for degrees of several hundred.

Routines start their sums and products from ``PQPair.one``, so the pair
alone sets the mode; where points enter too, ``is_exact(pq, *values)``
sends any float point down the float path.

The summation form of ``[n]`` is used everywhere instead of the quotient
(p^n - q^n)/(p - q): the quotient cancels catastrophically as q -> p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

__all__ = [
    "PQPair",
    "FloatRangeError",
    "is_exact",
    "pq_integer",
    "bracket_values",
    "pq_factorials",
    "pq_binomials",
    "log_factorials",
    "pq_binomial_expansion_check",
]


@dataclass(frozen=True)
class PQPair:
    """A validated parameter pair with 0 < q < p <= 1.

    The strict inequality q < p is enforced at construction; p = q is
    rejected even though the summation form of ``[n]`` would still be
    defined there.
    """

    p: Number
    q: Number

    def __post_init__(self) -> None:
        if not (0 < self.q < self.p <= 1):
            raise ValueError(
                f"require 0 < q < p <= 1, got p={self.p!r}, q={self.q!r}"
            )

    @property
    def is_exact(self) -> bool:
        return isinstance(self.p, (Fraction, int)) and isinstance(
            self.q, (Fraction, int)
        )

    @property
    def one(self) -> Number:
        """1 in the pair's arithmetic: Fraction(1) for an exact pair, else
        1.0.  Sums and products start from it, so even a unit returned
        as is ([0]!, the e_0 moment) has the pair's type."""
        return Fraction(1) if self.is_exact else 1.0

    @property
    def ratio(self) -> Number:
        """q/p, the single parameter the float path reduces to (a Fraction
        for an exact pair: Fraction and int division is exact)."""
        return self.q / self.p

    def reduced(self) -> "PQPair":
        """The float pair (1, q/p): a node, basis weight or moment, being
        homogeneous of degree 0 in (p,q), takes the same value there."""
        return PQPair(1.0, float(self.ratio))

    def exact(self) -> "PQPair":
        """Exact-rational copy (requires exactly representable fields)."""
        return PQPair(Fraction(self.p), Fraction(self.q))

    def floats(self) -> "PQPair":
        return PQPair(float(self.p), float(self.q))


class FloatRangeError(ArithmeticError):
    """A (p,q)-quantity needed on the float path is outside the range of
    doubles for the given pair (it underflows to 0 or overflows)."""


def is_exact(pq: PQPair, *values) -> bool:
    """True when the exact-rational path applies: an exact pair and every
    value a Fraction or int."""
    return pq.is_exact and all(isinstance(v, (Fraction, int)) for v in values)


def pq_integer(n: int, pq: PQPair) -> Number:
    """[n]_{p,q} via the summation form; [n] = 0 for n <= 0.

    The extension to nonpositive n (empty sum) keeps moment formulas
    containing [n-2], [n-3] total for small degrees.
    """
    p, q = pq.p, pq.q
    terms = (p ** (n - 1 - i) * q**i for i in range(n))
    return sum(terms, 0 * pq.one) if pq.is_exact else math.fsum(terms)


def bracket_values(n: int, pq: PQPair) -> list:
    """[0], [1], ..., [n] via the stable recurrence [i] = q*[i-1] + p^(i-1),
    which at the reduced pair is [i]_r = r*[i-1]_r + 1.  A float [i] on a
    raw pair may underflow to 0, and every later one with it."""
    p, q = pq.p, pq.q
    out = [0 * pq.one]
    ppow = pq.one
    for _ in range(n):
        out.append(q * out[-1] + ppow)
        ppow *= p
    return out


def pq_factorials(n: int, pq: PQPair) -> list:
    """[0]!, [1]!, ..., [n]! as running products [k]! = [k-1]! [k] of one
    bracket table, with [0]! = 1."""
    if n < 0:
        raise ValueError(f"factorial undefined for n={n}")
    br = bracket_values(n, pq)
    if n > 0 and not br[n]:  # a zero bracket makes every later one zero
        raise FloatRangeError(f"[{br.index(0, 1)}]_{{p,q}} underflows to 0")
    out = [pq.one]
    for v in br[1:]:
        out.append(out[-1] * v)
    return out


def log_factorials(n: int, pq: PQPair) -> list[float]:
    """Cumulative log-factorials of the reduced brackets [i]_r >= 1:
    entry i is log([i]_r!), r = q/p.  Float path only."""
    br = bracket_values(n, pq.reduced())
    out = [0.0]
    for i in range(1, n + 1):
        out.append(out[-1] + math.log(br[i]))
    return out


def pq_binomials(n: int, pq: PQPair) -> list:
    """The row of (p,q)-binomial coefficients [n over k], k = 0..n.

    Exact mode steps [n over k+1] = [n over k] [n-k] / [k+1] along one
    bracket table.  Float mode uses [n over k]_{p,q} = p^(k(n-k)) [n over k]_r
    in the log domain of one log-factorial table, which keeps the
    computation stable for n up to several hundred; a coefficient above
    the double range is inf.
    """
    if n < 0:
        raise ValueError(f"binomial undefined for n={n}")
    if pq.is_exact:
        br = bracket_values(n, pq)
        out = [pq.one]
        for k in range(n):
            out.append(out[-1] * br[n - k] / br[k + 1])
        return out
    lf = log_factorials(n, pq)
    log_p = math.log(pq.p)
    out = [1.0] * (n + 1)
    for k in range(1, n):
        try:
            out[k] = math.exp(k * (n - k) * log_p + lf[n] - lf[k] - lf[n - k])
        except OverflowError:  # inf, as a product of brackets would overflow
            out[k] = math.inf
    return out


def pq_binomial_expansion_check(
    n: int, a: Number, b: Number, x: Number, y: Number, pq: PQPair
) -> bool:
    """Check the (p,q)-binomial expansion of (ax + by)^n against its
    product form (ax + by)(p ax + q by)...(p^{n-1} ax + q^{n-1} by).

    Exact inputs are compared strictly; floats within a relative
    tolerance of 1e-12 (absolute 1e-14).  Test utility, n is expected to
    stay small (<= 20).
    """
    if n > 20:
        raise ValueError("expansion check is a test utility; use n <= 20")
    p, q = pq.p, pq.q

    lhs = 0 * pq.one
    for k, binom in enumerate(pq_binomials(n, pq)):
        term = (
            p ** math.comb(n - k, 2)
            * q ** math.comb(k, 2)
            * binom
            * a ** (n - k)
            * b**k
            * x ** (n - k)
            * y**k
        )
        lhs += term

    rhs = pq.one
    for s in range(n):
        rhs *= (p**s) * a * x + (q**s) * b * y

    if is_exact(pq, a, b, x, y):
        return lhs == rhs
    return math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-14)


"""Asymptotics of the scaled approximation error.

Two demonstrations at schedule-driven parameters (p_n, q_n) -> (1,1),
p_n^n -> a:

* the scaled central moments [n] B((t-x)^2; x) and [n]^2 B((t-x)^4; x)
  approach a(x - x^2) and 3a x^2 (1-x)^2 respectively (the central
  moments are evaluated by honest basis summation, not the closed form);
* for f with second partials, [n] (B_{n,n} f - f)(x,y) approaches
  a(x - x^2) f_xx / 2 + a(y - y^2) f_yy / 2.

Only a enters any limit; the schedule's b = lim q_n^n enters none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bivariate import BiParams, ParamSchedule, bi_apply
from .functions import TargetFunction2D
from .pq_core import pq_integer
from .univariate import uni_apply

__all__ = [
    "AsymptoticTrace",
    "MissingDerivativesError",
    "scaled_central_moment_limit_check",
    "voronovskaja_trace",
    "richardson_extrapolate",
]

DEFAULT_DEGREES = (16, 32, 64, 128, 256, 512, 1024, 2048)


class MissingDerivativesError(ValueError):
    """The trace needs second partials the function does not provide."""


@dataclass
class AsymptoticTrace:
    """Scaled errors along a degree ladder, against a predicted limit."""

    degrees: list[int]
    scaled_values: list[float]
    predicted_limit: float

    def __post_init__(self) -> None:
        if list(self.degrees) != sorted(set(self.degrees)):
            raise ValueError("degrees must be strictly increasing")
        if len(self.scaled_values) != len(self.degrees):
            raise ValueError("scaled_values must match degrees")

    @property
    def errors(self) -> list[float]:
        return [abs(v - self.predicted_limit) for v in self.scaled_values]


def scaled_central_moment_limit_check(
    order: int,
    schedule: ParamSchedule,
    x: float,
    degrees: Sequence[int] = DEFAULT_DEGREES,
) -> AsymptoticTrace:
    """Trace of [n]^(order/2) * B((t-x)^order; x) along the ladder.

    order=2 predicts a(x - x^2); order=4 predicts 3a x^2 (1-x)^2, i.e.
    3a x^4 - 6a x^3 + 3a x^2.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    a = schedule.declared_a
    if order == 2:
        limit = a * (x - x * x)
    else:
        limit = 3 * a * (x * (1 - x)) ** 2
    values = []
    for n in degrees:
        pq = schedule.pair(n)
        N = pq_integer(n, pq)
        scale = N if order == 2 else N * N
        values.append(scale * uni_apply(lambda t: (t - x) ** order, n, x, pq))
    return AsymptoticTrace(degrees=list(degrees), scaled_values=values, predicted_limit=limit)


def voronovskaja_trace(
    tf: TargetFunction2D,
    schedule: ParamSchedule,
    point: tuple[float, float],
    degrees: Sequence[int] = DEFAULT_DEGREES,
) -> AsymptoticTrace:
    """Trace of [n] (B_{n,n} f - f) at one point, equal degrees and the
    same schedule on both axes; the predicted limit is
    a(x-x^2) f_xx/2 + a(y-y^2) f_yy/2 (no mixed-derivative term)."""
    if not tf.has_second_partials:
        raise MissingDerivativesError(
            f"{tf.name} has no second partials; the Voronovskaja theorem needs f_xx and f_yy"
        )
    x, y = point
    with np.errstate(all="ignore"):
        fxx = float(np.asarray(tf.fxx(x, y)))
        fyy = float(np.asarray(tf.fyy(x, y)))
        f_at = float(np.asarray(tf.fn(x, y)))
    if not all(map(math.isfinite, (fxx, fyy, f_at))):
        raise ValueError(f"{tf.name} or its second partials are not finite at ({x}, {y})")
    a = schedule.declared_a
    limit = a * (x - x * x) * fxx / 2 + a * (y - y * y) * fyy / 2
    values = []
    for n in degrees:
        pq = schedule.pair(n)
        N = pq_integer(n, pq)
        params = BiParams(pq, pq, n, n)
        values.append(N * (bi_apply(tf.fn, params, x, y) - f_at))
    return AsymptoticTrace(degrees=list(degrees), scaled_values=values, predicted_limit=limit)


def richardson_extrapolate(trace: AsymptoticTrace) -> float:
    """Two-point Richardson extrapolation from the last two trace entries,
    assuming the leading error term decays like 1/n."""
    if len(trace.degrees) < 2:
        raise ValueError("need at least two trace entries")
    n1, n2 = trace.degrees[-2], trace.degrees[-1]
    v1, v2 = trace.scaled_values[-2], trace.scaled_values[-1]
    rho = n2 / n1
    return v2 + (v2 - v1) / (rho - 1)

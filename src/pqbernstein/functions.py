"""Built-in target functions on [0,1]^2 and their metadata.

Each corpus entry carries whatever the error-bound machinery needs to
check hypotheses honestly: analytic partials where the function is
smooth, and a Lipschitz-class declaration where one is claimed.  A
function is C^1 for the certificates exactly when it gives analytic
first partials f_x and f_y.  Expression-defined functions (from the CLI
parser) get finite-difference second partials only: they serve the
Voronovskaja trace, and the C^1 certificate refuses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expressions import parse_expr

__all__ = [
    "LipschitzSpec",
    "TargetFunction2D",
    "CORPUS",
    "resolve_function",
    "monomial_1d",
    "monomial_2d",
]


@dataclass(frozen=True)
class LipschitzSpec:
    """Claimed membership in Lip_M(alpha1, alpha2):
    |f(s,t) - f(x,y)| <= M |s-x|^alpha1 |t-y|^alpha2 for all pairs."""

    M: float
    alpha1: float
    alpha2: float

    def __post_init__(self) -> None:
        if self.M <= 0 or not (0 < self.alpha1 <= 1) or not (0 < self.alpha2 <= 1):
            raise ValueError(f"invalid Lipschitz parameters: {self}")


@dataclass(frozen=True)
class TargetFunction2D:
    """An evaluable scalar function on [0,1]^2 with optional metadata.

    Giving both first partials ``fx`` and ``fy`` registers the function
    as C^1; the second partials ``fxx`` and ``fyy`` serve the
    Voronovskaja trace."""

    name: str
    fn: Callable
    fx: Optional[Callable] = None
    fy: Optional[Callable] = None
    fxx: Optional[Callable] = None
    fyy: Optional[Callable] = None
    lipschitz: Optional[LipschitzSpec] = None

    def __call__(self, x, y):
        return self.fn(x, y)

    @property
    def has_second_partials(self) -> bool:
        return self.fxx is not None and self.fyy is not None


def _zero(x, y):
    return 0.0


_PI = np.pi

CORPUS: dict[str, TargetFunction2D] = {
    tf.name: tf
    for tf in [
        TargetFunction2D(
            name="const1",
            fn=lambda x, y: 1.0,
            fx=_zero,
            fy=_zero,
            fxx=_zero,
            fyy=_zero,
            lipschitz=LipschitzSpec(1.0, 1.0, 1.0),
        ),
        TargetFunction2D(
            name="linx",
            fn=lambda x, y: x,
            fx=lambda x, y: 1.0,
            fy=_zero,
            fxx=_zero,
            fyy=_zero,
        ),
        TargetFunction2D(
            name="liny",
            fn=lambda x, y: y,
            fx=_zero,
            fy=lambda x, y: 1.0,
            fxx=_zero,
            fyy=_zero,
        ),
        TargetFunction2D(
            name="prodxy",
            fn=lambda x, y: x * y,
            fx=lambda x, y: y,
            fy=lambda x, y: x,
            fxx=_zero,
            fyy=_zero,
        ),
        TargetFunction2D(
            name="quad",
            fn=lambda x, y: x * x + y * y,
            fx=lambda x, y: 2 * x,
            fy=lambda x, y: 2 * y,
            fxx=lambda x, y: 2.0,
            fyy=lambda x, y: 2.0,
        ),
        TargetFunction2D(
            name="ripple",
            fn=lambda x, y: np.sin(_PI * x) * np.sin(_PI * y),
            fx=lambda x, y: _PI * np.cos(_PI * x) * np.sin(_PI * y),
            fy=lambda x, y: _PI * np.sin(_PI * x) * np.cos(_PI * y),
            fxx=lambda x, y: -_PI * _PI * np.sin(_PI * x) * np.sin(_PI * y),
            fyy=lambda x, y: -_PI * _PI * np.sin(_PI * x) * np.sin(_PI * y),
        ),
        TargetFunction2D(
            name="vee",
            fn=lambda x, y: np.abs(x - 0.5) + np.abs(y - 0.5),
        ),
        TargetFunction2D(
            name="lip_half",
            fn=lambda x, y: np.sqrt(np.abs(x - 0.5)) * np.sqrt(np.abs(y - 0.5)),
            lipschitz=LipschitzSpec(1.0, 0.5, 0.5),
        ),
    ]
}


def monomial_1d(i: int) -> Callable:
    """t -> t^i; works on floats, arrays and Fractions alike."""
    return lambda t: t**i


def monomial_2d(i: int, j: int) -> Callable:
    """(s, t) -> s^i t^j, the bivariate moment test function of exponents
    (i, j); works on floats, arrays and Fractions alike."""
    return lambda s, t: s**i * t**j


def fd_partial(fn: Callable, x, y, axis: str):
    """Central finite-difference second partial of fn at (x, y) along
    axis 'x' or 'y', with step h = 1e-5.  The differenced coordinate is
    clipped to [h, 1-h] so every sample stays inside the unit square."""
    h = 1e-5
    v = np.clip(np.asarray(x if axis == "x" else y, dtype=float), h, 1 - h)

    def at(t):
        return fn(t, y) if axis == "x" else fn(x, t)

    return (at(v + h) - 2 * at(v) + at(v - h)) / (h * h)


def from_expression(text: str) -> TargetFunction2D:
    """Wrap a parsed expression as a target function.

    Second partials come from central finite differences (clipped to stay
    inside the unit square), so expression functions serve the
    Voronovskaja trace with widened tolerances only.  They give no first
    partials, so they are not C^1 for the certificates.
    """
    ast = parse_expr(text)

    def fn(x, y):
        return ast.eval(x, y)

    name = f"expr:{text}"
    fn.__name__ = name  # errors about fn can then say which function

    def partial(axis):
        return lambda x, y: fd_partial(fn, x, y, axis)

    return TargetFunction2D(name=name, fn=fn, fxx=partial("x"), fyy=partial("y"))


def resolve_function(text: str) -> TargetFunction2D:
    """A corpus function by name, or a parsed expression in x and y."""
    if text in CORPUS:
        return CORPUS[text]
    return from_expression(text)

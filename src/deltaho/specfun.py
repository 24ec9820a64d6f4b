"""Real-valued special functions for the oscillator-plus-delta solver.

The Gamma family (taken from the standard library's math.gamma and
math.lgamma, with the reciprocal extended to an entire function), the
ratio Gamma(y + 1/2)/Gamma(y + 1) that the eigenvalue condition is built
on, and the origin limits of the even eigenfunction's Tricomi factor.
Everything is scalar double-precision code with no dependencies beyond
the standard library; the accuracy targets come from the eigenvalue
solver, which resolves the quantum label to a few ulps.  The
eigenfunctions themselves, evaluated over arrays of points, live in
wavefunction.
"""

from __future__ import annotations

import math

__all__ = [
    "SQRT_PI",
    "sinpi",
    "cospi",
    "gamma",
    "log_gamma",
    "reciprocal_gamma",
    "gamma_ratio",
    "kummer_u_half_origin",
]

SQRT_PI = 1.7724538509055160273


def sinpi(x: float) -> float:
    """sin(pi*x) with exact argument reduction, safe for large |x|."""
    y = math.remainder(x, 2.0)
    a = abs(y)
    if a == 0.0 or a == 1.0:
        return 0.0
    if a <= 0.5:
        return math.sin(math.pi * y)
    return math.copysign(math.sin(math.pi * (1.0 - a)), y)


def cospi(x: float) -> float:
    """cos(pi*x) with the same exact argument reduction as sinpi."""
    # |remainder| lies in [0, 1], where 1/2 - |remainder| is exact except
    # below 1/4; there cos(pi*x) is flat enough that the rounding is harmless
    return sinpi(0.5 - abs(math.remainder(x, 2.0)))


gamma = math.gamma  # ValueError at the poles, OverflowError past x = 171.62


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma needs a positive argument, got x={x}")
    return math.lgamma(x)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) as an entire function: exactly 0.0 at x = 0, -1, -2, ..."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if -170.0 < x < 171.0:
        return 1.0 / math.gamma(x)
    # Past the range where Gamma(x) is a normal double, go through
    # log|Gamma|: the result underflows to 0.0 for large x and overflows
    # loudly near x = -200, where its true magnitude leaves the double range.
    sign = 1.0 if x > 0.0 else sinpi(x)
    return math.copysign(math.exp(-math.lgamma(x)), sign)


def gamma_ratio(y: float) -> float:
    """Gamma(y + 1/2) / Gamma(y + 1) for y >= 0, about 1/sqrt(y) at large y.

    Finite and positive on the whole non-negative double range.  Past
    y = 170 the Gammas overflow, so the ratio comes from its asymptotic
    series (DLMF 5.11.13) in log form, whose first omitted term,
    17/(14336 y^7), is below 3e-19 there.
    """
    if y < 1.0:
        return math.gamma(y + 0.5) / math.gamma(y + 1.0)
    if y < 170.0:
        # y - 1/2 and y are exact where y + 1/2 and y + 1 may round, and
        # Gamma amplifies an argument rounding by its log-derivative
        return (y - 0.5) / y * (math.gamma(y - 0.5) / math.gamma(y))
    t = 1.0 / y
    return math.exp(t * (-0.125 + t * t * (1.0 / 192.0 - t * t / 640.0))) / math.sqrt(y)


def kummer_u_half_origin(nu: float) -> tuple[float, float]:
    """Origin limits of U(-nu/2, 1/2, y^2) viewed as a function of y.

    Returns (value, slope): the y -> 0+ limits of the function value,
    sqrt(pi)/Gamma(1/2 - nu/2), and of its one-sided y-derivative,
    nu sqrt(pi)/Gamma(1 - nu/2).  Both are finite for every real nu
    because the reciprocal gamma is entire.
    """
    value = SQRT_PI * reciprocal_gamma(0.5 - 0.5 * nu)
    slope = nu * SQRT_PI * reciprocal_gamma(1.0 - 0.5 * nu)
    return value, slope


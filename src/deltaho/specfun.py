"""Real-valued special functions for the oscillator-plus-delta solver.

The Gamma family (taken from the standard library's math.gamma and
math.lgamma, with the reciprocal extended to an entire function), the
ratio Gamma(y + 1/2)/Gamma(y + 1) that the eigenvalue condition is built
on, Kummer's confluent hypergeometric functions restricted to the
parameter family the solver needs, and physicists' Hermite polynomials.
Everything is scalar double-precision code with no dependencies beyond
the standard library; the accuracy targets come from the eigenvalue
solver, which resolves the quantum label to a few ulps.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError

__all__ = [
    "SQRT_PI",
    "sinpi",
    "cospi",
    "gamma",
    "log_gamma",
    "reciprocal_gamma",
    "gamma_ratio",
    "kummer_m",
    "kummer_u_half",
    "kummer_u_half_origin",
    "hermite",
]

SQRT_PI = 1.7724538509055160273

_M_MAX_TERMS = 500
_M_SETTLE_COUNT = 3
_U_SERIES_CUTOFF = 20.0
_U_ASYMPTOTIC_CAP = 64


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


def kummer_m(a: float, b: float, z: float) -> float:
    """Kummer's confluent function M(a, b, z) by its ascending series.

    The series sum_n (a)_n/(b)_n z^n/n! terminates exactly when a is zero
    or a negative integer (the factor a+n vanishes); otherwise summation
    stops once three consecutive terms fall below 1e-17 of the partial
    sum.

    Args:
        a: numerator parameter.
        b: denominator parameter; must not be zero or a negative integer.
        z: argument, z >= 0.

    Raises:
        ValueError: for invalid b or negative z.
        ConvergenceError: if 500 terms do not settle (z far outside the
            supported range).
    """
    if b <= 0.0 and b == math.floor(b):
        raise ValueError(f"kummer_m is undefined for non-positive integer b={b}")
    if z < 0.0:
        raise ValueError(f"kummer_m supports z >= 0 only, got z={z}")
    total = 1.0
    term = 1.0
    settled = 0
    for n in range(_M_MAX_TERMS):
        term *= (a + n) * z / ((b + n) * (n + 1))
        if term == 0.0:
            return total
        total += term
        if abs(term) < 1e-17 * abs(total):
            settled += 1
            if settled >= _M_SETTLE_COUNT:
                return total
        else:
            settled = 0
    raise ConvergenceError(
        f"confluent series did not settle after {_M_MAX_TERMS} terms "
        f"(a={a}, b={b}, z={z})"
    )


def kummer_u_half(nu: float, z: float) -> float:
    """Tricomi function U(-nu/2, 1/2, z), the branch that decays like z**(nu/2).

    For z <= 20 this combines the two M series,

        U = sqrt(pi) [ M(-nu/2, 1/2, z)/Gamma(1/2 - nu/2)
                       - 2 sqrt(z) M(1/2 - nu/2, 3/2, z)/Gamma(-nu/2) ],

    with reciprocal gammas so integer nu kills one branch exactly.  Past
    z = 20 the two series agree to ~e^z and cancel catastrophically in
    doubles, so the large-z expansion z**(nu/2) 2F0(-nu/2, 1/2-nu/2; -1/z)
    is summed to optimal truncation instead; both representations overlap
    to ~1e-11 at the seam for the label range the solver produces.
    """
    if z < 0.0:
        raise ValueError(f"kummer_u_half supports z >= 0 only, got z={z}")
    if z > _U_SERIES_CUTOFF:
        return _u_large_z(nu, z)
    a = -0.5 * nu
    c1 = reciprocal_gamma(a + 0.5)
    c2 = reciprocal_gamma(a)
    total = 0.0
    if c1 != 0.0:
        total += c1 * kummer_m(a, 0.5, z)
    if c2 != 0.0:
        total -= 2.0 * math.sqrt(z) * c2 * kummer_m(a + 0.5, 1.5, z)
    return SQRT_PI * total


def _u_large_z(nu: float, z: float) -> float:
    # 2F0-type expansion; the terms shrink to an optimal-truncation floor
    # and then diverge, so stop at the smallest term.  When -nu/2 is a
    # non-positive integer the series terminates and is exact.
    a = -0.5 * nu
    total = 1.0
    term = 1.0
    for k in range(_U_ASYMPTOTIC_CAP):
        nxt = term * (a + k) * (a + 0.5 + k) / ((k + 1) * (-z))
        if abs(nxt) >= abs(term):
            break
        total += nxt
        if abs(nxt) < 1e-17 * abs(total):
            break
        term = nxt
    return math.exp(0.5 * nu * math.log(z)) * total


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


def hermite(n: int, y: float) -> float:
    """Physicists' Hermite polynomial H_n(y) by the three-term recurrence."""
    if n != int(n) or n < 0:
        raise ValueError(f"hermite needs an integer n >= 0, got n={n}")
    if n == 0:
        return 1.0
    h_prev = 1.0
    h = 2.0 * y
    for k in range(1, int(n)):
        h_prev, h = h, 2.0 * y * h - 2.0 * k * h_prev
    return h

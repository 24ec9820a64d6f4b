"""Unit tests for the special-function layer.

Reference values were frozen from a 40-digit mpmath evaluation done at
development time.  mpmath is a test dependency (the `test` extra) but
not a runtime one; the two tests that call it live, the Gamma-ratio gate
and the Hermite reduction, are skipped without it.  The Tricomi function
U(-nu/2, 1/2, z) is read through the even eigenfunction,
U = e^(z/2) eval_even(nu, sqrt(z)), and the odd-order Hermite
polynomials through the odd one, H_n(y) = e^(y^2/2) eval_odd(n, y).
"""

import math
import random

import pytest

from deltaho.specfun import (
    SQRT_PI,
    cospi,
    gamma,
    gamma_ratio,
    kummer_u_half_origin,
    log_gamma,
    reciprocal_gamma,
    sinpi,
)
from deltaho.wavefunction import eval_even, eval_odd


def _sinpi(x):
    # exact argument reduction mod 2, same as the implementation uses
    return math.sin(math.pi * math.remainder(x, 2.0))


# ---------------------------------------------------------------------------
# gamma family


HALF_INTEGER_GAMMAS = [
    (0.5, SQRT_PI),
    (1.5, 0.5 * SQRT_PI),
    (2.5, 0.75 * SQRT_PI),
    (-0.5, -2.0 * SQRT_PI),
    (-1.5, 4.0 / 3.0 * SQRT_PI),
]


@pytest.mark.parametrize("x, expected", HALF_INTEGER_GAMMAS)
def test_gamma_half_integers(x, expected):
    assert gamma(x) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("n, expected", [(1, 1.0), (2, 1.0), (5, 24.0), (11, 3628800.0)])
def test_gamma_positive_integers_exact(n, expected):
    assert gamma(float(n)) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    "x",
    [1e-3, 0.1, 0.77, 1.0, 2.0, 3.9, 10.5, 50.2, 99.9, 140.0, 170.0, 171.0],
)
def test_gamma_positive_matches_math(x):
    assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)


@pytest.mark.parametrize(
    "x",
    [-0.5, -1.5, -2.7, -10.3, -33.8, -99.7, -140.25, -169.5],
)
def test_gamma_negative_matches_math(x):
    assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)


def test_gamma_recurrence():
    """Gamma(x + 1) = x Gamma(x) across both signs."""
    for x in [0.123, 0.5, 3.7, 25.4, 101.1, -0.7, -4.3, -20.6, -77.77]:
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0, -150.0])
def test_gamma_poles_raise(x):
    with pytest.raises(ValueError):
        gamma(x)


def test_gamma_overflow():
    # largest representable argument is about 171.62
    assert gamma(171.0) == pytest.approx(math.gamma(171.0), rel=1e-13)
    with pytest.raises(OverflowError):
        gamma(172.0)


def test_gamma_deep_negative_underflow():
    # |Gamma| drops below the double floor near x = -180; a signed zero is
    # the honest answer there, not an exception
    assert gamma(-169.5) == pytest.approx(5.648220884223328e-306, rel=1e-11)
    assert gamma(-199.5) == 0.0


@pytest.mark.parametrize(
    "x",
    [1e-3, 0.25, 1.0, 2.0, 2.5, 14.0, 63.2, 171.0, 500.0, 1e4, 1e8],
)
def test_log_gamma_matches_math(x):
    assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=5e-14)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-3.2)


def test_reciprocal_gamma_zero_at_poles():
    for n in range(0, 60, 7):
        assert reciprocal_gamma(-float(n)) == 0.0


@pytest.mark.parametrize(
    "x",
    [0.5, 1.0, 3.25, 17.0, 120.6, -0.5, -2.5, -19.75, -99.5],
)
def test_reciprocal_gamma_matches_math(x):
    assert reciprocal_gamma(x) == pytest.approx(1.0 / math.gamma(x), rel=1e-12)


def test_reciprocal_gamma_beyond_gamma_overflow():
    # 1/Gamma stays representable (subnormal) a little past the Gamma
    # overflow point, then honestly underflows to zero
    assert reciprocal_gamma(172.0) == pytest.approx(
        math.exp(-math.lgamma(172.0)), rel=1e-9
    )
    assert reciprocal_gamma(200.0) == 0.0


def test_reciprocal_gamma_deep_negative_overflow():
    # near x = -200 the true magnitude of 1/Gamma exceeds the double range
    with pytest.raises(OverflowError):
        reciprocal_gamma(-199.5)


@pytest.mark.parametrize(
    "x",
    [0.25, 0.5, 1.3, 4.75, 9.5, 20.25, 55.5, -0.75, -3.3, -12.5, -60.25],
)
def test_reflection_identity(x):
    """1/Gamma(x) * 1/Gamma(1-x) = sin(pi x) / pi for non-integer x."""
    lhs = reciprocal_gamma(x) * reciprocal_gamma(1.0 - x)
    rhs = _sinpi(x) / math.pi
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sinpi_cospi_exact_at_special_points():
    for n in range(-6, 7):
        assert sinpi(float(n)) == 0.0
        assert cospi(n + 0.5) == 0.0
        assert cospi(float(n)) == (-1.0) ** n
    # exact reduction: an even integer offset changes nothing, even where
    # pi*x itself is far past the resolution of a double
    for d in (0.25, 0.5, 0.75, 1.25, 3.75):
        assert cospi(2.0**50 + d) == cospi(d)
        assert sinpi(2.0**50 + d) == sinpi(d)


@pytest.mark.parametrize("x", [-3.3, -0.75, 0.0, 0.1, 0.25, 0.6, 1.0, 2.4, 1e5 + 0.3])
def test_cospi_matches_math(x):
    assert cospi(x) == pytest.approx(math.cos(math.pi * x), rel=1e-10, abs=1e-15)


def test_gamma_ratio_matches_mpmath():
    """Gamma(y + 1/2)/Gamma(y + 1) to 1e-14 relative on y in [0, 1e300]."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(5113)
    ys = [0.0, 1e-300, 1e-8, 0.5, 1.0, 31.5, 63.0, 169.999, 170.0, 1e300]
    ys += [rng.uniform(0.0, 400.0) for _ in range(300)]
    ys += [10.0 ** rng.uniform(-6.0, 300.0) for _ in range(200)]
    # just below a power of two, where forming y + 1/2 or y + 1 rounds
    ys += [2.0**e - rng.random() for e in range(1, 8) for _ in range(20)]
    for y in ys:
        with mpmath.workdps(30 + int(math.log10(max(1.0, y)))):
            m = mpmath.mpf(y)
            ref = mpmath.exp(mpmath.loggamma(m + 0.5) - mpmath.loggamma(m + 1))
            assert abs(gamma_ratio(y) / ref - 1) < 1e-14, y


# ---------------------------------------------------------------------------
# decaying solution U(-nu/2, 1/2, z)


def _u_half(nu, z):
    return eval_even(nu, math.sqrt(z)) * math.exp(0.5 * z)


# (nu, z, reference, tolerance of the former two-form evaluator); the
# last entry only keeps each case's id, since every row now holds to 1e-13
U_FROZEN = [
    (0.3927, 0.0, 0.60005749502690404, 1e-13),
    (0.3927, 0.5, 0.93779638108825579, 1e-13),
    (0.3927, 4.0, 1.3304433003555965, 1e-12),
    (0.3927, 16.0, 1.7297984832548358, 1e-9),
    (0.3927, 19.9, 1.8042512625091389, 1e-6),
    (0.3927, 20.1, 1.8077462437311438, 1e-10),
    (0.3927, 25.0, 1.885816676319598, 1e-12),
    (0.3927, 36.0, 2.0243639307757694, 1e-13),
    (0.3927, 100.0, 2.471482383859699, 1e-13),
    (2.2546, 0.0, -0.46608125723584677, 1e-13),
    (2.2546, 0.5, -0.21036969810814865, 1e-13),
    (2.2546, 4.0, 3.9237788087589565, 1e-13),
    (2.2546, 16.0, 21.764248373624642, 1e-10),
    (2.2546, 19.9, 28.084366626264741, 1e-9),
    (2.2546, 20.1, 28.413192889264464, 1e-12),
    (2.2546, 25.0, 36.59521681544959, 1e-13),
    (2.2546, 36.0, 55.692703590700222, 1e-13),
    (2.2546, 64.0, 107.46809207466686, 1e-13),
    (2.2546, 100.0, 178.45027536269434, 1e-13),
    (1.37, 0.0, -0.28568219516205344, 1e-13),
    (1.37, 0.5, 0.4848032585356138, 1e-13),
    (1.37, 4.0, 2.5050608986272105, 1e-13),
    (1.37, 16.0, 6.6281953618702364, 1e-9),
    (1.37, 19.9, 7.7082745589027785, 1e-7),
    (1.37, 20.1, 7.7617468494725455, 1e-11),
    (1.37, 25.0, 9.02387123130743, 1e-13),
    (1.37, 100.0, 23.412618747938013, 1e-13),
    (-0.8424, 0.0, 1.6846639797386072, 1e-13),
    (-0.8424, 0.5, 0.95490030668924136, 1e-13),
    (-0.8424, 4.0, 0.51582430823669658, 1e-11),
    (-0.8424, 16.0, 0.30406753949293589, 1e-7),
    (-0.8424, 19.9, 0.27855009872074449, 1e-5),
    (-0.8424, 20.1, 0.27742772562780411, 1e-7),
    (-0.8424, 25.0, 0.25394340486067215, 1e-9),
    (-0.8424, 36.0, 0.2187498546336383, 1e-13),
    (-0.8424, 100.0, 0.14319708783305712, 1e-13),
    (-3.5865, 0.0, 1.5253339698119106, 1e-13),
    (-3.5865, 0.5, 0.32089568882618441, 1e-12),
    (-3.5865, 4.0, 0.041610037719947725, 1e-8),
    (-3.5865, 16.0, 0.0055347565936419877, 5e-3),
    (-3.5865, 20.1, 0.0038321674961446202, 1e-3),
    (-3.5865, 25.0, 0.0026785089766056757, 1e-5),
    (-3.5865, 36.0, 0.001454358093108886, 1e-9),
    (-3.5865, 64.0, 0.00054224809780486722, 1e-13),
    (-3.5865, 100.0, 0.00024892857231116702, 1e-13),
    (7.43, 0.0, 2.7906526897863376, 1e-13),
    (7.43, 0.5, -4.9010113824622062, 1e-13),
    (7.43, 4.0, -21.971278642846548, 1e-13),
    (7.43, 16.0, 11530.081718827885, 1e-12),
    (7.43, 19.9, 32589.087460231188, 1e-12),
    (7.43, 20.1, 34118.870076813885, 1e-12),
    (7.43, 36.0, 420632.24537576026, 1e-13),
    (7.43, 100.0, 23796643.221249194, 1e-13),
    # deep bound-state tail
    (-12.99, 0.0, 0.0024848965074181211, 1e-13),
    (-12.99, 0.5, 9.1450736232945078e-5, 1e-11),
    (-12.99, 64.0, 9.7726299812827664e-13, 1e-9),
    (-12.99, 100.0, 6.690360232846543e-14, 1e-13),
]


@pytest.mark.parametrize("nu, z, expected, former_rtol", U_FROZEN)
def test_kummer_u_half_frozen(nu, z, expected, former_rtol):
    assert _u_half(nu, z) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("nu", [0.3927, 2.2546])
def test_kummer_u_half_power_law_tail(nu):
    """U approaches z^(nu/2) from one side as z grows."""
    prev = math.inf
    for z in [25.0, 36.0, 64.0, 100.0]:
        off = abs(_u_half(nu, z) / math.exp(0.5 * nu * math.log(z)) - 1.0)
        assert off < prev
        prev = off
    assert prev < 1e-2


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
def test_kummer_u_half_reduces_to_hermite(m):
    """At even integer nu = 2m, 4^m U(-m, 1/2, y^2) is the Hermite polynomial."""
    mpmath = pytest.importorskip("mpmath")
    scale = 4.0**m
    for y in [0.3, 0.9, 1.7, 2.5, 3.3]:
        lhs = scale * _u_half(2.0 * m, y * y)
        rhs = float(mpmath.hermite(2 * m, y))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_kummer_u_half_origin_frozen():
    value, slope = kummer_u_half_origin(1.37)
    assert value == pytest.approx(-0.28568219516205344, rel=1e-13)
    assert slope == pytest.approx(0.8543441170852805, rel=1e-13)


def test_kummer_u_half_origin_consistency():
    """Closed-form origin data agrees with the evaluator nearby."""
    for nu in [0.3927, 1.37, -0.8424, -3.5865]:
        value, slope = kummer_u_half_origin(nu)
        assert _u_half(nu, 0.0) == pytest.approx(value, rel=1e-13)
        h = 1e-5
        fd = (_u_half(nu, h * h) - value) / h
        assert fd == pytest.approx(slope, rel=1e-3, abs=1e-8)


# ---------------------------------------------------------------------------
# odd-order Hermite polynomials


def _hermite(n, y):
    return eval_odd(n, y) * math.exp(0.5 * y * y)


def test_hermite_low_orders():
    ys = [-2.0, -0.5, 0.0, 0.7, 1.9]
    for y in ys:
        assert _hermite(1, y) == pytest.approx(2.0 * y, rel=1e-15)
        assert _hermite(3, y) == pytest.approx(8.0 * y**3 - 12.0 * y, rel=1e-14)
        assert _hermite(5, y) == pytest.approx(
            32.0 * y**5 - 160.0 * y**3 + 120.0 * y, rel=1e-14, abs=1e-12
        )


def test_hermite_parity():
    for n in range(1, 8, 2):
        for y in [0.4, 1.3, 2.8]:
            assert _hermite(n, -y) == -_hermite(n, y)


def test_hermite_rejects_bad_order():
    with pytest.raises(ValueError):
        eval_odd(-1, 0.5)
    with pytest.raises(ValueError):
        eval_odd(2.5, 0.5)

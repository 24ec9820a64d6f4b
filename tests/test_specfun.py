"""Unit tests for the special functions behind the spectrum.

Reference values were frozen from a 40-digit mpmath evaluation done at
development time.  mpmath is a test dependency (the `test` extra) but
not a runtime one; the tests that call it live, the Gamma-ratio gate,
the Hermite reduction and the origin limits, are skipped without it.
The Tricomi function U(-nu/2, 1/2, z) is read through the even
eigenfunction, U = e^(z/2) eval_even(nu, sqrt(z)), and the odd-order
Hermite polynomials through the odd one, H_n(y) = e^(y^2/2) eval_odd(n, y).
"""

import math
import random

import pytest

from deltaho.spectrum import gamma_ratio, sincospi
from deltaho.wavefunction import eval_even, eval_odd


# ---------------------------------------------------------------------------
# sincospi and the Gamma ratio that the eigen condition evaluates


def test_sincospi_exact_at_special_points():
    for n in range(-6, 7):
        assert sincospi(float(n)) == (0.0, (-1.0) ** n)
        assert sincospi(n + 0.5)[1] == 0.0
        assert sincospi(n + 0.5)[0] == (-1.0) ** n
    # exact reduction: an even integer offset changes nothing, even where
    # pi*x itself is far past the resolution of a double
    for d in (0.25, 0.5, 0.75, 1.25, 3.75):
        assert sincospi(2.0**50 + d) == sincospi(d)


MATH_POINTS = [-3.3, -0.75, 0.0, 0.1, 0.25, 0.6, 1.0, 2.4, 1e5 + 0.3]


@pytest.mark.parametrize("x", MATH_POINTS)
def test_cospi_matches_math(x):
    # the cosine half of sincospi
    assert sincospi(x)[1] == pytest.approx(math.cos(math.pi * x), rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("x", MATH_POINTS)
def test_sinpi_matches_math(x):
    # pi*x rounds before math.sin reduces it: 1e-11 absolute at 1e5 + 0.3
    assert sincospi(x)[0] == pytest.approx(math.sin(math.pi * x), rel=1e-10, abs=1e-10)


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
    assert _u_half(nu, z) == pytest.approx(expected, rel=1e-13, abs=0.0)


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


@pytest.mark.parametrize(
    "nu", [0.3927, 1.37, -0.8424, -3.5865, 7.9, 20.25, 41.3, 150.7, -12.4, -60.3, -300.2, 300.6]
)
def test_origin_limits_match_mpmath(nu):
    """psi(0) = sqrt(pi)/Gamma(1/2 - nu/2), psi'(0+) = nu sqrt(pi)/Gamma(1 - nu/2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(nu)
        value = float(mpmath.sqrt(mpmath.pi) * mpmath.rgamma(0.5 - x / 2))
        slope = float(x * mpmath.sqrt(mpmath.pi) * mpmath.rgamma(1 - x / 2))
    # worst measured 6.3e-14, at nu = -300.2
    assert eval_even(nu, 0.0) == pytest.approx(value, rel=1e-12, abs=0.0)
    assert -2.0 * eval_even(nu + 1.0, 0.0) == pytest.approx(slope, rel=1e-12, abs=0.0)
    # and the evaluator's own one-sided slope, to O(h) (worst 1.3e-4, at nu = 7.9)
    h = 1e-5
    fd = (eval_even(nu, h) - eval_even(nu, 0.0)) / h
    assert fd == pytest.approx(slope, rel=1e-3, abs=0.0)


# ---------------------------------------------------------------------------
# odd-order Hermite polynomials


def _hermite(n, y):
    return eval_odd(n, y) * math.exp(0.5 * y * y)


def test_hermite_low_orders():
    ys = [-2.0, -0.5, 0.0, 0.7, 1.9]
    for y in ys:
        assert _hermite(1, y) == pytest.approx(2.0 * y, rel=1e-15, abs=0.0)
        assert _hermite(3, y) == pytest.approx(8.0 * y**3 - 12.0 * y, rel=1e-14, abs=0.0)
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

"""Unit tests for eigenfunction sampling, normalization, and origin checks."""

import functools
import math
import sys
import time

import numpy as np
import pytest

from deltaho import wavefunction
from deltaho.errors import InsufficientDomainError
from deltaho.spectrum import EigenSolution, full_spectrum, solve_even
from deltaho.wavefunction import (
    GridFunction,
    _simpson_weights,
    eval_even,
    eval_odd,
    jump_check,
    normalize,
    orthogonality,
    sample_state,
)

COUPLINGS = [-5.0, -2.5, -1.0, -0.25, 0.25, 1.0, 2.5, 5.0]


def _count_sign_changes(values):
    signs = np.sign(values)
    signs = signs[signs != 0]
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def _center_jump(f):
    # one-sided difference quotients around the origin sample
    c = (f.n_points - 1) // 2
    dy = f.delta_y
    right = (f.values[c + 1] - f.values[c]) / dy
    left = (f.values[c] - f.values[c - 1]) / dy
    return right - left


# ---------------------------------------------------------------------------
# pointwise evaluation


def test_even_evaluation_spot_values():
    assert eval_even(0.0, 0.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    # U(-1, 1/2, 1) = 1/2, so the sample is exp(-1/2)/2
    assert eval_even(2.0, 1.0) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-13, abs=0.0)


def test_even_evaluation_is_symmetric():
    for nu in (0.39274404530895262, -0.84241894678128868, -12.990027623650626):
        for y in (0.3, 1.7, 3.0):
            assert eval_even(nu, -y) == eval_even(nu, y)


def test_odd_evaluation_spot_values():
    assert eval_odd(1, 0.0) == 0.0
    assert eval_odd(1, 1.0) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-14, abs=0.0)


def test_odd_evaluation_is_antisymmetric():
    for n in (1, 3, 5):
        for y in (0.4, 1.2, 2.9):
            assert eval_odd(n, -y) == -eval_odd(n, y)


def test_odd_evaluation_rejects_bad_order():
    for bad in (2, 0, -3, 1.5):
        with pytest.raises(ValueError):
            eval_odd(bad, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_odd_evaluation_on_an_array_matches_the_scalar_recurrence():
    """Same shape, the bits of the scalar Hermite loop times numpy's exp, 0 past the floor.

    numpy's exp is within 1 ulp of math.exp at every point.

    The second input is [0, 10] at sample_state's spacing, up to n = 181,
    the last order whose Hermite factor fits the double range for y^2 <= 700.
    """
    ys = np.array([[-27.0, -3.1, -0.4, 0.0], [0.7, 2.9, 26.4, 1e200]])
    grid = np.arange(1001) * 0.01
    for points, orders in ((ys, (1, 9, 41, 151)), (grid, (1, 41, 181))):
        with np.errstate(over="ignore"):
            gauss = np.exp(-0.5 * (points * points)).ravel().tolist()
        for y, factor in zip(points.ravel().tolist(), gauss):
            assert abs(factor - math.exp(-0.5 * y * y)) <= math.ulp(factor)
        for n in orders:
            expected = []
            for y, factor in zip(points.ravel().tolist(), gauss):
                h_prev, h = 1.0, 2.0 * y
                for k in range(1, n):
                    h_prev, h = h, 2.0 * y * h - 2.0 * k * h_prev
                expected.append(0.0 if y * y > 700.0 else factor * h)
            out = eval_odd(n, points)
            assert out.shape == points.shape
            assert out.tobytes() == np.array(expected).reshape(points.shape).tobytes()
            assert [eval_odd(n, y) for y in points.ravel().tolist()] == out.ravel().tolist()
            if points is ys:
                assert out[0, 0] == out[1, 3] == 0.0


def _reference_eval_even(nu, y):
    """eval_even's earlier trapezoid sum: one node at a time, with fixed cuts.

    The step is the same half peak width; the nodes run 12 widths above
    the peak and, below it, the larger of 60/c and 12 widths in s = ln t.
    """
    if not math.isfinite(nu):
        raise ValueError(f"even-branch order must be finite, got nu={nu!r}")
    if math.lgamma(0.5 * abs(nu) + 0.5) > math.log(sys.float_info.max):
        raise OverflowError(f"even state nu={nu!r}: its origin value leaves the double range")
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        z = y * y
        x = np.sqrt(2.0 * np.minimum(z, 700.0))
        m = max(0, math.ceil(nu + 16.0))
        c = m - nu
        t_peak = 2.0 * c / (np.sqrt(x * x + 4.0 * c) + x)
        width = 1.0 / np.sqrt(t_peak * t_peak + c)
        step = 0.5 * width
        below = math.ceil(2.0 * float(np.max(60.0 / (c * width), initial=12)))
        peak = t_peak * (0.5 * t_peak + x)
        c_step = c * step
        sum0 = np.zeros_like(x)
        sum1 = np.zeros_like(x)
        for j in range(-below, 2 * 12 + 1):
            t = t_peak * np.exp(j * step)
            f = np.exp(j * c_step - t * (0.5 * t + x) + peak)
            sum0 += f
            sum1 += t * f
        log_scale = c * np.log(t_peak) - peak - 0.25 * x * x
        scale = step * np.exp(log_scale - math.lgamma(c) - 0.5 * nu * math.log(2.0))
        prev, cur = scale * sum1 / c, scale * sum0
        for k in range(m, 0, -1):
            prev, cur = cur, x * cur - (nu - k) * prev
        out = np.where(z > 700.0, 0.0, cur)
    return out if out.ndim else float(out)


def _even_pin_orders():
    sweep = np.linspace(-341.9, 341.9, 61).tolist()
    halves = [0.5 * k for k in range(-683, 684, 19)]
    # either side of each order where m = ceil(nu + 16) steps, at a sample of them
    steps = [m - 16.0 for m in (1, 2, 15, 16, 17, 40, 100, 357)]
    sides = [math.nextafter(b, d) for b in steps for d in (-math.inf, math.inf)]
    return sweep + halves + steps + sides + [0.0, -0.0]


_EVEN_PIN_INPUTS = [
    0.37,
    np.array(2.9),
    np.array([1.3]),
    (np.arange(7) * 1.45).reshape(7, 1),
    np.array([30.0, 26.4, 1e200]),
    np.arange(1001) * 0.01,
    np.arange(1001, 1501) * 0.01,
]


@functools.cache
def _node_loop_supremum(nu):
    return float(np.max(np.abs(_reference_eval_even(nu, np.arange(3000) * 0.01))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "y",
    _EVEN_PIN_INPUTS,
    ids=["float", "0-d", "1-element", "column", "far-out", "sampling-grid", "widening"],
)
def test_even_evaluation_matches_the_node_loop(y):
    """Every sample matches the node loop to 1e-13 of the order's supremum, type and shape too.

    The cuts and the summation order differ, so the bits may not; the
    supremum is over y in [0, 30) at spacing 0.01.
    """
    orders = _even_pin_orders() if np.size(y) < 100 else _even_pin_orders()[::4]
    for nu in orders:
        got, want = eval_even(nu, y), _reference_eval_even(nu, y)
        assert type(got) is type(want), nu
        assert np.shape(got) == np.shape(y)
        error = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        assert error <= 1e-13 * _node_loop_supremum(nu), (nu, error / _node_loop_supremum(nu))
    for nu in (342.5, -1e9, math.nan, math.inf):
        with pytest.raises((OverflowError, ValueError)) as raised:
            _reference_eval_even(nu, y)
        with pytest.raises(raised.type):
            eval_even(nu, y)


@pytest.mark.parametrize("nu", [0.0, -0.5, 1.5])
def test_even_evaluation_is_converged_in_its_cuts_and_step(monkeypatch, nu):
    """Cuts at e^-60 and a quarter-width step move no sample past 1e-14 of the supremum.

    At c = 16, the order where the step's error estimate is worst, the
    truncation and discretisation errors both sit below round-off.
    """
    y = np.arange(1001) * 0.01
    values = eval_even(nu, y)
    monkeypatch.setattr(wavefunction, "_TAIL", 60.0)
    monkeypatch.setattr(wavefunction, "_STEP", 0.25)
    tight = eval_even(nu, y)
    assert float(np.max(np.abs(tight - values))) <= 1e-14 * float(np.max(np.abs(values)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("nu", [341.85, 341.9, 342.2])
def test_even_evaluation_refuses_a_sample_past_the_double_range(nu):
    # the origin value fits, but the peak near the turning point (y ~ 26)
    # does not: 6, 27 and 273 of these samples would be inf or NaN
    with pytest.raises(OverflowError, match=f"nu={nu!r}: a sample"):
        eval_even(nu, np.arange(3001) * 0.01)
    assert np.all(np.isfinite(eval_even(341.84, np.arange(3001) * 0.01)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_odd_evaluation_refuses_a_sample_past_the_double_range():
    # y^2 = 697 is inside the floor, and H_189 overflows there
    with pytest.raises(OverflowError, match="n=189"):
        eval_odd(189, 26.4)
    with pytest.raises(OverflowError, match="n=191"):
        sample_state(EigenSolution("odd", 191.0, 191))
    # a NaN point is no overflow: it stays NaN
    out = eval_odd(189, np.array([1.0, math.nan]))
    assert math.isfinite(out[0]) and math.isnan(out[1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(0,), (0, 3)], ids=["(0,)", "(0,3)"])
def test_evaluators_return_an_empty_array_for_no_points(shape):
    # no point: no chunk to sum, and the result keeps the input's shape
    for out in (eval_even(0.4, np.empty(shape)), eval_even(-338.5, np.zeros(shape)),
                eval_odd(3, np.empty(shape))):
        assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("nu", [-3.7, 0.0, 1.0, 40.3, 300.3])
def test_even_evaluation_gives_nan_at_a_nan_point(nu):
    # as eval_odd does; the cut is taken over the other points, so each
    # finite sample keeps its bits
    y = np.arange(1001) * 0.01
    out = eval_even(nu, np.append(y, math.nan))
    assert out[:-1].tobytes() == eval_even(nu, y).tobytes() and math.isnan(out[-1])
    out = eval_even(nu, np.array([1.0, math.nan]))
    assert out[0] == eval_even(nu, np.array([1.0, 1.0]))[0] and math.isnan(out[1])
    assert math.isnan(eval_even(nu, math.nan))
    assert np.isnan(eval_even(nu, np.full((2, 3), math.nan))).all()


def test_a_nan_point_leaves_the_other_samples_bits():
    """137 orders, calls of 1, 256 and 257 points, each with a NaN appended: 0 of 411 move.

    A NaN point may complete a chunk that was one point wide; a one-point
    chunk is padded to two, so every chunk is summed in the same order.
    """
    rng = np.random.default_rng(411)
    moved = []
    for nu in np.linspace(-340.0, 340.0, 137).tolist():
        for size in (1, 256, 257):
            y = rng.uniform(0.0, 30.0, size)
            out = eval_even(nu, np.append(y, math.nan))
            if out[:-1].tobytes() != eval_even(nu, y).tobytes():
                moved.append((nu, size))
        assert eval_even(nu, y[-1]) == eval_even(nu, np.array([y[-1], y[-1]]))[0], nu
    assert moved == [], f"{len(moved)} of 411 calls moved: {moved[:5]}"


def test_lattice_product_equals_its_einsum_form(monkeypatch):
    """Every lattice exponent eval_even builds by np.matmul, bit for bit the einsum sum.

    Calls of 1 to 600 points at seeded orders reach every chunk width from
    2 to 256; a one-point chunk is padded, so no product is one column wide.
    """
    matmul, widths = np.matmul, set()

    def checked(a, b, out):
        widths.add(b.shape[1])
        matmul(a, b, out=out)
        assert out.tobytes() == np.einsum("jk,ki->ji", a, b.copy()).tobytes(), b.shape
        return out

    monkeypatch.setattr(np, "matmul", checked)
    rng = np.random.default_rng(600)
    for size in range(1, 601):
        eval_even(float(rng.uniform(-341.0, 340.0)), rng.uniform(0.0, 30.0, size))
    assert widths == set(range(2, 257))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("nu", [341.75, 341.8])
def test_even_state_whose_norm_leaves_the_double_range_is_refused_by_name(nu):
    # every sample fits, but the norm passes 2^1024
    with pytest.raises(OverflowError, match="state norm .* leaves the double range"):
        sample_state(EigenSolution("even", nu, 0))
    sample_state(EigenSolution("even", 341.74, 0))  # just inside the edge


def test_far_tail_is_flushed_to_zero():
    # past y^2 = 1490, where exp(-y^2/2) underflows
    assert eval_even(0.39274404530895262, 39.0) == 0.0
    assert eval_even(0.39274404530895262, 1e200) == 0.0
    assert eval_odd(3, -27.0) == 0.0
    # the floor must cut in before the polynomial factor can overflow
    assert eval_odd(9, 1e60) == 0.0


# ---------------------------------------------------------------------------
# grid containers and quadrature


def test_grid_function_validation():
    for values in (np.zeros(4), np.zeros(1), np.zeros(0), np.zeros((3, 3)), 0.0):
        with pytest.raises(ValueError, match="odd size"):
            GridFunction(1.0, values)
    # a span 2 half_width past the double range would give delta_y = inf
    # and points [-inf, -inf, nan, inf, inf]
    for half_width in (-1.0, 0.0, math.inf, math.nan, 1e308, 9e307):
        with pytest.raises(ValueError, match="half_width"):
            GridFunction(half_width, np.zeros(5))
    f = GridFunction(8e307, np.zeros(5))
    assert f.delta_y == 4e307 and np.all(np.isfinite(f.points()))


def test_grid_function_values_are_immutable():
    f = GridFunction(1.0, np.ones(5))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_symmetric_grid_has_exact_center_and_mirror():
    f = GridFunction(10.0, np.zeros(2001))
    pts = f.points()
    assert pts[1000] == 0.0
    assert np.all(pts == -pts[::-1])


def test_simpson_is_exact_for_quadratics():
    f = GridFunction(1.0, np.zeros(11))
    pts = f.points()
    w = _simpson_weights(f)
    assert float(w @ (pts * pts)) == pytest.approx(2.0 / 3.0, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_recovers_oscillator_ground_state():
    state = sample_state(EigenSolution("even", 0.0, 0))
    pts = state.points()
    closed_form = math.pi**-0.25 * np.exp(-0.5 * pts * pts)
    assert np.max(np.abs(state.values - closed_form)) < 1e-12
    w = _simpson_weights(state)
    assert float(w @ (state.values**2)) == pytest.approx(1.0, abs=1e-8)


def test_normalize_returns_original_norm():
    # raw ground state has norm (integral of exp(-y^2))^(1/2) = pi^(1/4)
    n = 1601
    pts = (np.arange(n) - (n - 1) // 2) * (16.0 / (n - 1))
    raw = GridFunction(8.0, np.exp(-0.5 * pts * pts))
    _, norm = normalize(raw)
    assert norm == pytest.approx(math.pi**0.25, rel=1e-10, abs=0.0)


def test_normalize_rejects_degenerate_input():
    with pytest.raises(InsufficientDomainError):
        normalize(GridFunction(5.0, np.zeros(11)))


def test_normalize_rejects_truncated_tails():
    n = 401
    pts = (np.arange(n) - (n - 1) // 2) * (4.0 / (n - 1))
    raw = GridFunction(2.0, np.exp(-0.5 * pts * pts))
    with pytest.raises(InsufficientDomainError):
        normalize(raw)


def test_normalize_refuses_a_nan_sample():
    values = np.exp(-0.5 * np.linspace(-10.0, 10.0, 11) ** 2)
    values[3] = math.nan
    with pytest.raises(OverflowError):
        normalize(GridFunction(10.0, values))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [191, 201, 301, 451, 501])
def test_sample_state_refuses_an_overflowing_odd_state(n):
    # past n = 189 the Hermite factor overflows inside the window, so every
    # larger n is an OverflowError; the refusal may not warn on the way
    with pytest.raises(OverflowError):
        sample_state(EigenSolution("odd", float(n), n))


@pytest.fixture
def cold_odd_cache():
    # sample_state keeps every odd state it samples; a test that counts or
    # replaces eval_odd starts, and leaves, with none kept
    wavefunction._odd_state.cache_clear()
    yield
    wavefunction._odd_state.cache_clear()


@pytest.mark.parametrize("n", [191, 16001, 10**9 + 1])
def test_odd_state_past_n_189_is_refused_before_evaluating(monkeypatch, cold_odd_cache, n):
    # the Hermite recurrence runs n steps before it overflows, 0.15 s at
    # n = 16,001 and growing linearly in n, so the refusal comes first
    def unreachable(order, y):
        raise AssertionError(f"eval_odd ran for n={order}")

    monkeypatch.setattr(wavefunction, "eval_odd", unreachable)
    with pytest.raises(OverflowError, match=f"n={n} > 189"):
        sample_state(EigenSolution("odd", float(n), n))
    with pytest.raises(AssertionError, match="n=189"):
        sample_state(EigenSolution("odd", 189.0, 189))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("nu", [700.0, 1e4, 1e9, 1e300, -700.0, -1e9])
def test_even_state_past_the_double_range_is_refused_at_once(nu):
    start = time.perf_counter()
    with pytest.raises(OverflowError, match="nu="):
        sample_state(EigenSolution("even", nu, 0))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
def test_non_finite_label_is_refused(nu):
    with pytest.raises(ValueError, match="nu"):
        EigenSolution("even", nu, 0)
    with pytest.raises(ValueError, match="nu"):
        eval_even(nu, 1.0)


def test_norm_is_stable_under_grid_halving():
    nu = solve_even(1.0, 1)[0].nu
    norms = []
    for n in (1001, 2001, 4001):
        pts = (np.arange(n) - (n - 1) // 2) * (20.0 / (n - 1))
        vals = eval_even(nu, pts)
        norms.append(normalize(GridFunction(10.0, vals))[1])
    assert norms[1] == pytest.approx(norms[0], rel=1e-8, abs=0.0)
    assert norms[2] == pytest.approx(norms[1], rel=1e-8, abs=0.0)
    assert norms[1] == pytest.approx(1.1691971363523952, rel=1e-10, abs=0.0)


def test_normalized_state_passes_rectangle_rule_check():
    state = sample_state(EigenSolution("odd", 3.0, 3))
    assert float(np.sum(state.values**2) * state.delta_y) == pytest.approx(
        1.0, abs=1e-6
    )
    # the kink at the origin puts an O(dy^2 * g * psi(0)^2) correction
    # (~9e-6 at the default spacing) between rectangle rule and Simpson
    state = sample_state(EigenSolution("even", 0.39274404530895262, 0))
    assert float(np.sum(state.values**2) * state.delta_y) == pytest.approx(
        1.0, abs=1e-4
    )


# ---------------------------------------------------------------------------
# origin diagnostics


# the relative kink residual is at most 4.3e-14 at the six lowest even
# roots, except at g = 1e4 (2.6e-12), where psi(0) is nearly 0
KINK_GATE = 1e-11
KINK_COUPLINGS = sorted(set(COUPLINGS) | {-20.0, -0.1, 0.1, 50.0, 1e4})


@pytest.mark.parametrize("g", KINK_COUPLINGS)
def test_jump_residual_vanishes_at_solved_roots(g):
    for sol in solve_even(g, 6):
        assert jump_check(sol.nu, g) <= KINK_GATE, (g, sol.nu)


@pytest.mark.parametrize("g", KINK_COUPLINGS)
def test_shifted_roots_fail_the_kink_gate(g):
    # a 1e-7 shift raises the residual to 2.5e-10 or more
    for sol in solve_even(g, 6):
        for shift in (-1e-7, 1e-7):
            assert jump_check(sol.nu + shift, g) > KINK_GATE, (g, sol.nu, shift)


def test_jump_residual_away_from_roots():
    assert jump_check(0.5, 1.0) == pytest.approx(0.3240217599327157, rel=1e-12, abs=0.0)
    assert jump_check(0.5, 1.0) > 0.05


def test_jump_residual_unperturbed_even_state():
    # both sides vanish: psi'(0+) = -2 eval_even(3, 0) is -0.0
    assert jump_check(2.0, 0.0) == 0.0


def test_jump_check_past_double_range_raises():
    # eval_even(nu + 1, 0) leaves the double range from about nu = 341
    with pytest.raises(OverflowError, match="nu=343.5"):
        jump_check(342.5, 1.0)
    with pytest.raises(OverflowError):
        jump_check(400.0, 1.0)


def test_jump_check_at_extreme_coupling_stays_finite():
    # g psi(0) overflows at g = 1e300, psi'(0+) / g does not
    for g in (1e300, -1e300):
        assert jump_check(0.5, g) == 1.0


def test_kink_jump_matches_coupling():
    """The sampled one-sided slope jump reproduces 2 g psi(0) to O(dy)."""
    for g in (1.0, 2.5, 5.0):
        state = sample_state(solve_even(g, 1)[0])
        center = (state.n_points - 1) // 2
        target = 2.0 * g * state.values[center]
        jump = _center_jump(state)
        assert jump > 0.5
        assert jump == pytest.approx(target, rel=5e-2, abs=0.0)


def test_no_kink_without_coupling():
    state = sample_state(EigenSolution("even", 2.0, 2))
    assert abs(_center_jump(state)) < 0.05


# ---------------------------------------------------------------------------
# sampled states


def test_schrodinger_residual_away_from_origin():
    """-psi'' + y^2 psi = (2 nu + 1) psi off-origin, checked with a 5-point stencil."""
    cases = []
    for g in (1.0, -1.0, 2.5, -2.5, 5.0):
        cases.extend(("even", s.nu) for s in solve_even(g, 3))
    cases.extend(("odd", float(n)) for n in (1, 3, 5))
    cases.append(("even", solve_even(-5.0, 1)[0].nu))
    h = 0.01
    ys = np.arange(0.5, 4.0 + h / 2, 4 * h)
    for kind, nu in cases:
        evaluate = eval_even if kind == "even" else eval_odd
        peak = float(np.max(np.abs(evaluate(nu, np.linspace(0.0, 4.0, 161)))))
        samples = [evaluate(nu, ys + k * h) for k in (-2, -1, 0, 1, 2)]
        d2 = (
            -samples[0] + 16 * samples[1] - 30 * samples[2]
            + 16 * samples[3] - samples[4]
        ) / (12 * h * h)
        residual = np.abs(-d2 + ys * ys * samples[2] - (2.0 * nu + 1.0) * samples[2])
        assert np.max(residual) <= 1e-4 * peak, (kind, nu, np.max(residual), peak)


def test_sample_state_parity_structure():
    odd = sample_state(EigenSolution("odd", 1.0, 1))
    center = (odd.n_points - 1) // 2
    assert odd.values[center] == 0.0
    assert np.all(odd.values == -odd.values[::-1])

    even = sample_state(solve_even(1.0, 1)[0])
    assert np.all(even.values == even.values[::-1])


def test_sample_state_sign_convention():
    # raw H3 has negative slope at the origin; orientation must flip it
    for sol in (EigenSolution("odd", 3.0, 3),
                solve_even(1.0, 1)[0]):
        state = sample_state(sol)
        center = (state.n_points - 1) // 2
        first_nonzero = next(v for v in state.values[center + 1 :] if v != 0.0)
        assert first_nonzero > 0.0


def test_sample_state_window_reaches_past_the_turning_point():
    """A nu ~ 24 state turns at y0 = 7.01 and decays within 5.01 more; spacing stays 0.01.

    Its window is y0 + (3 L / (2 sqrt(2 y0)))^(2/3) = 12.03 with L = 28,
    rounded up to an even count of intervals: 12.04.
    """
    high = solve_even(1.0, 13)[12]
    state = sample_state(high)
    assert state.half_width == pytest.approx(12.04, abs=1e-12)
    assert state.n_points == 2409
    assert state.delta_y == pytest.approx(0.01, rel=1e-12, abs=0.0)
    w = _simpson_weights(state)
    assert float(w @ (state.values**2)) == pytest.approx(1.0, abs=1e-12)


def test_sample_state_makes_one_evaluator_call_per_state(monkeypatch, cold_odd_cache):
    """Every state sampled first is one array call over the right half, the origin included."""
    calls = []
    for name in ("eval_even", "eval_odd"):
        inner = getattr(wavefunction, name)

        def counted(nu, y, inner=inner):
            calls.append(np.size(y))
            return inner(nu, y)

        monkeypatch.setattr(wavefunction, name, counted)
    sols = [sol for g in (-10.0, -1.0, 0.0, 1.0, 10.0)
            for sol in full_spectrum(g, 41)]
    sols += [EigenSolution("odd", float(n), n) for n in range(41, 190, 4)]
    for sol in sols:
        wavefunction._odd_state.cache_clear()
        calls.clear()
        state = sample_state(sol)
        assert calls == [(state.n_points + 1) // 2], (sol.parity, sol.nu)


def test_a_kept_odd_state_keeps_the_bits_of_a_fresh_one(cold_odd_cache):
    # every odd n the window takes: sampled, kept, and sampled afresh
    for n in range(1, 190, 2):
        sol = EigenSolution("odd", float(n), n)
        first, kept = sample_state(sol), sample_state(sol)
        wavefunction._odd_state.cache_clear()
        fresh = sample_state(sol)
        for state in (kept, fresh):
            assert state.half_width == first.half_width, n
            assert state.values.tobytes() == first.values.tobytes(), n


def test_a_repeated_odd_state_makes_no_evaluator_call(monkeypatch, cold_odd_cache):
    calls = []
    inner = wavefunction.eval_odd

    def counted(n, y):
        calls.append(n)
        return inner(n, y)

    monkeypatch.setattr(wavefunction, "eval_odd", counted)
    for g in (-10.0, 0.0, 2.5, 1e300):
        for sol in full_spectrum(g, 8)[1::2]:
            sample_state(sol)
    assert calls == [1.0, 3.0, 5.0, 7.0]


def test_a_caller_cannot_change_a_kept_odd_state(cold_odd_cache):
    sol = EigenSolution("odd", 5.0, 5)
    state = sample_state(sol)
    want = state.values.tobytes(), state.half_width
    with pytest.raises(ValueError):
        state.values[0] = 1.0
    state.values.setflags(write=True)  # the caller's own copy may be made writeable
    state.values[:] = 0.0
    state.half_width = 1.0
    again = sample_state(sol)
    assert (again.values.tobytes(), again.half_width) == want
    assert not np.shares_memory(again.values, wavefunction._odd_state(5.0).values)


def test_sample_state_evaluates_where_points_says_it_sampled(monkeypatch):
    """Every window sample_state can choose, half-widths 10 to 38.62, checked bit for bit.

    The turning point y0 rises 0.004 a step, so the window's edge y0 + d
    moves at most that far and no 0.02-wide step of it is skipped.
    """
    seen = []

    def recorded(nu, y):
        seen.append(np.array(y))
        return np.exp(-y * y)

    monkeypatch.setattr(wavefunction, "eval_even", recorded)
    windows = {}
    for y0 in np.arange(0.0, 40.0, 0.004):
        state = sample_state(EigenSolution("even", 0.5 * (y0 * y0 - 1.0), 0))
        right = state.points()[state.n_points // 2:]
        windows[state.half_width] = right.tobytes() == seen.pop().tobytes()
    assert len(windows) == 1432
    assert all(windows.values()), [w for w, same in windows.items() if not same]


def test_sample_state_contains_deep_bound_state():
    state = sample_state(solve_even(-5.0, 1)[0])
    assert state.half_width == 10.0 and state.n_points == 2001
    center = (state.n_points - 1) // 2
    assert state.values[center] > 2.0
    w = _simpson_weights(state)
    assert float(w @ (state.values**2)) == pytest.approx(1.0, abs=1e-12)


def test_even_states_match_mpmath():
    """Even states k <= 40 at six couplings: shape to 1e-10 of the supremum, k/2 nodes.

    Twelve right-half samples per state, the origin included, against
    exp(-y^2/2) U(-nu/2, 1/2, y^2) from mpmath at 30 digits; the scale is
    the least-squares best multiple, since the norms differ.
    """
    mpmath = pytest.importorskip("mpmath")
    worst = (0.0, None)
    for g in (-10.0, -5.0, -2.5, 1.0, 5.0, 10.0):
        for sol in full_spectrum(g, 41)[::2]:
            state = sample_state(sol)
            center = (state.n_points - 1) // 2
            right = state.values[center:]
            assert _count_sign_changes(right) == sol.index // 2, (g, sol.index)
            picks = np.linspace(0, center, 12).round().astype(int)
            ys = state.points()[center + picks]
            with mpmath.workdps(30):
                a = -mpmath.mpf(sol.nu) / 2
                ref = np.array([
                    float(mpmath.sqrt(mpmath.pi) * mpmath.rgamma(a + 0.5)) if y == 0.0
                    else float(mpmath.exp(-mpmath.mpf(y) ** 2 / 2)
                               * mpmath.hyperu(a, 0.5, mpmath.mpf(y) ** 2))
                    for y in ys
                ])
            values = right[picks]
            scale = float(values @ ref) / float(ref @ ref)
            error = float(np.max(np.abs(values - scale * ref))) / float(np.max(np.abs(right)))
            worst = max(worst, (error, (g, sol.index, sol.nu)), key=lambda w: w[0])
    assert worst[0] <= 1e-10, worst


def test_even_evaluation_matches_mpmath_over_the_domain():
    """eval_even within 1e-12 of its supremum against mpmath, for 20 orders in [-341.5, 340.7].

    Ten points per order span y in [0, 30) out to where the value falls
    below 1e-8 of its supremum there; mpmath's far tails are slow.
    """
    mpmath = pytest.importorskip("mpmath")
    grid = np.arange(3000) * 0.01
    worst = (0.0, None)
    for nu in np.linspace(-341.5, 340.7, 20).tolist():
        values = eval_even(nu, grid)
        sup = float(np.max(np.abs(values)))
        last = int(np.nonzero(np.abs(values) > 1e-8 * sup)[0][-1])
        picks = np.linspace(0, last, 10).round().astype(int)
        with mpmath.workdps(40):
            a = -mpmath.mpf(nu) / 2
            for y, value in zip(grid[picks].tolist(), values[picks].tolist()):
                z = mpmath.mpf(y) ** 2
                ref = (mpmath.sqrt(mpmath.pi) * mpmath.rgamma(a + 0.5) if y == 0.0
                       else mpmath.exp(-z / 2) * mpmath.hyperu(a, 0.5, z))
                error = float(abs(value - ref)) / sup
                worst = max(worst, (error, (nu, y)), key=lambda w: w[0])
    assert worst[0] <= 1e-12, worst


@pytest.mark.parametrize("nu", [300.3, 340.3])
def test_even_tail_past_y_26_matches_mpmath(nu):
    """eval_even on y in [26, 30] within 1e-12 of its supremum against mpmath.

    At nu = 340.3 the state is still 0.14 of its peak at y = 26.5, and at
    300.3 it is 6.5e-7 there, so a flush at y^2 = 700 would cut it off.
    """
    mpmath = pytest.importorskip("mpmath")
    sup = float(np.max(np.abs(eval_even(nu, np.arange(3000) * 0.01))))
    ys = np.linspace(26.0, 30.0, 9)
    with mpmath.workdps(40):
        a = -mpmath.mpf(nu) / 2
        for y, value in zip(ys.tolist(), eval_even(nu, ys).tolist()):
            z = mpmath.mpf(y) ** 2
            ref = mpmath.exp(-z / 2) * mpmath.hyperu(a, 0.5, z)
            assert float(abs(value - ref)) <= 1e-12 * sup, (y, value, float(ref))


def _mpmath_shape_error(mpmath, sol, state):
    """Best-multiple error of 12 right-half samples against mpmath, over the supremum.

    The samples span the right half out to where the state falls below
    1e-8 of its supremum, so a narrow deep state is probed where it lives.
    """
    center = (state.n_points - 1) // 2
    right = state.values[center:]
    sup = float(np.max(np.abs(right)))
    last = int(np.nonzero(np.abs(right) > 1e-8 * sup)[0][-1])
    picks = np.linspace(0, last, 12).round().astype(int)
    with mpmath.workdps(30):
        ref = []
        for y in state.points()[center + picks].tolist():
            z = mpmath.mpf(y) ** 2
            if sol.parity == "odd":
                ref.append(mpmath.exp(-z / 2) * mpmath.hermite(int(sol.nu), y))
            elif y == 0.0:
                ref.append(mpmath.sqrt(mpmath.pi) * mpmath.rgamma(0.5 - mpmath.mpf(sol.nu) / 2))
            else:
                ref.append(mpmath.exp(-z / 2) * mpmath.hyperu(-mpmath.mpf(sol.nu) / 2, 0.5, z))
        # scaled in mpmath, since the raw references may leave the double range
        big = max(abs(r) for r in ref)
        ref = np.array([float(r / big) for r in ref])
    values = right[picks]
    scale = float(values @ ref) / float(ref @ ref)
    return float(np.max(np.abs(values - scale * ref))) / sup


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "g, k",
    [(0.0, 151), (0.0, 181), (0.0, 183), (0.0, 185), (0.0, 187), (0.0, 189),
     (1.0, 200), (1.0, 300), (-20.2, 0), (-24.5, 0), (-26.0, 0)],
    ids=["odd-151", "odd-181", "odd-183", "odd-185", "odd-187", "odd-189",
         "even-200", "even-300", "g-20.2", "g-24.5", "g-26"],
)
def test_states_whose_squares_leave_the_double_range(g, k):
    """Samples up to 1e203 or down to 1e-304 still give a unit-norm state of the right shape.

    The odd states, up to the last one whose Hermite factor fits the
    double range inside its window (n = 189), and the even k = 200 and 300
    at g = 1 (nu ~ 200 and 300) have squares past it; the ground states at
    g = -20.2, -24.5 and -26 (nu ~ -205, -301 and -338) have squares
    below it.
    """
    mpmath = pytest.importorskip("mpmath")
    sol = full_spectrum(g, k + 1)[k]
    state = sample_state(sol)
    center = (state.n_points - 1) // 2
    assert _count_sign_changes(state.values[center:]) == k // 2
    w = _simpson_weights(state)
    assert float(w @ (state.values**2)) == pytest.approx(1.0, abs=1e-12)
    assert _mpmath_shape_error(mpmath, sol, state) <= 1e-10, sol.nu


def test_even_state_node_counts():
    for g in (1.0, 2.5):
        for k, sol in enumerate(solve_even(g, 4)):
            state = sample_state(sol)
            assert _count_sign_changes(state.values) == 2 * k


def test_odd_state_node_counts():
    for n in (1, 3, 5):
        state = sample_state(EigenSolution("odd", float(n), n))
        assert _count_sign_changes(state.values) == n


def test_zero_coupling_even_state_matches_hermite_form():
    state = sample_state(EigenSolution("even", 2.0, 2))
    pts = state.points()
    scale = 1.0 / math.sqrt(8.0 * math.sqrt(math.pi))
    # orientation flips the raw sample, whose origin value is negative
    expected = -scale * (4.0 * pts * pts - 2.0) * np.exp(-0.5 * pts * pts)
    assert np.max(np.abs(state.values - expected)) < 1e-7


# ---------------------------------------------------------------------------
# overlaps


def test_orthogonality_requires_matching_grids():
    # the nu ~ 24 state reaches 12.04 and has 2409 points, the ground state 2001
    a = sample_state(solve_even(1.0, 13)[12])
    b = sample_state(solve_even(1.0, 1)[0])
    assert (a.n_points, b.n_points) == (2409, 2001)
    with pytest.raises(ValueError):
        orthogonality(a, b)


def test_opposite_parity_overlap_is_machine_zero():
    even = sample_state(solve_even(1.0, 1)[0])
    odd = sample_state(EigenSolution("odd", 1.0, 1))
    assert abs(orthogonality(even, odd)) < 1e-14


def test_gram_matrix_of_six_lowest_states():
    states = [sample_state(s) for s in full_spectrum(1.0, 6)]
    gram = np.array([[orthogonality(a, b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(6))) < 1e-7


def test_probability_densities_converge_with_coupling():
    """|psi|^2 of the second even state approaches the odd n=3 density as g grows."""
    odd_density = sample_state(EigenSolution("odd", 3.0, 3)).values ** 2
    previous = math.inf
    for g in (1.0, 2.5, 5.0, 10.0):
        even = sample_state(solve_even(g, 2)[1])
        rms = math.sqrt(float(np.mean((even.values**2 - odd_density) ** 2)))
        assert rms < previous
        previous = rms
    assert previous < 0.05

"""Unit tests for the eigenvalue solver.

Root reference values were frozen from a 30-digit mpmath bisection of the
log-Gamma form of the eigenvalue condition, done once at development time.
The root gate at the end checks fresh solves across the whole coupling
range against mpmath, and is skipped when mpmath is missing.
"""

import math
import random

import pytest

from deltaho.errors import BracketError
from deltaho.spectrum import (
    EigenSolution,
    SolverConfig,
    bound_state_asymptote,
    bracket_even_roots,
    eigen_equation,
    full_spectrum,
    solve_even,
    solve_odd,
)

INV_SQRT_PI = 0.56418958354775629

# five lowest even-parity roots per coupling, 17 significant digits
EVEN_ROOTS = {
    -0.25: [-0.155722177748717, 1.928784721157528, 3.9469195620531213,
            5.9558440263577971, 7.9613921655370238],
    0.25: [0.12810480783566419, 2.0693223386685926, 4.0524714477904574,
           6.043860662075604, 8.0384342770503846],
    -1.0: [-0.84241894678128868, 1.7207695125884472, 3.7912270349041192,
           5.8257774572446733, 7.8473257647189025],
    1.0: [0.39274404530895262, 2.2546415332793666, 4.2001958259755306,
          6.1699090518979417, 8.1500869421468821],
    -2.5: [-3.5865078522270096, 1.4285009181128598, 3.5420049829800533,
           5.6051449347846341, 7.6472545580783936],
    2.5: [0.64335170569099729, 2.5041980156936928, 4.4273644817802279,
          6.3772104063090006, 8.341249631133277],
    -5.0: [-12.990027623650626, 1.2305322273324521, 3.3226978482103938,
           5.383328545829776, 7.4284649559131737],
    5.0: [0.79612287391530155, 2.7003040954922772, 4.6364303994063124,
          6.5887141355385469, 8.5509253365725655],
}

COUPLING_GRID = sorted(EVEN_ROOTS)


# ---------------------------------------------------------------------------
# eigenvalue equation


def test_eigen_equation_trivial_zero():
    assert eigen_equation(0.0, 0.0) == 0.0


def test_eigen_equation_at_origin():
    # F(0) = -g/sqrt(pi)
    assert eigen_equation(0.0, 0.25) == pytest.approx(
        -0.14104739588693907, rel=1e-13
    )


def test_eigen_equation_small_at_tabulated_root():
    assert abs(eigen_equation(0.1281, 0.25)) < 5e-4


def test_eigen_equation_continuous_at_even_integers():
    """The rescaled equation has no poles where roots accumulate."""
    for g in (-1.0, 1.0):
        for center in (0.0, 2.0, 4.0, 6.0):
            at = eigen_equation(center, g)
            near = eigen_equation(center + 1e-9, g)
            assert math.isfinite(at) and math.isfinite(near)
            assert near == pytest.approx(at, abs=1e-6)


# ---------------------------------------------------------------------------
# bracketing


def test_brackets_repulsive():
    assert bracket_even_roots(1.0, 3) == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]


def test_brackets_attractive():
    (lo, hi), second = bracket_even_roots(-1.0, 2)
    assert hi == 0.0
    assert lo < -0.8424
    assert second == (1.0, 2.0)


def test_bracket_holds_deep_bound_state():
    (lo, hi) = bracket_even_roots(-5.0, 1)[0]
    assert lo < -12.9900 < hi


def test_bracket_rejects_zero_coupling():
    with pytest.raises(ValueError):
        bracket_even_roots(0.0, 1)
    with pytest.raises(ValueError):
        bracket_even_roots(1.0, 0)


# ---------------------------------------------------------------------------
# even branch


@pytest.mark.parametrize("g", COUPLING_GRID)
def test_even_roots_frozen(g):
    sols = solve_even(g)
    assert [s.parity for s in sols] == ["even"] * 5
    assert [s.index for s in sols] == [0, 2, 4, 6, 8]
    for sol, ref in zip(sols, EVEN_ROOTS[g]):
        assert sol.nu == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("g", COUPLING_GRID)
def test_even_root_residuals(g):
    for sol in solve_even(g):
        assert abs(eigen_equation(sol.nu, g)) <= 1e-8 * (1.0 + abs(sol.nu))


@pytest.mark.parametrize("g", COUPLING_GRID)
def test_even_root_interlacing(g):
    sols = solve_even(g)
    if g > 0:
        for k, sol in enumerate(sols):
            assert 2 * k < sol.nu < 2 * k + 1
    else:
        assert sols[0].nu < 0.0
        for k, sol in enumerate(sols[1:], start=1):
            assert 2 * k - 1 < sol.nu < 2 * k


def test_even_roots_increase_with_coupling():
    grid = [-5.0, -2.5, -1.0, -0.25, 0.0, 0.25, 1.0, 2.5, 5.0]
    columns = [solve_even(g) for g in grid]
    for k in range(5):
        track = [col[k].nu for col in columns]
        assert all(a < b for a, b in zip(track, track[1:]))


def test_zero_coupling_is_exact():
    assert [s.nu for s in solve_even(0.0, SolverConfig(n_states=3))] == [0.0, 2.0, 4.0]


def test_weak_coupling_continuity():
    """nu drifts from the unperturbed labels linearly in g near zero."""
    for g in (1e-6, -1e-6):
        for k, sol in enumerate(solve_even(g)):
            assert abs(sol.nu - 2.0 * k) < 1e-5


def test_perturbative_slope_of_ground_state():
    # linearizing the eigenvalue condition at nu = 0 gives nu = g/sqrt(pi)
    for g in (1e-4, -1e-4):
        nu0 = solve_even(g, SolverConfig(n_states=1))[0].nu
        assert nu0 / g == pytest.approx(INV_SQRT_PI, rel=1e-2)


def test_strong_coupling_stays_inside_brackets():
    for sol in solve_even(50.0, SolverConfig(n_states=4)):
        assert sol.index < sol.nu < sol.index + 1
    sols = solve_even(-50.0, SolverConfig(n_states=4))
    assert sols[0].nu < 0.0
    for sol in sols[1:]:
        assert sol.index - 1 < sol.nu < sol.index


def test_deep_bound_state_frozen():
    nu0 = solve_even(-20.0, SolverConfig(n_states=1))[0].nu
    assert nu0 == pytest.approx(-200.49937500683557, rel=1e-12)
    nu0 = solve_even(-50.0, SolverConfig(n_states=1))[0].nu
    assert nu0 == pytest.approx(-1250.499900000028, rel=1e-11)


def test_solve_even_rejects_nonfinite_coupling():
    with pytest.raises(ValueError):
        solve_even(math.inf)
    with pytest.raises(ValueError):
        solve_even(math.nan)


# ---------------------------------------------------------------------------
# odd branch and the merged spectrum


def test_odd_branch_is_exact():
    sols = solve_odd(3)
    assert [s.nu for s in sols] == [1.0, 3.0, 5.0]
    assert [s.index for s in sols] == [1, 3, 5]
    assert all(s.parity == "odd" for s in sols)


def test_odd_branch_rejects_empty_request():
    with pytest.raises(ValueError):
        solve_odd(0)


@pytest.mark.parametrize("g", [-5.0, -0.25, 0.0, 1.0, 2.5])
def test_full_spectrum_orders_and_alternates(g):
    sols = full_spectrum(g, SolverConfig(n_states=7))
    assert [s.index for s in sols] == list(range(7))
    assert [s.parity for s in sols] == ["even", "odd"] * 3 + ["even"]
    eps = [s.epsilon for s in sols]
    assert all(a < b for a, b in zip(eps, eps[1:]))


def test_full_spectrum_known_column():
    sols = full_spectrum(1.0, SolverConfig(n_states=4))
    assert sols[0].nu == pytest.approx(0.39274404530895262, rel=1e-12)
    assert sols[1].nu == 1.0
    assert sols[2].nu == pytest.approx(2.2546415332793666, rel=1e-12)
    assert sols[3].nu == 3.0


def test_full_spectrum_single_state():
    (only,) = full_spectrum(-1.0, SolverConfig(n_states=1))
    assert only.parity == "even"
    assert only.nu == pytest.approx(-0.84241894678128868, rel=1e-12)


def test_epsilon_is_exactly_nu_plus_half():
    for g in (0.0, 1.0, -2.5):
        for sol in full_spectrum(g, SolverConfig(n_states=6)):
            assert sol.epsilon == sol.nu + 0.5


# ---------------------------------------------------------------------------
# deep-well asymptote


def test_asymptote_values():
    assert bound_state_asymptote(-5.0) == -12.5
    assert bound_state_asymptote(-1.0) == -0.5


def test_asymptote_rejects_nonnegative_coupling():
    with pytest.raises(ValueError):
        bound_state_asymptote(0.0)
    with pytest.raises(ValueError):
        bound_state_asymptote(2.0)


def test_bound_state_approaches_asymptote_from_above():
    gap = math.inf
    for g in (-5.0, -10.0, -20.0, -50.0):
        eps0 = solve_even(g, SolverConfig(n_states=1))[0].epsilon
        rel = (eps0 - bound_state_asymptote(g)) / abs(bound_state_asymptote(g))
        assert 0.0 < rel < gap
        gap = rel
    assert gap < 1e-7


# ---------------------------------------------------------------------------
# records and configuration


def test_eigen_solution_validation():
    with pytest.raises(ValueError):
        EigenSolution("sideways", 1.0, 0)
    with pytest.raises(ValueError):
        EigenSolution("odd", 2.0, 2)
    with pytest.raises(ValueError):
        EigenSolution("even", 1.0, -1)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(root_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=5)
    with pytest.raises(ValueError):
        SolverConfig(n_states=0)
    with pytest.raises(ValueError):
        SolverConfig(nu_min=1.0)


def test_explicit_search_floor_is_honored():
    sols = solve_even(-5.0, SolverConfig(n_states=1, nu_min=-14.0))
    assert sols[0].nu == pytest.approx(-12.990027623650626, rel=1e-12)


# ---------------------------------------------------------------------------
# root gate: agreement with mpmath across the coupling range

ROOT_RTOL = 1e-13

_rng = random.Random(20110404)
GATE_COUPLINGS = sorted(
    [sign * 10.0 ** _rng.uniform(-6.0, 4.0) for sign in (1.0, -1.0) for _ in range(12)]
    + [-1e5, -1e6, -1e7]
)


def _assert_mpmath_root(g, sol):
    """sol.nu lies in its own bracket, within ROOT_RTOL*max(1, |nu|) of a root.

    The reference is the paper's pole-free condition
    nu/Gamma(1 - nu/2) - g/Gamma(1/2 - nu/2) in mpmath, with the working
    precision grown with log10|nu| so the window stays resolved.  One
    root per bracket, so a sign change across the window pins the root.
    """
    mpmath = pytest.importorskip("mpmath")
    nu, k = sol.nu, sol.index // 2
    if g > 0.0:
        assert 2 * k < nu < 2 * k + 1
    elif k == 0:
        assert nu < 0.0
    else:
        assert 2 * k - 1 < nu < 2 * k
    delta = ROOT_RTOL * max(1.0, abs(nu))
    with mpmath.workdps(30 + int(math.log10(max(1.0, abs(nu))))):
        def condition(x):
            x = mpmath.mpf(x)
            return x * mpmath.rgamma(1 - x / 2) - g * mpmath.rgamma(mpmath.mpf(0.5) - x / 2)

        left, right = condition(nu - delta), condition(nu + delta)
    assert left * right <= 0, f"no root within {delta:.1e} of nu={nu!r} at g={g!r}"


@pytest.mark.parametrize("g", GATE_COUPLINGS, ids=lambda g: f"{g:.3g}")
def test_roots_match_mpmath(g):
    for sol in solve_even(g, SolverConfig(n_states=6)):
        _assert_mpmath_root(g, sol)


@pytest.mark.parametrize("g", [-1000.0, -1.0, 1e-3, 1.0, 7.7, 1e4])
def test_high_even_states_match_mpmath(g):
    sols = solve_even(g, SolverConfig(n_states=500))
    assert len(sols) == 500
    for k in (0, 1, 171, 172, 499):
        _assert_mpmath_root(g, sols[k])


def test_root_171_with_343_states():
    # this root once came back as 342.1097..., whatever the coupling
    sol = full_spectrum(7.7, SolverConfig(n_states=343))[342]
    assert sol.index == 342
    assert sol.nu == pytest.approx(342.18210945498515, rel=1e-13)
    _assert_mpmath_root(7.7, sol)


def test_extreme_coupling_reaches_asymptote():
    # the level sits at -g^2/2 = -5e299, still inside the double range
    g = -1e150
    (sol,) = solve_even(g, SolverConfig(n_states=1))
    assert sol.epsilon == pytest.approx(bound_state_asymptote(g), rel=1e-15)

"""Unit tests for the eigenvalue solver.

Root reference values were frozen from a 30-digit mpmath bisection of the
log-Gamma form of the eigenvalue condition, done once at development time.
The root gate at the end checks fresh solves across the whole coupling
range against mpmath, and is skipped when mpmath is missing.
"""

import math
import random
import statistics
import struct

import pytest

from deltaho import spectrum
from deltaho.errors import BracketError, ConvergenceError
from deltaho.spectrum import (
    EigenSolution,
    SolverConfig,
    _bracket_even_roots,
    bound_state_asymptote,
    certify_root,
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
        -0.14104739588693907, rel=1e-13, abs=0.0
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
    assert _bracket_even_roots(1.0, 3) == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]


def test_brackets_attractive():
    (lo, hi), second = _bracket_even_roots(-1.0, 2)
    assert hi == 0.0
    assert lo < -0.8424
    assert second == (1.0, 2.0)


def test_bracket_holds_deep_bound_state():
    (lo, hi) = _bracket_even_roots(-5.0, 1)[0]
    assert lo < -12.9900 < hi


def test_bracket_rejects_zero_coupling():
    # zero coupling is no special case: its brackets start on the exact roots
    for g in (0.0, -0.0):
        assert _bracket_even_roots(g, 2) == [(0.0, 1.0), (2.0, 3.0)]
        assert [(s.nu, s.bracket) for s in solve_even(g, 2)] == [
            (0.0, (0.0, 0.0)), (2.0, (2.0, 2.0))]


# ---------------------------------------------------------------------------
# even branch


@pytest.mark.parametrize("g", COUPLING_GRID)
def test_even_roots_frozen(g):
    sols = solve_even(g, 5)
    assert [s.parity for s in sols] == ["even"] * 5
    assert [s.index for s in sols] == [0, 2, 4, 6, 8]
    for sol, ref in zip(sols, EVEN_ROOTS[g]):
        assert sol.nu == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("g", COUPLING_GRID)
def test_even_root_residuals(g):
    for sol in solve_even(g, 5):
        assert abs(eigen_equation(sol.nu, g)) <= 1e-8 * (1.0 + abs(sol.nu))


@pytest.mark.parametrize("g", COUPLING_GRID)
def test_even_root_interlacing(g):
    sols = solve_even(g, 5)
    if g > 0:
        for k, sol in enumerate(sols):
            assert 2 * k < sol.nu < 2 * k + 1
    else:
        assert sols[0].nu < 0.0
        for k, sol in enumerate(sols[1:], start=1):
            assert 2 * k - 1 < sol.nu < 2 * k


def test_even_roots_increase_with_coupling():
    grid = [-5.0, -2.5, -1.0, -0.25, 0.0, 0.25, 1.0, 2.5, 5.0]
    columns = [solve_even(g, 5) for g in grid]
    for k in range(5):
        track = [col[k].nu for col in columns]
        assert all(a < b for a, b in zip(track, track[1:]))


def test_zero_coupling_is_exact():
    assert [s.nu for s in solve_even(0.0, 3)] == [0.0, 2.0, 4.0]


def test_weak_coupling_continuity():
    """nu drifts from the unperturbed labels linearly in g near zero."""
    for g in (1e-6, -1e-6):
        for k, sol in enumerate(solve_even(g, 5)):
            assert abs(sol.nu - 2.0 * k) < 1e-5


def test_perturbative_slope_of_ground_state():
    # linearizing the eigenvalue condition at nu = 0 gives nu = g/sqrt(pi)
    for g in (1e-4, -1e-4):
        nu0 = solve_even(g, 1)[0].nu
        assert nu0 / g == pytest.approx(INV_SQRT_PI, rel=1e-2, abs=0.0)


def test_strong_coupling_stays_inside_brackets():
    for sol in solve_even(50.0, 4):
        assert sol.index < sol.nu < sol.index + 1
    sols = solve_even(-50.0, 4)
    assert sols[0].nu < 0.0
    for sol in sols[1:]:
        assert sol.index - 1 < sol.nu < sol.index


def test_deep_bound_state_frozen():
    nu0 = solve_even(-20.0, 1)[0].nu
    assert nu0 == pytest.approx(-200.49937500683557, rel=1e-12, abs=0.0)
    nu0 = solve_even(-50.0, 1)[0].nu
    assert nu0 == pytest.approx(-1250.499900000028, rel=1e-11, abs=0.0)


def test_solve_even_rejects_nonfinite_coupling():
    with pytest.raises(ValueError):
        solve_even(math.inf, 5)
    with pytest.raises(ValueError):
        solve_even(math.nan, 5)


# ---------------------------------------------------------------------------
# odd branch and the merged spectrum


def test_odd_branch_is_exact():
    sols = solve_odd(3)
    assert [s.nu for s in sols] == [1.0, 3.0, 5.0]
    assert [s.index for s in sols] == [1, 3, 5]
    assert all(s.parity == "odd" for s in sols)


def test_odd_branch_rejects_empty_request():
    for n_states in (0, 2.5):
        with pytest.raises(ValueError, match="n_states"):
            solve_odd(n_states)


@pytest.mark.parametrize("g", [-5.0, -0.25, 0.0, 1.0, 2.5, -0.0, 5e-324, -5e-324, 1e-300,
                               -1e-300, -9e153, -1e150, 1e300])
def test_full_spectrum_orders_and_alternates(g):
    # full_spectrum interleaves the parities without sorting; this guards the order
    for n in (1, 2, 7, 60):
        sols = full_spectrum(g, n)
        assert [s.index for s in sols] == list(range(n))
        assert [s.parity for s in sols] == (["even", "odd"] * n)[:n]
        nus = [s.nu for s in sols]
        assert all(a < b for a, b in zip(nus, nus[1:]))
        # at g = 1e300 the ground root is 1 - 2^-53, whose epsilon rounds
        # to odd level 1's 1.5; every other pair is strictly ordered
        eps = [s.epsilon for s in sols]
        ties = [j for j, (a, b) in enumerate(zip(eps, eps[1:])) if a == b]
        assert eps == sorted(eps) and ties == ([0] if g == 1e300 and n > 1 else [])


def test_full_spectrum_known_column():
    sols = full_spectrum(1.0, 4)
    assert sols[0].nu == pytest.approx(0.39274404530895262, rel=1e-12, abs=0.0)
    assert sols[1].nu == 1.0
    assert sols[2].nu == pytest.approx(2.2546415332793666, rel=1e-12, abs=0.0)
    assert sols[3].nu == 3.0


def test_full_spectrum_single_state():
    (only,) = full_spectrum(-1.0, 1)
    assert only.parity == "even"
    assert only.nu == pytest.approx(-0.84241894678128868, rel=1e-12, abs=0.0)


def test_epsilon_is_exactly_nu_plus_half():
    for g in (0.0, 1.0, -2.5):
        for sol in full_spectrum(g, 6):
            assert sol.epsilon == sol.nu + 0.5


def test_certify_root_rechecks_the_bracket_ends(monkeypatch):
    equation = spectrum.eigen_equation
    calls = []

    def counted(nu, g):
        calls.append(nu)
        return equation(nu, g)

    states = full_spectrum(2.5, 6)
    ends = [x for sol in states if sol.parity == "even" for x in sol.bracket]
    monkeypatch.setattr(spectrum, "eigen_equation", counted)
    for sol in states:
        certify_root(sol, 2.5)
    assert calls == ends


@pytest.mark.parametrize("g", [-1e150, -30.0, -5.0, -1e-300, 0.0, 1e-300, 2.5, 1e9, 1e300])
def test_certify_root_passes_every_solved_state(g):
    for sol in full_spectrum(g, 40):
        certify_root(sol, g)


def _refused(sol, g):
    with pytest.raises(ConvergenceError, match=f"state {sol.index} "):
        certify_root(sol, g)


def test_certify_root_refuses_an_uncertified_even_state():
    sol = solve_even(1.0, 1)[0]
    lo, hi = sol.bracket
    _refused(EigenSolution("even", sol.nu, 0), 1.0)
    # nu outside its bracket, a bracket wider than 4 ulps, and one beside
    # the root, where the condition keeps its sign
    _refused(EigenSolution("even", sol.nu + 1e-3, 0, sol.bracket), 1.0)
    _refused(EigenSolution("even", sol.nu, 0, (lo - 8.0 * math.ulp(lo), hi)), 1.0)
    beside = (math.nextafter(hi, 1.0), math.nextafter(math.nextafter(hi, 1.0), 1.0))
    _refused(EigenSolution("even", beside[0], 0, beside), 1.0)
    # odd states vanish at the origin, so they carry nothing to check
    certify_root(EigenSolution("odd", 1.0, 1), 1.0)


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
        eps0 = solve_even(g, 1)[0].epsilon
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
    # the index's parity is the state's, and an odd state's nu is its index
    with pytest.raises(ValueError, match="even index"):
        EigenSolution("even", 1.0, 1)
    with pytest.raises(ValueError, match="odd index"):
        EigenSolution("odd", 3.0, 4)
    with pytest.raises(ValueError, match="equal its index"):
        EigenSolution("odd", 3.0, 5)
    assert EigenSolution("odd", 5.0, 5).nu == 5.0


def test_solver_config_validation():
    # SolverConfig is the checked count itself, as full_spectrum takes it
    assert SolverConfig(n_states=4) == 4
    with pytest.raises(ValueError):
        SolverConfig(n_states=0)
    for value in (3.0, "3"):
        with pytest.raises(ValueError, match="n_states"):
            SolverConfig(n_states=value)
    for value in (0, 3.0, "3"):
        for solve in (solve_even, full_spectrum):
            with pytest.raises(ValueError, match="n_states"):
                solve(1.0, value)


def test_attractive_domain_edge():
    # the search edge -2 g^2 leaves the double range past |g| = 9.4808e153
    (sol,) = solve_even(-9.48e153, 1)
    assert sol.epsilon == pytest.approx(bound_state_asymptote(-9.48e153), rel=1e-15, abs=0.0)
    with pytest.raises(BracketError):
        solve_even(-9.49e153, 1)


# ---------------------------------------------------------------------------
# refinement cost: a few evaluations per root, ground roots included

_cap_rng = random.Random(20261018)
CAP_CASES = [(sign * 10.0 ** _cap_rng.uniform(-300.0, 150.0), _cap_rng.randint(1, 500))
             for sign in (1.0, -1.0) for _ in range(10)]
# couplings at which excited roots sit within ulps of an integer, an end of their bracket
CAP_EXTREMES = (1e-300, -1e-300, 1e150, -1e150, 1e-13, 1e14, 1e16)
CAP_CASES += [(g, 500) for g in CAP_EXTREMES]


@pytest.fixture
def evaluations_per_root(monkeypatch):
    """solve_even(g, n_states), returning the gamma_ratio calls per root.

    They count all the work of a root: its estimate's calls and its
    walk's.  A root ends where its EigenSolution is made.
    """
    calls = [0]
    per_root = []
    ratio, solution = spectrum.gamma_ratio, spectrum.EigenSolution

    def counted_ratio(y):
        calls[0] += 1
        return ratio(y)

    def counted_solution(*args):
        per_root.append(calls[0])
        calls[0] = 0
        return solution(*args)

    monkeypatch.setattr(spectrum, "gamma_ratio", counted_ratio)
    monkeypatch.setattr(spectrum, "EigenSolution", counted_solution)

    def solve(g, n_states):
        per_root.clear()
        calls[0] = 0
        solve_even(g, n_states)
        assert len(per_root) == n_states
        return list(per_root)

    return solve


@pytest.mark.parametrize("g,n_states", CAP_CASES, ids=lambda v: f"{v:.3g}")
def test_refinement_stays_far_below_step_cap(evaluations_per_root, g, n_states):
    lo, _ = _bracket_even_roots(g, 1)[0]
    assert eigen_equation(lo, g) < 0.0
    # the measured worst over these cases is 6, the ground root at
    # g = -8.43e54 (7 with the ground estimate's stop at 1 ulp of y); ITP
    # on the ground root's whole bracket took up to 12
    counts = evaluations_per_root(g, n_states)
    assert max(counts) <= 8
    if g in CAP_EXTREMES:
        # an excited root here walks to the double next to its bracket's
        # end: a median of 4, where the estimate followed by ITP on the
        # whole bracket took 9
        assert statistics.median(counts[1:]) <= 8


def test_median_evaluations_per_root(evaluations_per_root):
    # a median of 5 here, estimate and walk included; with ITP on the
    # ground root's whole bracket 6, ITP on a narrowed bracket 7, ITP from
    # the whole bracket 10, and the bisection/secant alternation before it 29
    rng = random.Random(20201005)
    counts = []
    for _ in range(100):
        g = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-6.0, 3.0)
        counts += evaluations_per_root(g, rng.randint(1, 12))
    assert statistics.median(counts) <= 5


def test_ground_estimate_stops_at_the_condition_rounding(evaluations_per_root):
    # 4,000 ground roots, |g| log-uniform in [1e-6, 1e4], take a mean of
    # 5.83 calls with the estimate stopped at 4 ulps, inside the rounding of
    # G and of ln(2y Q(y)/|g|), and the g < 0 secant started where
    # 2y = |g| sqrt(y + 1/pi), its last step at its own slope.  From
    # y = |g|/(2 sqrt(pi)) with a last step of slope 1 they took 6.41, and
    # stopped at 1 ulp, below the rounding, 6.77
    rng = random.Random(2000)
    counts = [evaluations_per_root(sign * 10.0 ** rng.uniform(-6.0, 4.0), 1)[0]
              for sign in (1.0, -1.0) for _ in range(2000)]
    assert statistics.mean(counts) <= 5.85


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_refinement_refuses_a_bracket_without_a_sign_change(sign):
    # k's parity turns the walk toward either end, where it stops
    for k in (0, 1):
        with pytest.raises(BracketError, match=r"^no sign change on \[0\.0, 1\.0\]$"):
            spectrum._refine_root(lambda x: sign * (1.0 + x), k, 0.5, 0.0, 1.0)


# ---------------------------------------------------------------------------
# same bits: the condition and the walk against their builtin-call forms
#
# sincospi reduces its argument once, and the walk picks operands with
# conditionals, where the forms below call sinpi and cospi (a second
# reduction), min, max and abs.  Both sides run on the same libm, so equal
# hex pins the one to the other on every machine.


def _sinpi(x):
    y = math.remainder(x, 2.0)
    a = abs(y)
    if a == 0.0 or a == 1.0:
        return 0.0
    if a <= 0.5:
        return math.sin(math.pi * y)
    return math.copysign(math.sin(math.pi * (1.0 - a)), y)


def _cospi(x):
    return _sinpi(0.5 - abs(math.remainder(x, 2.0)))


def _reference_equation(nu, g):
    if nu > 0.0:
        y = 0.5 * nu
        return (2.0 * _sinpi(y) - g * _cospi(y) * spectrum.gamma_ratio(y)) / math.pi
    return nu - g / spectrum.gamma_ratio(-0.5 * nu)


def _reference_refine(func, lo, hi):
    # ITP (Oliveira & Takahashi, ACM TOMS 47 (2020) 5) on the whole
    # bracket, to a width of 4 ulps of its end nearer zero
    f_lo = func(lo)
    f_hi = func(hi)
    if f_lo == 0.0:
        return lo, (lo, lo)
    if f_hi == 0.0:
        return hi, (hi, hi)
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")
    a, f_a, b, f_b = lo, f_lo, hi, f_hi
    budget = 2.0 * (hi - lo)
    for _ in range(200):
        w = b - a
        if w <= 4.0 * math.ulp(min(abs(a), abs(b))):
            break
        mid = 0.5 * a + 0.5 * b
        near_a = abs(f_a) <= abs(f_b)
        x = a + w * (f_a / (f_a - f_b)) if near_a else b - w * (f_b / (f_b - f_a))
        toward = mid - x
        x += math.copysign(min(0.2 * (w / (hi - lo)) * w, abs(toward)), toward)
        radius = max(0.5 * (budget - w), 0.0)
        x = min(max(x, mid - radius, math.nextafter(a, b)), mid + radius, math.nextafter(b, a))
        budget *= 0.5
        f_x = func(x)
        if f_x == 0.0:
            return x, (x, x)
        if (f_x > 0.0) == (f_a > 0.0):
            a, f_a = x, f_x
        else:
            b, f_b = x, f_x
    else:
        raise ConvergenceError("step cap")
    return (a if b == hi or (a != lo and abs(f_a) <= abs(f_b)) else b), (a, b)


def _reference_walk(func, k, nu, lo, hi):
    # solve_even's walk with min, max and abs: 4 ulps toward the root,
    # doubling while the sign holds, then halving back to 4 ulps
    x = min(max(nu, math.nextafter(lo, hi)), math.nextafter(hi, lo))
    f = func(x)
    if f == 0.0:
        if x != nu and func(nu) == 0.0:
            x = nu
        return x, (x, x)
    # (-1)^k f has the sign of G, which rises through the root
    upward = (f > 0.0) == (k % 2 == 1)
    step = 4.0 * math.ulp(x) * (1.0 if upward else -1.0)
    while True:
        x1 = min(x + step, hi) if upward else max(x + step, lo)
        if x1 == x:
            raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")
        f1 = func(x1)
        if f1 == 0.0:
            return x1, (x1, x1)
        if (f1 > 0.0) != (f > 0.0):
            break
        x, f, step = x1, f1, 2.0 * step
    while abs(x1 - x) > 4.0 * math.ulp(min(abs(x), abs(x1))):
        m = x + 0.5 * (x1 - x)
        f_m = func(m)
        if f_m == 0.0:
            return m, (m, m)
        if (f_m > 0.0) == (f > 0.0):
            x, f = m, f_m
        else:
            x1, f1 = m, f_m
    inside = [(abs(fp), p) for p, fp in ((x, f), (x1, f1)) if lo < p < hi]
    return min(inside, key=lambda t: t[0])[1], (min(x, x1), max(x, x1))


def _refined_hex(refine, func, *args):
    """The hex of refine's root and bracket, and of every point it evaluated."""
    points = []

    def traced(x):
        points.append(x.hex())
        return func(x)

    root, (a, b) = refine(traced, *args)
    return root.hex(), a.hex(), b.hex(), points


def _assert_roots_keep_their_bits(g, n_states):
    # the walk from each estimate solve_even makes, ground root included
    func, reference = (lambda nu: eigen_equation(nu, g)), (lambda nu: _reference_equation(nu, g))
    sols, d = solve_even(g, n_states), 0.0
    for k, (lo, hi) in enumerate(_bracket_even_roots(g, n_states)):
        args = (k, spectrum._estimate(g, k, d, lo, hi), lo, hi)
        walked = _refined_hex(spectrum._refine_root, func, *args)
        assert walked == _refined_hex(_reference_walk, reference, *args)
        assert (sols[k].nu.hex(), *(x.hex() for x in sols[k].bracket)) == walked[:3]
        d = sols[k].nu - 2.0 * k if k > 0 else 0.0


def test_eigen_equation_keeps_its_bits():
    rng = random.Random(280)
    nus = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324]
    nus += [0.5 * k for k in range(-120, 121)]  # integers and half-integers
    # y = |nu|/2 on either side of gamma_ratio's seams at 1 and 170
    for seam in (2.0, 340.0):
        for x in (math.nextafter(seam, 0.0), seam, math.nextafter(seam, math.inf)):
            nus += [x, -x]
    nus += [sign * 10.0 ** rng.uniform(-300.0, 300.0) for sign in (1.0, -1.0) for _ in range(150)]
    nus += [rng.uniform(-400.0, 400.0) for _ in range(300)]
    nus += [1e300, -1e300, 2.0**52 + 1.5, 2.0**53]
    couplings = [0.0, -0.0, 1e-300, -1e-300, 0.25, -1.0, 2.5, -5.0, 1e4, -1e4, 1e150, -1e150, 1e300]
    for g in couplings:
        for nu in nus:
            assert eigen_equation(nu, g).hex() == _reference_equation(nu, g).hex(), (nu, g)


@pytest.mark.parametrize("g,n_states", CAP_CASES, ids=lambda v: f"{v:.3g}")
def test_roots_keep_their_bits(g, n_states):
    _assert_roots_keep_their_bits(g, n_states)


@pytest.mark.parametrize("g", [0.0, -0.0])
def test_exact_roots_keep_their_bits(g):
    _assert_roots_keep_their_bits(g, 40)


def test_random_couplings_keep_their_bits():
    rng = random.Random(20201005)
    for _ in range(100):
        g = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-6.0, 3.0)
        _assert_roots_keep_their_bits(g, rng.randint(1, 12))


def _tenth_step(x):
    return -1.0 if x < 0.1 else 1e-200


@pytest.mark.parametrize("step", [_tenth_step, lambda x: -1.0 if x < 0.1 else 1.0],
                         ids=["tiny-end", "equal-ends"])
def test_step_function_keeps_its_bits(step):
    # from 0.9 the steps double down past 0.1 and halve back, some 100
    # evaluations; "equal-ends" ties |func| at the two ends of the bracket
    got = _refined_hex(spectrum._refine_root, step, 0, 0.9, 0.0, 1.0)
    assert got == _refined_hex(_reference_walk, step, 0, 0.9, 0.0, 1.0)
    root, a, b, points = got
    # b: the smaller |func|, or on a tie the end on the walk's own side
    assert float.fromhex(a) < 0.1 <= float.fromhex(b) and root == b and len(points) > 90


# ---------------------------------------------------------------------------
# walked roots: the same roots as refinement from the whole bracket


def _ulps_apart(a, b):
    """The number of doubles from a to b, for finite a and b."""
    def key(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)

    return abs(key(a) - key(b))


# the most ulps a walked root may lie from ITP's on the whole bracket, for
# a ground root and an excited one.  A deep ground root sits where the
# condition's sign is noisy over several ulps (see the mpmath ground gate),
# and the two closers may stop on different doubles of that band: up to 10
# apart over some 6,000 ground roots swept
_WHOLE_ULPS = (10, 4)


def test_narrowed_roots_match_whole_bracket_roots():
    # half the couplings log-uniform over [1e-300, 1e150], where most
    # excited roots sit within ulps of an integer, and half over [1e-6, 1e4];
    # up to 250 even roots (500 states)
    rng = random.Random(20261020)
    couplings = [0.0, -0.0, 5e-324, -5e-324, 9.4e153, -9.4e153]
    couplings += [rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(*span)
                  for _ in range(400) for span in ((-300.0, 150.0), (-6.0, 4.0))]
    roots = 0
    for g in couplings:
        func = lambda nu: eigen_equation(nu, g)
        for sol, (lo, hi) in zip(solve_even(g, rng.randint(1, 250)), _bracket_even_roots(g, 250)):
            certify_root(sol, g)
            whole, _ = _reference_refine(func, lo, hi)
            assert _ulps_apart(sol.nu, whole) <= _WHOLE_ULPS[sol.index > 0], (g, sol.index, sol.nu, whole)
            roots += 1
    assert roots >= 100_000


@pytest.mark.parametrize("g", [-2.5, -1e-3, 1e-3, 1.0, 2.5, 7.7, 1e4])
def test_a_walk_from_the_far_end_closes_to_the_whole_bracket_root(monkeypatch, g):
    # a start at the end of the bracket farther from the root: the steps
    # double up to the root and halve back, each about log2(width/4 ulps)
    brackets = _bracket_even_roots(g, 12)
    func = lambda nu: eigen_equation(nu, g)
    wholes = [_reference_refine(func, lo, hi)[0] for lo, hi in brackets]
    starts = [lo if root - lo > hi - root else hi for root, (lo, hi) in zip(wholes, brackets)]
    monkeypatch.setattr(spectrum, "_estimate", lambda g, k, d, lo, hi: starts[k])
    walk, evaluations = spectrum._refine_root, []

    def counted_walk(func, k, nu, lo, hi):
        points = []

        def counted(x):
            points.append(x)
            return func(x)

        result = walk(counted, k, nu, lo, hi)
        evaluations.append(len(points))
        return result

    monkeypatch.setattr(spectrum, "_refine_root", counted_walk)
    for sol, whole, start, (lo, hi), count in zip(solve_even(g, 12), wholes, starts, brackets, evaluations):
        certify_root(sol, g)
        assert _ulps_apart(sol.nu, whole) <= _WHOLE_ULPS[sol.index > 0], (g, sol.index, sol.nu, whole)
        four_ulps = 4.0 * min(math.ulp(start), math.ulp(whole))
        assert count <= 2 * math.log2((hi - lo) / four_ulps) + 2, (g, sol.index, count)


def _line(k, c, h):
    # a condition with the sign of (-1)^k (x - c - h), as eigen_equation has
    # near excited root k; x - c is exact, so the root c + h need not be a double
    return lambda x: ((x - c) - h) if k % 2 == 0 else (h - (x - c))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("start", [-50, 50])
def test_the_walk_steps_four_ulps_toward_the_root(k, start):
    u = math.ulp(2.0 * k)
    c = 2.0 * k + 0.25  # the root is c + u/2, between two doubles
    points = []

    def func(x):
        points.append(x)
        return _line(k, c, 0.5 * u)(x)

    nu = c + start * u
    got, (a, b) = spectrum._refine_root(func, k, nu, 2.0 * k, 2.0 * k + 1.0)
    assert (a, b) == (c - 2 * u, c + 2 * u) and got == c + 2 * u
    # one point at nu, then steps of 4, 8, 16 and 32 ulps toward the root,
    # the last past it, then three halvings back to a width of 4 ulps
    side = 1 if start > 0 else -1
    assert points == [c + side * j * u for j in (50, 46, 38, 22, -10, 6, -2, 2)]


@pytest.mark.parametrize("k", [2, 3])
def test_a_walk_is_held_to_its_bracket(k):
    u = math.ulp(2.0 * k)
    nu = 2.0 * k + 0.25
    hi = nu + 20 * u  # the root, nu + 18.5 ulps, lies past the third step
    points = []

    def func(x):
        points.append(x)
        return _line(k, nu, 18.5 * u)(x)

    # the third step stops at hi, which is never the root unless the condition is 0.0 there
    got, (a, b) = spectrum._refine_root(func, k, nu, 2.0 * k, hi)
    assert points == [nu, nu + 4 * u, nu + 12 * u, hi, nu + 16 * u]
    assert (got, a, b) == (nu + 16 * u, nu + 16 * u, hi)


def test_every_walk_closes_in_one_step(monkeypatch):
    # the sign of eigen_equation at nu sends each excited walk toward the
    # root, and its first 4-ulp step crosses it
    walk, evaluations = spectrum._refine_root, []

    def counted_walk(func, k, nu, lo, hi):
        points = []

        def counted(x):
            points.append(x)
            return func(x)

        result = walk(counted, k, nu, lo, hi)
        if k > 0:
            evaluations.append(len(points))
        return result

    monkeypatch.setattr(spectrum, "_refine_root", counted_walk)
    rng = random.Random(20201005)
    for _ in range(100):
        g = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-6.0, 3.0)
        solve_even(g, rng.randint(1, 12))
    assert len(evaluations) >= 500 and max(evaluations) <= 2


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
    nu, k = sol.nu, sol.index // 2
    if g > 0.0:
        assert 2 * k < nu < 2 * k + 1
    elif k == 0:
        assert nu < 0.0
    else:
        assert 2 * k - 1 < nu < 2 * k
    delta = ROOT_RTOL * max(1.0, abs(nu))
    digits = 30 + int(math.log10(max(1.0, abs(nu))))
    assert _changes_sign(g, nu - delta, nu + delta, digits), (
        f"no root within {delta:.1e} of nu={nu!r} at g={g!r}"
    )


def _changes_sign(g, left, right, digits=30):
    """The paper's condition changes sign on [left, right], in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        def condition(x):
            x = mpmath.mpf(x)
            return x * mpmath.rgamma(1 - x / 2) - g * mpmath.rgamma(mpmath.mpf(0.5) - x / 2)

        return condition(left) * condition(right) <= 0


@pytest.mark.parametrize("g", GATE_COUPLINGS, ids=lambda g: f"{g:.3g}")
def test_roots_match_mpmath(g):
    for sol in solve_even(g, 6):
        _assert_mpmath_root(g, sol)


@pytest.mark.parametrize("g", [-1000.0, -1.0, 1e-3, 1.0, 7.7, 1e4])
def test_high_even_states_match_mpmath(g):
    sols = solve_even(g, 500)
    assert len(sols) == 500
    for k in (0, 1, 171, 172, 499):
        _assert_mpmath_root(g, sols[k])


_ground_rng = random.Random(20261021)
GROUND_GATE_COUPLINGS = (
    [-_ground_rng.uniform(0.5, 30.0) for _ in range(200)]
    + [-10.0 ** _ground_rng.uniform(math.log10(30.0), 6.0) for _ in range(100)]
    + [_ground_rng.uniform(0.5, 3.0) for _ in range(100)]
    # the condition is exactly 0.0 at several consecutive doubles near the
    # first root, and sign-noisy over several ulps near the other two
    + [1.3533943913814945, -2.51, -3.8]
)


def _mpmath_root(g, nu):
    """The root of eigen_equation's scaled condition nearest nu, to 40 digits, as a double."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        def condition(x):
            y = abs(x) / 2
            q = mpmath.gamma(y + 0.5) / mpmath.gamma(y + 1)
            if x > 0:
                return 2 * mpmath.sinpi(y) - g * mpmath.cospi(y) * q
            return x - g / q

        x0 = mpmath.mpf(nu)
        return float(mpmath.findroot(condition, (x0, x0 * (1 + mpmath.mpf(2) ** -40)), solver="secant"))


def test_ground_roots_match_mpmath_to_ten_ulps():
    # the walk closes each ground root to a 4-ulp bracket of the
    # condition's sign change; deep attractive roots lose a few ulps more
    # to the cancellation in nu - g/Q(-nu/2), up to 10 over these couplings
    # (at g = -7.863, where the sign is noisy from -6 to +2 ulps of the
    # root and the walk, started at -6, finds the change at -10)
    for g in GROUND_GATE_COUPLINGS:
        (sol,) = solve_even(g, 1)
        certify_root(sol, g)
        assert _ulps_apart(sol.nu, _mpmath_root(g, sol.nu)) <= 10, (g, sol.nu)


def test_root_171_with_343_states():
    # this root once came back as 342.1097..., whatever the coupling
    sol = full_spectrum(7.7, 343)[342]
    assert sol.index == 342
    assert sol.nu == pytest.approx(342.18210945498515, rel=1e-13, abs=0.0)
    _assert_mpmath_root(7.7, sol)


# ---------------------------------------------------------------------------
# weak coupling: the stop is relative to the root, not to 1

WEAK_COUPLINGS = [sign * 10.0 ** e for sign in (1.0, -1.0)
                  for e in (-300, -250, -200, -150, -100, -50, -30, -16, -12, -8)]
# g/sqrt(pi) rounds to g itself; for g < 0 the estimate's y = -nu/2 is
# held to 5e-324, and its g/Q(y) lands on g
WEAK_COUPLINGS += [5e-324, -5e-324]


@pytest.mark.parametrize("g", WEAK_COUPLINGS, ids=lambda g: f"{g:.0e}")
def test_weak_coupling_ground_shift(g):
    # nu = g/sqrt(pi) (1 - nu ln 2 + ...), so the first order holds to
    # relative 4e-9 at |g| = 1e-8
    (sol,) = solve_even(g, 1)
    assert sol.nu == pytest.approx(g * INV_SQRT_PI, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("g", [1e-300, -1e-300, 1e-12, -1e-12], ids=lambda g: f"{g:.0e}")
def test_weak_coupling_excited_roots_to_one_ulp(g):
    # the root lies between the returned double's neighbours; at
    # |g| = 1e-300 it sits far less than an ulp from 2k, an end of its
    # bracket, so the answer is the double next to 2k inside the bracket
    for sol in solve_even(g, 5)[1:]:
        _assert_mpmath_root(g, sol)
        below = math.nextafter(sol.nu, -math.inf)
        above = math.nextafter(sol.nu, math.inf)
        assert _changes_sign(g, below, above), f"nu={sol.nu!r} at g={g!r}"


def test_extreme_coupling_reaches_asymptote():
    # the level sits at -g^2/2 = -5e299, still inside the double range
    g = -1e150
    (sol,) = solve_even(g, 1)
    assert sol.epsilon == pytest.approx(bound_state_asymptote(g), rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# closed-form limits of the paper's condition, free of the Gamma code
#
# With Q(y) = Gamma(y + 1/2)/Gamma(y + 1), the condition near nu = 2k reads
# 2 tan(pi x/2) = g Q(k + x/2), x = nu - 2k, and near nu = 2k + 1 it reads
# tan(pi delta/2) = 2/(g Q(k + 1/2 - delta/2)), delta = 2k + 1 - nu.  Q at
# integer and half-integer points is a ratio of factorials, and the
# digamma differences from Q'/Q are finite sums of 1/j.


def _q_int(k):
    # Q(k) = (2k)! sqrt(pi)/(4^k (k!)^2)
    return math.comb(2 * k, k) / 4**k * math.sqrt(math.pi)


def _q_half(k):
    # Q(k + 1/2) = 4^k (k!)^2/((k + 1/2) (2k)! sqrt(pi))
    return 4**k / math.comb(2 * k, k) / ((k + 0.5) * math.sqrt(math.pi))


@pytest.mark.parametrize("g", [1e-3, -1e-3, 1e-4, -1e-4], ids=lambda g: f"{g:.0e}")
def test_weak_coupling_closed_form(g):
    # x = x1 (1 + g Q'(k)/(2 pi) + O(g^2)) with x1 = g Q(k)/pi; the O(g^2)
    # term is at most 0.1 g^2 here (k = 0, g = 1e-3), and 8 ulps of nu
    # cover the 4-ulp bracket plus forming x1 and the ratio
    for k, sol in enumerate(solve_even(g, 5)):
        x1 = g * _q_int(k) / math.pi
        # psi(k + 1/2) - psi(k + 1)
        dpsi = -2.0 * math.log(2.0) + sum(2.0 / (2 * j - 1) - 1.0 / j for j in range(1, k + 1))
        deviation = (sol.nu - 2 * k) / x1 - 1.0
        bound = g * g + 8.0 * math.ulp(sol.nu) / abs(x1)
        assert abs(deviation - g * _q_int(k) * dpsi / (2.0 * math.pi)) <= bound, (k, deviation)


@pytest.mark.parametrize("g", [1e6, 1e8, 1e10, 1e12], ids=lambda g: f"{g:.0e}")
def test_strong_repulsion_closed_form(g):
    # delta = delta1 (1 + (psi(k+1) - psi(k+3/2)) delta1/2 + O(delta1^2))
    # with delta1 = 4/(pi g Q(k + 1/2)); from g ~ 1e8 the 4 ulps of the
    # bracket, relative to delta1, outweigh the correction
    for k, sol in enumerate(solve_even(g, 5)):
        delta1 = 4.0 / (math.pi * g * _q_half(k))
        dpsi = -(2.0 - 2.0 * math.log(2.0)) - sum(2.0 / (2 * j + 1) - 1.0 / j for j in range(1, k + 1))
        deviation = (2 * k + 1 - sol.nu) / delta1 - 1.0
        bound = delta1 * delta1 + 4.0 * math.ulp(sol.nu) / delta1
        assert abs(deviation - dpsi * delta1 / 2.0) <= bound, (k, deviation)


@pytest.mark.parametrize("g", [-5.0, -10.0, -30.0])
def test_deep_well_closed_form(g):
    # epsilon_0 = -g^2/2 + 1/(4 g^2) - 7/(16 g^6) + D/g^10, where D tends
    # to 121/32 (a 60-digit mpmath solve gives 3.78081 at g = -20 and
    # 3.7812500 at g = -300); deep roots are good to 16 ulps, and 4 more
    # cover the series' own rounding
    (sol,) = solve_even(g, 1)
    series = -0.5 * g * g + 0.25 / (g * g) - 7.0 / (16.0 * g**6)
    bound = 4.0 / g**10 + 20.0 * math.ulp(sol.epsilon)
    assert abs(sol.epsilon - series) <= bound

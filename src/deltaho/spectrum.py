"""Bound-state spectrum of the oscillator with a contact term at the origin.

Even-parity levels solve the kink condition at the origin, written as a
transcendental equation in sincospi, one exact argument reduction for
sin(pi x) and cos(pi x), and the Gamma ratio gamma_ratio, built on the
standard library's math.gamma; wavefunction.jump_check checks the kink
itself on the D_nu route, which shares none of it.  Odd-parity levels
vanish at the origin and stay at their unperturbed positions.  States
are labeled by the real quantum number nu, with dimensionless energy
epsilon = nu + 1/2 in oscillator units.  Excited even roots are closed by
a 4-ulp sign walk from a contraction estimate (see solve_even).
"""

import math
import operator

from .errors import BracketError, ConvergenceError

_MAX_STEPS = 200  # a guard: the worst root of the step-cap test takes 12 evaluations
_ALLOWANCE = 4.0  # ulps of nu added to the estimate's radius, for rounding


def sincospi(x):
    """(sin(pi*x), cos(pi*x)) from one exact argument reduction, safe for large |x|.

    Both are exact at integers and half-integers: 0.0 and +-1.0.
    """
    r = math.remainder(x, 2.0)
    a = abs(r)
    # |1/2 - a| <= 1/2 needs no second reduction; 1/2 - a is exact except
    # for a below 1/4, where cos(pi*x) is flat enough that the rounding is harmless
    c = math.sin(math.pi * (0.5 - a))
    if a == 0.0 or a == 1.0:
        return 0.0, c
    if a <= 0.5:
        return math.sin(math.pi * r), c
    return math.copysign(math.sin(math.pi * (1.0 - a)), r), c


def gamma_ratio(y):
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


class EigenSolution:
    """One stationary state: parity branch, quantum label, spectral position, root bracket."""

    __slots__ = ("parity", "nu", "index", "bracket")

    def __init__(self, parity, nu, index, bracket=None):
        if parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        if index < 0:
            raise ValueError("index must be nonnegative")
        if not math.isfinite(nu):
            raise ValueError(f"nu must be finite, got nu={nu!r}")
        if index % 2 != (parity == "odd"):
            raise ValueError(f"an {parity} state needs an {parity} index, got index={index!r}")
        if parity == "odd" and nu != index:
            raise ValueError(f"odd-parity nu must equal its index {index!r}, got nu={nu!r}")
        self.parity = parity
        self.nu = nu
        self.index = index
        self.bracket = bracket

    @property
    def epsilon(self):
        """Dimensionless energy, exactly nu + 1/2."""
        return self.nu + 0.5


def _n_states(n_states):
    """n_states as an int; ValueError unless it is an integer of at least 1."""
    try:
        n_states = operator.index(n_states)
    except TypeError:
        raise ValueError(f"n_states must be an integer, got {n_states!r}") from None
    if n_states < 1:
        raise ValueError("n_states must be at least 1")
    return n_states


# kept for callers that write full_spectrum(g, SolverConfig(n_states=n)): it is the checked n
SolverConfig = _n_states


def eigen_equation(nu, g):
    """Even-parity eigenvalue condition, scaled to stay finite everywhere.

    The paper's condition nu/Gamma(1 - nu/2) = g/Gamma(1/2 - nu/2), its
    difference multiplied by the positive factor Gamma(1 - nu/2) for
    nu <= 0 and 1/Gamma(1 + nu/2) for nu > 0.  With Q(y) =
    Gamma(y + 1/2)/Gamma(y + 1) ~ 1/sqrt(y) it reads

        nu > 0:   (2 sin(pi nu/2) - g cos(pi nu/2) Q(nu/2)) / pi
        nu <= 0:  nu - g / Q(-nu/2)

    No poles and no overflow; the factor is C^1 and equals 1 at nu = 0,
    so roots, signs and the value -g/sqrt(pi) there are unchanged.
    """
    if nu > 0.0:
        y = 0.5 * nu
        s, c = sincospi(y)
        return (2.0 * s - g * c * gamma_ratio(y)) / math.pi
    return nu - g / gamma_ratio(-0.5 * nu)


def certify_root(sol, g):
    """The gate `deltaho solve` applies to each state; ConvergenceError names a failure.

    Odd states pass.  An even state passes when its refiner's bracket holds
    nu, spans at most 4 ulps, and eigen_equation, deterministic and finite,
    changes sign or vanishes across it: exact, with no scale or tolerance.
    """
    if sol.parity == "odd":
        return
    if sol.bracket is not None:
        lo, hi = sol.bracket
        ends = (eigen_equation(lo, g), eigen_equation(hi, g))
        width_ok = hi - lo <= 4.0 * math.ulp(min(abs(lo), abs(hi)))  # the refiner's stop
        if lo <= sol.nu <= hi and width_ok and min(ends) <= 0.0 <= max(ends):
            return
    raise ConvergenceError(f"state {sol.index} (nu={sol.nu!r}) is not a certified root: its "
                           f"bracket {sol.bracket!r} fails the 4-ulp sign-change check")


def _bound_lower_edge(g):
    # the condition is negative at nu = -2M, M = max(1, g^2), for g < 0:
    # -2M + |g| Gamma(M+1)/Gamma(M+1/2) < -2M + sqrt(M(M+1)) < 0
    lo = -2.0 * max(1.0, g * g)
    if not math.isfinite(lo):
        # the bound level sits near -g^2/2, inside this edge, which has
        # left the double range
        raise BracketError(
            f"bound-state search edge overflows for g={g!r}; "
            "the coupling is too strong to represent the lowest level"
        )
    return lo


def _bracket_even_roots(g, n_states):
    """Disjoint intervals, one per even-parity root, lowest first.

    For g >= 0, -0.0 included, the k-th root sits in [2k, 2k+1): on 2k
    itself where the condition is 0.0 there, as at g = 0, since sincospi is
    exact at integers.  For g < 0 there is a single negative root, inside
    (-2*max(1, g^2), 0); the remaining roots sit in (2k-1, 2k).  At the
    odd levels the condition is +-2/pi, so no root sits on those ends.
    The caller checks g and n_states.
    """
    if g >= 0.0:
        return [(2.0 * k, 2.0 * k + 1.0) for k in range(n_states)]
    out = [(_bound_lower_edge(g), 0.0)]
    out.extend((2.0 * k - 1.0, 2.0 * k) for k in range(1, n_states))
    return out


def _refine_root(func, lo, hi):
    """Root of func inside (lo, hi) by ITP, to a few ulps of the root itself.

    ITP (Oliveira & Takahashi, ACM TOMS 47 (2020) 5) takes the regula-falsi
    point from the end with the smaller |func|, moves it 0.2 w^2/w0 toward
    the midpoint (w the width, w0 = hi - lo), and keeps it within a radius
    of the midpoint that holds the width under 2 w0 2^-j after j steps,
    and a double inside the ends.  The stop, a width of 4 ulps of the end
    nearer zero, is relative to the root even at 1e-300.  Returns the end
    with the smaller |func| among those inside (lo, hi) and the last
    bracket, where func changes sign or is 0; ConvergenceError after
    _MAX_STEPS steps.  The step is ITP's arithmetic with conditionals in
    place of min, max and abs, each picking the operand the builtin picks,
    so it evaluates func at the same doubles, only without the calls.
    """
    f_lo = func(lo)
    f_hi = func(hi)
    if f_lo == 0.0:
        return lo, (lo, lo)
    if f_hi == 0.0:
        return hi, (hi, hi)
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")
    ulp, nextafter, copysign = math.ulp, math.nextafter, math.copysign
    a, f_a, b, f_b = lo, f_lo, hi, f_hi
    span = hi - lo
    budget = 2.0 * span  # ITP's n0 = 1: one step of slack
    for _ in range(_MAX_STEPS):
        w = b - a
        abs_a = -a if a < 0.0 else a
        abs_b = -b if b < 0.0 else b
        if w <= 4.0 * ulp(abs_b if abs_b < abs_a else abs_a):
            break
        mid = 0.5 * a + 0.5 * b
        # a step from the farther end can round onto the nearer
        near_a = (-f_a if f_a < 0.0 else f_a) <= (-f_b if f_b < 0.0 else f_b)
        x = a + w * (f_a / (f_a - f_b)) if near_a else b - w * (f_b / (f_b - f_a))
        toward = mid - x
        shift = 0.2 * (w / span) * w
        dist = -toward if toward < 0.0 else toward
        x += copysign(dist if dist < shift else shift, toward)
        radius = 0.5 * (budget - w)
        radius = 0.0 if 0.0 > radius else radius
        # max(x, mid - radius, nextafter(a, b)), then min with mid + radius
        # and nextafter(b, a)
        x = edge if (edge := mid - radius) > x else x
        x = edge if (edge := nextafter(a, b)) > x else x
        x = edge if (edge := mid + radius) < x else x
        x = edge if (edge := nextafter(b, a)) < x else x
        budget *= 0.5
        f_x = func(x)
        if f_x == 0.0:
            return x, (x, x)
        if (f_x > 0.0) == (f_a > 0.0):
            a, f_a = x, f_x
        else:
            b, f_b = x, f_x
    else:
        raise ConvergenceError(f"bracket still {b - a:.3e} wide after {_MAX_STEPS} refinement steps")
    return (a if b == hi or (a != lo and abs(f_a) <= abs(f_b)) else b), (a, b)


def _estimate(g, k, d, lo, hi):
    """(nu, r), excited root k within r of nu (see solve_even); the secant starts at offset d."""
    a, c, lo, hi = 0.5 * g, 2.0 / math.pi, lo - 2.0 * k, hi - 2.0 * k  # the bracket in d
    gap = lambda d: d - c * math.atan(a * gamma_ratio(k + 0.5 * d))  # G(d)
    d0, g0 = d, gap(d)
    d1, g1 = d0 - g0, gap(d0 - g0)  # T(d), which has g's sign and so lies in the bracket
    for _ in range(6):  # secant steps, most stopped once |G| is an ulp of nu
        if (g1 if g1 > 0.0 else -g1) <= math.ulp(2.0 * k + d1) or g1 == g0:
            break
        d = lo if (d := d1 - g1 * (d1 - d0) / (g1 - g0)) < lo else hi if d > hi else d
        d0, g0, d1, g1 = d1, g1, d, gap(d)
    nu = 2.0 * k + d1
    return nu, abs(g1) / (1.0 - math.log(2.0) / math.pi) + _ALLOWANCE * math.ulp(nu)


def _walk(func, k, nu, r, lo, hi):
    """Root and bracket of at most 4 ulps, stepping from nu toward root k; None past nu +- r."""
    x = nu if lo < nu < hi else math.nextafter(nu, hi if nu == lo else lo)  # inside (lo, hi)
    f = func(x)
    up = (f > 0.0) == (k % 2 == 1)  # toward the root: (-1)^k f has the sign of G, which rises
    step = 4.0 * math.ulp(x) if up else -4.0 * math.ulp(x)
    end = (nu + r if nu + r < hi else hi) if up else (nu - r if nu - r > lo else lo)
    for _ in range(_MAX_STEPS):
        if f == 0.0:
            return x, (x, x)
        x1 = end if (x + step > end) == up else x + step
        if x1 == x:
            break
        f1 = func(x1)
        if f1 != 0.0 and (f1 > 0.0) != (f > 0.0):
            return (x1 if lo < x1 < hi and abs(f1) < abs(f) else x), ((x, x1) if up else (x1, x))
        x, f = x1, f1
    return None


def solve_even(g, n_states):
    """Lowest n_states even-parity solutions for coupling g, ordered by energy.

    Returns records carrying full-spectrum indices 0, 2, 4, since one odd
    level falls between consecutive even ones, and their refiners' last
    brackets.

    Excited roots (k >= 1) start from an estimate.  With nu = 2k + d, |d| < 1,
    eigen_equation has the sign of (-1)^k G(d), G(d) = d - T(d), T(d) = (2/pi)
    atan(g Q(y)/2), y = k + d/2; |T'| <= (psi(y + 1) - psi(y + 1/2))/(2 pi) <=
    ln2/pi, so the root lies within |G(d)|/(1 - ln2/pi) of any d.  Secant steps
    from the last excited root's d (or 0) give d; _walk closes the root within
    nu +- r, r that radius plus _ALLOWANCE ulps of nu, else ITP on the whole
    bracket does.  The ground root keeps its whole bracket: its map contracts
    only by about 1/2 for g < 0, and for g > 0 rounding spans several ulps of
    nu < 1.

    Domain: g must be finite.  For g < 0 the lowest level sits near
    -g^2/2, inside the search edge -2 g^2, so |g| past about 9.48e153
    (where 2 g^2 leaves the double range) raises BracketError.  n_states
    must be an integer of at least 1; the mpmath root gate covers
    n_states up to 500.
    """
    n_states = _n_states(n_states)
    if not math.isfinite(g):
        raise ValueError("coupling must be finite")
    func = lambda nu: eigen_equation(nu, g)
    states, d = [], 0.0
    for k, (lo, hi) in enumerate(_bracket_even_roots(g, n_states)):
        walked = k > 0 and _walk(func, k, *_estimate(g, k, d, lo, hi), lo, hi)
        nu, bracket = walked or _refine_root(func, lo, hi)
        d = nu - 2.0 * k if k > 0 else 0.0
        states.append(EigenSolution("even", nu, 2 * k, bracket))
    return states


def solve_odd(n_states):
    """Odd-parity levels nu = 1, 3, 5, ...; the contact term cannot shift them."""
    return [EigenSolution("odd", 2.0 * j + 1.0, 2 * j + 1) for j in range(_n_states(n_states))]


def full_spectrum(g, n_states):
    """Lowest n_states states of both parities, ordered by energy.

    The parity alternates even, odd, even, ... by construction: each even
    root lies in its own bracket, between the odd levels around it, and
    the refiner returns a point of that bracket.  n_states is checked as
    in solve_even.
    """
    n = _n_states(n_states)
    states = [None] * n
    states[::2] = solve_even(g, (n + 1) // 2)
    states[1::2] = solve_odd(n // 2) if n >= 2 else []
    return states


def bound_state_asymptote(g):
    """Deep-well energy estimate epsilon = -g*g/2 for attractive coupling.

    For a float g that is the double -0.5 * g * g; a Decimal g stays a Decimal.
    """
    if not g < 0.0:
        raise ValueError("the asymptote applies to attractive coupling only (g < 0)")
    return -(g / 2) * g

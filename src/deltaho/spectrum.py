"""Bound-state spectrum of the oscillator with a contact term at the origin.

Even-parity levels solve the kink condition at the origin, written as a
transcendental equation in sincospi, one exact argument reduction for
sin(pi x) and cos(pi x), and the Gamma ratio gamma_ratio, built on the
standard library's math.gamma; wavefunction.jump_check checks the kink
itself on the D_nu route, which shares none of it.  Odd-parity levels
vanish at the origin and stay at their unperturbed positions.  States
are labeled by the real quantum number nu, with dimensionless energy
epsilon = nu + 1/2 in oscillator units.  Every even root is closed by
one sign walk from an estimate (see solve_even).
"""

import math
import operator

from .errors import BracketError, ConvergenceError


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

    Odd states pass.  An even state passes when its walk's last bracket holds
    nu, spans at most 4 ulps, and eigen_equation, deterministic and finite,
    changes sign or vanishes across it: exact, with no scale or tolerance.
    """
    if sol.parity == "odd":
        return
    if sol.bracket is not None:
        lo, hi = sol.bracket
        ends = (eigen_equation(lo, g), eigen_equation(hi, g))
        width_ok = hi - lo <= 4.0 * math.ulp(min(abs(lo), abs(hi)))  # the walk's stop
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


def _estimate(g, k, d, lo, hi):
    """nu near even root k (see solve_even); the secant on G starts at offset d."""
    if k == 0 and g < 0.0:
        b, top = -g, -0.5 * lo  # y = -nu/2 in (0, top) solves 2 y Q(y) = b
        clamp = lambda y: 5e-324 if y < 5e-324 else top if y > top else y
        h = lambda y: math.log(2.0 * (y / b) * gamma_ratio(y))  # rises in ln y
        # 2y = b sqrt(y + 1/pi), as Q(y) ~ 1/sqrt(y + 1/pi) at both ends: y -> b/(2 sqrt(pi))
        # as b -> 0 and y -> b^2/4 as b grows; the first slope is that model's
        y1 = clamp(b / 8.0 * (b + math.sqrt(b * b + 16.0 / math.pi)))
        h1, slope = h(y1), 1.0 - 0.5 * y1 / (y1 + 1.0 / math.pi)
        # steps in ln y, each applied to y as a factor, until |h| is 4 ulps of y, inside
        # h's own rounding (up to 4 ulps of 1, from gamma_ratio's error); after the first,
        # each takes the secant's slope, held to (1/2, 1], where the slope lies
        for _ in range(7):
            if (h1 if h1 > 0.0 else -h1) <= 4.0 * math.ulp(y1) / y1:
                break
            y0, h0, y1 = y1, h1, clamp(y1 * math.exp(-h1 / slope))
            h1 = h(y1)
            if h1 == h0:
                break
            slope = min(1.0, max(0.5, (h1 - h0) / math.log(y1 / y0)))
        # one more step; at slope 1 it is g/Q(y1), below -2 y1 at the floor
        return -2.0 * y1 * math.exp(-h1 / slope)
    a, c, lo, hi = 0.5 * g, 2.0 / math.pi, lo - 2.0 * k, hi - 2.0 * k  # the bracket in d
    gap = lambda d: d - c * math.atan(a * gamma_ratio(k + 0.5 * d))  # G(d)
    d0, g0 = d, gap(d)
    d1, g1 = d0 - g0, gap(d0 - g0)  # T(d), which has g's sign and so lies in the bracket
    # secant steps, most stopped once |G| is an ulp of nu; a ground root's at 4 ulps, inside
    # G's own rounding (up to 6 ulps of nu < 1, from gamma_ratio's error)
    for _ in range(6):
        if (g1 if g1 > 0.0 else -g1) <= (1.0 if k else 4.0) * math.ulp(2.0 * k + d1) or g1 == g0:
            break
        d = lo if (d := d1 - g1 * (d1 - d0) / (g1 - g0)) < lo else hi if d > hi else d
        d0, g0, d1, g1 = d1, g1, d, gap(d)
    return 2.0 * k + d1


def _refine_root(func, k, nu, lo, hi):
    """Root k of func in [lo, hi] and its last bracket, by a sign walk from nu.

    The walk starts at nu, moved inside (lo, hi) if it is an end where func
    is not 0.0.  The first step is 4 ulps toward the root; each step that
    keeps the sign doubles, held to [lo, hi], and the one that changes it
    is halved back until the bracket spans at most 4 ulps of its end nearer
    zero, a stop relative to the root even at 1e-300.  Returns the end
    inside (lo, hi) with the smaller |func|, the walk's own side on a tie,
    or a point where func is 0.0; BracketError if the walk reaches lo or hi
    with no sign change.
    """
    x = nu if lo < nu < hi else math.nextafter(nu, hi if nu == lo else lo)  # inside (lo, hi)
    f = func(x)
    if f == 0.0:  # as at g = 0 on 5e-324, the double next to the ground root 0
        x = nu if x != nu and func(nu) == 0.0 else x
        return x, (x, x)
    up = (f > 0.0) == (k % 2 == 1)  # toward the root: (-1)^k f has the sign of G, which rises
    end, step = (hi, 4.0 * math.ulp(x)) if up else (lo, -4.0 * math.ulp(x))
    while True:
        x1 = end if (x + step > end) == up else x + step
        if x1 == x:
            raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")
        f1 = func(x1)
        if f1 == 0.0:
            return x1, (x1, x1)
        if (f1 > 0.0) != (f > 0.0):
            break
        x, f, step = x1, f1, 2.0 * step
    # 4 ulps of the end nearer zero, which the bracket never straddles
    while (x1 - x if up else x - x1) > 4.0 * math.ulp(x if (x >= 0.0) == up else x1):
        m = x + 0.5 * (x1 - x)
        f_m = func(m)
        if f_m == 0.0:
            return m, (m, m)
        if (f_m > 0.0) == (f > 0.0):
            x, f = m, f_m
        else:
            x1, f1 = m, f_m
    return (x1 if lo < x1 < hi and abs(f1) < abs(f) else x), ((x, x1) if up else (x1, x))


def solve_even(g, n_states):
    """Lowest n_states even-parity solutions for coupling g, ordered by energy.

    Returns records carrying full-spectrum indices 0, 2, 4, since one odd
    level falls between consecutive even ones, and their walks' last
    brackets.

    Each root starts from an estimate.  With nu = 2k + d, |d| < 1,
    eigen_equation has the sign of (-1)^k G(d), G(d) = d - T(d), T(d) = (2/pi)
    atan(g Q(y)/2), y = k + d/2; for y >= 0, |T'| <= (psi(y + 1) - psi(y +
    1/2))/(2 pi) <= ln2/pi, so G rises and the root lies within |G(d)|/(1 -
    ln2/pi) of any d.  Secant steps from the last excited root's d (or 0)
    give d, for the ground root too when g >= 0 (y = d/2 >= 0).  For g < 0
    the ground root is nu = -2y with 2y Q(y) = -g, and ln(2y Q(y)) rises in
    ln y with slope 1 - y (psi(y + 1) - psi(y + 1/2)), in (1/2, 1]; secant
    steps in ln y from y = -g/(2 sqrt(pi)), its root as g -> 0, give y.
    _refine_root then walks from nu to the sign change, whose side the sign
    at nu and the parity of k give.

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
        nu, bracket = _refine_root(func, k, _estimate(g, k, d, lo, hi), lo, hi)
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
    the walk returns a point of that bracket.  n_states is checked as
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

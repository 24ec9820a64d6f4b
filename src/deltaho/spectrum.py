"""Bound-state spectrum of the oscillator with a contact term at the origin.

Even-parity levels solve a transcendental equation built from Gamma
factors; odd-parity levels vanish at the origin and stay at their
unperturbed positions.  States are labeled by the real quantum number nu,
with dimensionless energy epsilon = nu + 1/2 in oscillator units.
"""

import math
import operator

from .errors import BracketError, ConvergenceError
from .specfun import cospi, gamma_ratio, kummer_u_half_origin, sinpi

_EPS = math.ulp(1.0)
_MAX_STEPS = 200  # a guard: refinement needs at most about 60 evaluations per root


class EigenSolution:
    """One stationary state: parity branch, quantum label, spectral position."""

    __slots__ = ("parity", "nu", "index")

    def __init__(self, parity, nu, index):
        if parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        if index < 0:
            raise ValueError("index must be nonnegative")
        if not math.isfinite(nu):
            raise ValueError(f"nu must be finite, got nu={nu!r}")
        if parity == "odd":
            n = int(nu)
            if nu != n or n < 1 or n % 2 == 0:
                raise ValueError("odd-parity nu must be a positive odd integer")
        self.parity = parity
        self.nu = nu
        self.index = index

    @property
    def epsilon(self):
        """Dimensionless energy, exactly nu + 1/2."""
        return self.nu + 0.5


class SolverConfig:
    """How many levels to return; the coupling g is the only other input.

    Domain: g must be finite.  For g < 0 the lowest level sits near -g^2,
    so |g| past about 9.48e153 (where 2 g^2 leaves the double range)
    raises BracketError.  n_states must be at least 1; the mpmath root
    gate covers n_states up to 500.  `deltaho solve` reports kink
    residuals only up to about state 343, where the wavefunction's
    origin values leave the double range.
    """

    __slots__ = ("n_states",)

    def __init__(self, n_states=5):
        try:
            n_states = operator.index(n_states)
        except TypeError:
            raise ValueError(f"n_states must be an integer, got {n_states!r}") from None
        if n_states < 1:
            raise ValueError("n_states must be at least 1")
        self.n_states = n_states


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
        return (2.0 * sinpi(y) - g * cospi(y) * gamma_ratio(y)) / math.pi
    return nu - g / gamma_ratio(-0.5 * nu)


def jump_check(nu, g):
    """Residual of the derivative-jump condition at the origin.

    The even extension gives psi'(0-) = -psi'(0+), so the condition reads
    2 psi'(0+) = 2 g psi(0).  Both sides come from analytic origin limits;
    finite differences across the kink would converge far too slowly.
    Zero within 1e-8 exactly when nu solves the eigenvalue equation at
    this coupling, a finite positive value otherwise.
    """
    value, slope = kummer_u_half_origin(nu)
    return abs(2.0 * slope - 2.0 * g * value)


def _bound_lower_edge(g):
    # the condition is negative at nu = -2M, M = max(1, g^2), for g < 0:
    # -2M + |g| Gamma(M+1)/Gamma(M+1/2) < -2M + sqrt(M(M+1)) < 0
    lo = -2.0 * max(1.0, g * g)
    if not math.isfinite(lo):
        # the bound level sits near -g^2, past the double range
        raise BracketError(
            f"bound-state search edge overflows for g={g!r}; "
            "the coupling is too strong to represent the lowest level"
        )
    return lo


def bracket_even_roots(g, n_states):
    """Disjoint intervals, one per even-parity root, lowest first.

    For g > 0 the k-th root sits strictly inside (2k, 2k+1).  For g < 0
    there is a single negative root, inside (-2*max(1, g^2), 0); the
    remaining roots sit in (2k-1, 2k).
    """
    if not math.isfinite(g) or g == 0.0:
        raise ValueError("bracketing needs a finite nonzero coupling")
    if n_states < 1:
        raise ValueError("n_states must be at least 1")
    if g > 0.0:
        return [(2.0 * k, 2.0 * k + 1.0) for k in range(n_states)]
    out = [(_bound_lower_edge(g), 0.0)]
    out.extend((2.0 * k - 1.0, 2.0 * k) for k in range(1, n_states))
    return out


def _refine_root(func, lo, hi):
    """Bisection with interleaved secant steps, confined to the bracket.

    Even-numbered steps always bisect, so the width at least halves every
    other step regardless of how the secant behaves.  Stops at a width of
    a few ulps; a bracket still wider after _MAX_STEPS steps raises
    ConvergenceError.
    """
    f_lo = func(lo)
    f_hi = func(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")
    for step in range(_MAX_STEPS):
        if hi - lo <= 6.0 * _EPS * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if step % 2 == 1:
            cand = lo - f_lo * (hi - lo) / (f_hi - f_lo)
            if lo < cand < hi:
                mid = cand
        f_mid = func(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_hi > 0.0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    raise ConvergenceError(
        f"bracket still {hi - lo:.3e} wide after {_MAX_STEPS} refinement steps"
    )


def solve_even(g, cfg=None):
    """Lowest even-parity solutions for coupling g, ordered by energy.

    Returns cfg.n_states records carrying full-spectrum indices 0, 2, 4,
    since one odd level falls between consecutive even ones.  g = 0 is an
    exact special case: the equation degenerates and the unperturbed
    labels 0, 2, 4, ... are returned without root finding.
    """
    cfg = SolverConfig() if cfg is None else cfg
    if not math.isfinite(g):
        raise ValueError("coupling must be finite")
    if g == 0.0:
        return [EigenSolution("even", 2.0 * k, 2 * k) for k in range(cfg.n_states)]
    func = lambda nu: eigen_equation(nu, g)
    brackets = bracket_even_roots(g, cfg.n_states)
    return [EigenSolution("even", _refine_root(func, lo, hi), 2 * k)
            for k, (lo, hi) in enumerate(brackets)]


def solve_odd(n_states):
    """Odd-parity levels nu = 1, 3, 5, ...; the contact term cannot shift them."""
    if n_states < 1:
        raise ValueError("n_states must be at least 1")
    return [EigenSolution("odd", 2.0 * j + 1.0, 2 * j + 1) for j in range(n_states)]


def full_spectrum(g, cfg=None):
    """Lowest cfg.n_states states of both parities, ordered by energy.

    Along the merged list the parity alternates even, odd, even, ...; a
    violation would mean an even root escaped its bracket, so the pattern
    is checked rather than assumed.
    """
    n = (SolverConfig() if cfg is None else cfg).n_states
    merged = solve_even(g, SolverConfig(n_states=(n + 1) // 2))
    if n >= 2:
        merged = merged + solve_odd(n // 2)
    merged.sort(key=lambda s: s.epsilon)
    for position, sol in enumerate(merged):
        if sol.index != position:
            raise BracketError(
                f"state ordering broke at position {position}: expected "
                f"index {position}, found {sol.parity} nu={sol.nu!r}"
            )
    return merged


def bound_state_asymptote(g):
    """Deep-well energy estimate epsilon = -g*g/2 for attractive coupling."""
    if not g < 0.0:
        raise ValueError("the asymptote applies to attractive coupling only (g < 0)")
    return -0.5 * g * g

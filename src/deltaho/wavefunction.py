"""Eigenfunction evaluation, sampling, normalization, and overlaps.

Even states are e^(-y^2/2) U(-nu/2, 1/2, y^2) extended symmetrically, so a
nonzero coupling leaves a kink at the origin.  They are evaluated over
arrays of points as parabolic cylinder functions D_nu, by one integral and
the order recurrence; jump_check reads the kink condition off that same
route, which has no Gamma ratio in common with spectrum.eigen_equation.
Odd states are the plain oscillator functions e^(-y^2/2) H_n(y), also
evaluated over arrays of points, and never feel the contact term.
Amplitudes are fixed by unit L2 norm with a positive value just right of
the origin.
"""

import math
import sys

import numpy as np

from .errors import InsufficientDomainError

# exp(-y^2/2) is unrepresentable long before this; states return 0 past
# it, whatever a huge-order Hermite factor does out there
_GAUSSIAN_FLOOR = 700.0

_DECAY_FRACTION = 1e-12
_MAX_WIDENINGS = 12

# eval_even's integral: its order is -16 or below, its nodes keep t^c down
# to e^-60 of the peak and reach at least 12 peak widths to either side
_MIN_ORDER = 16.0
_LEFT_TAIL = 60.0
_SPAN = 12
_ROWS = 8  # trapezoid nodes per array block


class GridFunction:
    """A real function sampled on the symmetric grid [-half_width, half_width].

    values holds the samples, ends included: an odd number, at least 3,
    so that one sits on the origin.  n_points and delta_y follow from
    them; values are read-only.
    """

    __slots__ = ("half_width", "values")

    def __init__(self, half_width, values):
        if not 0.0 < 2.0 * half_width < math.inf:
            raise ValueError(f"need 0 < 2 half_width < inf, got half_width={half_width!r}")
        values = np.array(values, dtype=float)
        if values.ndim != 1 or values.size < 3 or values.size % 2 == 0:
            raise ValueError(f"values must be 1-D with an odd size >= 3, got shape {values.shape}")
        values.setflags(write=False)
        self.half_width = half_width
        self.values = values

    @property
    def n_points(self):
        return self.values.size

    @property
    def delta_y(self):
        return 2.0 * self.half_width / (self.n_points - 1)

    def points(self):
        # exactly mirrored coordinates and an exact zero at the center
        n = self.n_points
        return (np.arange(n) - (n - 1) // 2) * self.delta_y


def eval_even(nu, y):
    """Unnormalized even-branch eigenfunction e^(-y^2/2) U(-nu/2, 1/2, y^2).

    That is 2^(-nu/2) D_nu(sqrt(2)|y|) (DLMF 12.7.14), built from |y|, so
    the extension to y < 0 is even by construction.  y is a float or an
    array of points; the result has its shape.

    D_p is minimal as p -> -inf, so the order recurrence D_(p+1)(x) =
    x D_p(x) - p D_(p-1)(x) is stable upward.  It climbs to nu from
    D_(-c) and D_(-c-1), c = m - nu >= 16 for an integer m >= 0, given by
    the integral (DLMF 12.5.1)

        D_(-c)(x) = e^(-x^2/4)/Gamma(c) * int_0^inf t^(c-1) e^(-t^2/2 - x t) dt

    and the same with one more factor t.  Both share one trapezoid rule in
    s = ln t, centred on the peak t* = (sqrt(x^2 + 4c) - x)/2 with step
    half the peak width 1/sqrt(t*^2 + c); the nodes run 12 widths above
    the peak and, below it, until t^c has fallen by e^-60 (and at least
    12 widths).  Starting at c >= 16 keeps that left tail short.  Nodes
    are evaluated in blocks and summed in node order, row by row.

    Raises ValueError for a non-finite nu, and OverflowError, without
    evaluating, once the origin value (about Gamma(nu/2 + 1/2) in size,
    or its reciprocal for nu < 0) leaves the double range, past |nu| ~ 342.
    """
    if not math.isfinite(nu):
        raise ValueError(f"even-branch order must be finite, got nu={nu!r}")
    if math.lgamma(0.5 * abs(nu) + 0.5) > math.log(sys.float_info.max):
        raise OverflowError(f"even state nu={nu!r}: its origin value leaves the double range")
    y = np.asarray(y, dtype=float)
    # quietly: a far-out y may square to inf (it returns 0), and for large
    # nu the recurrence may overflow, which normalize then refuses
    with np.errstate(over="ignore", invalid="ignore"):
        z = y * y
        x = np.sqrt(2.0 * np.minimum(z, _GAUSSIAN_FLOOR))
        m = max(0, math.ceil(nu + _MIN_ORDER))
        c = m - nu
        t_peak = 2.0 * c / (np.sqrt(x * x + 4.0 * c) + x)
        width = 1.0 / np.sqrt(t_peak * t_peak + c)
        step = 0.5 * width
        below = math.ceil(2.0 * float(np.max(_LEFT_TAIL / (c * width), initial=_SPAN)))
        peak = t_peak * (0.5 * t_peak + x)  # t^2/2 + x t at the peak
        c_step = c * step
        sum0 = np.zeros_like(x)
        sum1 = np.zeros_like(x)
        nodes = np.arange(-below, 2 * _SPAN + 1.0).reshape((-1,) + (1,) * x.ndim)
        for first in range(0, len(nodes), _ROWS):
            j = nodes[first:first + _ROWS]
            t = t_peak * np.exp(j * step)
            f = np.exp(j * c_step - t * (0.5 * t + x) + peak)
            tf = t * f
            for r in range(len(j)):  # in node order: a reduce may reorder
                sum0 += f[r]
                sum1 += tf[r]
        log_scale = c * np.log(t_peak) - peak - 0.25 * x * x
        scale = step * np.exp(log_scale - math.lgamma(c) - 0.5 * nu * math.log(2.0))
        prev, cur = scale * sum1 / c, scale * sum0  # 2^(-nu/2) D_(nu-m-1), D_(nu-m)
        for k in range(m, 0, -1):
            prev, cur = cur, x * cur - (nu - k) * prev
        out = np.where(z > _GAUSSIAN_FLOOR, 0.0, cur)
    return out if out.ndim else float(out)


def eval_odd(n, y):
    """Unnormalized odd oscillator eigenfunction e^(-y^2/2) H_n(y).

    y is a float or an array of points; the result has its shape.  H_n
    comes from the three-term recurrence over the whole array, the same
    IEEE operations per point as a scalar loop.  Past n = 181 it leaves
    the double range where y^2 <= 700, and the samples turn NaN.
    """
    order = int(n)
    if n != order or order < 1 or order % 2 == 0:
        raise ValueError("odd-branch order must be a positive odd integer")
    y = np.asarray(y, dtype=float)
    # quietly: a far-out y may square to inf, and past n = 181 H_n overflows
    with np.errstate(over="ignore", invalid="ignore"):
        z = y * y
        two_y = 2.0 * y
        h_prev, h = 1.0, two_y
        for k in range(1, order):
            h_prev, h = h, two_y * h - 2.0 * k * h_prev
        # math.exp, not np.exp, which is 1 ulp off at about 5 % of points
        gauss = np.fromiter(map(math.exp, (-0.5 * z).ravel().tolist()), float, z.size)
        out = np.where(z > _GAUSSIAN_FLOOR, 0.0, gauss.reshape(z.shape) * h)
    return out if out.ndim else float(out)


def jump_check(nu, g):
    """Relative residual of the kink condition psi'(0+) = g psi(0) at an even level nu.

    psi(0) = eval_even(nu, 0), and psi'(0+) = -2 eval_even(nu + 1, 0) by
    D'_nu(0) = -D_(nu+1)(0) (DLMF 12.8.2); the condition is the jump
    psi'(0+) - psi'(0-) = 2 g psi(0) of the even extension.  Returns
    |psi'(0+) - g psi(0)| / max(|psi'(0+)|, |g psi(0)|), or 0.0 where both
    sides vanish.  Past about nu = 341 eval_even raises OverflowError.
    """
    slope = -2.0 * eval_even(nu + 1.0, 0.0)
    value = eval_even(nu, 0.0)
    # the ratio is the same with both sides divided by g, and g psi(0)
    # may overflow where psi'(0+) / g cannot
    lhs, rhs = (slope / g, value) if abs(g) > 1.0 else (slope, g * value)
    scale = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale if scale > 0.0 else 0.0


def _simpson_weights(f):
    w = np.ones(f.n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (f.delta_y / 3.0)


def normalize(f):
    """Scale a sampled state to unit L2 norm under composite Simpson.

    Returns the scaled function and the original norm.  The grid must hold
    the whole state: both endpoint samples have to sit below 1e-12 of the
    peak magnitude, otherwise the tail is truncated and the norm is a lie.
    Samples are scaled by 2^-e, with 2^e just above the peak, before
    squaring; being exact, that keeps the bits wherever the unscaled
    squares fit the double range.  A NaN or infinite sample, or a norm
    past the double range, raises OverflowError.
    """
    peak = float(np.max(np.abs(f.values)))
    if not math.isfinite(peak):
        raise OverflowError(f"state peak is {peak!r}: a sample leaves the double range")
    if peak == 0.0:
        raise InsufficientDomainError("cannot normalize an all-zero grid")
    edge = max(abs(float(f.values[0])), abs(float(f.values[-1])))
    if edge > _DECAY_FRACTION * peak:
        raise InsufficientDomainError(
            f"state has not decayed at the grid edge: edge/peak = {edge / peak:.2e}"
        )
    weights = _simpson_weights(f)
    e = math.frexp(peak)[1]
    scaled = np.ldexp(f.values, -e)
    norm = math.ldexp(math.sqrt(float(weights @ (scaled * scaled))), e)
    return GridFunction(f.half_width, f.values / norm), norm


def sample_state(sol):
    """Normalized eigenfunction samples, positive just right of the origin.

    The first window is [-10, 10] at spacing dy = 0.01: 2001 samples, ends
    included, one on the origin.  That spacing resolves every state of the
    domain below.  In units of the state's shortest length 1/sqrt(2|nu| + 1)
    (the wavelength over 2 pi at the origin or, for a deep state at g < 0,
    the decay length 1/|g|), dy*sqrt(2|nu| + 1) is at most 0.262 for an
    even state (at |nu| = 342.25) and 0.19 for an odd one (at n = 181).
    At 0.3 the ground state's peak would be off by 4.1e-13 relative.

    When the window cannot hold the state's tails, it grows by half steps
    of the same spacing until the decay check passes.  Widening keeps the
    half-interval count even, which pins the origin to a Simpson panel
    boundary so the kink never sits inside a panel.  The spacing never
    changes, so the samples of a narrower window are kept and each
    widening evaluates only the points it adds, in one array call.

    Domain: even states with |nu| below about 342 (eval_even refuses the
    rest with OverflowError) and odd states up to n = 181 (past it the
    Hermite factor overflows and normalize refuses with OverflowError).
    """
    half = 1000
    step = 10.0 / half
    evaluate, mirror = (eval_even, 1.0) if sol.parity == "even" else (eval_odd, -1.0)
    right = np.empty(0)  # raw samples at i * step; the left half mirrors them
    for _ in range(_MAX_WIDENINGS + 1):
        right = np.concatenate((right, evaluate(sol.nu, np.arange(len(right), half + 1) * step)))
        # orient before normalizing: the norm is positive, so dividing by
        # it keeps every sign, and negating first is exact
        sign = next((math.copysign(1.0, v) for v in right[1:] if v != 0.0), 1.0)
        raw = sign * right
        values = np.concatenate((mirror * raw[:0:-1], raw))
        try:
            return normalize(GridFunction(half * step, values))[0]
        except InsufficientDomainError:
            half = math.ceil(1.5 * half)
            half += half % 2
    raise InsufficientDomainError(
        f"state nu={sol.nu!r} still not contained after {_MAX_WIDENINGS} widenings"
    )


def orthogonality(a, b):
    """Simpson inner product of two states sampled on the same grid."""
    if (a.half_width, a.n_points) != (b.half_width, b.n_points):
        raise ValueError("grids differ; the overlap integral is undefined")
    weights = _simpson_weights(a)
    return float(weights @ (a.values * b.values))

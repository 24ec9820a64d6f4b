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

# eval_even returns 0 past y^2 = _EVEN_FLOOR, where exp(-y^2/2) underflows and
# |nu| < 342 states are below e^-200 of their peak; eval_odd past _ODD_FLOOR,
# before H_n can overflow and past y = 23.1, where n <= _ODD_MAX states are below 1e-12
_EVEN_FLOOR = 1490.0
_ODD_FLOOR = 700.0
_ODD_MAX = 189

_DECAY_FRACTION = 1e-12
_REACH = 0.4 - math.log(_DECAY_FRACTION)  # sample_state's L = 28, margin included

# eval_even's integral: order -16 or below, nodes _STEP of the narrowest peak width
# apart, cut below e^-_TAIL of each point's peak, summed _CHUNK points at a time
_MIN_ORDER = 16.0
_TAIL = 37.0
_STEP = 0.5
_CHUNK = 256


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
    s = ln t over phi(s) = c s - e^(2s)/2 - x e^s, whose peak
    t* = (sqrt(x^2 + 4c) - x)/2 has width w = 1/sqrt(t*^2 + c).  The nodes
    s = ln t_0 + j h depend on nu alone: t_0 = sqrt(c), the peak at x = 0,
    puts y = 0 on a node, and h is half the width there, the narrowest.  A
    point's cut keeps phi within 37 of its peak (e^-37 ~ 1e-16): above it
    phi'' <= -1/w^2, so sqrt(74) ~ 8.6 widths; below it the subtracted terms
    give back at most peak = t*^2/2 + x t*, so (37 + peak)/c.  For an
    integrand analytic in a strip of half-width d the rule's error is about
    cos(2d)^(-c/2) e^(-2 pi d/h) minimised over d (Trefethen & Weideman,
    SIAM Review 56 (2014) 385): e^-36 at c = 16, x = 0 and h = w/2, the
    worst case, and no more at any point, where h <= w/2.  Points go 256 at
    a time over the union of their cuts, one exp per node and point of phi
    less the point's peak value (e^phi overflows past c = 301), so a sample's
    last bits (a few 1e-15) depend on the other points of its chunk.

    A NaN point gives NaN.  Raises ValueError for a non-finite nu, and
    OverflowError without evaluating once the origin value (about
    Gamma(nu/2 + 1/2), or its reciprocal for nu < 0) leaves the double range,
    past |nu| = 342.25, and after evaluating if another sample is not finite
    (from nu = 341.85, where the peak near the turning point leaves it first).
    """
    if not math.isfinite(nu):
        raise ValueError(f"even-branch order must be finite, got nu={nu!r}")
    if math.lgamma(0.5 * abs(nu) + 0.5) > math.log(sys.float_info.max):
        raise OverflowError(f"even state nu={nu!r}: its origin value leaves the double range")
    y = np.asarray(y, dtype=float)
    # quietly: a far-out y may square to inf (it returns 0); an overflow is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        z = y * y
        x = np.sqrt(2.0 * np.minimum(z, _EVEN_FLOOR)).ravel()
        m = max(0, math.ceil(nu + _MIN_ORDER))
        c = m - nu
        t_peak = 2.0 * c / (np.sqrt(x * x + 4.0 * c) + x)
        peak = t_peak * (0.5 * t_peak + x)  # t^2/2 + x t at the peak
        t_0 = 2.0 * c / math.sqrt(4.0 * c)  # t_peak at x = 0 to the bit, so y = 0 is a node
        step = _STEP / math.sqrt(2.0 * c)  # _STEP of the peak width there
        rel = np.log(t_peak / t_0)
        low = np.floor((rel - (_TAIL + peak) / c) / step)
        high = np.ceil((rel + math.sqrt(2.0 * _TAIL) / np.sqrt(t_peak * t_peak + c)) / step)
        rows = np.arange(np.fmin.reduce(low, initial=0.0), np.fmax.reduce(high, initial=0.0) + 1.0)
        t = t_0 * np.exp(rows * step)
        # node j, t = t_0 e^(j h): phi - phi(peak) = (t, 1, j c h - t^2/2).(-x, peak - c rel, 1);
        # einsum calls no BLAS, so no thread count reorders a sum, and runs fastest on copied rows
        lattice = np.array((t, np.ones_like(t), rows * (c * step) - 0.5 * t * t)).T
        points = np.array((-x, peak - c * rel, np.ones_like(x)))
        sums, work = np.zeros((2, x.size)), np.empty(rows.size * min(x.size, _CHUNK))
        starts = range(0, x.size, _CHUNK)
        cuts = np.fmin.reduceat(low, starts) - rows[0], np.fmax.reduceat(high, starts) - rows[0]
        for start, lo, hi in zip(starts, *(cut.tolist() for cut in cuts)):
            if lo <= hi:  # else every point of the chunk is NaN: its sums stay 0, its scale NaN
                at, near = slice(start, start + _CHUNK), slice(int(lo), int(hi) + 1)
                f = work[: (near.stop - near.start) * x[at].size].reshape(-1, x[at].size)
                np.einsum("jk,ki->ji", lattice[near], points[:, at].copy(), out=f)
                np.exp(f, out=f)
                np.einsum("jk,ji->ki", lattice[near, :2], f, out=sums[:, at])  # sum t f, sum f
        log_scale = c * np.log(t_peak) - peak - 0.25 * x * x
        scale = step * np.exp(log_scale - math.lgamma(c) - 0.5 * nu * math.log(2.0))
        # 2^(-nu/2) D_(nu-m-1), D_(nu-m), climbed in place
        prev, cur = scale * sums[0] / c, scale * sums[1]
        for k in range(m, 0, -1):
            prev *= nu - k
            np.subtract(x * cur, prev, out=prev)
            prev, cur = cur, prev
        out = np.where(z > _EVEN_FLOOR, 0.0, cur.reshape(z.shape))
    if not np.all(np.isfinite(out) | np.isnan(y)):
        raise OverflowError(f"even state nu={nu!r}: a sample leaves the double range")
    return out if out.ndim else float(out)


def eval_odd(n, y):
    """Unnormalized odd oscillator eigenfunction e^(-y^2/2) H_n(y).

    y is a float or an array of points; the result has its shape.  H_n
    comes from the three-term recurrence over the whole array, the same
    IEEE operations per point as a scalar loop, times numpy's exp.  Past
    n = 181 it overflows somewhere in y^2 <= 700, where a non-finite sample
    raises OverflowError; up to n = 189 it fits inside sample_state's window.
    """
    order = int(n)
    if n != order or order < 1 or order % 2 == 0:
        raise ValueError("odd-branch order must be a positive odd integer")
    y = np.asarray(y, dtype=float)
    # quietly: a far-out y may square to inf, and H_n may overflow (refused below)
    with np.errstate(over="ignore", invalid="ignore"):
        z = y * y
        two_y = 2.0 * y
        h_prev, h = 1.0, two_y
        for k in range(1, order):
            h_prev, h = h, two_y * h - 2.0 * k * h_prev
        out = np.where(z > _ODD_FLOOR, 0.0, np.exp(-0.5 * z) * h)
    if not np.all(np.isfinite(out) | np.isnan(y)):
        raise OverflowError(f"odd state n={order}: H_n leaves the double range at a sample")
    return out if out.ndim else float(out)


def jump_check(nu, g):
    """Relative residual of the kink condition psi'(0+) = g psi(0) at an even level nu.

    psi(0) = eval_even(nu, 0), and psi'(0+) = -2 eval_even(nu + 1, 0) by
    D'_nu(0) = -D_(nu+1)(0) (DLMF 12.8.2); the condition is the jump
    psi'(0+) - psi'(0-) = 2 g psi(0) of the even extension.  Returns
    |psi'(0+) - g psi(0)| / max(|psi'(0+)|, |g psi(0)|), or 0.0 where both
    sides vanish.  Past nu = 341.25 (nu + 1 = 342.25) eval_even raises OverflowError.
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
    root = math.sqrt(float(weights @ (scaled * scaled)))
    if math.frexp(root)[1] + e > sys.float_info.max_exp:
        raise OverflowError(f"state norm {root!r} * 2**{e} leaves the double range")
    norm = math.ldexp(root, e)
    return GridFunction(f.half_width, f.values / norm), norm


def sample_state(sol):
    """Normalized eigenfunction samples, positive just right of the origin.

    One array call evaluates the right half of [-w, w] at spacing dy = 0.01,
    the origin included.  dy sqrt(2|nu| + 1), dy over the state's shortest
    length (the wavelength over 2 pi, or a deep state's decay length 1/|g|),
    is at most 0.262 (even, |nu| = 342.25) and 0.195 (odd, n = 189); at 0.3
    the ground state's peak would be off by 4.1e-13 relative.

    w comes from nu.  For y > 0, psi'' = (y^2 - y0^2) psi, y0 = sqrt(max(2 nu + 1, 0)),
    and past y0 -psi'/psi >= sqrt(y^2 - y0^2) (Riccati comparison; Olver,
    Asymptotics and Special Functions, ch. 6), so |psi(y0 + d)| <= peak e^-I with
    I = int_y0^(y0+d) sqrt(s^2 - y0^2) ds >= max(d^2/2, (2/3) sqrt(2 y0) d^1.5).
    I >= L = 28 (-ln 1e-12 plus a margin for a sampled peak at most 1 % low) once
    d = min(sqrt(2 L), (3 L / (2 sqrt(2 y0)))^(2/3)).  w = max(10, y0 + d), so
    low states share [-10, 10], rounded up to an even interval count: the
    origin sits on a Simpson panel boundary.  normalize still checks the decay.

    Domain: even nu in (-342.25, 341.74) and odd n up to 189.  Past them the
    norm or a sample leaves the double range, and normalize or eval_even
    raises OverflowError; an odd n past 189 is refused before evaluating.
    """
    if sol.parity == "odd" and sol.index > _ODD_MAX:
        raise OverflowError(f"odd state n={sol.index} > {_ODD_MAX}: H_n leaves the double range")
    step = 0.01
    y0 = math.sqrt(max(2.0 * sol.nu + 1.0, 0.0))
    d = math.sqrt(2.0 * _REACH)
    if y0 > 0.0:
        d = min(d, (1.5 * _REACH / math.sqrt(2.0 * y0)) ** (2.0 / 3.0))
    # past the even floor every sample is 0, so an absurd nu asks for no more
    half = 2 * max(500, math.ceil(min(y0 + d, math.sqrt(_EVEN_FLOOR)) / (2.0 * step)))
    evaluate, mirror = (eval_even, 1.0) if sol.parity == "even" else (eval_odd, -1.0)
    right = evaluate(sol.nu, np.arange(half + 1) * step)  # the left half mirrors it
    # orient before normalizing: the norm is positive, so dividing by it
    # keeps every sign, and negating first is exact
    sign = next((math.copysign(1.0, v) for v in right[1:] if v != 0.0), 1.0)
    raw = sign * right
    values = np.concatenate((mirror * raw[:0:-1], raw))
    return normalize(GridFunction(half * step, values))[0]


def orthogonality(a, b):
    """Simpson inner product of two states sampled on the same grid."""
    if (a.half_width, a.n_points) != (b.half_width, b.n_points):
        raise ValueError("grids differ; the overlap integral is undefined")
    weights = _simpson_weights(a)
    return float(weights @ (a.values * b.values))

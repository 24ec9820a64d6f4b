"""Eigenfunction evaluation, sampling, normalization, and overlaps.

Even states are e^(-y^2/2) U(-nu/2, 1/2, y^2) extended symmetrically, so a
nonzero coupling leaves a kink at the origin (its residual is
spectrum.jump_check, next to the eigen condition); odd states are the plain
oscillator functions e^(-y^2/2) H_n(y) and never feel the contact term.
Amplitudes are fixed by unit L2 norm with a positive value just right of
the origin.
"""

import dataclasses
import math

import numpy as np

from .errors import InsufficientDomainError
from .specfun import hermite, kummer_u_half

# exp(-y^2/2) is unrepresentable long before this; returning 0 instead of
# evaluating keeps huge-order Hermite values from overflowing first
_GAUSSIAN_FLOOR = 700.0

_DECAY_FRACTION = 1e-12
_MAX_WIDENINGS = 12


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Uniform sampling window, endpoints included."""

    y_min: float = -10.0
    y_max: float = 10.0
    n_points: int = 2001

    def __post_init__(self):
        if not self.y_max > self.y_min:
            raise ValueError("y_max must exceed y_min")
        if self.n_points < 3:
            raise ValueError("n_points must be at least 3")


def _grid_points(y_min, y_max, n_points):
    # symmetric odd grids get exactly mirrored coordinates and an exact
    # zero at the center; generic grids use the plain affine form
    step = (y_max - y_min) / (n_points - 1)
    if y_min == -y_max and n_points % 2 == 1:
        return (np.arange(n_points) - (n_points - 1) // 2) * step
    return y_min + np.arange(n_points) * step


@dataclasses.dataclass(frozen=True)
class GridFunction:
    """A real function sampled on a uniform grid; values are immutable."""

    y_min: float
    y_max: float
    n_points: int
    values: np.ndarray

    def __post_init__(self):
        if not self.y_max > self.y_min:
            raise ValueError("y_max must exceed y_min")
        if self.n_points < 3:
            raise ValueError("n_points must be at least 3")
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.n_points,):
            raise ValueError("values length must equal n_points")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def delta_y(self):
        return (self.y_max - self.y_min) / (self.n_points - 1)

    def points(self):
        return _grid_points(self.y_min, self.y_max, self.n_points)


def eval_even(nu, y):
    """Unnormalized even-branch eigenfunction at one point.

    Built from |y|, so the extension to y < 0 is even by construction.
    """
    z = y * y
    if z > _GAUSSIAN_FLOOR:
        return 0.0
    return math.exp(-0.5 * z) * kummer_u_half(nu, z)


def eval_odd(n, y):
    """Unnormalized odd oscillator eigenfunction e^(-y^2/2) H_n(y)."""
    order = int(n)
    if n != order or order < 1 or order % 2 == 0:
        raise ValueError("odd-branch order must be a positive odd integer")
    z = y * y
    if z > _GAUSSIAN_FLOOR:
        return 0.0
    return math.exp(-0.5 * z) * hermite(order, y)


def _simpson_weights(n_points, delta_y):
    if n_points % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of points")
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (delta_y / 3.0)


def normalize(f):
    """Scale a sampled state to unit L2 norm under composite Simpson.

    Returns the scaled function and the original norm.  The grid must hold
    the whole state: both endpoint samples have to sit below 1e-12 of the
    peak magnitude, otherwise the tail is truncated and the norm is a lie.
    """
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        raise InsufficientDomainError("cannot normalize an all-zero grid")
    edge = max(abs(float(f.values[0])), abs(float(f.values[-1])))
    if edge > _DECAY_FRACTION * peak:
        raise InsufficientDomainError(
            f"state has not decayed at the grid edge: edge/peak = {edge / peak:.2e}"
        )
    weights = _simpson_weights(f.n_points, f.delta_y)
    norm = math.sqrt(float(weights @ (f.values * f.values)))
    scaled = GridFunction(f.y_min, f.y_max, f.n_points, f.values / norm)
    return scaled, norm


def _sample_raw(sol, half, step):
    if sol.parity == "even":
        right = [eval_even(sol.nu, i * step) for i in range(half + 1)]
        left = [right[i] for i in range(half, 0, -1)]
    else:
        order = int(sol.nu)
        right = [eval_odd(order, i * step) for i in range(half + 1)]
        left = [-right[i] for i in range(half, 0, -1)]
    top = half * step
    return GridFunction(-top, top, 2 * half + 1, np.array(left + right))


def _oriented(f):
    center = (f.n_points - 1) // 2
    for v in f.values[center + 1 :]:
        if v != 0.0:
            if v < 0.0:
                return GridFunction(f.y_min, f.y_max, f.n_points, -f.values)
            return f
    return f


def sample_state(sol, grid_spec=None):
    """Normalized eigenfunction samples, positive just right of the origin.

    When the requested window cannot hold the state's tails, the window
    grows by half steps of the same spacing until the decay check passes.
    Widening keeps the half-interval count even, which pins the origin to
    a Simpson panel boundary so the kink never sits inside a panel.
    """
    spec = GridSpec() if grid_spec is None else grid_spec
    if spec.y_min != -spec.y_max or spec.n_points % 2 == 0:
        raise ValueError("state sampling needs a symmetric grid with odd points")
    half = (spec.n_points - 1) // 2
    step = spec.y_max / half
    for _ in range(_MAX_WIDENINGS + 1):
        try:
            scaled, _ = normalize(_sample_raw(sol, half, step))
        except InsufficientDomainError:
            half = math.ceil(1.5 * half)
            half += half % 2
            continue
        return _oriented(scaled)
    raise InsufficientDomainError(
        f"state nu={sol.nu!r} still not contained after {_MAX_WIDENINGS} widenings"
    )


def orthogonality(a, b):
    """Simpson inner product of two states sampled on the same grid."""
    if (a.y_min, a.y_max, a.n_points) != (b.y_min, b.y_max, b.n_points):
        raise ValueError("grids differ; the overlap integral is undefined")
    weights = _simpson_weights(a.n_points, a.delta_y)
    return float(weights @ (a.values * b.values))

"""Independent cross-check by brute force: finite differences plus bisection.

The dimensionless Hamiltonian is discretized on a symmetric grid with
Dirichlet walls, the contact term entering as a single on-site spike of
size g over the grid spacing.  Eigenvalues come from Sturm-sequence
bisection on the full matrix.  Parity labels come from the same Sturm
count run on the matrix's even and odd mirror blocks: the spike sits on
the centre node, so it enters the even block only, as in the continuum
problem.  Nothing here is shared with the analytic solver; agreement
between the two routes is the point of this module, so nothing here may
import from spectrum or wavefunction.
"""

import dataclasses
import math
import numbers

import numpy as np

_EPS = math.ulp(1.0)
_BISECT_TOL = 1e-10
# Half-width of the window in which a block's Sturm count must rise by one
# at a full-matrix eigenvalue.  It sits far above the count's backward
# error (eps * |H|, about 3e-11 at N = 4000) and the bisection width, and
# far below any level spacing the 1e-3 comparison gate can resolve.
_LABEL_WINDOW = 1e-6


@dataclasses.dataclass(frozen=True)
class OracleConfig:
    """Discretization knobs: window half-width and interval count."""

    half_width: float = 8.0
    n_intervals: int = 4000

    def __post_init__(self):
        if not math.isfinite(self.half_width):
            raise ValueError(f"half_width must be finite, got {self.half_width!r}")
        if self.half_width < 6.0:
            raise ValueError("half_width below 6 truncates the states under test")
        if not isinstance(self.n_intervals, numbers.Integral):
            raise ValueError(f"n_intervals must be an integer, got {self.n_intervals!r}")
        if self.n_intervals < 4 or self.n_intervals % 2 != 0:
            raise ValueError("n_intervals must be even (origin on a node) and >= 4")


@dataclasses.dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal operator; delta_y records the grid it came from."""

    diag: np.ndarray
    off: np.ndarray
    delta_y: float = math.nan

    def __post_init__(self):
        diag = np.array(self.diag, dtype=float)
        off = np.array(self.off, dtype=float)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diag must be a nonempty vector")
        if off.shape != (diag.size - 1,):
            raise ValueError("off must be one element shorter than diag")
        diag.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off", off)

    @property
    def size(self):
        return self.diag.size


@dataclasses.dataclass(frozen=True)
class OracleSpectrum:
    """Sorted eigenvalues with parity labels and the spacing that made them."""

    epsilons: tuple
    parities: tuple
    delta_y: float

    def __post_init__(self):
        eps = tuple(float(x) for x in self.epsilons)
        par = tuple(self.parities)
        # empty parities mark an eigenvalue-only run (classification skipped)
        if par and len(eps) != len(par):
            raise ValueError("epsilons and parities must have equal length")
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly increasing")
        if any(p not in ("even", "odd") for p in par):
            raise ValueError("parities must be 'even' or 'odd'")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "parities", par)


def build_hamiltonian(g, cfg=None):
    """Finite-difference Hamiltonian, already scaled so eigenvalues are epsilon.

    Interior nodes only (Dirichlet walls at +-half_width): diagonal
    1/dy^2 + y^2/2 with g/dy added on the origin node, off-diagonal
    -1/(2 dy^2).
    """
    cfg = OracleConfig() if cfg is None else cfg
    if not math.isfinite(g):
        raise ValueError("coupling must be finite")
    n = cfg.n_intervals
    delta = 2.0 * cfg.half_width / n
    ys = (np.arange(1, n) - n // 2) * delta
    diag = 1.0 / delta**2 + 0.5 * ys * ys
    diag[n // 2 - 1] += g / delta
    off = np.full(n - 2, -0.5 / delta**2)
    return Tridiagonal(diag, off, delta)


def count_below(h, x):
    """Number of eigenvalues of h strictly below x, by Sturm sign counting."""
    d = h.diag
    e = h.off
    pivmin = _EPS * max(1.0, float(np.max(np.abs(d - x))), float(np.max(np.abs(e))) if e.size else 0.0)
    # a pivot inside the pivmin band counts as negative (the standard
    # convention: it keeps the count monotone in x)
    q = d[0] - x
    if abs(q) < pivmin:
        q = -pivmin
    count = 1 if q < 0.0 else 0
    for i in range(1, d.size):
        q = d[i] - x - e[i - 1] * e[i - 1] / q
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def _gershgorin(h):
    pad = np.zeros(h.size)
    if h.size > 1:
        radius = np.abs(h.off)
        pad[:-1] += radius
        pad[1:] += radius
    return float(np.min(h.diag - pad)), float(np.max(h.diag + pad))


def _mirror_blocks(h):
    """The even and odd blocks of a mirror-symmetric h, keyed by parity.

    Mirror-symmetric and antisymmetric combinations of node pairs split h
    exactly into two blocks whose spectra make up the spectrum of h.  A
    1x1 matrix has no odd block.
    """
    d, e = h.diag, h.off
    if not (np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])):
        raise ValueError("matrix is not mirror-symmetric, so it has no parities")
    m = h.size
    c = m // 2
    if m == 1:
        return {"even": h}
    if m % 2:
        # the centre node joins the even block through sqrt(2) times its
        # bond; the odd combinations vanish on it
        even_off = e[c:].copy()
        even_off[0] *= math.sqrt(2.0)
        return {"even": Tridiagonal(d[c:], even_off), "odd": Tridiagonal(d[c + 1 :], e[c + 1 :])}
    # the bond across the centre adds to the even pair and subtracts
    # from the odd one
    even_diag = d[c:].copy()
    odd_diag = d[c:].copy()
    even_diag[0] += e[c - 1]
    odd_diag[0] -= e[c - 1]
    return {"even": Tridiagonal(even_diag, e[c:]), "odd": Tridiagonal(odd_diag, e[c:])}


def _parity(blocks, lam):
    rises = {
        parity: count_below(block, lam + _LABEL_WINDOW) - count_below(block, lam - _LABEL_WINDOW)
        for parity, block in blocks.items()
    }
    if sum(rises.values()) != 1:
        raise ValueError(
            f"eigenvalue {lam!r} has {sum(rises.values())} block eigenvalues "
            f"within {_LABEL_WINDOW:g}, not one; its parity is undefined"
        )
    return max(rises, key=rises.get)


def eigen_lowest(h, k, classify=True):
    """The k smallest eigenvalues, with parity labels unless classify is off.

    Bisection on the Sturm count of h brackets each eigenvalue to 1e-10
    absolute.  Each eigenvalue is then labelled by the mirror block whose
    own Sturm count rises by one within _LABEL_WINDOW of it.  Labelling
    raises ValueError when h is not mirror-symmetric, or when that window
    holds no block eigenvalue or more than one; pass classify=False to
    get the eigenvalues alone.
    """
    if not 1 <= k <= h.size:
        raise ValueError(f"need 1 <= k <= {h.size}, got {k}")
    blocks = _mirror_blocks(h) if classify else None
    glo, ghi = _gershgorin(h)
    eigenvalues = []
    lo_start = glo
    for j in range(1, k + 1):
        lo, hi = lo_start, ghi
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if count_below(h, mid) >= j:
                hi = mid
            else:
                lo = mid
        eigenvalues.append(0.5 * (lo + hi))
        lo_start = lo
    parities = tuple(_parity(blocks, lam) for lam in eigenvalues) if classify else ()
    return OracleSpectrum(tuple(eigenvalues), parities, h.delta_y)

"""Independent cross-check by brute force: finite differences plus Sturm counts.

The dimensionless Hamiltonian is discretized on a symmetric grid with
Dirichlet walls, the contact term entering as a single on-site spike of
size g over the grid spacing.  Eigenvalues come from Sturm counts on the
full matrix.  Every count of a call goes into one table, since it bounds
all the eigenvalues sought; bisection on counts isolates each eigenvalue,
and Newton steps on det(H - x) then narrow its count-certified bracket.
The steps take the determinant's log-derivative from the whole pivot
recurrence.  The last pivot alone, q_n = det(H - x)/det(H' - x) with H'
short of its last row and column, would not do: eigenvectors vanish like
e^-32 at the walls, so each zero of q_n sits next to a pole, closer than
a double resolves, and q_n keeps its sign across the eigenvalue.  Parity
labels come from the same Sturm count run on the matrix's even and odd
mirror blocks: the spike sits on the centre node, so it enters the even
block only, as in the continuum problem.  The Sturm recurrence is
sequential, so the module is plain Python on tuples of floats and loads
nothing beyond the standard library.  Nothing here is shared with the
analytic solver; agreement between the two routes is the point of this
module, so nothing here may import from spectrum, specfun or
wavefunction.
"""

import math
import operator

_EPS = math.ulp(1.0)
# width of the count-certified bracket at which an eigenvalue is done
_WIDTH_TOL = 1e-10
# counts this far either side of a converged Newton step close a bracket
# narrower than _WIDTH_TOL
_CLOSE_OFFSET = 0.4 * _WIDTH_TOL
# Half-width of the window in which a block's Sturm count must rise by one
# at a full-matrix eigenvalue.  It sits far above the count's backward
# error (eps * |H|, about 3e-11 at N = 4000) and the bracket width, and
# far below any level spacing the 1e-3 comparison gate can resolve.
_LABEL_WINDOW = 1e-6


class OracleConfig:
    """Discretization knobs: window half-width and interval count."""

    __slots__ = ("half_width", "n_intervals")

    def __init__(self, half_width=8.0, n_intervals=4000):
        # the potential y^2/2 reaches half_width^2/2 at the walls
        if not math.isfinite(half_width * half_width):
            raise ValueError(f"half_width must be finite with a finite square, got {half_width!r}")
        if half_width < 6.0:
            raise ValueError("half_width below 6 truncates the states under test")
        try:
            n_intervals = operator.index(n_intervals)
        except TypeError:
            raise ValueError(f"n_intervals must be an integer, got {n_intervals!r}") from None
        if n_intervals < 4 or n_intervals % 2 != 0:
            raise ValueError("n_intervals must be even (origin on a node) and >= 4")
        self.half_width = half_width
        self.n_intervals = n_intervals


class Tridiagonal:
    """Symmetric tridiagonal operator, held as tuples of floats."""

    __slots__ = ("diag", "off", "_extent")

    def __init__(self, diag, off):
        diag = tuple(map(float, diag))
        off = tuple(map(float, off))
        if not diag:
            raise ValueError("diag must be a nonempty vector")
        if len(off) != len(diag) - 1:
            raise ValueError("off must be one element shorter than diag")
        self.diag = diag
        self.off = off
        # what _pivmin reads, found once rather than on every Sturm pass
        self._extent = (min(diag), max(diag), max(map(abs, off), default=0.0))

    @property
    def size(self):
        return len(self.diag)


class OracleSpectrum:
    """Sorted eigenvalues with their parity labels."""

    __slots__ = ("epsilons", "parities")

    def __init__(self, epsilons, parities):
        eps = tuple(float(x) for x in epsilons)
        par = tuple(parities)
        # empty parities mark an eigenvalue-only run (classification skipped)
        if par and len(eps) != len(par):
            raise ValueError("epsilons and parities must have equal length")
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly increasing")
        if any(p not in ("even", "odd") for p in par):
            raise ValueError("parities must be 'even' or 'odd'")
        self.epsilons = eps
        self.parities = par


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
    c = n // 2
    delta = 2.0 * cfg.half_width / n
    kinetic = 1.0 / delta**2
    diag = [kinetic + 0.5 * y * y for y in (i * delta for i in range(1 - c, c))]
    diag[c - 1] += g / delta
    return Tridiagonal(diag, (-0.5 / delta**2,) * (n - 2))


def _pivmin(h, x):
    """Pivots smaller than this in magnitude count as negative.

    It is eps times the largest entry of h - x; the largest |d_i - x|
    sits at an end of the diagonal's range.
    """
    dmin, dmax, emax = h._extent
    return _EPS * max(1.0, abs(dmax - x), abs(dmin - x), emax)


def count_below(h, x):
    """Number of eigenvalues of h strictly below x, by Sturm sign counting."""
    d = h.diag
    e = h.off
    pivmin = _pivmin(h, x)
    count = 0
    # a zero bond ahead of the first pivot makes it d_0 - x exactly
    q = 1.0
    for di, ei in zip(d, (0.0,) + e):
        q = di - x - ei * ei / q
        # a pivot inside the pivmin band counts as negative (the standard
        # convention: it keeps the count monotone in x)
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def _gershgorin(h):
    radius = [abs(x) for x in h.off]
    pad = [a + b for a, b in zip([0.0] + radius, radius + [0.0])]
    return (
        min(d - p for d, p in zip(h.diag, pad)),
        max(d + p for d, p in zip(h.diag, pad)),
    )


def _mirror_blocks(h):
    """The even and odd blocks of a mirror-symmetric h, keyed by parity.

    Mirror-symmetric and antisymmetric combinations of node pairs split h
    exactly into two blocks whose spectra make up the spectrum of h.  A
    1x1 matrix has no odd block.
    """
    d, e = h.diag, h.off
    if d != d[::-1] or e != e[::-1]:
        raise ValueError("matrix is not mirror-symmetric, so it has no parities")
    m = h.size
    c = m // 2
    if m == 1:
        return {"even": h}
    if m % 2:
        # the centre node joins the even block through sqrt(2) times its
        # bond; the odd combinations vanish on it
        even_off = (e[c] * math.sqrt(2.0),) + e[c + 1 :]
        return {"even": Tridiagonal(d[c:], even_off), "odd": Tridiagonal(d[c + 1 :], e[c + 1 :])}
    # the bond across the centre adds to the even pair and subtracts
    # from the odd one
    even_diag = (d[c] + e[c - 1],) + d[c + 1 :]
    odd_diag = (d[c] - e[c - 1],) + d[c + 1 :]
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


def _newton_pass(h, x, squares):
    """Sturm count below x and d/dx log|det(h - x)|, in one pass.

    The pivots q_i are those of count_below, bit for bit, so the count is
    too.  Their derivatives obey q_i' = -1 + e_{i-1}^2 q_{i-1}'/q_{i-1}^2,
    and the pass sums w_i = q_i'/q_i, which is the log-derivative of
    det(h - x) = prod q_i.  squares holds 0 and then e_i^2.
    """
    pivmin = _pivmin(h, x)
    count = 0
    q = 1.0
    w = 0.0
    total = 0.0
    for di, e2 in zip(h.diag, squares):
        r = e2 / q
        q = di - x - r
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
        w = (r * w - 1.0) / q
        total += w
    return count, total


def _eigenvalue(h, j, table, squares):
    """Eigenvalue j (from 1) of h, bracketed by Sturm counts.

    table holds every (x, count) sample of the call, sorted by x, and
    takes the samples made here too.  The bracket starts as the pair of
    samples where the count first reaches j, and is bisected until it
    holds eigenvalue j alone.  From then on each pass is a Newton step on
    det(h - x) that also counts, so every pass still shrinks the bracket.
    A step that leaves the bracket, or two passes that halve neither the
    bracket nor the step, give way to the midpoint.  (The bracket alone is
    the wrong measure: Newton converges from one side, so the far end
    stays put until the closing counts.)  Once a step drops below
    _WIDTH_TOL, or below one ulp where doubles lie farther apart, plain
    counts just either side of where it lands close the bracket.  The
    search stops when the bracket is _WIDTH_TOL wide or holds no double
    strictly inside, and returns its midpoint.
    """
    i = next(i for i, (_, c) in enumerate(table) if c >= j)
    (lo, c_lo), (hi, c_hi) = table[i - 1], table[i]
    target = None  # where the last Newton step lands
    closing = []  # plain counts still due around a converged step
    passes, reference = 0, hi - lo  # Newton passes, and the progress they must halve
    while hi - lo > _WIDTH_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        slope = None
        if c_lo != j - 1 or c_hi != j:
            x = mid
            c = count_below(h, x)
        elif closing:
            x = closing.pop()
            if not lo < x < hi:
                continue
            c = count_below(h, x)
        else:
            x = target if target is not None and lo < target < hi else mid
            c, slope = _newton_pass(h, x, squares)
        table.insert(i, (x, c))
        if c >= j:
            hi, c_hi = x, c
        else:
            lo, c_lo = x, c
            i += 1
        if slope is None:
            target, passes, reference = None, 0, hi - lo
            continue
        step = -1.0 / slope if slope else math.inf
        target = x + step
        if abs(step) < max(_WIDTH_TOL, math.ulp(target)):
            offset = max(_CLOSE_OFFSET, math.ulp(target))
            closing = [target - offset, target + offset]
        passes += 1
        if passes == 2:
            progress = min(hi - lo, abs(step))
            if not progress <= 0.5 * reference:
                target = None
            passes, reference = 0, progress
    return 0.5 * (lo + hi)


def eigen_lowest(h, k, classify=True):
    """The k smallest eigenvalues, with parity labels unless classify is off.

    Each eigenvalue is bracketed by Sturm counts of the full matrix to
    1e-10 absolute, or to adjacent doubles where those lie farther apart:
    bisection isolates it, then count-safeguarded Newton steps on
    det(h - x) narrow the bracket (see _eigenvalue).  Every count of the
    call bounds all k eigenvalues, so all of them share one table of
    samples.  Each eigenvalue is then labelled by the mirror block whose
    own Sturm count rises by one within _LABEL_WINDOW of it.  Labelling
    raises ValueError when h is not mirror-symmetric, or when that window
    holds no block eigenvalue or more than one; pass classify=False to get
    the eigenvalues alone.  Two eigenvalues closer than the bracket width,
    a repeated one included, end on the same bracket and raise ValueError
    naming both.
    """
    if not 1 <= k <= h.size:
        raise ValueError(f"need 1 <= k <= {h.size}, got {k}")
    blocks = _mirror_blocks(h) if classify else None
    glo, ghi = _gershgorin(h)
    table = [(glo, 0), (ghi, h.size)]
    squares = (0.0,) + tuple(ei * ei for ei in h.off)
    eigenvalues = tuple(_eigenvalue(h, j, table, squares) for j in range(1, k + 1))
    for j, (a, b) in enumerate(zip(eigenvalues, eigenvalues[1:])):
        if b <= a:
            raise ValueError(
                f"eigenvalues {j} and {j + 1} meet at {a!r}: they lie closer than "
                f"the {_WIDTH_TOL:g} bracket width can separate"
            )
    parities = tuple(_parity(blocks, lam) for lam in eigenvalues) if classify else ()
    return OracleSpectrum(eigenvalues, parities)

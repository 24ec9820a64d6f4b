"""Independent cross-check by brute force: finite differences plus Sturm counts.

The dimensionless Hamiltonian is discretized on a symmetric grid with
Dirichlet walls (build_hamiltonian takes its half-width and interval
count as plain arguments, 8 and 4000 by default), the contact term
entering as a single on-site spike of size g over the grid spacing.
build_hamiltonian returns the matrix's even and odd mirror blocks, each
built from the grid; the spike sits on the centre node, so it enters the
even block only, as in the continuum problem.  Each block's eigenvalues
come lowest first from its own Sturm counts, and each eigenvalue carries
the parity of the block it came from; eigen_lowest never orders one
block's levels against the other's.
Every count on a block goes into one table, since it bounds all that
block's eigenvalues; bisection on counts isolates each eigenvalue, and
Newton steps on det(H - x) then narrow its count-certified bracket.
The steps take the determinant's log-derivative from the whole pivot
recurrence.  The last pivot alone,
q_n = det(H - x)/det(H' - x) with H' short of its last row and column,
would not do: eigenvectors vanish like e^-32 at the walls, so each zero
of q_n sits next to a pole, closer than a double resolves, and q_n keeps
its sign across the eigenvalue.  Bisection and closing counts stop once
they pass the index sought, and enter the table as lower bounds, to be
counted in full only if a later eigenvalue needs them.  Each block keeps
its bond squares once, for every pass.  The Sturm recurrence is
sequential, so the module is plain Python on tuples of floats.  It
imports math, operator and sys, and nothing from spectrum or
wavefunction: agreement between the two routes is the point.
"""

import math
import operator
import sys

# width of the count-certified bracket at which an eigenvalue is done
_WIDTH_TOL = 1e-10
# counts this far either side of a converged Newton step close a bracket
# narrower than _WIDTH_TOL
_CLOSE_OFFSET = 0.4 * _WIDTH_TOL


class Tridiagonal:
    """Symmetric tridiagonal operator, held as tuples of floats."""

    __slots__ = ("diag", "off", "squares", "pivmin")

    def __init__(self, diag, off):
        diag = tuple(map(float, diag))
        off = tuple(map(float, off))
        if not diag:
            raise ValueError("diag must be a nonempty vector")
        if len(off) != len(diag) - 1:
            raise ValueError("off must be one element shorter than diag")
        self.diag = diag
        self.off = off
        # the bond squares the pivot recurrence reads, one per row: the
        # first row has no bond ahead of it
        self.squares = (0.0,) + tuple(e * e for e in off)
        # smaller pivots count as negative: LAPACK dstebz's floor (Demmel,
        # Dhillon & Ren, ETNA 3 (1995) 116), which no spike g/dy outgrows
        self.pivmin = sys.float_info.min * max((1.0,) + self.squares)

    @property
    def size(self):
        return len(self.diag)


class OracleSpectrum:
    """Eigenvalues with their parity labels."""

    __slots__ = ("epsilons", "parities")

    def __init__(self, epsilons, parities):
        self.epsilons = tuple(float(x) for x in epsilons)
        self.parities = tuple(parities)


def build_hamiltonian(g, half_width=8.0, n_intervals=4000):
    """The even and odd mirror blocks of the finite-difference Hamiltonian.

    Scaled so eigenvalues are epsilon: on the interior nodes (walls at
    +-half_width, dy = 2 half_width/n_intervals) the diagonal is
    1/dy^2 + y^2/2, plus g/dy on the origin, and each bond -1/(2 dy^2).
    Returns (even, odd) over nodes 0 .. c-1 and 1 .. c-1 from the origin
    out, c = n_intervals/2; the origin joins the even block through
    sqrt(2) times its bond, and the odd combinations vanish on it.  The
    grid is checked first; the spike must be finite, |g| < 1.79e308 dy.
    """
    # the potential y^2/2 reaches half_width^2/2 at the walls
    if not math.isfinite(half_width * half_width):
        raise ValueError(f"half_width must be finite with a finite square, got {half_width!r}")
    if half_width < 6.0:
        raise ValueError("half_width below 6 truncates the states under test")
    try:
        n = operator.index(n_intervals)
    except TypeError:
        raise ValueError(f"n_intervals must be an integer, got {n_intervals!r}") from None
    if n < 4 or n % 2 != 0:
        raise ValueError("n_intervals must be even (origin on a node) and >= 4")
    c = n // 2
    delta = 2.0 * half_width / n
    spike = g / delta
    if not math.isfinite(spike):
        raise ValueError(f"the contact spike g/dy is not finite for g={g!r}, dy={delta!r}")
    kinetic = 1.0 / delta**2
    bond = -0.5 / delta**2
    diag = [kinetic + 0.5 * y * y for y in (i * delta for i in range(c))]
    odd = Tridiagonal(diag[1:], (bond,) * (c - 2))
    diag[0] += spike
    return Tridiagonal(diag, (bond * math.sqrt(2.0),) + (bond,) * (c - 2)), odd


def count_below(h, x, limit=math.inf):
    """Number of eigenvalues of h strictly below x, by Sturm sign counting.

    With a limit, the walk stops where the count passes it and returns
    min(count, limit + 1); far above the limit-th eigenvalue, within a few rows.
    """
    pivmin = h.pivmin
    count = 0
    # a zero bond ahead of the first pivot makes it d_0 - x exactly
    q = 1.0
    for di, e2 in zip(h.diag, h.squares):
        q = di - x - e2 / q
        # a pivot inside the pivmin band counts as negative and is floored
        # at -pivmin (the standard convention: it keeps the count monotone
        # in x); -pivmin itself, and NaN, are left as they are
        if q < pivmin:
            count += 1
            if count > limit:
                return count
            if q > -pivmin:
                q = -pivmin
    return count


def _gershgorin(h):
    radius = [abs(x) for x in h.off]
    pad = [a + b for a, b in zip([0.0] + radius, radius + [0.0])]
    return (
        min(d - p for d, p in zip(h.diag, pad)),
        max(d + p for d, p in zip(h.diag, pad)),
    )


def _newton_pass(h, x):
    """Sturm count below x and d/dx log|det(h - x)|, in one pass.

    The pivots q_i are those of count_below, bit for bit, so the count is
    too; it is always the full count.  Their derivatives obey
    q_i' = -1 + e_{i-1}^2 q_{i-1}'/q_{i-1}^2, and the pass sums
    w_i = q_i'/q_i, which is the log-derivative of det(h - x) = prod q_i.
    """
    pivmin = h.pivmin
    count = 0
    q = 1.0
    w = 0.0
    total = 0.0
    for di, e2 in zip(h.diag, h.squares):
        r = e2 / q
        q = di - x - r
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
        w = (r * w - 1.0) / q
        total += w
    return count, total


def _eigenvalue(h, j, table):
    """Eigenvalue j (from 1) of h, bracketed by Sturm counts.

    table holds every (x, count, bound) sample made on h so far, sorted by
    x, and takes the samples made here too; bound marks a count that
    stopped early, a lower bound.  The bracket starts as the pair of
    samples where the count first reaches j; a bound of j or less met on
    the way is counted again in full.  It is bisected until it holds
    eigenvalue j alone.  From then on each pass is a Newton
    step on det(h - x) that also counts, so every pass still shrinks the
    bracket.  A step that leaves the bracket, or two passes that halve
    neither the bracket nor the step, give way to the midpoint.  (The
    bracket alone is the wrong measure: Newton converges from one side, so
    the far end stays put until the closing counts.)  Once a step drops
    below _WIDTH_TOL, or below one ulp where doubles lie farther apart,
    plain counts just either side of where it lands close the bracket.
    Bisection and closing only ask whether a count is below j, j or above
    it, so their counts stop past j.
    The search stops when the bracket is _WIDTH_TOL wide or holds no
    double strictly inside, and returns its midpoint.
    """
    for i, (x, c, bound) in enumerate(table):
        if bound and c <= j:
            c = count_below(h, x)
            table[i] = (x, c, False)
        if c >= j:
            break
    lo, c_lo, _ = table[i - 1]
    hi, c_hi = x, c
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
            c = count_below(h, x, j)
        elif closing:
            x = closing.pop()
            if not lo < x < hi:
                continue
            c = count_below(h, x, j)
        else:
            x = target if target is not None and lo < target < hi else mid
            c, slope = _newton_pass(h, x)
        # a count past j stopped early (a Newton pass, inside a bracket
        # that holds eigenvalue j alone, never gets past it)
        table.insert(i, (x, c, c > j))
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


def _lowest(h, n):
    """The n lowest eigenvalues of h, lowest first.

    All of them share one table of Sturm samples (see _eigenvalue).
    """
    if n == 0:
        return []  # the table's Gershgorin bounds alone scan every row
    glo, ghi = _gershgorin(h)
    table = [(glo, 0, False), (ghi, h.size, False)]
    return [_eigenvalue(h, j, table) for j in range(1, n + 1)]


def eigen_lowest(blocks, k):
    """The lowest levels of each mirror block, interleaved even first.

    blocks is the (even, odd) pair of build_hamiltonian; an odd block not
    one row shorter than the even one, or as long, is a ValueError, as a
    block could then run out of levels.  They give their (k + 1) // 2 and
    k // 2 lowest eigenvalues, each bracketed by its block's own Sturm
    counts to 1e-10 absolute, or to adjacent doubles where those lie
    farther apart (see _eigenvalue), and labelled by its block.  Even,
    odd, even, ... is the order of the analytic spectrum, whose ground
    state is even.  The two blocks are never ordered against each other,
    so their levels may lie as close as they like: 1.7e-11 apart at
    g = 1e12 on the default grid.
    """
    even, odd = blocks
    if not 0 <= even.size - odd.size <= 1:
        raise ValueError(f"need an odd block as long as the even one or one row shorter, "
                         f"got {even.size} and {odd.size} rows")
    if not 1 <= k <= even.size + odd.size:
        raise ValueError(f"need 1 <= k <= {even.size + odd.size}, got {k}")
    levels = [None] * k
    levels[::2] = _lowest(even, (k + 1) // 2)
    levels[1::2] = _lowest(odd, k // 2)
    return OracleSpectrum(levels, (("even", "odd") * k)[:k])

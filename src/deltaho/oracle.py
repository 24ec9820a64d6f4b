"""Independent cross-check by brute force: finite differences plus Sturm counts.

The dimensionless Hamiltonian is discretized on a symmetric grid with
Dirichlet walls (build_hamiltonian takes its half-width and interval
count as plain arguments, 8 and 4000 by default), the contact term
entering as a single on-site spike of size g over the grid spacing.
build_hamiltonian returns the matrix's even and odd mirror blocks; the
spike sits on the centre node, so it enters the even block only, as in
the continuum problem.  So the odd block, and the levels solved on it,
are built once per grid and shared by every g: the two grids last asked
for are kept until the process ends, about 150 KB each at the default
4000 intervals.  Each block's eigenvalues come lowest first from its own
Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386) and
carry the parity of their block; eigen_lowest never orders one block's
levels against the other's.  Each eigenvalue is the midpoint of its cell
on one grid, the multiples of 2**-34 (every double past 2**18): the pair
of grid points where the count first reaches its index, so the double
depends on the block alone, and a start near it (eigen_lowest's near)
changes how long the search takes, never what it returns.  Every count
on a block goes into one table, since it bounds all that block's
eigenvalues; bisection isolates each eigenvalue, Newton steps on
det(H - x) narrow its bracket, and counts close it on the cell (see
_eigenvalue).  The Sturm recurrence is sequential, so the module is
plain Python on tuples of floats.  It imports bisect, functools,
itertools, math, operator and sys, and nothing from spectrum or
wavefunction: agreement between the two routes is the point.
"""

import bisect
import functools
import itertools
import math
import operator
import sys

# each eigenvalue is the midpoint of its cell on the grid of multiples of
# _CELL (5.8e-11), which is every double past 2**18 (see _eigenvalue)
_CELL = 2.0**-34


class Tridiagonal:
    """Symmetric tridiagonal operator, held as tuples of floats."""

    __slots__ = ("diag", "off", "squares", "pivmin", "tail", "solved")

    def __init__(self, diag, off):
        diag = tuple(map(float, diag))
        off = tuple(map(float, off))
        if not diag:
            raise ValueError("diag must be a nonempty vector")
        if len(off) != len(diag) - 1:
            raise ValueError("off must be one element shorter than diag")
        self._set_rows(diag, off, (0.0,) + tuple(e * e for e in off), len(diag))

    def _set_rows(self, diag, off, squares, known_tail):
        # squares are the bond squares the pivot recurrence reads, one per
        # row: the first row has no bond ahead of it.  Rows known_tail..
        # are in the monotone tail (see _tail)
        self.diag = diag
        self.off = off
        self.squares = squares
        # smaller pivots count as negative: LAPACK dstebz's floor (Demmel,
        # Dhillon & Ren, ETNA 3 (1995) 116), which no spike g/dy outgrows
        self.pivmin = sys.float_info.min * max((1.0,) + squares)
        self.tail = _tail(diag, squares, known_tail)
        # the Sturm table and the levels solved so far (see _lowest)
        self.solved = ((), ())

    @property
    def size(self):
        return len(self.diag)


def _tail(diag, squares, start):
    """First row of the monotone tail, given that it holds rows start..

    A row is in the tail when, from it to the last row, the diagonal does
    not fall and every bond square is the last row's, and nonzero; the first
    row, with no bond, never is.  len(diag) when no row is.
    """
    t = start
    while 0.0 < squares[t - 1] == squares[-1] and (t == len(diag) or diag[t - 1] <= diag[t]):
        t -= 1
    return t


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
    sqrt(2) times its bond, and the odd combinations vanish on it; the
    even block's Sturm table starts from its Gershgorin interval.  The
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
    delta = 2.0 * half_width / n
    spike = g / delta
    if not math.isfinite(spike):
        raise ValueError(f"the contact spike g/dy is not finite for g={g!r}, dy={delta!r}")
    odd, (rest_lo, rest_hi) = _odd_block(half_width, n)
    link = -0.5 / delta**2 * math.sqrt(2.0)
    # the origin's diagonal, 1/dy^2 + 0^2/2, has the bits of 1/dy^2; the
    # odd rows, squares and tail are reused, with no pass over them
    even = Tridiagonal.__new__(Tridiagonal)
    even._set_rows(
        (float(1.0 / delta**2 + spike),) + odd.diag,
        (link,) + odd.off,
        (0.0, link * link) + odd.squares[1:],
        odd.tail + 1,
    )
    # even rows 2.. are odd rows 1.., bonds included, so _gershgorin(even)
    # is the extreme of those rows', the origin's and its neighbour's
    # d -+ pad, the same doubles; _lowest starts from it as it would
    origin, near = even.diag[0], odd.diag[0]
    pad = abs(link)
    near_pad = pad + (abs(odd.off[0]) if odd.off else 0.0)
    lo = min(origin - pad, near - near_pad, rest_lo)
    hi = max(origin + pad, near + near_pad, rest_hi)
    even.solved = (((lo, 0, False), (hi, even.size, False)), ())
    return even, odd


@functools.lru_cache(maxsize=2)
def _odd_block(half_width, n):
    # one block, and the levels _lowest keeps on it, serves every g on the
    # grid; two entries hold the fine and halved grids of one compare.  The
    # Gershgorin extremes over its rows 1.. go with it: the even block has
    # those rows too
    c = n // 2
    delta = 2.0 * half_width / n
    kinetic = 1.0 / delta**2
    diag = [kinetic + 0.5 * y * y for y in (i * delta for i in range(1, c))]
    odd = Tridiagonal(diag, (-0.5 / delta**2,) * (c - 2))
    return odd, _gershgorin(odd, 1)


def count_below(h, x, limit=math.inf):
    """Number of eigenvalues of h strictly below x, by Sturm sign counting.

    With a limit, the walk stops where the count passes it and returns
    min(count, limit + 1); far above the limit-th eigenvalue, within a few rows.
    From the row _wall gives on, it also stops at the first pivot of at
    least the tail's bond, since no later pivot can count: for x below the
    top of the diagonal that is a few rows past x's classical turning point.
    """
    pivmin = h.pivmin
    count = 0
    wall, bond = _wall(h, x)
    rows = zip(h.diag, h.squares)
    # a zero bond ahead of the first pivot makes it d_0 - x exactly
    q = 1.0
    for segment, stop in ((itertools.islice(rows, wall), math.inf), (rows, bond)):
        for di, e2 in segment:
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
            elif q >= stop:
                return count
    return count


def _wall(h, x):
    """(row, bond): from that row on, a pivot >= bond ends a count below x.

    bond is |e|, the bond of h's monotone tail, and the wall is a row w of
    the tail where fl(fl(d_w - x) - fl(e^2/|e|)) >= |e|; row is w - 1.  A
    pivot q >= |e| at row w - 1 or later keeps every later one >= |e|: the
    step q' = d - x - e^2/q, rounded operation by operation, does not fall
    as q or d grows, and the tail's d only grow.  As |e| >= pivmin, none of
    those pivots counts or is floored.  w comes from bisection on the
    diagonal at x + 2|e|, then the check; (size, inf) when it fails, as for
    x NaN or above the diagonal.
    """
    if h.tail < h.size:
        bond = abs(h.off[-1])
        w = bisect.bisect_left(h.diag, x + 2.0 * bond, h.tail)
        if w < h.size and bond >= h.pivmin and h.diag[w] - x - h.squares[-1] / bond >= bond:
            return w - 1, bond
    return h.size, math.inf


def _gershgorin(h, first=0):
    """Lowest d - pad and highest d + pad over rows first.. of h; (inf, -inf) if none."""
    radius = [abs(x) for x in h.off]
    pad = [a + b for a, b in zip([0.0] + radius, radius + [0.0])][first:]
    diag = h.diag[first:]
    return (
        min(map(operator.sub, diag, pad), default=math.inf),
        max(map(operator.add, diag, pad), default=-math.inf),
    )


def _newton_pass(h, x):
    """Sturm count below x and d/dx log|det(h - x)|, in one pass.

    The pivots q_i are those of count_below, bit for bit, so the count is
    too; it is always the full count.  Their derivatives obey
    q_i' = -1 + e_{i-1}^2 q_{i-1}'/q_{i-1}^2, and the pass sums
    w_i = q_i'/q_i, which is the log-derivative of det(h - x) = prod q_i.
    The last pivot alone, det(h - x)/det(h' - x) with h' short of its last
    row, would not do: eigenvectors vanish like e^-32 at the walls, so its
    zeros sit next to poles, closer than a double resolves.
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


def _cell(x):
    """The grid cell [a, b] that holds x: a is the grid's last point <= x, b its next."""
    a = math.floor(x / _CELL) * _CELL if math.ulp(x) < _CELL else x
    return a, max(a + _CELL, math.nextafter(a, math.inf))


def _fitted_step(x, slope, above, last):
    """Step from x to the level of the fit s(t) = 1/(t - lam) + F, and F.

    last is the previous Newton pass (x1, s1, above1); above says which
    side of the level a pass lies on.  With v = x - lam and d = x - x1 the
    two slopes give v (v - d) = d/(s1 - slope) = p, whose two roots have
    opposite signs when both passes lie on one side (p > 0): the one on
    x's side is taken, in the form that does not cancel.  None when the
    passes straddle the level or the fit is not finite and positive.
    """
    x1, s1, above1 = last
    d = x - x1
    if above != above1 or s1 == slope:
        return None
    p = d / (s1 - slope)
    disc = d * d + 4.0 * p
    if not (p > 0.0 and math.isfinite(disc)):
        return None
    r = math.copysign(math.sqrt(disc), 1.0 if above else -1.0)
    v = 0.5 * (d + r) if (d > 0.0) == above else -2.0 * p / (d - r)
    return -v, slope - 1.0 / v


def _eigenvalue(h, j, table, start=None):
    """Eigenvalue j (from 1) of h: the midpoint of its cell on the grid.

    The grid is the doubles that are multiples of _CELL, which past 2**18
    is every double, and the level's cell is the pair of neighbouring grid
    points [a, b] with count(a) <= j - 1 < j <= count(b).  Counts rise with
    x, so the cell, and the double returned, depend on h alone, not on the
    path the search takes.

    table holds every (x, count, bound) sample made on h so far, sorted by
    x, and takes the samples made here too; bound marks a count that
    stopped early, a lower bound.  The bracket starts as the pair of
    samples where the count first reaches j; a bound of j or less met on
    the way is counted again in full.  A start inside it gets up to three
    Newton passes, each at the last one's target while that stays inside;
    if they close nothing, the search begins again from that bracket
    (their samples stay in the table), since a start at another level can
    leave a bracket that holds level j alone yet reaches the Gershgorin
    bound, where Newton creeps.  Otherwise the bracket is bisected until
    it holds eigenvalue j alone.  From then on each pass is a Newton step
    on det(h - x) that also counts, so every pass still shrinks the
    bracket.  The pass's log-derivative s(x) sums 1/(x - lam) over every
    eigenvalue lam, and the far ones shorten a plain Newton step; so from
    the second pass on, the last two passes fit s(x) = 1/(x - lam) + F, F
    standing for the far field (as in the secular-equation solvers of
    Bunch, Nielsen & Sorensen, Numer. Math. 31 (1978) 31), and the step
    goes to the fitted lam.  A step that leaves the bracket, or two passes
    that halve neither the bracket nor the step, give way to the midpoint.
    (The bracket alone is the wrong measure: Newton converges from one
    side, so the far end stays put until the closing counts.)

    The close: a plain Newton step of length t on 1/(x - lam) + F leaves
    an error of about F t^2 (F is det's f''/2f' at lam).  The fitted step
    takes F out; it reads F about F' u off, u the distance from lam of the
    pass before, and leaves an error of about F' u t^2.  The fit before it
    read F about F' u' off, u' the distance of the pass before that, so
    F' u is about |F - F_before| u/(u' - u), u and u' taken from the
    step's target.  Once that times t^2 (|F| t^2 after one fit), or t
    itself, is below one cell, plain counts close the bracket on the cell
    the step lands in, or on a neighbour of it, and no pass confirms the
    step.  A close that misses all three cells leaves the bracket's end on
    their edge, and Newton resumes from the midpoint.  Bisection and
    closing only ask whether a count is below j, j or above it, so their
    counts stop past j; a Newton pass always counts in full.  The search
    stops when the bracket lies in one cell, and returns that cell's
    midpoint.
    """
    for i, (x, c, bound) in enumerate(table):
        if bound and c <= j:
            c = count_below(h, x)
            table[i] = (x, c, False)
        if c >= j:
            break
    lo, c_lo, _ = table[i - 1]
    hi, c_hi = x, c
    first = lo, c_lo, hi, c_hi
    target = start  # where the next Newton pass goes
    early = None if start is None else 3  # Newton passes the start may still take
    closing = []  # cell ends still due around a converged step
    last = far = None  # the last Newton pass (x, slope, side); the last fit's F, and its x1
    passes, reference = 0, hi - lo  # Newton passes, and the progress they must halve
    while True:
        a, b = _cell(lo)
        if hi <= b:
            return a + 0.5 * (b - a)
        mid = 0.5 * (lo + hi)
        slope = None
        inside = target is not None and lo < target < hi
        if closing:
            x = closing.pop()
            if not lo < x < hi:
                continue
            c = count_below(h, x, j)
        elif early and inside:
            early -= 1
            x = target
            c, slope = _newton_pass(h, x)
        elif early is not None:
            # the start closed nothing: search as if it had not been given
            lo, c_lo, hi, c_hi = first
            early = target = last = far = None
            passes, reference = 0, hi - lo
            continue
        elif c_lo == j - 1 and c_hi == j:
            x = target if inside else mid
            c, slope = _newton_pass(h, x)
        else:
            x = mid
            c = count_below(h, x, j)
        # a count past j stopped early; a Newton pass is always a full count
        bisect.insort(table, (x, c, slope is None and c > j))
        if c >= j:
            hi, c_hi = x, c
        else:
            lo, c_lo = x, c
        if slope is None:
            target, passes, reference = None, 0, hi - lo
            continue
        fit = _fitted_step(x, slope, c >= j, last) if last else None
        if fit:
            step, fitted = fit
            if far is None:
                curve = abs(fitted)
            else:
                u, u2 = abs(last[0] - x - step), abs(far[1] - x - step)
                curve = abs(fitted - far[0]) * u / (u2 - u) if u2 > u else math.inf
            far = (fitted, last[0])
        else:
            step = -1.0 / slope if slope else math.inf
            curve = math.inf if far is None else abs(far[0])
        target = x + step
        last = (x, slope, c >= j)
        if abs(step) < _CELL or curve * step * step < _CELL:
            a, b = _cell(target)
            closing = [_cell(math.nextafter(a, -math.inf))[0], _cell(b)[1], a, b]
        passes += 1
        if passes == 2:
            progress = min(hi - lo, abs(step))
            if not progress <= 0.5 * reference:
                target = None
            passes, reference = 0, progress


def _lowest(h, n, near=()):
    """The n lowest eigenvalues of h, lowest first.

    All of them share one table of Sturm samples (see _eigenvalue), which
    h.solved keeps with the levels solved so far, as a pair of tuples.  A
    call solves only the levels past those, on a copy of the table, and
    then replaces the pair in one assignment, so calls at once on a shared
    block may solve a level twice but never see a pair half made.
    Each level is the midpoint of its grid cell, which no table changes,
    so levels solved over several calls have the bits of one call's.
    """
    table, levels = h.solved
    if n > len(levels):
        if table:
            table = list(table)
        else:
            # the Gershgorin bounds alone scan every row, so n = 0 takes none
            glo, ghi = _gershgorin(h)
            table = [(glo, 0, False), (ghi, h.size, False)]
        levels += tuple(_eigenvalue(h, j, table, near[j - 1] if j <= len(near) else None)
                        for j in range(len(levels) + 1, n + 1))
        h.solved = (tuple(table), levels)
    return list(levels[:n])


def check_k(blocks, k):
    """k as an int, or the ValueError eigen_lowest(blocks, k) raises before any pass."""
    even, odd = blocks
    if not 0 <= even.size - odd.size <= 1:
        raise ValueError(f"need an odd block as long as the even one or one row shorter, "
                         f"got {even.size} and {odd.size} rows")
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if not 1 <= k <= even.size + odd.size:
        raise ValueError(f"need 1 <= k <= {even.size + odd.size}, got {k}")
    return k


def eigen_lowest(blocks, k, near=None):
    """The lowest levels of each mirror block, interleaved even first.

    blocks is the (even, odd) pair of build_hamiltonian; an odd block not
    one row shorter than the even one, or as long, is a ValueError, as a
    block could then run out of levels, and so is a k that is not an
    integer from 1 to the two blocks' rows.  They give their (k + 1) // 2 and
    k // 2 lowest eigenvalues, each the midpoint of its cell on the grid
    of multiples of 2**-34 (5.8e-11; neighbouring doubles past 2**18),
    found by its block's own Sturm counts (see _eigenvalue), and labelled
    by its block.  Even, odd, even, ... is the order of the analytic
    spectrum, whose ground state is even.  The two blocks are never
    ordered against each other, so their levels may lie as close as they
    like: 1.7e-11 apart at g = 1e12 on the default grid.  near, in the same
    order, starts each level's search at its float; no bit depends on it,
    and a NaN, a float off the level or a list short of k costs at most
    three passes a level (see _eigenvalue).
    """
    k = check_k(blocks, k)
    even, odd = blocks
    near = () if near is None else tuple(near)
    levels = [None] * k
    levels[::2] = _lowest(even, (k + 1) // 2, near[::2])
    levels[1::2] = _lowest(odd, k // 2, near[1::2])
    return OracleSpectrum(levels, (("even", "odd") * k)[:k])

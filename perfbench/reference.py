"""Independent references for the benchmark's output checks (mpmath only).

Nothing here imports the package under test, so a defect in its special
functions cannot cancel against the same defect in the reference.

Roots are checked by a sign change of the eigenvalue condition across a
window of relative half-width ROOT_RTOL around the returned value.  The
condition is evaluated in the overflow-free reflected form

    nu > 0:   nu sin(pi nu/2) - g cos(pi nu/2) R(nu/2)
    nu <= 0:  nu - g R(1/2 - nu/2),        R(x) = Gamma(x + 1/2) / Gamma(x),

which has the sign of the package's pole-free condition for nu > 0 and of
its log-Gamma form for nu <= 0 (they differ by positive factors).  Moderate
labels use mpmath's double-precision context; past FP_NU_LIMIT the ratio
of two log-Gammas cancels in doubles, so multiprecision takes over.
"""

import math

from mpmath import fp, mp

ROOT_RTOL = 1e-10  # the solver's default root_tol, taken relative
FP_NU_LIMIT = 1000.0
_MP_DPS = 40

# agreement with mpmath relative to the sampled state's peak; the gate
# ROADMAP item 1 sets for the eigenfunctions
EIGENFUNCTION_RTOL = 1e-10


def _condition_fp(nu, g):
    if nu > 0.0:
        x = 0.5 * nu
        ratio = math.exp(fp.loggamma(x + 0.5) - fp.loggamma(x))
        return nu * fp.sinpi(x) - g * fp.cospi(x) * ratio
    x = 0.5 - 0.5 * nu
    return nu - g * math.exp(fp.loggamma(x + 0.5) - fp.loggamma(x))


def _condition_mp(nu, g):
    with mp.workdps(_MP_DPS):
        nu = mp.mpf(nu)
        if nu > 0:
            x = nu / 2
            ratio = mp.exp(mp.loggamma(x + mp.mpf(0.5)) - mp.loggamma(x))
            return nu * mp.sinpi(x) - g * mp.cospi(x) * ratio
        x = mp.mpf(0.5) - nu / 2
        return nu - g * mp.exp(mp.loggamma(x + mp.mpf(0.5)) - mp.loggamma(x))


def condition_sign(nu, g):
    """Sign (-1, 0, +1) of the even-parity eigenvalue condition at nu."""
    value = _condition_fp(nu, g) if abs(nu) <= FP_NU_LIMIT else _condition_mp(nu, g)
    return (value > 0) - (value < 0)


def even_bracket(g, j):
    """Open interval holding the j-th even root (j = 0, 1, ...)."""
    if g > 0.0:
        return 2.0 * j, 2.0 * j + 1.0
    if j == 0:
        return -math.inf, 0.0
    return 2.0 * j - 1.0, 2.0 * j


def even_root_ok(g, j, nu):
    """True when nu lies in the j-th bracket within ROOT_RTOL of a true root."""
    lo, hi = even_bracket(g, j)
    if not lo < nu < hi:
        return False
    delta = ROOT_RTOL * max(1.0, abs(nu))
    left = condition_sign(max(nu - delta, lo), g)
    right = condition_sign(min(nu + delta, hi), g)
    return left * right <= 0


def spectrum_problem(g, n_states, nus):
    """(reason, state index) for a wrong full_spectrum result, or None.

    nus lists the returned labels in energy order.  Odd levels must be the
    exact odd integers; each even level must be the right root of its own
    bracket.
    """
    if len(nus) != n_states:
        return "count", len(nus)
    for index, nu in enumerate(nus):
        if index % 2 == 1:
            if nu != float(index):
                return "odd_level", index
        elif not even_root_ok(g, index // 2, nu):
            return "root", index
    return None


def eigenfunction(nu, index, y):
    """Unnormalized reference eigenfunction at one point, as a float.

    Even states: exp(-y^2/2) U(-nu/2, 1/2, y^2); odd states:
    exp(-y^2/2) H_n(y) with n = nu.
    """
    with mp.workdps(30):
        y = mp.mpf(y)
        z = y * y
        if index % 2 == 1:
            return float(mp.exp(-z / 2) * mp.hermite(int(nu), y))
        a = -mp.mpf(nu) / 2
        if z == 0:
            value = mp.sqrt(mp.pi) * mp.rgamma(a + mp.mpf(0.5))
        else:
            value = mp.hyperu(a, mp.mpf(0.5), z)
        return float(mp.exp(-z / 2) * value)


def shape_error(values, reference, sup):
    """Largest deviation of values from the best multiple of reference, over sup.

    Normalizations differ (the package uses a Simpson norm on its grid), so
    the scale is fitted by least squares before comparing.
    """
    peak = max(abs(r) for r in reference)
    if peak == 0.0 or sup == 0.0:
        return math.inf
    reference = [r / peak for r in reference]
    denom = sum(r * r for r in reference)
    scale = sum(v * r for v, r in zip(values, reference)) / denom
    return max(abs(v - scale * r) for v, r in zip(values, reference)) / sup

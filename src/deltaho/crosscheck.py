"""Analytic levels against the oracle's: the one module importing both routes, stdlib only."""

import math
import numbers

from . import oracle, spectrum
from .errors import InsufficientDomainError

# a second-order grid shrinks the gap about fourfold per halving; below the
# floor the ratio drifts where the grid error changes sign (near g = -0.755,
# 0.93 and 1.55 at N = 4000)
_HALVING_WINDOW = (3.5, 4.5)
_HALVING_GAP_FLOOR = 1e-7


def compare(g, k, half_width=8.0, n_intervals=4000):
    """The k lowest analytic states against the oracle's, each matched within its parity.

    Returns (analytic, fine, gaps, halving_ratio): full_spectrum's states,
    the oracle's OracleSpectrum, each |oracle - analytic|, and the ground
    state's gap on the half-size grid over its gap on this one.  n_intervals
    must be a multiple of 4 and at least 8, so that the half-size grid keeps
    a node at the origin; that is checked first, then both grids are built
    and k is checked against the fine one, all before the analytic solve,
    so a bad one is reported before a bad coupling and costs no solve.  The
    analytic levels then start the oracle's searches, the ground level's
    on both grids, which moves no oracle bit.  A ground gap
    above _HALVING_GAP_FLOOR whose halving_ratio leaves _HALVING_WINDOW
    raises InsufficientDomainError.  That guards state 0 only, and by ratio
    only: g = -60 passes with a ground gap of 25 at 3.70.
    """
    if isinstance(n_intervals, numbers.Integral) and (n_intervals < 8 or n_intervals % 4):
        raise ValueError(f"n_intervals must be a multiple of 4 and at least 8, got {n_intervals!r}")
    h_fine = oracle.build_hamiltonian(g, half_width, n_intervals)
    h_coarse = oracle.build_hamiltonian(g, half_width, n_intervals // 2)
    oracle.check_k(h_fine, k)
    analytic = spectrum.full_spectrum(g, k)
    near = [a.epsilon for a in analytic]
    fine = oracle.eigen_lowest(h_fine, k, near)
    coarse = oracle.eigen_lowest(h_coarse, 1, near[:1])
    gaps = [abs(o - a.epsilon) for o, a in zip(fine.epsilons, analytic)]
    gap_coarse = abs(coarse.epsilons[0] - analytic[0].epsilon)
    halving_ratio = gap_coarse / gaps[0] if gaps[0] > 0.0 else math.inf
    low, high = _HALVING_WINDOW
    if gaps[0] > _HALVING_GAP_FLOOR and not low <= halving_ratio <= high:
        raise InsufficientDomainError(
            f"the grid does not resolve state 0 at g={g!r}, dy={2.0 * half_width / n_intervals!r}: "
            f"its gap {gaps[0]:.3g} has halving_ratio {halving_ratio:.3g}, "
            f"outside [{low:g}, {high:g}]"
        )
    return analytic, fine, gaps, halving_ratio

"""End-to-end acceptance gates, one pass/fail line per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured figure
and the gate it was held to, so a bare `pytest -s tests/test_acceptance.py`
reads as a checklist.
"""

import math

import numpy as np
import pytest

from deltaho import crosscheck, oracle, spectrum, wavefunction
from deltaho.cli import reference_table
from deltaho.spectrum import gamma_ratio

NONZERO_COUPLINGS = (-0.25, 0.25, -1.0, 1.0, -2.5, 2.5, -5.0, 5.0)


def check(label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def oracle_runs():
    runs = {}
    for g in (0.0, 5.0, -5.0):
        runs[g] = oracle.eigen_lowest(oracle.build_hamiltonian(g), 8)
    return runs


def test_table_regression():
    reference = reference_table()
    worst = 0.0
    for g in NONZERO_COUPLINGS:
        solved = spectrum.solve_even(g, 5)
        for sol, ref in zip(solved, reference[g]):
            worst = max(worst, abs(sol.nu - ref))
    check("table regression", worst <= 5e-4,
          f"worst |dnu| = {worst:.2e} over 40 values (gate 5e-4)")


def test_weak_coupling_limit():
    worst = 0.0
    for g in (1e-6, -1e-6):
        solved = spectrum.solve_even(g, 5)
        for k, sol in enumerate(solved):
            worst = max(worst, abs(sol.nu - 2.0 * k))
    check("weak-coupling limit", worst <= 1e-5,
          f"worst |nu - 2k| = {worst:.2e} at g = +-1e-6 (gate 1e-5)")


def test_deep_well_asymptote():
    eps5 = spectrum.full_spectrum(-5.0, 1)[0].epsilon
    gap5 = abs(eps5 - (-12.5))
    eps20 = spectrum.full_spectrum(-20.0, 1)[0].epsilon
    rel20 = abs(eps20 - (-200.0)) / 200.0
    ok = gap5 <= 0.011 and rel20 <= 1e-3
    check("deep-well asymptote", ok,
          f"g=-5 gap = {gap5:.4f} (gate 0.011), g=-20 rel = {rel20:.2e} (gate 1e-3)")


def test_oracle_equivalence():
    # gate fixed by the spacing-halving study: worst observed gap 7.8e-5
    # at N=4000, second order throughout, so 1e-3 leaves a 12x margin
    worst_nonzero = 0.0
    worst_zero = 0.0
    parities_ok = True
    for g in (0.0, 1.0, -1.0, 2.5, -2.5):
        analytic, run, gaps, _ = crosscheck.compare(g, 6)
        for sol, par, gap in zip(analytic, run.parities, gaps):
            if g == 0.0:
                worst_zero = max(worst_zero, gap)
            else:
                worst_nonzero = max(worst_nonzero, gap)
            parities_ok = parities_ok and sol.parity == par
    ok = worst_nonzero <= 1e-3 and worst_zero <= 1e-4 and parities_ok
    check("oracle equivalence", ok,
          f"worst gap = {worst_nonzero:.2e} for g != 0 (gate 1e-3), "
          f"{worst_zero:.2e} for g = 0 (gate 1e-4), parities "
          f"{'match' if parities_ok else 'MISMATCH'}")


def test_jump_condition_suite():
    worst = 0.0
    for g in NONZERO_COUPLINGS:
        for sol in spectrum.solve_even(g, 5):
            worst = max(worst, wavefunction.jump_check(sol.nu, g))
    check("kink-condition suite", worst <= 1e-8,
          f"worst relative residual = {worst:.2e} over 40 even states (gate 1e-8)")


def test_special_function_identities():
    mpmath = pytest.importorskip("mpmath")
    ys = np.linspace(0.1, 3.0, 30)
    worst_h = 0.0
    for m in range(6):
        order = 2 * m
        lhs = 4.0**m * np.exp(0.5 * ys * ys) * wavefunction.eval_even(float(order), ys)
        for y, value in zip(ys, lhs):
            ref = float(mpmath.hermite(order, float(y)))
            worst_h = max(worst_h, abs(value - ref) / max(1.0, abs(ref)))
    # U(1/2, 1/2, z) = sqrt(pi) e^z erfc(sqrt(z)), the nu = -1 even state
    worst_e = 0.0
    for y in np.linspace(0.0, 4.5, 91):
        ref = math.sqrt(math.pi) * math.exp(0.5 * y * y) * math.erfc(y)
        worst_e = max(worst_e, abs(wavefunction.eval_even(-1.0, float(y)) - ref) / ref)
    # Q(y) Q(y + 1/2) = 1/(y + 1/2) for the ratio Q(y) = Gamma(y + 1/2)/Gamma(y + 1)
    # that the eigen condition evaluates, by Gamma(z + 1) = z Gamma(z)
    # (DLMF 5.5.1); y and y + 1/2 each cross Q's branch seams at 1 and 170
    points = [0.0]
    for seam in (0.5, 1.0, 169.5, 170.0):
        points += [math.nextafter(seam, 0.0), seam, math.nextafter(seam, math.inf)]
    points += [10.0 ** (-6.0 + 14.0 * i / 4082) for i in range(4083)]
    worst_d = 0.0
    for y in points:
        ref = 1.0 / (y + 0.5)
        worst_d = max(worst_d, abs(gamma_ratio(y) * gamma_ratio(y + 0.5) - ref) / ref)
    ok = worst_h <= 1e-9 and worst_e <= 1e-12 and worst_d <= 1e-12
    check("special-function identities", ok,
          f"polynomial reduction {worst_h:.1e} (gate 1e-9), "
          f"erfc case {worst_e:.1e} (gate 1e-12), "
          f"Gamma-ratio duplication {worst_d:.1e} over {len(points)} points "
          f"y in [0, 1e8] (gate 1e-12)")


def test_orthonormality():
    states = [
        wavefunction.sample_state(sol)
        for sol in spectrum.full_spectrum(1.0, 6)
    ]
    worst = 0.0
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            gram = wavefunction.orthogonality(a, b)
            worst = max(worst, abs(gram - (1.0 if i == j else 0.0)))
    check("orthonormality", worst <= 1e-5,
          f"worst |G - I| entry = {worst:.2e} for 6 states at g=1 (gate 1e-5)")


def test_odd_branch_invariance(oracle_runs):
    base = [e for e, p in zip(oracle_runs[0.0].epsilons,
                              oracle_runs[0.0].parities) if p == "odd"]
    worst = 0.0
    for g in (-5.0, 5.0):
        run = oracle_runs[g]
        odds = [e for e, p in zip(run.epsilons, run.parities) if p == "odd"]
        for got, ref in zip(odds, base):
            worst = max(worst, abs(got - ref))
    check("odd-branch invariance", worst <= 1e-6,
          f"worst spread = {worst:.2e} across g in {{-5, 0, 5}} (gate 1e-6)")


def test_density_shape_substitutes():
    # absolute curve amplitudes are not pinned anywhere; shape checks
    # stand in: node counts, the kink at the origin, and the densities
    # of the second even level drifting onto the odd neighbor's
    def nodes(state):
        # drop exact zeros so the origin crossing of odd states counts once
        inner = state.values[np.abs(state.points()) < 6.0]
        signs = np.sign(inner)
        signs = signs[signs != 0]
        return int(np.sum(signs[:-1] * signs[1:] < 0))

    sols = spectrum.full_spectrum(2.5, 6)
    nodes_ok = all(
        nodes(wavefunction.sample_state(sol)) == sol.index for sol in sols
    )

    kink_ok = True
    for g in (1.0, -2.5, 5.0):
        sol = spectrum.solve_even(g, 1)[0]
        state = wavefunction.sample_state(sol)
        vals, dy = state.values, state.delta_y
        center = (vals.size - 1) // 2
        slope_jump = (vals[center + 1] - 2.0 * vals[center] + vals[center - 1]) / dy
        kink_ok = kink_ok and abs(slope_jump - 2.0 * g * vals[center]) < 0.2 * abs(
            2.0 * g * vals[center]
        )

    rms_ok = True
    for sign, odd_n in ((1.0, 3), (-1.0, 1)):
        ref_state = wavefunction.sample_state(
            spectrum.solve_odd(odd_n // 2 + 1)[odd_n // 2]
        )
        ref = ref_state.values**2
        series = []
        for g in (1.0, 2.5, 5.0, 10.0):
            sols = spectrum.solve_even(sign * g, 2)
            state = wavefunction.sample_state(sols[1])
            series.append(float(np.sqrt(np.mean((state.values**2 - ref) ** 2))))
        rms_ok = rms_ok and all(a > b for a, b in zip(series, series[1:]))
        rms_ok = rms_ok and series[-1] < 0.05

    ok = nodes_ok and kink_ok and rms_ok
    check("density shape substitutes", ok,
          f"node counts {'ok' if nodes_ok else 'BAD'}, origin kink "
          f"{'ok' if kink_ok else 'BAD'}, odd-neighbor approach "
          f"{'ok' if rms_ok else 'BAD'}")

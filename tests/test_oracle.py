"""Finite-difference oracle: eigensolver core, parity labels, convergence."""

import ast
import itertools
import math
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from deltaho import oracle, spectrum
from deltaho.oracle import (
    Tridiagonal,
    build_hamiltonian,
    count_below,
    eigen_lowest,
)


@pytest.fixture(scope="module")
def spec_g0():
    return eigen_lowest(build_hamiltonian(0.0), 8)


@pytest.fixture(scope="module")
def spec_g1():
    return eigen_lowest(build_hamiltonian(1.0), 6)


@pytest.fixture(scope="module")
def spec_gm25():
    return eigen_lowest(build_hamiltonian(-2.5), 6)


@pytest.fixture(scope="module")
def spec_g5():
    return eigen_lowest(build_hamiltonian(5.0), 8)


@pytest.fixture(scope="module")
def spec_gm5():
    return eigen_lowest(build_hamiltonian(-5.0), 8)


class TestSmallMatrices:
    def test_two_by_two(self):
        # even levels 1 and 3, odd levels 3 and 5
        blocks = (Tridiagonal((2.0, 2.0), (-1.0,)), Tridiagonal((4.0, 4.0), (1.0,)))
        spec = eigen_lowest(blocks, 4)
        assert spec.epsilons == pytest.approx((1.0, 3.0, 3.0, 5.0), rel=0.0, abs=1e-9)
        assert spec.parities == ("even", "odd") * 2
        rng = np.random.default_rng(2)
        for _ in range(5):
            blocks = [Tridiagonal(3.0 * rng.standard_normal(2), rng.standard_normal(1)) for _ in range(2)]
            spec = eigen_lowest(blocks, 4)
            assert max(_block_gaps(spec, _dense_by_block(blocks)).values()) <= 1e-9

    def test_diagonal_matrix_eigenvalues(self):
        # the per-block engine needs no mirror symmetry
        h = Tridiagonal(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0]))
        first, second = oracle._lowest(h, 2)
        assert first == pytest.approx(1.0, abs=1e-9)
        assert second == pytest.approx(2.0, abs=1e-9)

    def test_count_below_two_by_two(self):
        h = Tridiagonal(np.array([2.0, 2.0]), np.array([-1.0]))
        assert count_below(h, 0.5) == 0
        assert count_below(h, 2.0) == 1
        assert count_below(h, 3.5) == 2

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(42)
        n = 200
        d = rng.standard_normal(n) * 3.0
        e = rng.standard_normal(n - 1)
        h = Tridiagonal(d, e)
        dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        assert np.max(np.abs(np.array(oracle._lowest(h, 5)) - dense[:5])) < 1e-8

    def test_bisection_ends_where_doubles_are_wider_than_its_tolerance(self, monkeypatch):
        # near 1e7 adjacent doubles lie 1.9e-9 apart, so a cell of the grid
        # is two neighbouring doubles there; the cap turns a hang into a failure
        passes = _counted_passes(monkeypatch, cap=1000)
        blocks = (Tridiagonal((1e7, 1e7), (-1.0,)), Tridiagonal((1e7 + 2.0, 1e7 + 2.0), (-1.0,)))
        spec = eigen_lowest(blocks, 2)
        assert spec.epsilons[0] == pytest.approx(1e7 - 1.0, rel=1e-15, abs=0.0)
        assert spec.epsilons[1] == pytest.approx(1e7 + 1.0, rel=1e-15, abs=0.0)
        assert spec.parities == ("even", "odd")
        # the spike's bound state near -2.4e6, where doubles lie 4.7e-10
        # apart: a single impurity site on the hopping chain
        passes.clear()
        delta = 16.0 / 4000
        spike, bond = -1e4 / delta, 0.5 / delta**2
        spec = eigen_lowest(build_hamiltonian(-1e4), 2)
        bound = 1.0 / delta**2 - math.sqrt(spike * spike + 4.0 * bond * bond)
        assert spec.epsilons[0] == pytest.approx(bound, rel=1e-13, abs=0.0)
        assert spec.epsilons[1] == pytest.approx(1.5, abs=1e-5)
        assert spec.parities == ("even", "odd")


def _counted_passes(monkeypatch, cap=math.inf):
    """Record the point and matrix size of every Sturm pass, plain count or
    Newton step.

    Past cap passes the next one raises, so a search that never ends
    fails instead of hanging.
    """
    passes = []

    def counted(sturm_pass):
        def wrapper(h, x, *rest):
            passes.append((x, h.size))
            if len(passes) > cap:
                raise RuntimeError("eigenvalue search does not terminate")
            return sturm_pass(h, x, *rest)

        return wrapper

    for name in ("count_below", "_newton_pass"):
        monkeypatch.setattr(oracle, name, counted(getattr(oracle, name)))
    return passes


def _counted_newton_passes(monkeypatch):
    """Record the point of every Newton pass, on top of _counted_passes."""
    newton = []
    sturm_pass = oracle._newton_pass

    def wrapper(h, x):
        newton.append(x)
        return sturm_pass(h, x)

    monkeypatch.setattr(oracle, "_newton_pass", wrapper)
    return newton


class TestPassBudget:
    @pytest.mark.parametrize("g", [-5.0, 1.0, 5.0])
    def test_sturm_passes_per_eigenvalue(self, monkeypatch, g):
        # 35-37 Newton passes and 55-57 plain counts; the Newton passes,
        # which walk every row, were 52-57 before the far-field fit and the
        # close on the grid cell.  Plain bisection to one cell from the
        # Gershgorin interval needs about 55 counts per eigenvalue.  The
        # odd block, and the levels kept on it, are built afresh, so the
        # count is a cold one
        oracle._odd_block.cache_clear()
        passes = _counted_passes(monkeypatch)
        newton = _counted_newton_passes(monkeypatch)
        spec = eigen_lowest(build_hamiltonian(g), 8)
        assert len(spec.parities) == 8
        assert len(newton) <= 37
        assert len(passes) - len(newton) <= 57
        # pivot rows walked, at most: each pass runs over one half-size
        # mirror block, where passes over the full matrix walked 368k-404k.
        # The sum counts every pass as a full one, though a bisection or
        # closing count stops once it passes j: within a handful of rows at
        # the Gershgorin top, a few hundred near the low levels; and a count
        # stops past the turning point once a pivot passes the bond (107k-110k
        # rows walked in all, 130k-137k before the fitted step, 161k-168k
        # before that stop, 204k-210k when every count ran full; see
        # TestWallStop)
        assert sum(size for _, size in passes) <= 190_000


class TestStartedPassBudget:
    @pytest.mark.parametrize("g", [-5.0, 1.0, 5.0])
    def test_analytic_starts_cut_the_passes(self, monkeypatch, g):
        # TestPassBudget's cold solve with each search started at the
        # analytic level, as crosscheck.compare starts it: 21-22 Newton
        # passes and 9-11 plain counts, 60k-64k rows walked, against 35-38,
        # 56-58 and 184k-188k without the starts
        near = [s.epsilon for s in spectrum.full_spectrum(g, 8)]
        oracle._odd_block.cache_clear()
        passes = _counted_passes(monkeypatch)
        newton = _counted_newton_passes(monkeypatch)
        spec = eigen_lowest(build_hamiltonian(g), 8, near)
        assert spec.parities == ("even", "odd") * 4
        assert len(newton) <= 22
        assert len(passes) - len(newton) <= 11
        assert sum(size for _, size in passes) <= 64_000


def _mirror_pair(d, e):
    """The even and odd blocks, and the dense full matrix, of the
    mirror-symmetric tridiagonal matrix whose diagonal and bonds read d
    and e from the centre node out."""
    even = Tridiagonal(d, np.concatenate(([e[0] * math.sqrt(2.0)], e[1:])))
    bonds = np.concatenate((e[::-1], e))
    full = np.diag(np.concatenate((d[:0:-1], d))) + np.diag(bonds, 1) + np.diag(bonds, -1)
    return (even, Tridiagonal(d[1:], e[1:])), full


def _random_blocks(rng, n):
    # a randomized single well of n = 2c - 1 rows, so the low levels are
    # well separated, with a random centre spike and random bond signs in a
    # mirror-symmetric pattern; the ground state is then even
    c = (n + 1) // 2
    x = np.linspace(0.0, 1.0, c)
    d = 800.0 * x * x + rng.uniform(0.0, 2.0, c)
    d[0] += rng.uniform(-40.0, 40.0)
    e = (200.0 + rng.uniform(0.0, 20.0, c - 1)) * rng.choice((-1.0, 1.0), c - 1)
    return _mirror_pair(d, e)


def _grid_matrix(g, half_width, n_intervals):
    """The full finite-difference matrix on the interior nodes, written out
    from the grid formula with numpy."""
    step = 2.0 * half_width / n_intervals
    y = step * np.arange(1 - n_intervals // 2, n_intervals // 2)
    d = 1.0 / step**2 + 0.5 * y * y
    d[y.size // 2] += g / step
    bonds = np.full(y.size - 1, -0.5 / step**2)
    return np.diag(d) + np.diag(bonds, 1) + np.diag(bonds, -1)


def _dense(h):
    return np.diag(h.diag) + np.diag(h.off, 1) + np.diag(h.off, -1)


def _dense_by_parity(full):
    """Dense eigenvalues of a mirror-symmetric matrix, lowest first, split
    by the mirror parity of their eigenvectors."""
    values, vecs = np.linalg.eigh(full)
    even = np.einsum("ij,ij->j", vecs, vecs[::-1]) > 0.0
    return {"even": values[even], "odd": values[~even]}


def _dense_by_block(blocks):
    """Dense eigenvalues of each block, lowest first, keyed by its parity."""
    return {parity: np.linalg.eigvalsh(_dense(h)) for parity, h in zip(("even", "odd"), blocks)}


def _block_gaps(spec, reference):
    """Largest distance of each parity's levels in spec from the lowest
    levels of the same parity in reference."""
    gaps = {}
    for parity, values in reference.items():
        got = [x for x, p in zip(spec.epsilons, spec.parities) if p == parity]
        gaps[parity] = float(np.max(np.abs(np.array(got) - values[: len(got)])))
    return gaps


def _double_well(a=170.0, n=201):
    # V = a (y^2 - 1)^2 on [-2.5, 2.5]: the barrier splits the lowest pair
    # by about 1e-8, far inside the level spacing above it
    y = np.linspace(0.0, 2.5, (n + 1) // 2)
    step = y[1] - y[0]
    return _mirror_pair(1.0 / step**2 + a * (y * y - 1.0) ** 2, np.full(y.size - 1, -0.5 / step**2))


class TestDenseReference:
    @pytest.mark.parametrize("g", [-5.0, -1.0, 0.0, 1.0, 5.0])
    def test_grid_hamiltonian_matches_dense(self, g):
        blocks = build_hamiltonian(g, n_intervals=800)
        spec = eigen_lowest(blocks, 8)
        assert max(_block_gaps(spec, _dense_by_block(blocks)).values()) <= 1e-9

    def test_near_degenerate_pair_is_resolved(self):
        blocks, full = _double_well()
        dense = np.linalg.eigvalsh(full)[:3]
        assert 1e-9 < dense[1] - dense[0] < 1e-7
        # each member of the pair comes from its own mirror block, and
        # meets that block's dense level, and the full matrix's level whose
        # eigenvector has its parity
        spec = eigen_lowest(blocks, 3)
        assert spec.parities == ("even", "odd", "even")
        for reference in (_dense_by_block(blocks), _dense_by_parity(full)):
            assert max(_block_gaps(spec, reference).values()) <= 1e-9

    @pytest.mark.parametrize("bond", [0.0, 1e-7])
    def test_cluster_below_the_stop_splits_by_parity(self, bond):
        # the even 3 - sqrt(4 + 2 bond^2) = 1 - bond^2/2 + ... and the odd 1
        # lie closer than a 5.8e-11 grid cell; each block brackets its own
        blocks, _ = _mirror_pair(np.array([5.0, 1.0]), np.array([bond]))
        spec = eigen_lowest(blocks, 3)
        assert spec.parities == ("even", "odd", "even")
        root = math.sqrt(4.0 + 2.0 * bond * bond)
        for got, want in zip(spec.epsilons, (3.0 - root, 1.0, 3.0 + root)):
            assert got == pytest.approx(want, rel=0.0, abs=1e-10)


class TestFullMatrixReference:
    @pytest.mark.parametrize("g", [-5.0, -1.0, 0.0, 1.0, 5.0])
    @pytest.mark.parametrize("n_intervals", [4, 8, 400])
    def test_blocks_hold_the_full_spectrum(self, n_intervals, g):
        # the full matrix's eigenvalues, split by the mirror parity of their
        # eigenvectors, are the blocks' own; at N = 4 the odd block is one
        # row with no bond
        blocks = build_hamiltonian(g, 8.0, n_intervals)
        reference = _dense_by_parity(_grid_matrix(g, 8.0, n_intervals))
        scale = max(1.0, np.max(np.abs(np.concatenate(list(reference.values())))))
        for parity, h in zip(("even", "odd"), blocks):
            assert h.size == reference[parity].size
            got = np.linalg.eigvalsh(_dense(h))
            assert np.max(np.abs(got - reference[parity])) <= 1e-12 * scale
        k = min(8, n_intervals - 1)
        spec = eigen_lowest(blocks, k)
        assert spec.parities == (("even", "odd") * k)[:k]
        assert max(_block_gaps(spec, reference).values()) <= 1e-9


class TestMirrorBlockParity:
    @pytest.mark.parametrize("n", [201])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_labels_match_dense_eigenvectors(self, n, seed):
        # each block's five lowest against its own dense levels, and
        # against the full matrix's levels whose eigenvectors have its parity
        blocks, full = _random_blocks(np.random.default_rng(seed), n)
        spec = eigen_lowest(blocks, 10)
        reference = _dense_by_parity(full)
        assert reference["even"][0] < reference["odd"][0]
        assert spec.parities == ("even", "odd") * 5
        for ref in (reference, _dense_by_block(blocks)):
            assert max(_block_gaps(spec, ref).values()) < 1e-8

    def test_degenerate_pair_gets_both_labels(self):
        # two uncoupled copies of one level: the even and the odd
        # combination share the eigenvalue, and each block reports it
        blocks, _ = _mirror_pair(np.array([5.0, 1.0]), np.array([0.0]))
        spec = eigen_lowest(blocks, 2)
        assert spec.parities == ("even", "odd")
        assert spec.epsilons == pytest.approx((1.0, 1.0), rel=0.0, abs=1e-10)


class TestHamiltonianBuild:
    def test_center_node_carries_the_coupling(self):
        even0, odd0 = build_hamiltonian(0.0, n_intervals=400)
        even1, odd1 = build_hamiltonian(2.0, n_intervals=400)
        diff = np.asarray(even1.diag) - np.asarray(even0.diag)
        delta_y = 2.0 * 8.0 / 400
        assert diff[0] == pytest.approx(2.0 / delta_y, rel=1e-12, abs=0.0)
        assert np.all(diff[1:] == 0.0)
        # the odd block never sees the spike
        assert odd1.diag == odd0.diag

    def test_diagonal_is_mirror_symmetric(self):
        # the odd block's nodes are the even block's past the origin, as
        # node pairs of a mirror-symmetric diagonal
        even, odd = build_hamiltonian(1.5, n_intervals=800)
        assert (even.size, odd.size) == (400, 399)
        assert odd.diag == even.diag[1:]
        delta_y = 2.0 * 8.0 / 800
        assert even.diag[-1] == 1.0 / delta_y**2 + 0.5 * (399 * delta_y) ** 2

    def test_off_diagonal_is_constant(self):
        # but for the origin's bond into the even block, sqrt(2) times as large
        even, odd = build_hamiltonian(0.0, n_intervals=100)
        bond = -0.5 / (2.0 * 8.0 / 100) ** 2
        assert even.off[0] == bond * math.sqrt(2.0)
        assert np.all(np.asarray(even.off[1:] + odd.off) == bond)

    @pytest.mark.parametrize(
        "g, half_width, n",
        [
            (-5.0, 8.0, 4000),
            (0.0, 8.0, 4000),
            (1e9, 8.0, 4000),
            (-1e300, 8.0, 4000),
            (0.0, 1e3, 400),
            (-1e3, 6.0, 8),
            (1.0, 8.0, 8),
            # the odd block has one row, and no bond
            (1.0, 8.0, 4),
            (1e3, 8.0, 4),
            # the origin's diagonal 1/dy^2 + g/dy is 0.0
            (-0.25, 8.0, 4),
        ],
    )
    def test_even_block_starts_from_its_gershgorin_interval(self, g, half_width, n):
        # build_hamiltonian seeds the even block's Sturm table from the odd
        # block's rows and the two rows about the origin: the same doubles
        even, _ = build_hamiltonian(g, half_width, n)
        (lo, c_lo, b_lo), (hi, c_hi, b_hi) = even.solved[0]
        assert (lo.hex(), hi.hex()) == tuple(x.hex() for x in oracle._gershgorin(even))
        assert (c_lo, b_lo, c_hi, b_hi) == (0, False, even.size, False)
        assert even.solved[1] == ()

    @pytest.mark.parametrize(
        "g, half_width, n",
        [
            (-5.0, 8.0, 4000),
            (1.0, 8.0, 4000),
            (1e300, 8.0, 4000),
            (np.float64(-60.0), 1e4, 400),
            (1.0, 6.0, 8),
            (1.0, 8.0, 4),
        ],
    )
    def test_even_block_reuses_the_odd_rows(self, g, half_width, n):
        # the even block is assembled from the cached odd block's squares
        # and tail; a fresh block over the same rows has the same doubles
        even, odd = build_hamiltonian(g, half_width, n)
        fresh = Tridiagonal(even.diag, even.off)
        assert (even.squares, even.pivmin, even.tail) == (fresh.squares, fresh.pivmin, fresh.tail)
        assert type(even.diag[0]) is float
        # every row with the plain bond: all but the odd block's first,
        # which has none, and the even block's origin and its link
        assert (odd.tail, even.tail) == ((1, 2) if n > 4 else (1, 1))

    def test_rejects_nonfinite_coupling(self):
        with pytest.raises(ValueError):
            build_hamiltonian(math.nan)

    @pytest.mark.parametrize("g", [1e308, -1e308])
    def test_rejects_a_spike_past_the_double_range(self, g):
        # g is finite, but g/dy = 2.5e310 at dy = 0.004 is not
        with pytest.raises(ValueError, match=r"g=.*dy=0\.004"):
            build_hamiltonian(g)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_intervals": 401},
            {"n_intervals": 2},
            {"half_width": 5.0},
        ],
    )
    def test_config_rejections(self, kwargs):
        with pytest.raises(ValueError):
            build_hamiltonian(0.0, **kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("half_width", math.inf),
            ("half_width", math.nan),
            ("half_width", 1e155),
            ("half_width", 1e158),
            ("n_intervals", 4000.0),
            ("n_intervals", "4000"),
        ],
    )
    def test_config_rejection_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            build_hamiltonian(0.0, **{field: value})

    def test_tridiagonal_shape_validation(self):
        with pytest.raises(ValueError):
            Tridiagonal(np.array([1.0, 2.0]), np.array([0.0, 0.0]))

    def test_tridiagonal_refuses_an_empty_diagonal(self):
        with pytest.raises(ValueError, match="diag must be a nonempty vector"):
            Tridiagonal((), ())

    def test_eigen_count_validation(self):
        blocks = (Tridiagonal((1.0, 2.0), (0.0,)), Tridiagonal((3.0,), ()))
        for k in (0, 4):
            with pytest.raises(ValueError, match=f"need 1 <= k <= 3, got {k}"):
                eigen_lowest(blocks, k)
        for k in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="k must be an integer"):
                eigen_lowest(blocks, k)
        # a 1-row even block holds one of the two even levels k = 3 asks for
        with pytest.raises(ValueError, match="got 1 and 2 rows"):
            eigen_lowest(blocks[::-1], 3)


class TestPlainOscillator:
    def test_lowest_level(self, spec_g0):
        assert spec_g0.epsilons[0] == pytest.approx(0.5, abs=1e-5)

    def test_lowest_eight_levels(self, spec_g0):
        # discretization error grows with level: 5.7e-5 at n=7, N=4000
        for n, eps in enumerate(spec_g0.epsilons):
            assert eps == pytest.approx(n + 0.5, abs=1e-4)

    def test_parities_alternate(self, spec_g0):
        assert spec_g0.parities == ("even", "odd") * 4


class TestAgainstAnalyticSolver:
    def test_repulsive_ground_state(self, spec_g1):
        assert spec_g1.epsilons[0] == pytest.approx(0.8927, abs=1e-2)

    def test_deep_bound_state(self, spec_gm5):
        # coarse-grid gap to the analytic -12.4900 measured at 1.25e-3
        assert spec_gm5.epsilons[0] == pytest.approx(-12.4900, abs=2e-3)

    def test_attractive_ground_vector_is_even(self, spec_gm25):
        assert spec_gm25.parities[0] == "even"

    @pytest.mark.parametrize("g", [1e20, 1e100, 1e300])
    def test_even_block_meets_the_strong_repulsion_limit(self, g):
        # the even ground level falls onto the odd one at 1.5, up to the
        # grid's own 2.5e-6; the spike g/dy must not widen the pivot floor
        even, _ = build_hamiltonian(g)
        assert oracle._lowest(even, 1)[0] == pytest.approx(1.5, abs=1e-5)


class TestConvergence:
    def test_halving_the_spacing_shows_second_order(self):
        analytic = spectrum.full_spectrum(1.0, 1)
        ref = analytic[0].epsilon
        errs = []
        for n_int in (1000, 2000, 4000):
            spec = eigen_lowest(build_hamiltonian(1.0, n_intervals=n_int), 1)
            errs.append(abs(spec.epsilons[0] - ref))
        for coarse, fine in zip(errs, errs[1:]):
            order = math.log2(coarse / fine)
            assert 1.0 <= order <= 2.5

    def test_bound_state_converges_too(self):
        ref = spectrum.full_spectrum(-2.5, 1)[0].epsilon
        coarse = eigen_lowest(build_hamiltonian(-2.5, n_intervals=1000), 1)
        fine = eigen_lowest(build_hamiltonian(-2.5, n_intervals=2000), 1)
        assert abs(fine.epsilons[0] - ref) < abs(coarse.epsilons[0] - ref)


class TestOddInertness:
    def test_odd_levels_ignore_the_coupling(self, spec_g0, spec_g5, spec_gm5):
        # against an odd block written out from the grid formula apart from
        # build_hamiltonian, and solved cold
        step = 2.0 * 8.0 / 4000
        y = step * np.arange(1, 2000)
        cold = Tridiagonal(1.0 / step**2 + 0.5 * y * y, np.full(1998, -0.5 / step**2))
        base = oracle._lowest(cold, 4)
        for spec in (spec_g0, spec_g5, spec_gm5):
            odds = [e for e, p in zip(spec.epsilons, spec.parities) if p == "odd"]
            assert len(odds) >= 3
            for got, ref in zip(odds, base):
                assert abs(got - ref) < 1e-6

    def test_a_second_coupling_makes_no_pass_on_the_odd_block(self, monkeypatch):
        eigen_lowest(build_hamiltonian(1.0), 8)
        passes = _counted_passes(monkeypatch)
        even, odd = build_hamiltonian(-2.5)
        spec = eigen_lowest((even, odd), 8)
        assert spec.parities == ("even", "odd") * 4
        assert {size for _, size in passes} == {even.size}

    def test_levels_solved_in_steps_keep_their_bits(self, monkeypatch):
        # each call extends the levels kept on the block, or reads their
        # prefix; a fresh block solved once is the reference
        _, odd = build_hamiltonian(0.0, n_intervals=2000)
        passes = _counted_passes(monkeypatch)
        cold = [x.hex() for x in oracle._lowest(Tridiagonal(odd.diag, odd.off), 9)]
        cold_passes = passes[:]
        passes.clear()
        stepped = Tridiagonal(odd.diag, odd.off)
        for n in (2, 7, 4, 9):
            assert [x.hex() for x in oracle._lowest(stepped, n)] == cold[:n]
        # the steps carry the table on, so they make the cold solve's passes
        assert passes == cold_passes

    def test_threads_sharing_the_odd_block_read_the_cold_bits(self):
        # the cached block is shared: calls at once may solve a level twice,
        # but every level read has the bits of a cold solve
        _, odd = build_hamiltonian(0.0, 8.0, 400)
        cold = oracle._lowest(Tridiagonal(odd.diag, odd.off), 8)
        results, errors = [], []

        def work(seed, start):
            try:
                start.wait(timeout=10.0)
                for k in (2 + seed % 3, 16, 5, 9):
                    spec = eigen_lowest(build_hamiltonian(0.5 * seed, 8.0, 400), k)
                    results.append(spec.epsilons[1::2])
            except Exception as exc:  # reported below, as a thread cannot raise into the test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                oracle._odd_block.cache_clear()
                start = threading.Barrier(6)
                threads = [threading.Thread(target=work, args=(seed, start)) for seed in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads) and not errors
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 240
        for odds in results:
            assert list(odds) == cold[: len(odds)]

    @pytest.mark.parametrize("n_intervals", [400, 2000, 4000])
    def test_odd_levels_follow_the_grid_error_closed_form(self, n_intervals):
        # the odd block never sees g, so its levels are the second-order
        # difference oscillator's: eps - (dy^2/16)(eps^2 + 1/4) + O(dy^4),
        # eps = 2j + 3/2; the remainder reads at most 14.65 dy^4 (N = 400)
        dy = 2.0 * 8.0 / n_intervals
        _, odd = build_hamiltonian(1.0, 8.0, n_intervals)
        for j, level in enumerate(oracle._lowest(odd, 8)):
            eps = 2.0 * j + 1.5
            assert abs(level - (eps - dy * dy / 16.0 * (eps * eps + 0.25))) <= 16.0 * dy**4


class TestVariationalDirection:
    def test_positive_coupling_raises_the_ground_state(self, spec_g1):
        assert spec_g1.epsilons[0] > 0.5

    def test_negative_coupling_lowers_it(self, spec_gm25):
        assert spec_gm25.epsilons[0] < 0.5


class TestSturmSelfConsistency:
    def test_count_matches_enumeration(self, spec_g1):
        enumerated = sum(1 for e in spec_g1.epsilons if e < 5.0)
        assert sum(count_below(h, 5.0) for h in build_hamiltonian(1.0)) == enumerated


def _reference_pass(h, x):
    """count and log-derivative of det(h - x), with the pivot floor written
    out case by case as in LAPACK dstebz: |q| < pivmin becomes -pivmin,
    then a negative pivot counts."""
    count, q, w, total = 0, 1.0, 0.0, 0.0
    for di, ei in zip(h.diag, (0.0,) + h.off):
        r = ei * ei / q
        q = di - x - r
        if abs(q) < h.pivmin:
            q = -h.pivmin
        if q < 0.0:
            count += 1
        w = (r * w - 1.0) / q
        total += w
    return count, total


def _samples(rng, h, n):
    # points over the Gershgorin interval, crowded towards its low end
    # where the eigenvalues under test lie; limits over 0..size
    lo, hi = oracle._gershgorin(h)
    xs = lo + (hi - lo) * rng.uniform(0.0, 1.0, n) ** 4
    return zip(xs.tolist(), rng.integers(0, h.size + 1, n).tolist())


class TestCountSemantics:
    def test_passes_on_random_points_and_limits(self):
        # the N = 4000 blocks and random ones; the Newton pass matches the
        # written-out floor bit for bit, its log-derivative included, so the
        # floored pivots are the same doubles
        rng = np.random.default_rng(4000)
        matrices = itertools.chain.from_iterable(
            [build_hamiltonian(g) for g in (-5.0, 0.0, 1.0, 1e9)]
            + [_random_blocks(np.random.default_rng(seed), n)[0] for seed in (1, 2, 3) for n in (201, 101)]
        )
        for h in matrices:
            for x, limit in _samples(rng, h, 60):
                full = count_below(h, x)
                assert count_below(h, x, limit) == min(full, limit + 1)
                count, total = oracle._newton_pass(h, x)
                ref_count, ref_total = _reference_pass(h, x)
                assert (count, total.hex()) == (full, ref_total.hex())
                assert ref_count == full

    def test_table_entries_hold_or_bound_the_full_count(self):
        h, _ = build_hamiltonian(1.0)
        lo, hi = oracle._gershgorin(h)
        table = [(lo, 0, False), (hi, h.size, False)]
        for j in range(1, 6):
            oracle._eigenvalue(h, j, table)
        xs = [x for x, _, _ in table]
        assert xs == sorted(xs)
        assert any(bound for _, _, bound in table)
        for x, c, bound in table:
            full = count_below(h, x)
            assert c <= full if bound else c == full


def _full_walk(h, x, limit=math.inf):
    """count_below with no stop but the limit's: every row walked."""
    count, q = 0, 1.0
    for di, ei in zip(h.diag, (0.0,) + h.off):
        q = di - x - ei * ei / q
        if q < h.pivmin:
            count += 1
            if count > limit:
                return count
            if q > -h.pivmin:
                q = -h.pivmin
    return count


class _CountedRows(tuple):
    """A diagonal that counts the rows a Sturm pass walks through it."""

    walked = 0

    def __iter__(self):
        for value in super().__iter__():
            _CountedRows.walked += 1
            yield value


def _walked(h, x):
    h.diag = _CountedRows(h.diag)
    _CountedRows.walked = 0
    count_below(h, x)
    return _CountedRows.walked


class TestWallStop:
    SPECIAL = (math.nan, math.inf, -math.inf, 0.0, 1e308, -1e308)

    @pytest.mark.parametrize("n", [4, 8, 12, 400, 2000, 4000])
    @pytest.mark.parametrize("half_width", [6.0, 8.0, 1e4])
    def test_count_equals_the_full_walk_on_grids(self, n, half_width):
        # each low level and points just either side of it, where the
        # walk runs farthest, and points over the Gershgorin interval
        rng = np.random.default_rng(n)
        for g in (-1e3, -5.0, 1.0, 1e300):
            blocks = build_hamiltonian(g, half_width, n)
            levels = eigen_lowest(blocks, min(4, n - 1)).epsilons
            for h in blocks:
                xs = list(self.SPECIAL) + [v + d for v in levels for d in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9)]
                xs += [x for x, _ in _samples(rng, h, 10)]
                for x in xs:
                    for limit in (math.inf, 0, 2):
                        assert count_below(h, x, limit) == _full_walk(h, x, limit), (g, x, limit)

    def test_count_equals_the_full_walk_on_random_blocks(self):
        # plain bonds with a diagonal that falls, or a bond that grows,
        # inside what would otherwise be the tail: rows before the break
        # may not stop
        rng = np.random.default_rng(36)
        for trial in range(300):
            n = int(rng.integers(2, 40))
            d = np.sort(rng.uniform(-10.0, 10.0, n))
            e = np.full(n - 1, rng.uniform(0.5, 3.0)) * rng.choice((-1.0, 1.0), n - 1)
            kind = trial % 4
            brk = int(rng.integers(1, n))
            if kind == 1:
                d[brk] = d[brk - 1] - rng.uniform(0.1, 5.0)
            elif kind == 2:
                e[brk - 1] *= 1.5
            elif kind == 3:
                e = rng.uniform(-3.0, 3.0, n - 1)
            h = Tridiagonal(d, e)
            # the tail starts past the fall, and past a grown bond that is
            # not the last
            if kind == 1 or kind == 2 and brk + 1 < n:
                assert h.tail >= brk + (kind == 2)
            xs = list(self.SPECIAL) + rng.uniform(-20.0, 20.0, 10).tolist() + d.tolist()
            for x in xs:
                for limit in (math.inf, 0, int(rng.integers(0, n + 1))):
                    assert count_below(h, x, limit) == _full_walk(h, x, limit), (trial, x, limit)

    def test_the_bisected_row_must_pass_the_check(self):
        # fl(0.3 + 2) - 0.3 is 1.9999999999999998: the row found at x + 2|e|
        # falls one rounding short of the wall, so no stop is offered
        h = Tridiagonal((0.0, 0.3 + 2.0), (1.0,))
        assert oracle._wall(h, 0.3) == (2, math.inf)
        assert oracle._wall(h, 0.2) == (0, 1.0)

    def test_a_bond_below_the_pivot_floor_offers_no_stop(self):
        # the 1e150 bond lifts pivmin to 2.2e-8, past the tail's bond 1e-9:
        # the pivots near 1e-8 past the wall are positive, yet they count
        h = Tridiagonal((0.0, 0.0, 1.0, 1.0), (1e150, 1e-9, 1e-9))
        x = 1.0 - 1e-8
        assert oracle._wall(h, x) == (4, math.inf)
        assert count_below(h, x) == _full_walk(h, x) == 3

    def test_counts_stop_past_the_turning_point(self):
        # at g = 1 on the N = 4000 grid a mid-gap count walks 478 of the
        # even block's 2,000 rows and a count at the ground level +-4e-11,
        # where the closing counts fall, walks 1,297-1,322: a walk that ran
        # to the last row, as before the stop, would walk 2,000 each
        even, odd = build_hamiltonian(1.0)
        levels = eigen_lowest((even, odd), 3).epsilons
        assert _walked(even, 0.5 * (levels[0] + levels[2])) <= 500
        for x in (levels[0] - 4e-11, levels[0] + 4e-11):
            assert _walked(even, x) <= 1_350

    @pytest.mark.parametrize("g", [-5.0, -2.5, 0.0, 1.0, 5.0])
    def test_cold_solve_walks_fewer_rows(self, g):
        # a cold 8-level solve walks 107.1k-112k rows (130k-141.5k before
        # the fitted Newton step), against 161k-172k when every count ran to
        # the end or to its limit
        oracle._odd_block.cache_clear()
        try:
            even, odd = build_hamiltonian(g)
            odd.diag = _CountedRows(odd.diag)
            even.diag = _CountedRows(even.diag)
            _CountedRows.walked = 0
            eigen_lowest((even, odd), 8)
            assert _CountedRows.walked <= 113_000
        finally:
            oracle._odd_block.cache_clear()


class TestPivotFloor:
    # pivmin is the smallest normal double here: no bond exceeds 1
    TINY = sys.float_info.min

    @pytest.mark.parametrize(
        "first, count",
        [
            (0.0, 1),  # exactly zero: inside the band, negative
            (-0.0, 1),
            (-TINY, 1),  # exactly -pivmin: already negative, kept
            (0.5 * TINY, 1),  # positive but inside the band
            (-0.5 * TINY, 1),
            (TINY, 0),  # exactly pivmin: outside the band
            (math.nextafter(-TINY, -1.0), 1),
        ],
    )
    def test_first_pivot_on_the_band(self, first, count):
        # alone, the pivot d_0 - x = first is the count
        alone = Tridiagonal((first,), ())
        assert alone.pivmin == self.TINY
        assert count_below(alone, 0.0) == count
        for limit in range(2):
            assert count_below(alone, 0.0, limit) == min(count, limit + 1)
        # ahead of a bond, the one negative eigenvalue is counted at the
        # first pivot, or at the second when the first is pivmin or more
        h = Tridiagonal((first, 3.0), (1.0,))
        assert count_below(h, 0.0) == 1
        assert count_below(h, 0.0, 0) == 1
        ref_count, ref_total = _reference_pass(h, 0.0)
        got_count, got_total = oracle._newton_pass(h, 0.0)
        assert (got_count, got_total.hex()) == (ref_count, ref_total.hex())

    def test_zero_pivot_inside_the_recurrence(self):
        # q_0 = 1 and q_1 = 1 - 1/1 = 0 exactly: without the floor q_2
        # would divide by zero
        h = Tridiagonal((1.0, 1.0, 2.0), (1.0, 1.0))
        assert count_below(h, 0.0) == 1
        assert count_below(h, 0.0, 0) == 1
        assert oracle._newton_pass(h, 0.0)[0] == 1
        assert _reference_pass(h, 0.0)[0] == 1

    def test_nan_counts_nothing(self):
        h = Tridiagonal((1.0, 1.0, 2.0), (1.0, 1.0))
        assert count_below(h, math.nan) == 0
        assert count_below(h, math.nan, 0) == 0
        assert oracle._newton_pass(h, math.nan)[0] == 0

class TestPinnedBits:
    # float.hex of eigen_lowest(build_hamiltonian(g, n_intervals=N), 8):
    # each is the midpoint of its level's cell on the 2**-34 grid, so the
    # doubles are the matrix's, not the search path's; a faster search
    # must return the same doubles, and TestCanonicalCells bisects to each
    PINNED = {
        (-5.0, 4000): (
            "-0x1.8fa41182f4000p+3",
            "0x1.7fffd60ea0000p+0",
            "0x1.bb03d55020000p+0",
            "0x1.bfff972450000p+1",
            "0x1.e94d84ad10000p+1",
            "0x1.5fff8012b8000p+2",
            "0x1.7887c06068000p+2",
            "0x1.dfff130528000p+2",
        ),
        (-2.5, 4000): (
            "-0x1.8b1021f0f0000p+1",
            "0x1.7fffd60ea0000p+0",
            "0x1.edb1c8f660000p+0",
            "0x1.bfff972450000p+1",
            "0x1.02afd70eb8000p+2",
            "0x1.5fff8012b8000p+2",
            "0x1.86b9f0dea8000p+2",
            "0x1.dfff130528000p+2",
        ),
        (0.0, 4000): (
            "0x1.ffffde7280000p-2",
            "0x1.7fffd60ea0000p+0",
            "0x1.3fffc97950000p+1",
            "0x1.bfff972450000p+1",
            "0x1.1fffaa0438000p+2",
            "0x1.5fff8012b8000p+2",
            "0x1.9fff4dbda8000p+2",
            "0x1.dfff130528000p+2",
        ),
        (1.0, 4000): (
            "0x1.c915bfbb40000p-1",
            "0x1.7fffd60ea0000p+0",
            "0x1.6097ed13d0000p+1",
            "0x1.bfff972450000p+1",
            "0x1.2ccfb4bc68000p+2",
            "0x1.5fff8012b8000p+2",
            "0x1.aadf22b788000p+2",
            "0x1.dfff130528000p+2",
        ),
        (5.0, 4000): (
            "0x1.4bcea67fa0000p+0",
            "0x1.7fffd60ea0000p+0",
            "0x1.99a3566ff0000p+1",
            "0x1.bfff972450000p+1",
            "0x1.48baf22b08000p+2",
            "0x1.5fff8012b8000p+2",
            "0x1.c5acd25308000p+2",
            "0x1.dfff130528000p+2",
        ),
        (1.0, 2000): (
            "0x1.c915c0d6c0000p-1",
            "0x1.7fff583a20000p+0",
            "0x1.60976c4cf0000p+1",
            "0x1.bffe5c9050000p+1",
            "0x1.2ccecc7af8000p+2",
            "0x1.5ffe004898000p+2",
            "0x1.aadd2c3588000p+2",
            "0x1.dffc4c0f08000p+2",
        ),
    }

    @pytest.fixture(autouse=True)
    def cold_odd_block(self):
        # the pinned bits are a cold solve's: earlier tests leave the odd
        # blocks of these grids solved, which would check only the warm path
        oracle._odd_block.cache_clear()

    @pytest.mark.parametrize("g, n", list(PINNED))
    def test_eigenvalues_keep_their_bits(self, g, n):
        spec = eigen_lowest(build_hamiltonian(g, n_intervals=n), 8)
        assert tuple(x.hex() for x in spec.epsilons) == self.PINNED[g, n]
        assert spec.parities == ("even", "odd") * 4


def _ordinal(x):
    """x's place in the order of the doubles, as an integer."""
    bits = struct.unpack("<q", struct.pack("<d", abs(x)))[0]
    return bits if x >= 0.0 else -bits


def _from_ordinal(k):
    return math.copysign(struct.unpack("<d", struct.pack("<q", abs(k)))[0], k)


def _bisected_level(h, j, near):
    """Eigenvalue j of h by plain bisection on count_below over the grid.

    The grid is the multiples of 2**-34 below 2**18 and every double past
    it.  Starting from grid points a millionth (relative, past 2**18) either
    side of near, which must hold the level between them, it halves down to
    the neighbouring grid points a, b with count(a) <= j - 1 < j <= count(b),
    and returns their midpoint.
    """
    reach = 1e-6 * max(1.0, abs(near))
    if abs(near) + reach < 2.0**18:
        # grid points as integer multiples of 2**-34
        lo, hi = math.floor((near - reach) * 2**34), math.ceil((near + reach) * 2**34)
        point = lambda m: m * 2.0**-34
    else:
        lo, hi = _ordinal(near - reach), _ordinal(near + reach)
        assert abs(near) - reach >= 2.0**18
        point = _from_ordinal
    assert count_below(h, point(lo)) <= j - 1 and count_below(h, point(hi)) >= j
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if count_below(h, point(mid)) >= j:
            hi = mid
        else:
            lo = mid
    a, b = point(lo), point(hi)
    return a + 0.5 * (b - a)


def _assert_bisected(blocks, spec):
    for index, (level, parity) in enumerate(zip(spec.epsilons, spec.parities)):
        h = blocks[parity == "odd"]
        assert level.hex() == _bisected_level(h, index // 2 + 1, level).hex(), (index, parity)


class TestCanonicalCells:
    # every level is the midpoint of its cell on the 2**-34 grid, whatever
    # the search did before: solved cold, on a cached odd block, or one
    # level per call; past 2**18 a cell is two neighbouring doubles
    @pytest.mark.parametrize("n_intervals", [2000, 4000])
    @pytest.mark.parametrize("g", [-1e4, -5.0, -3.7, -2.5, -1.0, -0.3, 0.0, 0.45, 1.0, 2.5, 5.0, 1e12])
    def test_levels_are_the_bisected_cells(self, g, n_intervals):
        oracle._odd_block.cache_clear()
        blocks = build_hamiltonian(g, n_intervals=n_intervals)
        cold = eigen_lowest(blocks, 10)
        _assert_bisected(blocks, cold)
        # a second coupling reads the odd levels the first left on the block
        warm_blocks = build_hamiltonian(-g, n_intervals=n_intervals)
        warm = eigen_lowest(warm_blocks, 10)
        _assert_bisected(warm_blocks, warm)
        oracle._odd_block.cache_clear()
        stepped_blocks = build_hamiltonian(g, n_intervals=n_intervals)
        for k in range(1, 11):
            stepped = eigen_lowest(stepped_blocks, k)
        assert stepped.epsilons == cold.epsilons
        if g == -1e4:
            # the spike's bound state near -2.4e6, where a cell is two doubles
            assert cold.epsilons[0] < -2.0**18

    def test_cells_past_two_to_the_eighteen_are_neighbouring_doubles(self):
        # the blocks of test_bisection_ends_where_doubles_are_wider_than_its_tolerance
        blocks = (Tridiagonal((1e7, 1e7), (-1.0,)), Tridiagonal((1e7 + 2.0, 1e7 + 2.0), (-1.0,)))
        _assert_bisected(blocks, eigen_lowest(blocks, 4))

    @pytest.mark.parametrize("g, n", list(TestPinnedBits.PINNED))
    def test_pins_are_the_bisected_cells(self, g, n):
        blocks = build_hamiltonian(g, n_intervals=n)
        levels = [float.fromhex(x) for x in TestPinnedBits.PINNED[g, n]]
        _assert_bisected(blocks, oracle.OracleSpectrum(levels, ("even", "odd") * 4))


class TestStarts:
    # near changes where each search starts, never the double it returns:
    # a start far off, at another level, or missing falls back to the
    # start-free search after at most three Newton passes on its level
    @staticmethod
    def _bad_starts(reference, glo, ghi, rng):
        k = len(reference)
        return {
            "nan": [math.nan] * k,
            "inf": [math.inf] * k,
            "-inf": [-math.inf] * k,
            "1e300": [1e300] * k,
            "-1e300": [-1e300] * k,
            "zero": [0.0] * k,
            "next level": list(reference[1:]) + [reference[-1] + 1.0],
            "previous level": [reference[0] - 1.0] + list(reference[:-1]),
            "next of its parity": list(reference[2:]) + [reference[-1] + 2.0] * 2,
            "gershgorin": rng.uniform(glo, ghi, k).tolist(),
            "short": list(reference[:3]),
        }

    @pytest.mark.parametrize("n_intervals", [4000, 2000])
    @pytest.mark.parametrize("g", [-5.0, -1.0, 0.0, 1.0, 5.0, 1e12])
    def test_a_bad_start_moves_no_bit(self, monkeypatch, g, n_intervals):
        k = 8
        newton = _counted_newton_passes(monkeypatch)
        oracle._odd_block.cache_clear()
        reference = eigen_lowest(build_hamiltonian(g, n_intervals=n_intervals), k).epsilons
        free_passes = len(newton)
        glo, ghi = oracle._gershgorin(build_hamiltonian(g, n_intervals=n_intervals)[0])
        starts = self._bad_starts(reference, glo, ghi, np.random.default_rng(46))
        for name, near in starts.items():
            oracle._odd_block.cache_clear()
            newton.clear()
            cold = eigen_lowest(build_hamiltonian(g, n_intervals=n_intervals), k, near)
            assert [x.hex() for x in cold.epsilons] == [x.hex() for x in reference], name
            # at most three wasted Newton passes on each level started
            assert len(newton) <= free_passes + 3 * min(len(near), k), name
            # warm: the odd levels, and part of the even block's table, kept
            # from calls without a start
            oracle._odd_block.cache_clear()
            blocks = build_hamiltonian(g, n_intervals=n_intervals)
            eigen_lowest(blocks, 3)
            warm = eigen_lowest(blocks, k, near)
            assert [x.hex() for x in warm.epsilons] == [x.hex() for x in reference], name

    def test_a_good_start_moves_no_bit(self):
        # the analytic levels crosscheck.compare passes, on the pinned grids
        for (g, n), pinned in TestPinnedBits.PINNED.items():
            oracle._odd_block.cache_clear()
            near = [s.epsilon for s in spectrum.full_spectrum(g, 8)]
            spec = eigen_lowest(build_hamiltonian(g, n_intervals=n), 8, near)
            assert tuple(x.hex() for x in spec.epsilons) == pinned


class TestIndependence:
    def test_oracle_imports_nothing_from_the_analytic_route(self):
        # the cross-check means something only while the two routes share
        # no code
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported.update(alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                if node.module:
                    imported.update(node.module.split("."))
                imported.update(alias.name for alias in node.names)
        assert not imported & {"spectrum", "specfun", "wavefunction"}

"""Finite-difference oracle: eigensolver core, parity labels, convergence."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from deltaho import oracle, spectrum
from deltaho.oracle import (
    OracleConfig,
    OracleSpectrum,
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
        h = Tridiagonal(np.array([2.0, 2.0]), np.array([-1.0]))
        spec = eigen_lowest(h, 2)
        assert spec.epsilons[0] == pytest.approx(1.0, abs=1e-9)
        assert spec.epsilons[1] == pytest.approx(3.0, abs=1e-9)
        assert spec.parities == ("even", "odd")

    def test_diagonal_matrix_eigenvalues(self):
        h = Tridiagonal(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0]))
        spec = eigen_lowest(h, 2, classify=False)
        assert spec.epsilons[0] == pytest.approx(1.0, abs=1e-9)
        assert spec.epsilons[1] == pytest.approx(2.0, abs=1e-9)
        assert spec.parities == ()

    def test_diagonal_matrix_has_no_parity(self):
        # diag [1, 2, 3] is not mirror-symmetric, so no labels exist
        h = Tridiagonal(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            eigen_lowest(h, 2)

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
        spec = eigen_lowest(h, 5, classify=False)
        dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        assert np.max(np.abs(np.array(spec.epsilons) - dense[:5])) < 1e-8

    def test_bisection_ends_where_doubles_are_wider_than_its_tolerance(self, monkeypatch):
        # near 1e7 adjacent doubles lie 1.9e-9 apart, so a width of 1e-10
        # is never reached; the cap turns a hang into a failure
        passes = _counted_passes(monkeypatch, cap=1000)
        spec = eigen_lowest(Tridiagonal((1e7, 1e7), (-1.0,)), 2)
        assert spec.epsilons[0] == pytest.approx(1e7 - 1.0, rel=1e-15)
        assert spec.epsilons[1] == pytest.approx(1e7 + 1.0, rel=1e-15)
        assert spec.parities == ("even", "odd")
        # the spike's bound state near -2.4e6, where doubles lie 4.7e-10
        # apart: a single impurity site on the hopping chain
        passes.clear()
        delta = 16.0 / 4000
        spike, bond = -1e4 / delta, 0.5 / delta**2
        spec = eigen_lowest(build_hamiltonian(-1e4), 2)
        bound = 1.0 / delta**2 - math.sqrt(spike * spike + 4.0 * bond * bond)
        assert spec.epsilons[0] == pytest.approx(bound, rel=1e-13)
        assert spec.epsilons[1] == pytest.approx(1.5, abs=1e-5)
        assert spec.parities == ("even", "odd")


def _counted_passes(monkeypatch, cap=math.inf):
    """Record the point of every Sturm pass, plain count or Newton step.

    Past cap passes the next one raises, so a search that never ends
    fails instead of hanging.
    """
    passes = []

    def counted(sturm_pass):
        def wrapper(h, x, *rest):
            passes.append(x)
            if len(passes) > cap:
                raise RuntimeError("eigenvalue search does not terminate")
            return sturm_pass(h, x, *rest)

        return wrapper

    for name in ("count_below", "_newton_pass"):
        monkeypatch.setattr(oracle, name, counted(getattr(oracle, name)))
    return passes


class TestPassBudget:
    @pytest.mark.parametrize("g", [-5.0, 1.0, 5.0])
    def test_sturm_passes_per_eigenvalue(self, monkeypatch, g):
        # labels included; plain bisection to 1e-10 from the Gershgorin
        # interval needs about 55 per eigenvalue
        passes = _counted_passes(monkeypatch)
        spec = eigen_lowest(build_hamiltonian(g), 8)
        assert len(spec.parities) == 8
        assert len(passes) <= 20 * 8


def _mirror_symmetric(rng, n):
    # a randomized single well, so the low levels are well separated, with
    # random bond signs in a mirror-symmetric pattern; the centre bond of an
    # even size is then positive, which makes the ground state odd
    x = np.linspace(-1.0, 1.0, n)
    d = 400.0 * x * x + rng.uniform(0.0, 1.0, n)
    if n % 2:
        d[n // 2] += rng.uniform(-20.0, 20.0)
    e = 100.0 + rng.uniform(0.0, 10.0, n - 1)
    signs = rng.choice((-1.0, 1.0), n - 1)
    return Tridiagonal(d + d[::-1], (e + e[::-1]) * signs * signs[::-1])


def _dense(h):
    return np.diag(h.diag) + np.diag(h.off, 1) + np.diag(h.off, -1)


def _double_well(a=170.0, n=201):
    # V = a (y^2 - 1)^2 on [-2.5, 2.5]: the barrier splits the lowest pair
    # by about 1e-8, far inside the level spacing above it
    y = np.linspace(-2.5, 2.5, n)
    step = y[1] - y[0]
    v = a * (y * y - 1.0) ** 2
    return Tridiagonal(1.0 / step**2 + 0.5 * (v + v[::-1]), np.full(n - 1, -0.5 / step**2))


class TestDenseReference:
    @pytest.mark.parametrize("g", [-5.0, -1.0, 0.0, 1.0, 5.0])
    def test_grid_hamiltonian_matches_dense(self, g):
        h = build_hamiltonian(g, OracleConfig(n_intervals=800))
        spec = eigen_lowest(h, 8)
        dense = np.linalg.eigvalsh(_dense(h))[:8]
        assert np.max(np.abs(np.array(spec.epsilons) - dense)) <= 1e-9

    def test_near_degenerate_pair_is_resolved(self):
        h = _double_well()
        dense = np.linalg.eigvalsh(_dense(h))[:3]
        assert 1e-9 < dense[1] - dense[0] < 1e-7
        # the pair sits inside one label window, so it has no parities
        spec = eigen_lowest(h, 3, classify=False)
        assert spec.epsilons[0] < spec.epsilons[1] < spec.epsilons[2]
        assert np.max(np.abs(np.array(spec.epsilons) - dense)) <= 1e-9

    @pytest.mark.parametrize("bond", [0.0, 1e-7])
    def test_cluster_below_the_stop_is_named(self, bond):
        # eigenvalues 1 and 1 - bond^2/2 lie closer than the 1e-10 stop,
        # so both brackets close on the same points
        h = Tridiagonal((1.0, 5.0, 1.0), (bond, bond))
        with pytest.raises(ValueError, match=r"eigenvalues 0 and 1 .*(1\.0000000000|0\.9999999999)"):
            eigen_lowest(h, 2, classify=False)


class TestMirrorBlockParity:
    @pytest.mark.parametrize("n", [201, 200])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_labels_match_dense_eigenvectors(self, n, seed):
        h = _mirror_symmetric(np.random.default_rng(seed), n)
        spec = eigen_lowest(h, 10)
        values, vecs = np.linalg.eigh(_dense(h))
        expected = tuple(
            "even" if vecs[:, j] @ vecs[::-1, j] > 0.0 else "odd" for j in range(10)
        )
        assert spec.parities == expected
        assert spec.parities[0] == ("even" if n % 2 else "odd")
        assert np.max(np.abs(np.array(spec.epsilons) - values[:10])) < 1e-8

    def test_asymmetric_off_diagonal_is_rejected(self):
        d = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        e = np.array([-1.0, -0.5, -0.5, -0.25])
        with pytest.raises(ValueError, match="mirror-symmetric"):
            eigen_lowest(Tridiagonal(d, e), 2)
        assert len(eigen_lowest(Tridiagonal(d, e), 2, classify=False).epsilons) == 2

    def test_one_by_one_is_even(self):
        assert eigen_lowest(Tridiagonal(np.array([4.0]), np.array([])), 1).parities == ("even",)

    def test_degenerate_pair_is_rejected(self):
        # two uncoupled copies of one level: an even and an odd eigenvector
        # share the eigenvalue, so neither label is right
        h = Tridiagonal(np.array([1.0, 5.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            eigen_lowest(h, 1)


class TestHamiltonianBuild:
    def test_center_node_carries_the_coupling(self):
        cfg = OracleConfig(n_intervals=400)
        h0 = build_hamiltonian(0.0, cfg)
        h1 = build_hamiltonian(2.0, cfg)
        diff = np.asarray(h1.diag) - np.asarray(h0.diag)
        center = cfg.n_intervals // 2 - 1
        delta_y = 2.0 * cfg.half_width / cfg.n_intervals
        assert diff[center] == pytest.approx(2.0 / delta_y, rel=1e-12)
        assert np.all(diff[np.arange(diff.size) != center] == 0.0)

    def test_diagonal_is_mirror_symmetric(self):
        h = build_hamiltonian(1.5, OracleConfig(n_intervals=800))
        assert np.array_equal(h.diag, h.diag[::-1])

    def test_off_diagonal_is_constant(self):
        cfg = OracleConfig(n_intervals=100)
        h = build_hamiltonian(0.0, cfg)
        delta_y = 2.0 * cfg.half_width / cfg.n_intervals
        assert np.all(np.asarray(h.off) == -0.5 / delta_y**2)

    def test_rejects_nonfinite_coupling(self):
        with pytest.raises(ValueError):
            build_hamiltonian(math.nan)

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
            OracleConfig(**kwargs)

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
            OracleConfig(**{field: value})

    def test_tridiagonal_shape_validation(self):
        with pytest.raises(ValueError):
            Tridiagonal(np.array([1.0, 2.0]), np.array([0.0, 0.0]))

    def test_eigen_count_validation(self):
        h = Tridiagonal(np.array([1.0, 2.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            eigen_lowest(h, 3)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            OracleSpectrum((1.0, 1.0), ("even", "odd"))
        with pytest.raises(ValueError):
            OracleSpectrum((1.0, 2.0), ("even",))
        with pytest.raises(ValueError):
            OracleSpectrum((1.0, 2.0), ("even", "mixed"))


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
    # bound fixed by the spacing-halving study: worst gap 7.8e-5 at
    # N=4000 (the g=-2.5 bound state), order 2.0 throughout
    GAP_BOUND = 1e-3

    @pytest.mark.parametrize("g", [1.0, -1.0, 2.5, -2.5])
    def test_six_lowest_match(self, g):
        analytic = spectrum.full_spectrum(g, spectrum.SolverConfig(n_states=6))
        spec = eigen_lowest(build_hamiltonian(g), 6)
        for got, ref in zip(spec.epsilons, analytic):
            assert got == pytest.approx(ref.epsilon, abs=self.GAP_BOUND)
        assert spec.parities == tuple(s.parity for s in analytic)

    def test_repulsive_ground_state(self, spec_g1):
        assert spec_g1.epsilons[0] == pytest.approx(0.8927, abs=1e-2)

    def test_deep_bound_state(self, spec_gm5):
        # coarse-grid gap to the analytic -12.4900 measured at 1.25e-3
        assert spec_gm5.epsilons[0] == pytest.approx(-12.4900, abs=2e-3)

    def test_attractive_ground_vector_is_even(self, spec_gm25):
        assert spec_gm25.parities[0] == "even"


class TestConvergence:
    def test_halving_the_spacing_shows_second_order(self):
        analytic = spectrum.full_spectrum(1.0, spectrum.SolverConfig(n_states=1))
        ref = analytic[0].epsilon
        errs = []
        for n_int in (1000, 2000, 4000):
            cfg = OracleConfig(n_intervals=n_int)
            spec = eigen_lowest(build_hamiltonian(1.0, cfg), 1, classify=False)
            errs.append(abs(spec.epsilons[0] - ref))
        for coarse, fine in zip(errs, errs[1:]):
            order = math.log2(coarse / fine)
            assert 1.0 <= order <= 2.5

    def test_bound_state_converges_too(self):
        ref = spectrum.full_spectrum(-2.5, spectrum.SolverConfig(n_states=1))[0].epsilon
        coarse = eigen_lowest(
            build_hamiltonian(-2.5, OracleConfig(n_intervals=1000)), 1, classify=False
        )
        fine = eigen_lowest(
            build_hamiltonian(-2.5, OracleConfig(n_intervals=2000)), 1, classify=False
        )
        assert abs(fine.epsilons[0] - ref) < abs(coarse.epsilons[0] - ref)


class TestOddInertness:
    def test_odd_levels_ignore_the_coupling(self, spec_g0, spec_g5, spec_gm5):
        base = [e for e, p in zip(spec_g0.epsilons, spec_g0.parities) if p == "odd"]
        for spec in (spec_g5, spec_gm5):
            odds = [e for e, p in zip(spec.epsilons, spec.parities) if p == "odd"]
            assert len(odds) >= 3
            for got, ref in zip(odds, base):
                assert abs(got - ref) < 1e-6


class TestVariationalDirection:
    def test_positive_coupling_raises_the_ground_state(self, spec_g1):
        assert spec_g1.epsilons[0] > 0.5

    def test_negative_coupling_lowers_it(self, spec_gm25):
        assert spec_gm25.epsilons[0] < 0.5


class TestSturmSelfConsistency:
    def test_count_matches_enumeration(self, spec_g1):
        h = build_hamiltonian(1.0)
        enumerated = sum(1 for e in spec_g1.epsilons if e < 5.0)
        assert count_below(h, 5.0) == enumerated


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

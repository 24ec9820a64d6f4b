"""CLI behavior: output formats, determinism, exit codes, flag scope, file modes."""

import csv
import datetime
import io
import json
import math
import os
import random
import re
import stat
import sys

import pytest

from deltaho import __version__, spectrum
from deltaho.cli import main, reference_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def _shift_ground(monkeypatch, shift):
    # nu moves, its refiner's bracket stays
    solve = spectrum.full_spectrum

    def ground_off(g, cfg):
        states = solve(g, cfg)
        ground = spectrum.EigenSolution("even", states[0].nu + shift, 0, states[0].bracket)
        return [ground] + states[1:]

    monkeypatch.setattr(spectrum, "full_spectrum", ground_off)


# each command that takes --stamp, by every format it writes
STAMPED = {
    "solve-json": ["solve", "--g", "1"],
    "solve-csv": ["solve", "--g", "1", "--format", "csv"],
    "table": ["table"],
    "eq-solution": ["figures", "eq-solution"],
    "nu-vs-g": ["figures", "nu-vs-g"],
    "wavefunctions": ["figures", "wavefunctions"],
    "compare-json": ["compare", "--g", "1", "--states", "2", "--grid-n", "400"],
    "compare-csv": ["compare", "--g", "1", "--states", "2", "--grid-n", "400", "--format", "csv"],
}


class TestSolve:
    def test_known_coupling(self, capsys):
        code, out = run_cli(capsys, "solve", "--g", "1.0", "--states", "5")
        assert code == 0
        report = json.loads(out)
        assert report["g"] == 1.0
        assert report["states"][0]["nu"] == pytest.approx(0.3927, abs=5e-5)
        assert [s["parity"] for s in report["states"]] == [
            "even", "odd", "even", "odd", "even",
        ]

    def test_zero_coupling_is_integer_ladder(self, capsys):
        code, out = run_cli(capsys, "solve", "--g", "0", "--states", "4")
        assert code == 0
        report = json.loads(out)
        assert [s["nu"] for s in report["states"]] == [0.0, 1.0, 2.0, 3.0]

    def test_deep_bound_state(self, capsys):
        code, out = run_cli(capsys, "solve", "--g", "-5", "--states", "1")
        assert code == 0
        report = json.loads(out)
        assert report["states"][0]["nu"] == pytest.approx(-12.9900, abs=5e-5)

    def test_json_round_trips_exactly(self, capsys):
        code, out = run_cli(capsys, "solve", "--g", "2.5", "--states", "6")
        assert code == 0
        report = json.loads(out)
        solved = spectrum.full_spectrum(2.5, 6)
        for entry, sol in zip(report["states"], solved):
            assert entry["nu"] == sol.nu
            assert entry["epsilon"] == sol.epsilon
        assert list(report) == ["g", "states", "config"]

    def test_csv_full_precision_round_trips(self, capsys):
        code, out = run_cli(
            capsys, "solve", "--g", "1.0", "--states", "3",
            "--format", "csv", "--full-precision",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["index", "parity", "nu", "epsilon"]
        solved = spectrum.full_spectrum(1.0, 3)
        for row, sol in zip(rows[1:], solved):
            assert float(row[2]) == sol.nu
            assert float(row[3]) == sol.epsilon

    def test_epsilon_is_nu_plus_half(self, capsys):
        _, out = run_cli(capsys, "solve", "--g", "-2.5", "--states", "4")
        report = json.loads(out)
        for entry in report["states"]:
            assert entry["epsilon"] == entry["nu"] + 0.5

    def test_negative_scientific_notation_parses(self, capsys):
        code, out = run_cli(capsys, "solve", "--g", "-2.5e-1", "--states", "1")
        assert code == 0
        assert json.loads(out)["g"] == -0.25

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "solve", "--g", "1.0", "--format", "csv")
        _, second = run_cli(capsys, "solve", "--g", "1.0", "--format", "csv")
        assert first == second
        assert "# generated" not in first

    def test_json_config_names_only_the_state_count(self, capsys):
        _, out = run_cli(capsys, "solve", "--g", "1.0", "--states", "3")
        assert json.loads(out)["config"] == {"version": __version__, "n_states": 3}


class TestTable:
    def test_cells_match_reference(self, capsys):
        code, out = run_cli(capsys, "table")
        assert code == 0
        rows = parse_csv(out)
        header = rows[0]
        assert rows[0 + 1][header.index("g=0.25")] == "0.1281"
        assert rows[2 + 1][header.index("g=-1")] == "3.7912"
        assert rows[4 + 1][header.index("g=5")] == "8.5509"

    def test_diff_column_is_small(self, capsys):
        _, out = run_cli(capsys, "table")
        rows = parse_csv(out)
        for row in rows[1:]:
            assert float(row[-1]) <= 5e-4

    def test_deterministic(self, capsys):
        _, first = run_cli(capsys, "table")
        _, second = run_cli(capsys, "table")
        assert first == second

    def test_reference_fixture_shape(self):
        table = reference_table()
        assert len(table) == 9
        assert table[0.0] == (0.0, 2.0, 4.0, 6.0, 8.0)
        for levels in table.values():
            assert len(levels) == 5


class TestFigures:
    def test_eq_solution_sign_change(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "figures", "eq-solution", "--out", str(tmp_path))
        assert code == 0
        rows = parse_csv((tmp_path / "eq_solution.csv").read_text())
        header = rows[0]
        col = header.index("g=1")
        by_nu = {row[0]: float(row[col]) for row in rows[1:]}
        assert by_nu["0.00"] < 0.0 < by_nu["1.00"]

    def test_nu_vs_g_grid(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "figures", "nu-vs-g", "--out", str(tmp_path))
        assert code == 0
        rows = parse_csv((tmp_path / "nu_vs_g.csv").read_text())
        assert len(rows) == 102
        assert rows[1][0] == "-5.0" and rows[-1][0] == "5.0"
        by_g = {row[0]: row for row in rows[1:]}
        assert float(by_g["-2.5"][2]) == pytest.approx(1.4285, abs=5e-4)

    def test_wavefunction_panels(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "figures", "wavefunctions", "--out", str(tmp_path))
        assert code == 0
        for name, odd_col in (
            ("wavefunctions_positive.csv", "odd_n3"),
            ("wavefunctions_negative.csv", "odd_n1"),
        ):
            rows = parse_csv((tmp_path / name).read_text())
            header = rows[0]
            assert header[0] == "y"
            assert odd_col in header
            center = rows[1 + (len(rows) - 1) // 2]
            assert float(center[0]) == 0.0
            # odd densities vanish at the origin, kinked even ones do not
            assert float(center[header.index(odd_col)]) == 0.0
            assert float(center[header.index("g=1") if "g=1" in header
                                else header.index("g=-1")]) > 0.0
            for row in rows[1:]:
                assert all(float(cell) >= 0.0 for cell in row[1:])

    def test_no_partial_files_left(self, capsys, tmp_path):
        run_cli(capsys, "figures", "nu-vs-g", "--out", str(tmp_path))
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".part_")]
        assert leftovers == []

    @pytest.mark.parametrize("command, default", [
        ("figures", "(default: the current directory)"),
        ("solve", "(default: stdout)"),
    ])
    def test_out_help_names_where_output_goes(self, capsys, command, default):
        # figures writes files into the working directory, solve prints
        code, out = run_cli(capsys, command, "--help")
        assert code == 0
        assert default in " ".join(out.split())


class TestCompare:
    def test_zero_coupling_gaps(self, capsys):
        code, out = run_cli(capsys, "compare", "--g", "0", "--states", "4")
        assert code == 0
        result = json.loads(out)
        assert max(result["gaps"]) <= 1e-4
        assert all(result["parity_match"])

    def test_unit_coupling(self, capsys):
        code, out = run_cli(capsys, "compare", "--g", "1", "--states", "6")
        assert code == 0
        result = json.loads(out)
        assert result["max_gap"] <= 1e-2
        assert all(result["parity_match"])
        # spacing-halving of a second-order scheme shrinks the gap ~4x
        assert 2.5 <= result["halving_ratio"] <= 6.0

    @pytest.mark.parametrize("precision", [[], ["--full-precision"]], ids=["6g", "17g"])
    def test_csv_report_matches_the_json_one(self, capsys, precision):
        argv = ["compare", "--g", "-2.5", "--states", "5"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        code, text = run_cli(capsys, *argv, "--format", "csv", *precision)
        assert code == 0
        assert [ln for ln in text.splitlines() if ln.startswith("#")] == [
            "# oracle grid: L=8, N=4000",
            f"# max_gap={report['max_gap']:.3e}",
            f"# halving_ratio={report['halving_ratio']:.2f}",
        ]
        rows = parse_csv(text)
        assert rows[0] == ["index", "parity_analytic", "parity_oracle",
                           "epsilon_analytic", "epsilon_oracle", "abs_gap"]
        cell = "{:.17g}" if precision else "{:.6g}"
        assert len(rows) == 1 + report["k"] == 6
        for k, row in enumerate(rows[1:]):
            parity = ("even", "odd")[k % 2]
            assert row == [str(k), parity, parity, cell.format(report["analytic"][k]),
                           cell.format(report["oracle"][k]), cell.format(report["gaps"][k])]

    def test_deep_state_both_routes(self, capsys):
        code, out = run_cli(capsys, "compare", "--g", "-5", "--states", "1")
        assert code == 0
        result = json.loads(out)
        assert result["analytic"][0] == pytest.approx(-12.49, abs=1e-4)
        assert result["oracle"][0] == pytest.approx(-12.49, abs=2e-3)

    @pytest.mark.parametrize("g", ["1e7", "1e8"])
    def test_strong_coupling_levels_keep_their_parity(self, capsys, g):
        # the even ground level sits about 1e-7 under the odd one on the
        # grid: far apart for the oracle's 5.8e-11 grid cells
        code, out = run_cli(capsys, "compare", "--g", g, "--states", "2")
        assert code == 0
        result = json.loads(out)
        assert result["parity_match"] == [True, True]
        assert result["oracle"][0] < result["oracle"][1]

    @pytest.mark.parametrize("g", ["1e12", "1e16", "1e100", "1e300"])
    def test_levels_closer_than_the_oracle_brackets_keep_their_parity(self, capsys, g):
        # on the grid each even level lies within 1.7e-11 of the odd one
        # above it, less than one 5.8e-11 grid cell; each is matched within its
        # own block, so no order across the blocks is needed
        code, out = run_cli(capsys, "compare", "--g", g, "--states", "8")
        assert code == 0
        result = json.loads(out)
        assert all(result["parity_match"])
        assert max(result["gaps"]) <= 1e-4

    @pytest.mark.parametrize(
        "argv",
        [
            ("--g", "1", "--states", "2", "--grid-n", "400", "--grid-l", "1e4"),
            ("--g", "1", "--states", "8", "--grid-n", "400", "--grid-l", "1e3"),
            ("--g", "-10000", "--states", "2"),
        ],
        ids=["dy=50", "dy=5", "deep-well"],
    )
    def test_unresolved_ground_state_is_a_solver_failure(self, capsys, argv):
        # halving dy shrinks the ground state's gap by 1.01, 1.20 and 1.03,
        # not the fourfold of a second-order scheme
        code = main(["compare", *argv])
        err = capsys.readouterr().err
        assert code == 3
        assert "state 0" in err and "dy=" in err and "halving_ratio" in err

    def test_smallest_grid_holds_seven_levels(self, capsys):
        # --grid-n 8 leaves 7 interior nodes: a 4-row even block and a
        # 3-row odd one
        code = main(["compare", "--g", "1", "--states", "8", "--grid-n", "8", "--grid-l", "6"])
        assert code == 2
        assert "need 1 <= k <= 7, got 8" in capsys.readouterr().err

    def test_state_count_is_checked_before_the_analytic_solve(self, capsys, monkeypatch):
        # at --states 2000000 the solve took 31 s and 466 MB before this refusal
        def unreachable(g, cfg):
            raise AssertionError("full_spectrum ran before the k check")

        monkeypatch.setattr(spectrum, "full_spectrum", unreachable)
        code = main(["compare", "--g", "1", "--states", "4000"])
        assert code == 2
        assert "need 1 <= k <= 3999, got 4000" in capsys.readouterr().err

    def test_smallest_grid_cannot_resolve_the_ground_state(self, capsys):
        # at dy = 1.5, halving dy shrinks the ground state's gap 8.03-fold
        code = main(["compare", "--g", "1", "--states", "7", "--grid-n", "8", "--grid-l", "6"])
        err = capsys.readouterr().err
        assert code == 3
        assert "state 0" in err and "dy=1.5" in err and "halving_ratio 8.03" in err

    @pytest.mark.parametrize("g", ["-0.755", "0.93", "0.945", "1.545", "1.56"])
    def test_grid_error_sign_changes_are_not_refused(self, capsys, g):
        # the ground state's grid error changes sign near each coupling,
        # where its halving_ratio drifts from 4 (3.83 at 0.93)
        code, out = run_cli(capsys, "compare", "--g", g, "--states", "1")
        assert code == 0
        assert json.loads(out)["gaps"][0] <= 1e-8

    @pytest.mark.parametrize("g", ["0.9328", "1.557"])
    def test_ratio_under_the_gap_floor_is_not_refused(self, capsys, g):
        # closer still to a sign change the fine gap is a few 1e-11, near
        # the oracle's grid cells, and the ratio leaves the window: only the
        # 1e-7 floor lets these pass
        code, out = run_cli(capsys, "compare", "--g", g, "--states", "1")
        assert code == 0
        result = json.loads(out)
        assert result["gaps"][0] <= 1e-10
        assert not 3.5 <= result["halving_ratio"] <= 4.5

    @pytest.mark.parametrize("grid_n", ["4002", "6", "4"])
    def test_grid_n_must_allow_halving(self, capsys, grid_n):
        # crosscheck.compare checks the grid it halves and names its own
        # parameter, as build_hamiltonian names half_width for --grid-l
        code = main(["compare", "--g", "1", "--states", "1", "--grid-n", grid_n])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: n_intervals must be a multiple of 4 and at least 8, got {grid_n}\n"

    @pytest.mark.parametrize("grid_l", ["inf", "nan"])
    def test_nonfinite_grid_l_is_a_usage_error(self, capsys, grid_l):
        code = main(["compare", "--g", "1", "--states", "2", "--grid-l", grid_l])
        err = capsys.readouterr().err
        assert code == 2
        assert "half_width" in err
        assert "mirror" not in err


class TestUnits:
    def test_natural_units(self, capsys):
        code, out = run_cli(capsys, "units", "--alpha", "1", "--format", "json")
        assert code == 0
        result = json.loads(out)
        assert result["a0"] == 1.0
        assert result["g"] == 1.0

    def test_zero_strength_energy(self, capsys):
        _, out = run_cli(capsys, "units", "--alpha", "0", "--nu", "2",
                         "--format", "json")
        result = json.loads(out)
        assert result["g"] == 0.0
        assert result["E"] == 2.5

    def test_deep_reference_vs_solved(self, capsys):
        _, out = run_cli(capsys, "units", "--alpha", "-5", "--format", "json")
        result = json.loads(out)
        assert result["E_deep_reference"] == -12.5
        assert result["E_ground_solved"] == pytest.approx(-12.49, abs=1e-3)

    def test_scale_derivation(self, capsys):
        code, out = run_cli(capsys, "units", "--mass", "2", "--omega", "0.5",
                            "--hbar", "2", "--alpha", "3", "--nu", "1",
                            "--format", "json")
        assert code == 0
        result = json.loads(out)
        assert result["a0"] == pytest.approx(math.sqrt(2.0), rel=1e-15, abs=0.0)
        assert result["g"] == pytest.approx(3.0 * math.sqrt(2.0) * 2.0 / 4.0, rel=1e-15, abs=0.0)
        assert result["E"] == pytest.approx(1.5, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("field", ["mass", "omega", "hbar"])
    def test_rejects_nonpositive_scales(self, capsys, field):
        code = main(["units", f"--{field}", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {field} must be positive and finite\n"

    @pytest.mark.parametrize("argv,name,expected", [
        (["--mass", "1e-300", "--omega", "1e-300"], "a0", 1e300),
        (["--alpha", "1", "--hbar", "1e200"], "g", 1e-300),
        (["--alpha", "1e-200", "--hbar", "1e-170"], "g", 1e55),
        (["--alpha", "-1e200", "--hbar", "1e100"], "E_deep_reference", -5e199),
        (["--mass", "1e300", "--omega", "1e300", "--alpha", "3"], "g", 3.0),
        # sqrt(m)/sqrt(hbar)/sqrt(omega) is a subnormal 6.6e-323 in the
        # first, and overflows to 7.2e344 in the second; g is mpmath's value
        # written to 17 digits, each 1 ulp from the correctly rounded doubles
        # 1.676365000173279e-231 and 1.312635877652544e277
        (["--mass", "1.02e-259", "--omega", "2.52e262", "--hbar", "9.16e122",
          "--alpha", "2.31e214"], "g", 1.6763650001732791e-231),
        (["--alpha", "1.85e-233", "--mass", "2.22e274", "--omega", "4.28e-251",
          "--hbar", "1.01e-165"], "g", 1.3126358776525442e277),
        # a subnormal value that rounds to a nonzero double is reported
        (["--alpha", "1e-320"], "g", 1e-320),
    ])
    def test_derived_values_inside_double_range_are_reported(self, capsys, argv,
                                                            name, expected):
        # each product of raw scales (m omega, hbar^2, alpha^2), or a ratio of
        # their roots, would leave the double range, though the derived value
        # does not (m omega = 1e600 would turn a0 and g into 0 without an error)
        code, out = run_cli(capsys, "units", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)[name] == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("alpha", ["inf", "nan", "-inf"])
    def test_rejects_nonfinite_alpha(self, capsys, alpha):
        code = main(["units", "--alpha", alpha])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: alpha must be finite\n"

    @pytest.mark.parametrize("nu", ["nan", "inf", "-inf"])
    def test_rejects_nonfinite_nu(self, capsys, nu):
        code = main(["units", "--nu", nu, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--nu" in captured.err and nu in captured.err

    @pytest.mark.parametrize("argv,name", [
        (["--alpha", "1e300", "--hbar", "1e-10"], "g"),
        (["--hbar", "1e300", "--mass", "1e-300", "--omega", "1e-300"], "a0"),
        (["--omega", "1e300", "--nu", "1e10"], "E(nu=1e+10)"),
        # g = -5: E_ground_solved, 12.49 hbar omega, fits below the largest
        # double, and E_deep_reference, 12.5 hbar omega, does not
        (["--alpha", "-7.194e307", "--hbar", "1.4388e307", "--mass", "1.4388e307"],
         "E_deep_reference"),
        # nonzero values nearer 0 than the smallest double: 1e-450, 1e-750,
        # 5e-601 and -5e-501
        (["--hbar", "1e-300", "--mass", "1e300", "--omega", "1e300"], "a0"),
        (["--alpha", "1e-300", "--hbar", "1e300"], "g"),
        (["--hbar", "1e-300", "--omega", "1e-300", "--nu", "0"], "E(nu=0)"),
        (["--alpha", "-1e-200", "--hbar", "1e-100", "--omega", "1e-200", "--mass", "1e-300"],
         "E_deep_reference"),
    ])
    def test_rejects_derived_values_past_double_range(self, capsys, argv, name):
        code = main(["units", *argv, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} ")

    def test_derived_values_match_mpmath_across_the_range(self, capsys):
        # each value is the double nearest its exact formula, or, nonzero yet
        # 0.0 or infinite as a double, it is refused
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(29)
        outcomes = {"reported": 0, "refused": 0}
        with mpmath.workdps(50):
            for _ in range(1100):
                mass, omega, hbar = (10.0 ** rng.uniform(-300, 300) for _ in range(3))
                alpha = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)
                nu = rng.uniform(0.0, 1e3)
                m, w, h, a = map(mpmath.mpf, (mass, omega, hbar, alpha))
                a0 = mpmath.sqrt(h / (m * w))
                g = a / (h * w * a0)
                exact = {"a0": a0, "g": g, "E": (nu + mpmath.mpf(0.5)) * h * w}
                if alpha < 0.0 and _double_kind(g) == "normal":
                    if g < -1e150:
                        continue  # past the ground solve's reach
                    epsilon = spectrum.full_spectrum(float(g), 1)[0].epsilon
                    exact["E_ground_solved"] = mpmath.mpf(epsilon) * h * w
                    exact["E_deep_reference"] = -g * g / 2 * h * w
                kinds = {_double_kind(value) for value in exact.values()}
                if "subnormal" in kinds:
                    continue
                argv = _units_argv(mass, omega, hbar, alpha, nu)
                code, out = run_cli(capsys, "units", *argv, "--format", "json")
                if "out" in kinds:
                    assert (code, out) == (2, ""), argv
                    outcomes["refused"] += 1
                    continue
                assert code == 0, argv
                assert json.loads(out) == {name: float(value) for name, value in exact.items()}, argv
                outcomes["reported"] += 1
        assert outcomes["reported"] >= 400 and outcomes["refused"] >= 50, outcomes


def _double_kind(exact):
    """'normal', 'subnormal', or 'out' where a nonzero value is 0.0 or infinite as a double."""
    value = float(exact)
    if math.isinf(value) or (value == 0.0 and exact != 0):
        return "out"
    return "subnormal" if abs(value) < sys.float_info.min else "normal"


def _units_argv(mass, omega, hbar, alpha, nu):
    return [f"--{k}={v!r}" for k, v in
            (("mass", mass), ("omega", omega), ("hbar", hbar), ("alpha", alpha), ("nu", nu))]


class TestExitCodes:
    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "solve")[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_bad_domain_value(self, capsys):
        assert run_cli(capsys, "units", "--mass", "-1")[0] == 2

    def test_solver_range_failure(self, capsys):
        assert run_cli(capsys, "solve", "--g", "-1e200")[0] == 3

    def test_states_past_the_origin_value_range_solve(self, capsys):
        # from state 344 (nu ~ 344) the origin values overflow a double;
        # the roots still solve and pass their gate, and no residual is printed
        code, out = run_cli(capsys, "solve", "--g", "1", "--states", "400")
        assert code == 0
        report = json.loads(out)
        assert len(report["states"]) == 400
        assert "residuals" not in report
        code, out = run_cli(capsys, "solve", "--g", "1", "--states", "400", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["index", "parity", "nu", "epsilon"]
        assert len(rows) == 401

    def test_missed_kink_condition_is_a_solver_failure(self, capsys, monkeypatch):
        _shift_ground(monkeypatch, 1e-3)
        code = main(["solve", "--g", "1", "--states", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "state 0" in captured.err and "not a certified root" in captured.err

    def test_shifted_ground_is_refused_at_strong_attraction(self, capsys, monkeypatch):
        # the origin values shrink like 1/Gamma(1 - nu/2) here, and from
        # g ~ -27 both underflow; the bracket check needs no scale
        _shift_ground(monkeypatch, 1e-3)
        for g in [-1.0 - 0.5 * i for i in range(59)]:
            code = main(["solve", "--g", repr(g), "--states", "3"])
            captured = capsys.readouterr()
            assert code == 3, g
            assert captured.out == ""
            assert "state 0" in captured.err and "not a certified root" in captured.err

    def test_unwritable_output(self, capsys, tmp_path):
        blocker = tmp_path / "plainfile"
        blocker.write_text("")
        code, _ = run_cli(capsys, "figures", "nu-vs-g",
                          "--out", str(blocker / "sub"))
        assert code == 4


class TestFlagScope:
    @pytest.mark.parametrize("argv", [
        ["table", "--format", "json"],
        ["table", "--g", "1"],
        ["figures", "nu-vs-g", "--states", "3"],
        ["units", "--stamp"],
        ["units", "--full-precision"],
        ["solve", "--g", "1", "--grid-n", "8"],
        ["solve", "--g", "1", "--tol", "1e-12"],
        ["compare", "--g", "1", "--tol", "1e-12"],
        ["solve", "--stat", "2", "--g", "1"],
        ["solve", "--g", "1", "--full"],
        ["units", "--alph", "-1e5"],
    ], ids=" ".join)
    def test_flag_the_command_does_not_read_is_rejected(self, capsys, monkeypatch,
                                                        tmp_path, argv):
        monkeypatch.chdir(tmp_path)  # figures writes to the current directory
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_units_rejects_a_format_it_does_not_write(self, capsys):
        code = main(["units", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "invalid choice: 'csv'" in captured.err

    def test_units_text_format_is_the_default(self, capsys):
        assert run_cli(capsys, "units", "--alpha", "-2", "--format", "text") == \
            run_cli(capsys, "units", "--alpha", "-2")

    def test_full_flag_name_takes_a_negative_value(self, capsys):
        code, out = run_cli(capsys, "units", "--alpha", "-1e5")
        assert code == 0
        assert out.startswith("a0 = 1\n")

    def test_any_value_flag_takes_a_number_shaped_value(self, capsys, monkeypatch, tmp_path):
        # gluing keys on the token's shape, not on a list of flags that take values
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--g", "1", "--states", "1", "--out", "-1e3"]) == 0
        assert (tmp_path / "-1e3" / "solve.json").is_file()
        assert main(["solve", "--g", "1", "--stamp", "-1"]) == 2
        assert "--stamp: ignored explicit argument '-1'" in capsys.readouterr().err

    def test_dash_token_that_is_not_a_number_is_not_a_value(self, capsys, monkeypatch, tmp_path):
        # "-x" is not glued to --out, so --out has no value
        monkeypatch.chdir(tmp_path)
        code = main(["solve", "--g", "1", "--out", "-x"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--out: expected one argument" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestOutputFiles:
    def test_mode_follows_the_umask(self, capsys, tmp_path):
        umask = 0o027
        previous = os.umask(umask)
        try:
            code, _ = run_cli(capsys, "table", "--out", str(tmp_path))
        finally:
            os.umask(previous)
        assert code == 0
        mode = (tmp_path / "table.csv").stat().st_mode
        assert stat.S_IMODE(mode) == 0o666 & ~umask

    def test_failed_swap_is_an_io_failure_and_leaves_no_part_file(self, capsys, monkeypatch,
                                                                  tmp_path):
        def full_disk(src, dst):
            raise OSError(28, "No space left on device", src)

        monkeypatch.setattr(os, "replace", full_disk)
        code = main(["solve", "--g", "1", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 28] No space left on device")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", list(STAMPED.values()), ids=list(STAMPED))
    def test_stamp_adds_only_the_timestamp(self, capsys, tmp_path, argv):
        written = {}
        for name, stamp in (("plain", []), ("stamped", ["--stamp"])):
            assert main([*argv, *stamp, "--out", str(tmp_path / name)]) == 0
            written[name] = {p.name: p.read_bytes().decode() for p in (tmp_path / name).iterdir()}
        assert capsys.readouterr().out == ""
        assert written["stamped"].keys() == written["plain"].keys()
        for filename, plain in written["plain"].items():
            stamped = written["stamped"][filename]
            if filename.endswith(".json"):
                report = json.loads(stamped)
                assert list(report["config"])[-1] == "timestamp"
                stamp = report["config"].pop("timestamp")
                assert json.dumps(report, indent=2) + "\n" == plain
            else:
                # one line after the command's own comments
                lines = stamped.split("\r\n")
                own = sum(line.startswith("#") for line in plain.split("\r\n"))
                line = re.fullmatch(rf"# generated (\S+) by deltaho {re.escape(__version__)}",
                                    lines.pop(own))
                assert line, stamped
                stamp = line[1]
                assert "\r\n".join(lines) == plain
            assert datetime.datetime.fromisoformat(stamp).utcoffset() == datetime.timedelta(0)

    def test_solve_creates_its_out_directory(self, capsys, tmp_path):
        target = tmp_path / "made" / "here"
        code, out = run_cli(capsys, "solve", "--g", "1", "--out", str(target))
        assert code == 0
        assert out == ""
        assert [p.name for p in target.iterdir()] == ["solve.json"]
        assert json.loads((target / "solve.json").read_text())["g"] == 1.0


class TestStrongCouplingSolve:
    @pytest.mark.parametrize("states", [8, 40])
    @pytest.mark.parametrize("g", [2e8, 3e8, 1e9, 1e10, 1e12, 1e20, 1e300])
    def test_strong_repulsion_is_reported(self, capsys, g, states):
        # each even level sits just under the odd one above it, where one
        # ulp of nu moves the kink residual by ulp(nu)/delta relative, so
        # the refiner's bracket is the gate
        code, out = run_cli(capsys, "solve", "--g", repr(g), "--states", str(states))
        assert code == 0
        report = json.loads(out)
        for entry in report["states"]:
            if entry["parity"] == "even":
                assert entry["index"] < entry["nu"] < entry["index"] + 1
        assert len(report["states"]) == states

    def test_high_states_at_g100(self, capsys):
        # origin values reach 1e18 here; mpmath roots of the same
        # pole-free condition
        mpmath = pytest.importorskip("mpmath")
        code, out = run_cli(capsys, "solve", "--g", "100", "--states", "40")
        assert code == 0
        report = json.loads(out)
        assert len(report["states"]) == 40
        with mpmath.workdps(30):
            for entry in report["states"]:
                if entry["parity"] == "odd":
                    assert entry["nu"] == entry["index"]
                    continue
                ref = mpmath.findroot(
                    lambda nu: nu * mpmath.rgamma(1 - nu / 2)
                    - 100 * mpmath.rgamma(mpmath.mpf(1) / 2 - nu / 2),
                    mpmath.mpf(entry["nu"]),
                )
                assert entry["nu"] == pytest.approx(float(ref), rel=1e-13, abs=1e-13)

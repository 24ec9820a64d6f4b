"""CLI behavior: output formats, determinism, exit codes, config file."""

import csv
import io
import json
import math

import pytest

from deltaho import spectrum
from deltaho.cli import PhysicalScales, RunReport, main, reference_table


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("DELTAHO_CONFIG", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


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
        solved = spectrum.full_spectrum(2.5, spectrum.SolverConfig(n_states=6))
        for entry, sol in zip(report["states"], solved):
            assert entry["nu"] == sol.nu
            assert entry["epsilon"] == sol.epsilon
        assert all(r <= 1e-8 for r in report["residuals"])

    def test_csv_full_precision_round_trips(self, capsys):
        code, out = run_cli(
            capsys, "solve", "--g", "1.0", "--states", "3",
            "--format", "csv", "--full-precision",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["index", "parity", "nu", "epsilon", "residual"]
        solved = spectrum.full_spectrum(1.0, spectrum.SolverConfig(n_states=3))
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

    def test_stamp_adds_metadata(self, capsys):
        _, out = run_cli(capsys, "solve", "--g", "1.0", "--format", "csv", "--stamp")
        assert out.startswith("# generated")
        _, jout = run_cli(capsys, "solve", "--g", "1.0", "--stamp")
        assert "timestamp" in json.loads(jout)["config"]


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

    def test_deep_state_both_routes(self, capsys):
        code, out = run_cli(capsys, "compare", "--g", "-5", "--states", "1")
        assert code == 0
        result = json.loads(out)
        assert result["analytic"][0] == pytest.approx(-12.49, abs=1e-4)
        assert result["oracle"][0] == pytest.approx(-12.49, abs=2e-3)

    @pytest.mark.parametrize("grid_n", ["4002", "6", "4"])
    def test_grid_n_must_allow_halving(self, capsys, grid_n):
        # the halving run uses grid_n / 2 intervals, which must be even too
        code = main(["compare", "--g", "1", "--states", "1", "--grid-n", grid_n])
        assert code == 2
        assert "--grid-n" in capsys.readouterr().err

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

    def test_scale_derivation(self):
        scales = PhysicalScales(mass=2.0, omega=0.5, hbar=2.0, alpha=3.0)
        assert scales.length == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert scales.coupling == pytest.approx(3.0 * math.sqrt(2.0) * 2.0 / 4.0,
                                                rel=1e-15)
        assert scales.energy(1.5) == pytest.approx(1.5, rel=1e-15)

    @pytest.mark.parametrize("field", ["mass", "omega", "hbar"])
    def test_rejects_nonpositive_scales(self, field):
        kwargs = {"mass": 1.0, "omega": 1.0, "hbar": 1.0, field: -1.0}
        with pytest.raises(ValueError):
            PhysicalScales(**kwargs)


class TestExitCodes:
    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "solve")[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_bad_domain_value(self, capsys):
        assert run_cli(capsys, "units", "--mass", "-1")[0] == 2

    def test_solver_range_failure(self, capsys):
        assert run_cli(capsys, "solve", "--g", "-1e200")[0] == 3

    def test_kink_residual_past_double_range_names_the_state(self, capsys):
        # the roots solve, but the origin values of state 344 (nu ~ 344)
        # overflow a double, so its residual cannot be reported
        code = main(["solve", "--g", "1", "--states", "400"])
        err = capsys.readouterr().err
        assert code == 3
        assert "state 344" in err and "double range" in err

    def test_missing_config_file(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTAHO_CONFIG", "/nonexistent/deltaho.conf")
        assert run_cli(capsys, "solve", "--g", "1")[0] == 4

    def test_unknown_config_key(self, capsys, monkeypatch, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("not_a_key=1\n")
        monkeypatch.setenv("DELTAHO_CONFIG", str(conf))
        assert run_cli(capsys, "solve", "--g", "1")[0] == 2

    def test_unwritable_output(self, capsys, tmp_path):
        blocker = tmp_path / "plainfile"
        blocker.write_text("")
        code, _ = run_cli(capsys, "figures", "nu-vs-g",
                          "--out", str(blocker / "sub"))
        assert code == 4


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, monkeypatch, tmp_path):
        conf = tmp_path / "deltaho.conf"
        conf.write_text("g=2.5\nstates=3\n# comment line\n")
        monkeypatch.setenv("DELTAHO_CONFIG", str(conf))
        code, out = run_cli(capsys, "solve")
        assert code == 0
        report = json.loads(out)
        assert report["g"] == 2.5
        assert len(report["states"]) == 3

    @pytest.mark.parametrize("command", [["solve", "--g", "1"], ["units"]])
    def test_config_format_must_be_a_known_choice(self, capsys, monkeypatch,
                                                  tmp_path, command):
        conf = tmp_path / "deltaho.conf"
        conf.write_text("# output\nformat=xml\n")
        monkeypatch.setenv("DELTAHO_CONFIG", str(conf))
        code = main(command)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{conf}:2:" in captured.err and "format" in captured.err

    def test_config_format_json_is_accepted(self, capsys, monkeypatch, tmp_path):
        conf = tmp_path / "deltaho.conf"
        conf.write_text("format = json\n")
        monkeypatch.setenv("DELTAHO_CONFIG", str(conf))
        code, out = run_cli(capsys, "units", "--alpha", "1")
        assert code == 0
        assert json.loads(out)["g"] == 1.0

    def test_flags_override_config(self, capsys, monkeypatch, tmp_path):
        conf = tmp_path / "deltaho.conf"
        conf.write_text("g=2.5\n")
        monkeypatch.setenv("DELTAHO_CONFIG", str(conf))
        _, out = run_cli(capsys, "solve", "--g", "1.0")
        assert json.loads(out)["g"] == 1.0


class TestStrongCouplingSolve:
    def test_high_states_at_g100(self, capsys):
        # origin values reach 1e18 here, so the kink residual is judged
        # relative to them; mpmath roots of the same pole-free condition
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


class TestRunReport:
    def test_rejects_large_residuals(self):
        sols = spectrum.full_spectrum(1.0, spectrum.SolverConfig(n_states=2))
        with pytest.raises(ValueError):
            RunReport(g=1.0, states=tuple(sols), residuals=(0.5, 0.0))

    def test_rejects_length_mismatch(self):
        sols = spectrum.full_spectrum(1.0, spectrum.SolverConfig(n_states=2))
        with pytest.raises(ValueError):
            RunReport(g=1.0, states=tuple(sols), residuals=(0.0,))

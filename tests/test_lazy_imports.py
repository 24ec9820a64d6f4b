"""The light path stays free of numpy, and the lazy package API stays whole.

`import deltaho` and the commands that sample no eigenfunction (solve,
table, units, compare and the two cheap figures) never touch numpy;
eigenfunction sampling loads it on first use.  Each numpy check runs in
a fresh interpreter, since the test process itself has numpy loaded long
before.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import deltaho

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(code, tmp_path, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )


def _assert_numpy_free(code, tmp_path):
    probe = code + "\nprint('numpy' in sys.modules)\n"
    result = _fresh_python(probe, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


class TestNumpyFreePath:
    def test_import_package(self, tmp_path):
        _assert_numpy_free("import sys, deltaho", tmp_path)

    def test_import_cli(self, tmp_path):
        _assert_numpy_free("import sys, deltaho.cli", tmp_path)

    def test_import_crosscheck(self, tmp_path):
        _assert_numpy_free("import sys, deltaho.crosscheck", tmp_path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--g", "1", "--states", "4"],
            ["solve", "--g", "-2.5", "--format", "csv"],
            ["table"],
            ["units", "--alpha", "-2", "--nu", "3"],
            ["figures", "eq-solution", "--out", "figs"],
            ["figures", "nu-vs-g", "--out", "figs"],
            ["compare", "--g", "1", "--states", "2", "--grid-n", "400"],
        ],
        ids=["solve-json", "solve-csv", "table", "units", "eq-solution", "nu-vs-g", "compare"],
    )
    def test_light_commands(self, tmp_path, argv):
        code = f"""
            import sys
            from deltaho import cli
            assert cli.main({argv!r}) == 0
        """
        _assert_numpy_free(textwrap.dedent(code), tmp_path)


class TestStdlibFootprint:
    def test_reference_table_needs_no_importlib_resources(self, tmp_path):
        # -S skips site .pth files, some of which import importlib.resources
        # themselves and would hide a load made by the package
        code = """
            import sys, deltaho.cli
            deltaho.cli.reference_table()
            print('importlib.resources' in sys.modules)
        """
        result = _fresh_python(code, tmp_path, "-S")
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"]

    def test_solve_to_a_file_needs_no_dataclasses_or_tempfile(self, tmp_path):
        # dataclasses pulls in inspect (with ast, dis and tokenize), and
        # tempfile pulls in random and shutil: neither is needed to write
        # one report
        code = """
            import sys
            from deltaho import cli
            assert cli.main(["solve", "--g", "1", "--out", "."]) == 0
            print(sorted({"dataclasses", "inspect", "tempfile"} & set(sys.modules)))
        """
        result = _fresh_python(code, tmp_path, "-S")
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["[]"]
        assert (tmp_path / "solve.json").is_file()

    def test_wavefunction_needs_no_dataclasses(self, tmp_path):
        # GridFunction is a __slots__ record, as the other records are;
        # numpy itself loads no dataclasses
        code = """
            import sys, deltaho.wavefunction
            print("dataclasses" in sys.modules)
        """
        result = _fresh_python(code, tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"]


class TestLazyExports:
    def test_every_exported_name_resolves(self):
        for name in deltaho.__all__:
            assert getattr(deltaho, name) is not None, name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from deltaho import *", namespace)
        missing = [name for name in deltaho.__all__ if name not in namespace]
        assert missing == []

    def test_dir_lists_every_name(self):
        listed = dir(deltaho)
        assert [name for name in deltaho.__all__ if name not in listed] == []
        assert "oracle" in listed and "wavefunction" in listed

    def test_submodules_reachable_after_plain_import(self, tmp_path):
        code = """
            import deltaho
            print(deltaho.oracle.__name__, deltaho.wavefunction.__name__)
        """
        result = _fresh_python(code, tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["deltaho.oracle", "deltaho.wavefunction"]

    def test_lazy_names_are_the_module_objects(self):
        from deltaho import oracle, wavefunction

        assert deltaho.sample_state is wavefunction.sample_state
        assert deltaho.build_hamiltonian is oracle.build_hamiltonian
        assert deltaho.jump_check is wavefunction.jump_check

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            deltaho.no_such_name  # noqa: B018

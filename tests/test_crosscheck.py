"""crosscheck.compare: the values and the refusal that `deltaho compare` reports."""

import ast
import inspect
import json
from pathlib import Path

import pytest

from deltaho import crosscheck, oracle
from deltaho.cli import main
from deltaho.errors import InsufficientDomainError


@pytest.mark.parametrize(
    "g, k, grid",
    [(1.0, 6, ()), (-2.5, 5, ()), (0.0, 4, ()), (1e12, 8, ()), (1.0, 2, (8.0, 400))],
    ids=["g=1", "g=-2.5", "g=0", "g=1e12", "N=400"],
)
def test_values_are_the_compare_report(capsys, g, k, grid):
    analytic, fine, gaps, halving_ratio = crosscheck.compare(g, k, *grid)
    flags = ["--grid-l", repr(grid[0]), "--grid-n", str(grid[1])] if grid else []
    assert main(["compare", "--g", repr(g), "--states", str(k), *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["analytic"] == [sol.epsilon for sol in analytic]
    assert report["oracle"] == list(fine.epsilons)
    assert report["gaps"] == gaps
    assert report["max_gap"] == max(gaps)
    assert report["halving_ratio"] == halving_ratio
    assert report["parity_match"] == [p == sol.parity for p, sol in zip(fine.parities, analytic)]


@pytest.mark.parametrize(
    "g, k, half_width, n_intervals, dy",
    [
        (1.0, 2, 1e4, 400, "dy=50.0"),
        (1.0, 7, 6.0, 8, "dy=1.5"),
        (-10000.0, 2, 8.0, 4000, "dy=0.004"),
        # ground gap 2.46e3 at halving ratio 2.5: inside a window widened to (2, 8)
        (-200.0, 1, 8.0, 4000, "dy=0.004"),
        # ground gap 4.28e-7 at ratio 3.43: below a gap floor raised to 1e-3
        (0.91, 1, 8.0, 400, "dy=0.04"),
    ],
    ids=["dy=50", "dy=1.5", "deep-well", "g=-200", "small-gap"],
)
def test_unresolved_ground_state_is_refused(capsys, g, k, half_width, n_intervals, dy):
    with pytest.raises(InsufficientDomainError) as raised:
        crosscheck.compare(g, k, half_width, n_intervals)
    message = str(raised.value)
    assert "state 0" in message and dy in message and "halving_ratio" in message
    argv = ["--g", repr(g), "--states", str(k), "--grid-l", repr(half_width),
            "--grid-n", str(n_intervals)]
    assert main(["compare", *argv]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("n_intervals", [402, 6, 4])
def test_grid_that_cannot_be_halved_is_refused_before_either_grid_is_built(monkeypatch,
                                                                          n_intervals):
    # 402 is even, but the half-size grid's 201 intervals are not
    def unreachable(*args):
        raise AssertionError("a grid was built before the n_intervals check")

    monkeypatch.setattr(oracle, "build_hamiltonian", unreachable)
    with pytest.raises(ValueError) as raised:
        crosscheck.compare(1.0, 2, 8.0, n_intervals)
    assert str(raised.value) == f"n_intervals must be a multiple of 4 and at least 8, got {n_intervals}"


@pytest.mark.parametrize("n_intervals", [402.0, 4000.0, "4000"])
def test_non_integer_grid_is_refused_by_name(n_intervals):
    with pytest.raises(ValueError, match="n_intervals must be an integer"):
        crosscheck.compare(1.0, 2, 8.0, n_intervals)


def test_defaults_are_the_oracle_grid():
    own = inspect.signature(crosscheck.compare).parameters
    grid = inspect.signature(oracle.build_hamiltonian).parameters
    for name in ("half_width", "n_intervals"):
        assert own[name].default == grid[name].default


def test_only_crosscheck_imports_both_routes():
    # the package's __init__ imports the analytic route and names the
    # oracle's exports only for loading on demand
    both = set()
    for path in Path(crosscheck.__file__).parent.glob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(part for alias in node.names for part in alias.name.split("."))
        if {"oracle", "spectrum"} <= imported:
            both.add(path.name)
    assert both == {"crosscheck.py"}

"""Command-line front end.

Five subcommands: solve a spectrum, regenerate the reference table of
even levels, dump figure-ready CSV grids, cross-check the analytic
solver against the finite-difference oracle, and convert physical
scales to the dimensionless coupling and back.

Every value comes from the command line, and argparse holds each
default.  A subcommand accepts only the flags it reads, spelled in full;
--g is required where it is read.

Output is deterministic: identical flags give byte-identical files.
Timestamps appear only under --stamp.  All floats in JSON are written
by repr, so a parsed report equals the one serialized.  Files under
--out are swapped in whole and created with the mode the umask allows.
Exit codes: 0 success, 2 usage or bad values, 3 solver failure, 4 I/O
failure.
"""

import argparse
import csv
import datetime
import functools
import io
import json
import math
import os
import sys

from . import __version__, spectrum
from .errors import BracketError, ConvergenceError, InsufficientDomainError

_FIGURE_COUPLINGS = (-0.25, 0.25, -1.0, 1.0, -2.5, 2.5, -5.0, 5.0)
_CRLF = "\r\n"


@functools.lru_cache(maxsize=1)
def reference_table():
    """Fixture of four-decimal even levels, keyed by coupling (0 included)."""
    path = os.path.join(os.path.dirname(__file__), "data", "even_levels.json")
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    table = {0.0: tuple(raw["zero_coupling"])}
    for column in raw["columns"]:
        table[float(column["g"])] = tuple(column["nu"])
    return table


# --- formatting and output plumbing ------------------------------------------

def _fmt(value, full_precision):
    return f"{value:.17g}" if full_precision else f"{value:.6g}"


def _write_atomic(path, text):
    # a new file beside the target, created 0o666 so that the umask sets
    # its mode as for a plain open(); os.replace swaps it in whole
    directory, name = os.path.split(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".part_{os.getpid()}_{name}")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _emit(text, args, filename):
    if args.out is None:
        sys.stdout.write(text)
        return
    os.makedirs(args.out, exist_ok=True)
    _write_atomic(os.path.join(args.out, filename), text)


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_csv(args, filename, rows, comments=()):
    # --stamp adds one comment line, after the command's own
    if args.stamp:
        comments = [*comments, f"generated {_timestamp()} by deltaho {__version__}"]
    out = io.StringIO()
    for line in comments:
        out.write(f"# {line}{_CRLF}")
    csv.writer(out, lineterminator=_CRLF).writerows(rows)
    _emit(out.getvalue(), args, filename)


def _write_json(args, filename, payload):
    # --stamp adds the last key of payload["config"]
    if args.stamp:
        payload["config"]["timestamp"] = _timestamp()
    _emit(json.dumps(payload, indent=2) + "\n", args, filename)


# --- solve --------------------------------------------------------------------

def cmd_solve(args):
    states = spectrum.full_spectrum(args.g, args.states)
    for sol in states:
        spectrum.certify_root(sol, args.g)
    if args.format == "csv":
        rows = [("index", "parity", "nu", "epsilon")]
        rows += [(sol.index, sol.parity, _fmt(sol.nu, args.full_precision),
                  _fmt(sol.epsilon, args.full_precision)) for sol in states]
        _write_csv(args, "solve.csv", rows)
        return 0
    _write_json(args, "solve.json", {
        "g": args.g,
        "states": [
            {"index": sol.index, "parity": sol.parity, "nu": sol.nu,
             "epsilon": sol.epsilon}
            for sol in states
        ],
        "config": {"version": __version__, "n_states": args.states},
    })
    return 0


# --- table ---------------------------------------------------------------------

def cmd_table(args):
    reference = reference_table()
    n_levels = len(reference[0.0])
    solved = {g: [sol.nu for sol in spectrum.solve_even(g, n_levels)] for g in reference}
    header = ["level"] + [f"g={g:g}" for g in reference] + ["max_abs_diff"]
    rows = [tuple(header)]
    for level in range(n_levels):
        cells = [str(level)]
        worst = 0.0
        for g in reference:
            value = solved[g][level]
            cells.append(f"{value:.4f}")
            worst = max(worst, abs(value - reference[g][level]))
        cells.append(f"{worst:.1e}")
        rows.append(tuple(cells))
    _write_csv(args, "table.csv", rows)
    return 0


# --- figures --------------------------------------------------------------------

def _figure_eq_solution(args):
    # the scaled eigenvalue function (finite everywhere, with the zeros
    # of the paper's condition) sampled densely enough to plot every
    # crossing on [-15, 9]
    nus = [round(-15.0 + 0.01 * i, 2) for i in range(2401)]
    header = ["nu"] + [f"g={g:g}" for g in _FIGURE_COUPLINGS]
    rows = [tuple(header)]
    for nu in nus:
        cells = [f"{nu:.2f}"]
        for g in _FIGURE_COUPLINGS:
            cells.append(_fmt(spectrum.eigen_equation(nu, g), args.full_precision))
        rows.append(tuple(cells))
    _write_csv(args, "eq_solution.csv", rows,
               ["scaled eigenvalue function on nu in [-15, 9], step 0.01"])


def _figure_nu_vs_g(args):
    header = ["g"] + [f"nu{k}" for k in range(5)]
    rows = [tuple(header)]
    for i in range(101):
        g = (i - 50) / 10.0
        sols = spectrum.solve_even(g, 5)
        cells = [f"{g:.1f}"] + [_fmt(s.nu, args.full_precision) for s in sols]
        rows.append(tuple(cells))
    _write_csv(args, "nu_vs_g.csv", rows, ["five lowest even levels for g in [-5, 5], step 0.1"])


def _figure_wavefunctions(args):
    # density of the second even level as the coupling grows, next to
    # the odd neighbor it approaches; one file per coupling sign.  The
    # only figure that samples states, so the only one that loads numpy
    from . import wavefunction

    panels = (
        ("wavefunctions_positive.csv", (1.0, 2.5, 5.0, 10.0), 3),
        ("wavefunctions_negative.csv", (-1.0, -2.5, -5.0, -10.0), 1),
    )
    for filename, couplings, odd_n in panels:
        columns = []
        for g in couplings:
            sols = spectrum.solve_even(g, 2)
            state = wavefunction.sample_state(sols[1])
            columns.append((f"g={g:g}", state))
        odd_state = wavefunction.sample_state(
            spectrum.solve_odd(odd_n // 2 + 1)[odd_n // 2]
        )
        columns.append((f"odd_n{odd_n}", odd_state))
        ys = columns[0][1].points()
        header = ["y"] + [name for name, _ in columns]
        rows = [tuple(header)]
        for i, y in enumerate(ys):
            cells = [_fmt(y, args.full_precision)]
            for _, state in columns:
                cells.append(_fmt(state.values[i] ** 2, args.full_precision))
            rows.append(tuple(cells))
        _write_csv(args, filename, rows, [
            f"densities of the second even level at g in {{{', '.join(f'{g:g}' for g in couplings)}}}"
            f" and of the odd n={odd_n} neighbor",
        ])


_FIGURES = {
    "eq-solution": _figure_eq_solution,
    "nu-vs-g": _figure_nu_vs_g,
    "wavefunctions": _figure_wavefunctions,
}


def cmd_figures(args):
    _FIGURES[args.which](args)
    return 0


# --- compare ---------------------------------------------------------------------

def cmd_compare(args):
    """crosscheck.compare on the flags' grid, formatted; it checks --grid-n as n_intervals."""
    # the cross-check and its oracle load here, so no other command pays for them
    from . import crosscheck

    g, k, grid_n, grid_l = args.g, args.states, args.grid_n, args.grid_l
    analytic, fine, gaps, halving_ratio = crosscheck.compare(g, k, grid_l, grid_n)
    if args.format == "csv":
        rows = [("index", "parity_analytic", "parity_oracle",
                 "epsilon_analytic", "epsilon_oracle", "abs_gap")]
        for sol, o_eps, o_par, gap in zip(analytic, fine.epsilons, fine.parities, gaps):
            cells = (_fmt(value, args.full_precision) for value in (sol.epsilon, o_eps, gap))
            rows.append((sol.index, sol.parity, o_par, *cells))
        _write_csv(args, "compare.csv", rows, [
            f"oracle grid: L={grid_l:g}, N={grid_n}",
            f"max_gap={max(gaps):.3e}",
            f"halving_ratio={halving_ratio:.2f}",
        ])
    else:
        _write_json(args, "compare.json", {
            "g": g,
            "k": k,
            "analytic": [s.epsilon for s in analytic],
            "oracle": list(fine.epsilons),
            "gaps": gaps,
            "parity_match": [o == a.parity for o, a in zip(fine.parities, analytic)],
            "max_gap": max(gaps),
            "halving_ratio": halving_ratio,
            "config": {"half_width": grid_l, "n_intervals": grid_n, "version": __version__},
        })
    return 0


# --- units -----------------------------------------------------------------------

def _derived(name, exact):
    # the double nearest the exact value, refused where that is inf, or 0.0
    # for a nonzero value: either would print a wrong number
    value = float(exact)
    if math.isinf(value) or (value == 0.0 and exact != 0):
        raise ValueError(f"{name} = {exact:.4e} is past the double range for these scales")
    return value


def cmd_units(args):
    # the oscillator length a0 sets the unit of y; alpha is the contact
    # strength in energy times length
    from decimal import Decimal, localcontext

    mass, omega, hbar, alpha, nu = args.mass, args.omega, args.hbar, args.alpha, args.nu
    for name, value in (("mass", mass), ("omega", omega), ("hbar", hbar)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite")
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if nu is not None and not math.isfinite(nu):
        raise ValueError(f"--nu must be finite, got {nu!r}")
    # the scales convert to Decimal exactly, and its exponent range (+-999999)
    # holds every product on the way; at 40 digits each value rounds once, to a double
    with localcontext() as ctx:
        ctx.prec = 40
        m, w, h, a = map(Decimal, (mass, omega, hbar, alpha))
        hbar_omega = h * w
        a0 = (h / (m * w)).sqrt()
        coupling = a / (hbar_omega * a0)
        payload = {"a0": _derived("a0", a0), "g": _derived("g", coupling)}
        labels = {}  # text labels that differ from the JSON keys
        if nu is not None:
            labels["E"] = f"E(nu={nu:g})"
            payload["E"] = _derived(labels["E"], (Decimal(nu) + Decimal("0.5")) * hbar_omega)
        if alpha < 0.0:
            ground = spectrum.full_spectrum(payload["g"], 1)[0]
            payload["E_ground_solved"] = _derived(
                "E_ground_solved", Decimal(ground.epsilon) * hbar_omega)
            # the isolated contact well's energy, the g -> -inf limit
            payload["E_deep_reference"] = _derived(
                "E_deep_reference", spectrum.bound_state_asymptote(coupling) * hbar_omega)
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args, "units.json")
    else:
        lines = (f"{labels.get(key, key)} = {value:.12g}\n" for key, value in payload.items())
        _emit("".join(lines), args, "units.txt")
    return 0


# --- argument plumbing --------------------------------------------------------------

_FLAGS = {
    "g": {"type": float, "required": True, "help": "dimensionless coupling"},
    "states": {"type": int, "default": 5, "help": "number of states"},
    "format": {"choices": ("csv", "json"), "default": "json"},
    "out": {"help": "output directory (default: stdout)"},
    "grid_n": {"type": int, "default": 4000, "help": "oracle grid intervals"},
    "grid_l": {"type": float, "default": 8.0, "help": "oracle half-width"},
    "full_precision": {"action": "store_true", "help": "17 significant digits in CSV output"},
    "stamp": {"action": "store_true", "help": "include a timestamp comment/metadata entry"},
}


def _add_flags(sub, *names):
    # only the flags the subcommand reads
    for name in names:
        sub.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAGS[name])


@functools.lru_cache(maxsize=1)
def build_parser():
    # allow_abbrev=False: a prefix such as --stat must not pass for --states
    parser = argparse.ArgumentParser(
        prog="deltaho",
        description="Oscillator-with-a-contact-term spectra, tables, and checks.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    add_command = functools.partial(commands.add_parser, allow_abbrev=False)

    solve = add_command("solve", help="solve and report one spectrum")
    _add_flags(solve, "g", "states", "format", "out", "full_precision", "stamp")
    solve.set_defaults(func=cmd_solve)

    table = add_command("table", help="regenerate the even-level table")
    _add_flags(table, "out", "stamp")
    table.set_defaults(func=cmd_table)

    figures = add_command("figures", help="write figure-ready CSV grids")
    figures.add_argument("which", choices=_FIGURES)
    figures.add_argument("--out", default=".",
                         help="output directory (default: the current directory)")
    _add_flags(figures, "full_precision", "stamp")
    figures.set_defaults(func=cmd_figures)

    compare = add_command("compare", help="analytic vs oracle spectrum")
    _add_flags(compare, "g", "states", "format", "out", "grid_n", "grid_l",
               "full_precision", "stamp")
    compare.set_defaults(func=cmd_compare, states=6)

    units = add_command("units", help="physical scales to g and back")
    _add_flags(units, "out")
    units.add_argument("--format", choices=("text", "json"), default="text")
    units.add_argument("--mass", type=float, default=1.0)
    units.add_argument("--omega", type=float, default=1.0)
    units.add_argument("--hbar", type=float, default=1.0)
    units.add_argument("--alpha", type=float, default=0.0)
    units.add_argument("--nu", type=float, default=None,
                       help="report E = (nu + 1/2) hbar omega")
    units.set_defaults(func=cmd_units)

    return parser


def _glue_negative_values(argv):
    # argparse only recognizes plain "-12.5"-shaped tokens as numbers, so
    # "--g -1e200" is joined into one token before parsing; a flag that
    # takes no value, or that the command does not read, then refuses it
    glued = []
    for token in argv:
        last = glued[-1] if glued else ""
        if last.startswith("--") and last != "--" and "=" not in last and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                glued[-1] = f"{last}={token}"
                continue
        glued.append(token)
    return glued


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_negative_values(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (InsufficientDomainError, BracketError, ConvergenceError,
            OverflowError) as exc:
        # before ValueError, of which InsufficientDomainError is a subclass
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = getattr(exc, "filename", None)
        context = f" ({target})" if target else ""
        print(f"error: {exc}{context}", file=sys.stderr)
        return 4


def run():
    sys.exit(main())

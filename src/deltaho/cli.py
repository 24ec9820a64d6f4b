"""Command-line front end.

Five subcommands: solve a spectrum, regenerate the reference table of
even levels, dump figure-ready CSV grids, cross-check the analytic
solver against the finite-difference oracle, and convert physical
scales to the dimensionless coupling and back.

Output is deterministic: identical flags give byte-identical files.
Timestamps appear only under --stamp.  All floats in JSON are written
by repr, so a parsed report equals the one serialized.  Exit codes:
0 success, 2 usage or bad values, 3 solver failure, 4 I/O failure.
"""

import argparse
import dataclasses
import datetime
import functools
import io
import json
import math
import os
import sys
import tempfile

from . import __version__, specfun, spectrum
from .errors import BracketError, ConvergenceError, InsufficientDomainError

_FIGURE_COUPLINGS = (-0.25, 0.25, -1.0, 1.0, -2.5, 2.5, -5.0, 5.0)
_CRLF = "\r\n"


@dataclasses.dataclass(frozen=True)
class PhysicalScales:
    """Physical inputs and the derived dimensionless quantities.

    The oscillator length sets the unit of y; alpha is the strength of
    the contact potential in physical units (energy times length).
    """

    mass: float
    omega: float
    hbar: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        for name in ("mass", "omega", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    @property
    def length(self):
        return math.sqrt(self.hbar / (self.mass * self.omega))

    @property
    def coupling(self):
        return self.alpha * self.length * self.mass / self.hbar**2

    def energy(self, epsilon):
        return epsilon * self.hbar * self.omega

    def deep_reference_energy(self):
        """Energy of the isolated contact well, the g -> -inf limit."""
        return -(self.alpha**2) * self.mass / (2.0 * self.hbar**2)


@dataclasses.dataclass(frozen=True)
class RunReport:
    """One solve: states, their kink residuals, optional oracle gaps."""

    g: float
    states: tuple
    residuals: tuple
    oracle_gaps: tuple = None
    metadata: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if len(self.residuals) != len(self.states):
            raise ValueError("one residual per state")
        if any(r > 1e-8 * _kink_scale(sol, self.g)
               for sol, r in zip(self.states, self.residuals)):
            raise ValueError("self-solved states must satisfy the kink "
                             "condition to 1e-8 relative; got a larger residual")
        if self.oracle_gaps is not None and len(self.oracle_gaps) != len(self.states):
            raise ValueError("one oracle gap per state when gaps are given")


def _kink_scale(sol, g):
    # size of the two sides of 2 psi'(0+) = 2 g psi(0), floored at 1; high
    # even states at strong coupling reach 1e18 there, where an absolute
    # 1e-8 is far below the rounding of either side
    if sol.parity == "odd":
        return 1.0
    value, slope = specfun.kummer_u_half_origin(sol.nu)
    return max(1.0, abs(2.0 * slope) + abs(2.0 * g * value))


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


def table_coupling_order():
    """Column order of the reference table: zero, then pairs by strength."""
    return (0.0, -0.25, 0.25, -1.0, 1.0, -2.5, 2.5, -5.0, 5.0)


# --- formatting and output plumbing ------------------------------------------

def _fmt(value, full_precision):
    return f"{value:.17g}" if full_precision else f"{value:.6g}"


def _csv_field(text):
    # RFC-4180: quote when a field holds a comma, quote, or line break
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(rows, comments=()):
    out = io.StringIO()
    for line in comments:
        out.write(f"# {line}{_CRLF}")
    for row in rows:
        out.write(",".join(_csv_field(str(field)) for field in row) + _CRLF)
    return out.getvalue()


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".part_")
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
    _write_atomic(os.path.join(args.out, filename), text)


def _stamp_comments(args):
    if not args.stamp:
        return []
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return [f"generated {now} by deltaho {__version__}"]


# --- solve --------------------------------------------------------------------

def _state_residual(sol, g):
    if sol.parity == "odd":
        return 0.0
    try:
        return spectrum.jump_check(sol.nu, g)
    except OverflowError:
        # the origin values grow like Gamma(nu/2) and leave the double
        # range near nu = 343, although the root itself is fine
        raise OverflowError(
            f"state {sol.index} (nu={sol.nu!r}): its kink residual is past "
            "the double range"
        ) from None


def _make_report(g, cfg, stamp):
    states = spectrum.full_spectrum(g, cfg)
    residuals = tuple(_state_residual(sol, g) for sol in states)
    metadata = {
        "version": __version__,
        "n_states": cfg.n_states,
        "root_tol": cfg.root_tol,
    }
    if stamp:
        metadata["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat()
    return RunReport(g=g, states=states, residuals=residuals, metadata=metadata)


def report_to_json(report):
    payload = {
        "g": report.g,
        "states": [
            {
                "index": sol.index,
                "parity": sol.parity,
                "nu": sol.nu,
                "epsilon": sol.epsilon,
            }
            for sol in report.states
        ],
        "residuals": list(report.residuals),
        "config": report.metadata,
    }
    if report.oracle_gaps is not None:
        payload["oracle_gaps"] = list(report.oracle_gaps)
    return json.dumps(payload, indent=2) + "\n"


def _report_to_csv(report, args):
    rows = [("index", "parity", "nu", "epsilon", "residual")]
    for sol, res in zip(report.states, report.residuals):
        rows.append(
            (
                sol.index,
                sol.parity,
                _fmt(sol.nu, args.full_precision),
                _fmt(sol.epsilon, args.full_precision),
                _fmt(res, args.full_precision),
            )
        )
    return _csv_text(rows, _stamp_comments(args))


def cmd_solve(args):
    g = _require(args, "g")
    cfg = _solver_config(args)
    report = _make_report(g, cfg, args.stamp)
    if args.format == "json":
        _emit(report_to_json(report), args, "solve.json")
    else:
        _emit(_report_to_csv(report, args), args, "solve.csv")
    return 0


# --- table ---------------------------------------------------------------------

def cmd_table(args):
    reference = reference_table()
    order = table_coupling_order()
    solved = {}
    for g in order:
        cfg = spectrum.SolverConfig(n_states=5)
        solved[g] = [sol.nu for sol in spectrum.solve_even(g, cfg)]
    header = ["level"] + [f"g={g:g}" for g in order] + ["max_abs_diff"]
    rows = [tuple(header)]
    for level in range(5):
        cells = [str(level)]
        worst = 0.0
        for g in order:
            value = solved[g][level]
            cells.append(f"{value:.4f}")
            worst = max(worst, abs(value - reference[g][level]))
        cells.append(f"{worst:.1e}")
        rows.append(tuple(cells))
    _emit(_csv_text(rows, _stamp_comments(args)), args, "table.csv")
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
    comments = ["scaled eigenvalue function on nu in [-15, 9], step 0.01"]
    comments += _stamp_comments(args)
    _emit(_csv_text(rows, comments), args, "eq_solution.csv")


def _figure_nu_vs_g(args):
    header = ["g"] + [f"nu{k}" for k in range(5)]
    rows = [tuple(header)]
    cfg = spectrum.SolverConfig(n_states=5)
    for i in range(101):
        g = (i - 50) / 10.0
        sols = spectrum.solve_even(g, cfg)
        cells = [f"{g:.1f}"] + [_fmt(s.nu, args.full_precision) for s in sols]
        rows.append(tuple(cells))
    comments = ["five lowest even levels for g in [-5, 5], step 0.1"]
    comments += _stamp_comments(args)
    _emit(_csv_text(rows, comments), args, "nu_vs_g.csv")


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
            sols = spectrum.solve_even(g, spectrum.SolverConfig(n_states=2))
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
        comments = [
            f"densities of the second even level at g in {{{', '.join(f'{g:g}' for g in couplings)}}}"
            f" and of the odd n={odd_n} neighbor",
        ]
        comments += _stamp_comments(args)
        _emit(_csv_text(rows, comments), args, filename)


def cmd_figures(args):
    which = args.which
    if args.out is None:
        args.out = "."
    os.makedirs(args.out, exist_ok=True)
    if which == "eq-solution":
        _figure_eq_solution(args)
    elif which == "nu-vs-g":
        _figure_nu_vs_g(args)
    else:
        _figure_wavefunctions(args)
    return 0


# --- compare ---------------------------------------------------------------------

def cmd_compare(args):
    from . import oracle  # numpy; kept off the path of the other commands

    g = _require(args, "g")
    k = args.states if args.states is not None else 6
    grid_n = args.grid_n if args.grid_n is not None else 4000
    grid_l = args.grid_l if args.grid_l is not None else 8.0
    if grid_n < 8 or grid_n % 4:
        # the halving run uses grid_n / 2 intervals, which must be even too
        raise ValueError(f"--grid-n must be a multiple of 4 and at least 8, got {grid_n}")
    cfg = oracle.OracleConfig(half_width=grid_l, n_intervals=grid_n)
    coarse_cfg = oracle.OracleConfig(half_width=grid_l, n_intervals=grid_n // 2)
    analytic = spectrum.full_spectrum(g, spectrum.SolverConfig(n_states=k))
    fine = oracle.eigen_lowest(oracle.build_hamiltonian(g, cfg), k)
    coarse = oracle.eigen_lowest(
        oracle.build_hamiltonian(g, coarse_cfg), 1, classify=False
    )
    gaps = [abs(o - a.epsilon) for o, a in zip(fine.epsilons, analytic)]
    parity_match = [o == a.parity for o, a in zip(fine.parities, analytic)]
    gap_fine = abs(fine.epsilons[0] - analytic[0].epsilon)
    gap_coarse = abs(coarse.epsilons[0] - analytic[0].epsilon)
    halving_ratio = gap_coarse / gap_fine if gap_fine > 0.0 else math.inf
    if args.format == "csv":
        rows = [("index", "parity_analytic", "parity_oracle",
                 "epsilon_analytic", "epsilon_oracle", "abs_gap")]
        for sol, o_eps, o_par in zip(analytic, fine.epsilons, fine.parities):
            rows.append(
                (
                    sol.index,
                    sol.parity,
                    o_par,
                    _fmt(sol.epsilon, args.full_precision),
                    _fmt(o_eps, args.full_precision),
                    _fmt(abs(o_eps - sol.epsilon), args.full_precision),
                )
            )
        comments = [
            f"oracle grid: L={grid_l:g}, N={grid_n}",
            f"max_gap={max(gaps):.3e}",
            f"halving_ratio={halving_ratio:.2f}",
        ] + _stamp_comments(args)
        _emit(_csv_text(rows, comments), args, "compare.csv")
    else:
        payload = {
            "g": g,
            "k": k,
            "analytic": [s.epsilon for s in analytic],
            "oracle": list(fine.epsilons),
            "gaps": gaps,
            "parity_match": parity_match,
            "max_gap": max(gaps),
            "halving_ratio": halving_ratio,
            "config": {"half_width": grid_l, "n_intervals": grid_n,
                       "version": __version__},
        }
        _emit(json.dumps(payload, indent=2) + "\n", args, "compare.json")
    return 0


# --- units -----------------------------------------------------------------------

def cmd_units(args):
    scales = PhysicalScales(
        mass=args.mass, omega=args.omega, hbar=args.hbar, alpha=args.alpha
    )
    g = scales.coupling
    lines = [
        f"a0 = {scales.length:.12g}",
        f"g = {g:.12g}",
    ]
    payload = {"a0": scales.length, "g": g}
    if args.nu is not None:
        energy = scales.energy(args.nu + 0.5)
        lines.append(f"E(nu={args.nu:g}) = {energy:.12g}")
        payload["E"] = energy
    if scales.alpha < 0.0:
        ground = spectrum.full_spectrum(g, spectrum.SolverConfig(n_states=1))[0]
        solved = scales.energy(ground.epsilon)
        deep = scales.deep_reference_energy()
        lines.append(f"E_ground_solved = {solved:.12g}")
        lines.append(f"E_deep_reference = {deep:.12g}")
        payload["E_ground_solved"] = solved
        payload["E_deep_reference"] = deep
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args, "units.json")
    else:
        _emit("\n".join(lines) + "\n", args, "units.txt")
    return 0


# --- argument plumbing --------------------------------------------------------------

_FORMATS = ("csv", "json")

_CONFIG_PARSERS = {
    "g": float,
    "states": int,
    "format": str,
    "out": str,
    "grid_n": int,
    "grid_l": float,
    "tol": float,
    "full_precision": None,
    "stamp": None,
}


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def load_config_file():
    """Defaults from the file named by DELTAHO_CONFIG, if the variable is set."""
    path = os.environ.get("DELTAHO_CONFIG")
    if not path:
        return {}
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        parser = _CONFIG_PARSERS[key]
        value = _parse_bool(raw_value) if parser is None else parser(raw_value.strip())
        if key == "format" and value not in _FORMATS:
            raise ValueError(f"{path}:{lineno}: format must be one of "
                             f"{', '.join(_FORMATS)}, got {value!r}")
        values[key] = value
    return values


def _require(args, name):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--{name} is required (flag or config file)")
    return value


def _solver_config(args):
    kwargs = {}
    if args.states is not None:
        kwargs["n_states"] = args.states
    if args.tol is not None:
        kwargs["root_tol"] = args.tol
    return spectrum.SolverConfig(**kwargs)


def _add_common_flags(sub):
    sub.add_argument("--g", type=float, default=None, help="dimensionless coupling")
    sub.add_argument("--states", type=int, default=None, help="number of states")
    sub.add_argument("--format", choices=_FORMATS, default=None)
    sub.add_argument("--out", default=None, help="output directory (default: stdout)")
    sub.add_argument("--grid-n", dest="grid_n", type=int, default=None,
                     help="oracle grid intervals")
    sub.add_argument("--grid-l", dest="grid_l", type=float, default=None,
                     help="oracle half-width")
    sub.add_argument("--tol", type=float, default=None, help="root tolerance")
    sub.add_argument("--full-precision", dest="full_precision",
                     action="store_true", default=None,
                     help="17 significant digits in CSV output")
    sub.add_argument("--stamp", action="store_true", default=None,
                     help="include a timestamp comment/metadata entry")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="deltaho",
        description="Oscillator-with-a-contact-term spectra, tables, and checks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve and report one spectrum")
    _add_common_flags(solve)
    solve.set_defaults(func=cmd_solve, default_format="json")

    table = commands.add_parser("table", help="regenerate the even-level table")
    _add_common_flags(table)
    table.set_defaults(func=cmd_table, default_format="csv")

    figures = commands.add_parser("figures", help="write figure-ready CSV grids")
    figures.add_argument("which",
                         choices=("eq-solution", "nu-vs-g", "wavefunctions"))
    _add_common_flags(figures)
    figures.set_defaults(func=cmd_figures, default_format="csv")

    compare = commands.add_parser("compare", help="analytic vs oracle spectrum")
    _add_common_flags(compare)
    compare.set_defaults(func=cmd_compare, default_format="json")

    units = commands.add_parser("units", help="physical scales to g and back")
    _add_common_flags(units)
    units.add_argument("--mass", type=float, default=1.0)
    units.add_argument("--omega", type=float, default=1.0)
    units.add_argument("--hbar", type=float, default=1.0)
    units.add_argument("--alpha", type=float, default=0.0)
    units.add_argument("--nu", type=float, default=None,
                       help="report E = (nu + 1/2) hbar omega")
    units.set_defaults(func=cmd_units, default_format="text")

    return parser


def _apply_config(args):
    config = load_config_file()
    for key, value in config.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    if args.format is None:
        args.format = args.default_format
    if args.full_precision is None:
        args.full_precision = False
    if args.stamp is None:
        args.stamp = False


_VALUE_FLAGS = frozenset(
    ("--g", "--states", "--grid-n", "--grid-l", "--tol",
     "--mass", "--omega", "--hbar", "--alpha", "--nu")
)


def _glue_negative_values(argv):
    # argparse only recognizes plain "-12.5"-shaped tokens as numbers,
    # so "--g -1e200" must be joined into one token before parsing
    glued = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            try:
                float(argv[i + 1])
            except ValueError:
                pass
            else:
                glued.append(f"{token}={argv[i + 1]}")
                i += 2
                continue
        glued.append(token)
        i += 1
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
        _apply_config(args)
        return args.func(args)
    except InsufficientDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, ConvergenceError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        target = getattr(exc, "filename", None)
        context = f" ({target})" if target else ""
        print(f"error: {exc}{context}", file=sys.stderr)
        return 4


def run():
    sys.exit(main())

"""The four workloads: seeded inputs, one timed operation, and its check.

Every workload is a closed loop with one client.  Inputs are drawn in
units that cover each input dimension once per stratum (in shuffled
order), so two seeds see the same input distribution with far less spread
than independent draws would give; no draw is dropped or re-drawn.

A run does a fixed amount of work: ``--seconds`` divided by the workload's
``unit_seconds`` (a constant: the measured time of one unit at the
reference speed, for the package as first benchmarked), rounded, gives the
number of units.  So the same seed always runs the same operations, and
the counts of attempted and failed operations do not depend on how fast
the machine or the code happens to be; faster code just finishes sooner.

A workload object provides:

* ``unit_seconds``: nominal measured time of one unit;
* ``inputs(rng)``: endless iterator of units, each a list of inputs;
* ``warm_up()``: set-up work that fills lazy state before timing;
* ``prepare()``: optional, untimed; builds reference data for the checks;
* ``run(inp)``: the timed operation;
* ``digest(inp, out)``: untimed, reduces the output to what the check needs;
* ``check(inp, record, error)``: untimed; returns None or ``(reason,
  known)``, where ``known`` marks a failure that falls in a documented
  defect region of the package (it still counts as failed).
"""

import contextlib
import importlib
import io
import json
import math

import reference

_EVEN_CONDITION_LIMIT = 172  # even roots past this overflow reciprocal_gamma
_OVERFLOW_EDGE = 340  # state index from which roots sit at that overflow


def stratified(rng, n):
    """n points in [0, 1), one in each of n equal strata, in random order."""
    points = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(points)
    return points


class Spectra:
    """full_spectrum over random couplings and state counts, in-process."""

    name = "spectra"
    block = 64
    unit_seconds = 0.39

    def __init__(self, checkout, rng):
        self.spectrum = importlib.import_module("deltaho.spectrum")

    def inputs(self, rng):
        while True:
            block = []
            signs = [1.0, -1.0] * (self.block // 2)
            rng.shuffle(signs)
            for sign, u_g, u_n in zip(signs, stratified(rng, self.block), stratified(rng, self.block)):
                g = sign * 10.0 ** (-6.0 + 10.0 * u_g)
                n = min(400, int(401.0**u_n))
                block.append((g, n))
            yield block

    def warm_up(self):
        self.run((1.0, 5))

    def run(self, inp):
        g, n = inp
        return self.spectrum.full_spectrum(g, self.spectrum.SolverConfig(n_states=n))

    def digest(self, inp, out):
        return [s.nu for s in out]

    def check(self, inp, record, error):
        g, n = inp
        if error is not None:
            # ROADMAP item 2: reciprocal_gamma overflows past ~172 even roots
            return f"raised:{error}", error == "OverflowError" and (n + 1) // 2 > _EVEN_CONDITION_LIMIT
        problem = reference.spectrum_problem(g, n, record)
        if problem is None:
            return None
        reason, index = problem
        # ROADMAP item 2: the log-Gamma form drifts for deep wells, and
        # roots next to the reciprocal_gamma overflow (nu ~ 345) go wrong
        return reason, reason == "root" and (index == 0 and g < -100.0 or index >= _OVERFLOW_EDGE)


class Eigenstates:
    """Spectrum up to state k, then sample_state of state k on the default grid."""

    name = "eigenstates"
    block = 41  # one of each k in 0..40
    cycle = 10  # units over which each k's couplings cover every stratum
    unit_seconds = 0.66
    n_points = 8  # mpmath samples per state
    norm_tol = 1e-9

    def __init__(self, checkout, rng):
        self.spectrum = importlib.import_module("deltaho.spectrum")
        self.wavefunction = importlib.import_module("deltaho.wavefunction")
        self.np = importlib.import_module("numpy")

    def inputs(self, rng):
        # The time of an even state depends on g, and the median operation
        # falls where the slowest odd states meet the fastest even ones;
        # so each k, not just each unit, gets g from every stratum in turn.
        while True:
            strata = [stratified(rng, self.cycle) for _ in range(self.block)]
            for c in range(self.cycle):
                ks = list(range(self.block))
                rng.shuffle(ks)
                block = []
                for k in ks:
                    fractions = [(j + rng.random()) / self.n_points for j in range(self.n_points)]
                    block.append((-10.0 + 20.0 * strata[k][c], k, fractions))
                yield block

    def warm_up(self):
        self.run((1.0, 2, ()))

    def run(self, inp):
        g, k, _ = inp
        state = self.spectrum.full_spectrum(g, self.spectrum.SolverConfig(n_states=k + 1))[k]
        return state, self.wavefunction.sample_state(state)

    def digest(self, inp, out):
        np = self.np
        _, k, fractions = inp
        state, f = out
        values = f.values
        center = (f.n_points - 1) // 2
        right = values[center + 1 :]
        right = right[right != 0.0]
        weights = np.ones(f.n_points)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        weights *= f.delta_y / 3.0
        picks = [min(center + int(u * (center + 1)), f.n_points - 1) for u in fractions]
        ys = f.points()
        return {
            "nu": state.nu,
            "norm": float(weights @ (values * values)),
            "nodes": int(np.count_nonzero(np.signbit(right[1:]) != np.signbit(right[:-1]))),
            "sup": float(np.max(np.abs(values))),
            "ys": [float(ys[i]) for i in picks],
            "values": [float(values[i]) for i in picks],
        }

    def _known(self, g, k, nu):
        # ROADMAP item 1: kummer_u_half loses accuracy for even states with
        # nu < 0 (the M-connection formula cancels; the error against mpmath
        # grows from 7e-13 at nu = -0.1 to 1e-10 at nu = -1.5) and fails
        # outright from nu ~ 10, where the large-z series breaks at z = 20
        return k % 2 == 0 and not 0.0 <= nu <= 9.5

    def check(self, inp, record, error):
        g, k, _ = inp
        if error is not None:
            try:
                nu = self.spectrum.full_spectrum(g, self.spectrum.SolverConfig(n_states=k + 1))[k].nu
            except Exception:
                return f"raised:{error}", False
            return f"raised:{error}", self._known(g, k, nu)
        nu = record["nu"]
        reason = None
        if k % 2 == 0 and not reference.even_root_ok(g, k // 2, nu):
            reason = "root"
        elif not abs(record["norm"] - 1.0) <= self.norm_tol:
            reason = "norm"
        elif record["nodes"] != k // 2:
            reason = "nodes"
        else:
            ref = [reference.eigenfunction(nu, k, y) for y in record["ys"]]
            if not reference.shape_error(record["values"], ref, record["sup"]) <= reference.EIGENFUNCTION_RTOL:
                reason = "mpmath"
        if reason is None:
            return None
        return reason, self._known(g, k, nu)


class Compare:
    """`deltaho compare` in-process: analytic spectrum against the oracle."""

    name = "compare"
    gate = 1e-3  # the acceptance gate at the default N = 4000 grid
    ks = tuple(range(1, 9)) + (4,)
    cycle = 3  # units over which each k's couplings cover every stratum
    unit_seconds = 6.2

    def __init__(self, checkout, rng):
        self.cli = importlib.import_module("deltaho.cli")

    def inputs(self, rng):
        # Every k in 1..8 once, and k = 4 once more: an operation's time
        # grows with k, and with an odd count per unit the median falls
        # inside one k's cluster of times instead of between two clusters.
        # The time also grows with g (by a third over [-5, 5] at k = 4),
        # so each k gets g from every stratum in turn, as in Eigenstates.
        while True:
            strata = {k: stratified(rng, self.cycle * self.ks.count(k)) for k in sorted(set(self.ks))}
            for _ in range(self.cycle):
                ks = list(self.ks)
                rng.shuffle(ks)
                yield [(-5.0 + 10.0 * strata[k].pop(), k) for k in ks]

    def warm_up(self):
        self.run((1.0, 1))

    def run(self, inp):
        g, k = inp
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.main(["compare", "--g", repr(g), "--states", str(k)])
        return code, buffer.getvalue()

    def digest(self, inp, out):
        code, text = out
        return {"code": code, "text": text}

    def check(self, inp, record, error):
        g, k = inp
        if error is not None:
            return f"raised:{error}", False
        if record["code"] != 0:
            return "exit", False
        try:
            report = json.loads(record["text"])
        except ValueError:
            return "output", False
        gaps = report["gaps"]
        if len(gaps) != k or len(report["parity_match"]) != k:
            return "count", False
        if not all(report["parity_match"]):
            return "parity", False
        if not report["max_gap"] <= self.gate:
            # the N = 4000 grid's own error passes 1e-3 for the ground
            # state once g < -4.7 (oracle resolution, not an analytic fault)
            return "max_gap", g < -4.5 and max(range(k), key=gaps.__getitem__) == 0
        return None


class CliRun:
    """Exit status and resource use of one child process."""

    def __init__(self, code, cpu_ns, maxrss_kb):
        self.code = code
        self.cpu_ns = cpu_ns
        self.maxrss_kb = maxrss_kb


class CliLight:
    """`python -m deltaho <cmd>` in a fresh process, one at a time.

    A unit is one rotation over ten variants: solve twice (JSON and CSV
    output), as the command users run most, table, units, and each of the
    three figures both with and without --full-precision.  The flag changes
    a figure's time by up to 20 %, so every run has each figure both ways;
    only the light commands' arguments are drawn from the seed.  Each run
    thus times the same mix of commands, whatever the seed.  Four light
    commands against six figures put the median operation in the middle of
    the two `figures nu-vs-g` variants, the fastest figure, rather than at
    the edge of the gap between light commands and figures.
    """

    name = "cli-light"
    unit_seconds = 2.5
    commands = ("solve", "table", "units", "eq-solution", "nu-vs-g", "wavefunctions")
    light = frozenset(commands) - {"wavefunctions"}  # need no numpy
    table_gate = 5e-4

    def __init__(self, checkout, rng):
        self.checkout = checkout
        self.out_dir = checkout.work / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.expected = {}
        self.setup_problems = []
        self.child_script = None  # set to the traced driver for the traced phase
        self.child_dumps = []
        self.variants = self._choose_variants(rng)

    @staticmethod
    def _choose_variants(rng):
        """Seeded arguments of the light commands; fixed for the whole run."""

        def precision():
            return ["--full-precision"] if rng.random() < 0.5 else []

        def solve(form):
            g = round(rng.uniform(-5.0, 5.0), 3)
            return ["solve", "--g", repr(g), "--states", str(rng.randint(1, 12)),
                    "--format", form] + precision()

        units = ["units", "--alpha", repr(round(rng.uniform(-5.0, 5.0), 3)),
                 "--mass", repr(round(rng.uniform(0.5, 2.0), 3)),
                 "--omega", repr(round(rng.uniform(0.5, 2.0), 3)),
                 "--nu", str(rng.randint(0, 9))]
        if rng.random() < 0.5:
            units += ["--format", "json"]
        return [
            ("solve", solve("json")),
            ("solve", solve("csv")),
            ("table", ["table"]),
            ("units", units),
        ] + [
            (figure, ["figures", figure] + flags)
            for figure in ("eq-solution", "nu-vs-g", "wavefunctions")
            for flags in ([], ["--full-precision"])
        ]

    def inputs(self, rng):
        while True:
            order = list(range(len(self.variants)))
            rng.shuffle(order)
            yield order

    def warm_up(self):
        """Nothing to warm: every operation starts a fresh interpreter."""

    def prepare(self):
        """Save each variant's output bytes; every timed run must reproduce them."""
        for index, (command, _) in enumerate(self.variants):
            out = self.run(index)
            outputs = self._collect()
            if out.code != 0:
                self.setup_problems.append(f"{command}: exit {out.code}")
            else:
                self.expected[index] = outputs

    def run(self, index):
        args = self.variants[index][1] + ["--out", str(self.out_dir)]
        if self.child_script is None:
            argv = ["-m", "deltaho"] + args
        else:
            argv = [str(self.child_script), str(self.checkout.work / "child-trace.json"), "--"] + args
        code, cpu_ns, maxrss_kb = self.checkout.spawn(
            argv, self.checkout.work / "stdout", self.checkout.work / "stderr"
        )
        return CliRun(code, cpu_ns, maxrss_kb)

    def _collect(self):
        """Output bytes of the last child (stdout, then files by name); clears them."""
        outputs = [("<stdout>", (self.checkout.work / "stdout").read_bytes())]
        for path in sorted(self.out_dir.iterdir()):
            outputs.append((path.name, path.read_bytes()))
            path.unlink()
        return outputs

    def digest(self, index, out):
        command = self.variants[index][0]
        outputs = self._collect()
        if self.child_script is not None:
            trace_path = self.checkout.work / "child-trace.json"
            if trace_path.exists():
                dump = json.loads(trace_path.read_text())
                dump["command"] = command
                self.child_dumps.append(dump)
                trace_path.unlink()
        table_diff = None
        if command == "table" and out.code == 0:
            text = dict(outputs).get("table.csv", b"").decode()
            rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
            table_diff = max((float(row[-1]) for row in rows[1:]), default=math.inf)
        return {
            "code": out.code,
            "same": outputs == self.expected.get(index),
            "table_diff": table_diff,
        }

    def check(self, index, record, error):
        if error is not None:
            return f"raised:{error}", False
        if record["code"] != 0:
            return "exit", False
        if not record["same"]:
            return "bytes", False
        if record["table_diff"] is not None and not record["table_diff"] <= self.table_gate:
            return "table_diff", False
        return None


WORKLOADS = {cls.name: cls for cls in (Spectra, Eigenstates, CliLight, Compare)}


def child_resources(out):
    """(cpu_ns, maxrss_kb) of the child process behind an output, if any."""
    if isinstance(out, CliRun):
        return out.cpu_ns, out.maxrss_kb
    return 0, 0


"""Benchmark for deltaho: four closed-loop workloads, end to end and per layer.

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy:

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Workloads (one client each, inputs drawn from --seed):

    spectra       full_spectrum(g, n), random sign, |g| log-uniform in
                  [1e-6, 1e4], n log-uniform in [1, 400]
    eigenstates   full_spectrum(g, k+1) then sample_state of state k,
                  g uniform in [-10, 10], k uniform in 0..40
    cli-light     `python -m deltaho <cmd>` in a fresh process, a seeded
                  rotation of solve, table, units (seeded arguments) and
                  the three figures, each with and without --full-precision
    compare       `deltaho compare` in-process, g in [-5, 5], k in 1..8

A run does a fixed amount of work, sized by --seconds (see
workloads.py): about --seconds of measured time at the reference speed,
and the same operations for the same seed, however fast the machine is.
--trace 0 prints the end-to-end metrics; --trace 1 first runs the first
half of the operations untraced, then all of them with the layer wrappers
of tracing.py, and prints the per-layer metrics, including the tracing
overhead on that first half.  Every output is checked right after its
operation, outside the timer (reference.py); failures count against
ok_ratio, and "correct" is false only when a failure falls outside the
package's documented defect regions.  Operation and set-up times are
scaled to a reference machine speed (see SpeedProbe).
--ops N runs only the first N operations, for tests.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Full details, the environment
and the recorded spans go to .perfbench_out/.
"""

import argparse
import importlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# one thread per measured process: BLAS worker threads would spread a
# child's start-up over both cores and blur its CPU time
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 11
STARTUP_REPS = 5
# coarse on purpose: each workload's sample count sits well inside one
# band, so run-to-run changes in the count do not switch the percentile
TAIL_LADDER = (99.9, 95.0, 75.0, 50.0)
MIN_BEYOND = 10

# The speed probe: a fresh interpreter that imports numpy and nothing of
# the package, started after an operation once PROBE_EVERY_S has passed
# since the last probe, and after every set-up rep.  On a shared machine
# the speed of the same code drifts by 15-25 % over tens of seconds, and
# in bursts the virtual CPU is not scheduled at all.  Time metrics are
# reported at a reference speed, raw values alongside: wall-clock metrics
# are divided by the probe's mean wall time over PROBE_REFERENCE_NS, CPU
# time by its mean CPU time.  A probe of the same kind of work as the
# operations (module loading, dict- and object-heavy Python, numpy) tracks
# them about one to one; a tight pure-Python loop in cache was tried first
# and under-tracked the in-process workloads by a power of about 1.4.
PROBE_CODE = "import numpy"
PROBE_EVERY_S = 0.5
PROBE_REFERENCE_NS = 125_000_000

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class Checkout:
    """The source tree under test and the scratch space inside it."""

    def __init__(self, root):
        self.root = root
        self.src = root / "src"
        # one scratch directory per run, so runs in the same tree do not collide
        self.work = root / ".perfbench_work" / str(os.getpid())
        self.out = root / ".perfbench_out"
        self.python = sys.executable
        env = dict(os.environ)
        env.pop("DELTAHO_CONFIG", None)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(self.src), env.get("PYTHONPATH")) if p)
        self.env = env

    def spawn(self, args, stdout_path, stderr_path):
        """Run the interpreter on args to completion: (exit code, CPU ns, max RSS KiB)."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
        ]
        pid = os.posix_spawn(self.python, [self.python, *args], self.env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        cpu_ns = round((usage.ru_utime + usage.ru_stime) * 1e9)
        return os.waitstatus_to_exitcode(status), cpu_ns, usage.ru_maxrss


class SpeedProbe:
    """Times a fresh reference interpreter, at most once per `every_s`."""

    def __init__(self, checkout, every_s=PROBE_EVERY_S):
        self.checkout = checkout
        self.every_s = every_s
        self.samples_ns = []
        self.cpu_ns = []
        self._last = time.perf_counter()

    def sample(self, force=False):
        if not force and time.perf_counter() - self._last < self.every_s:
            return
        t0 = time.perf_counter_ns()
        code, cpu_ns, _ = self.checkout.spawn(
            ["-c", PROBE_CODE], self.checkout.work / "probe-out", self.checkout.work / "probe-err"
        )
        self.samples_ns.append(time.perf_counter_ns() - t0)
        if code != 0:
            raise RuntimeError(f"speed probe `{PROBE_CODE}` failed (exit {code})")
        self.cpu_ns.append(cpu_ns)
        self._last = time.perf_counter()

    def slowdown(self):
        """Mean CPU time of the probe over the reference."""
        return statistics.fmean(self.cpu_ns) / PROBE_REFERENCE_NS

    def wall_slowdown(self):
        """Mean wall time of the probe over the reference."""
        return statistics.fmean(self.samples_ns) / PROBE_REFERENCE_NS


class Phase:
    """Inputs, timings and check outcomes of one measured loop."""

    def __init__(self, probe):
        self.inputs = []
        self.lat_ns = []
        self.cpu_ns = []
        self.outcomes = []  # None, or (reason, known) per operation
        self.child_rss_kb = 0
        self.probe = probe


def measure(workload, inputs, probe, recorder=None):
    """Closed loop over every input, one after the other.

    Only workload.run is timed.  Each output is checked right after its
    operation, outside the timer, so nothing accumulates in memory and the
    peak RSS does not depend on how many operations fit in the run.
    """
    phase = Phase(probe)
    probe.sample(force=True)
    for inp in inputs:
        if recorder is not None:
            recorder.op = len(phase.lat_ns)
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            out = workload.run(inp)
            error = None
        except Exception as exc:  # a failed operation is a measured outcome
            out = None
            error = type(exc).__name__
        t1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
        child_cpu, child_rss = workloads.child_resources(out)
        phase.inputs.append(inp)
        phase.lat_ns.append(t1 - t0)
        phase.cpu_ns.append(c1 - c0 + child_cpu)
        phase.child_rss_kb = max(phase.child_rss_kb, child_rss)
        record = None if error else workload.digest(inp, out)
        phase.outcomes.append(workload.check(inp, record, error))
        probe.sample()
    return phase


def planned_inputs(workload, rng, seconds, ops=None):
    """The run's operations: whole units for `seconds`, or the first `ops`."""
    units = workload.inputs(rng)
    if ops is not None:
        flat = (inp for unit in units for inp in unit)
        return [next(flat) for _ in range(ops)]
    n_units = max(1, round(seconds / workload.unit_seconds))
    return [inp for _ in range(n_units) for inp in next(units)]


def verify(phase):
    """Failures tallied by reason, known defect or not."""
    reasons = {}
    known = unexpected = 0
    examples = []
    for inp, problem in zip(phase.inputs, phase.outcomes):
        if problem is None:
            continue
        reason, is_known = problem
        reasons[reason] = reasons.get(reason, 0) + 1
        if is_known:
            known += 1
        else:
            unexpected += 1
            if len(examples) < 5:
                examples.append({"input": inp, "reason": reason})
    return {
        "attempted": len(phase.inputs),
        "failed": known + unexpected,
        "known_defect": known,
        "unexpected": unexpected,
        "reasons": reasons,
        "unexpected_examples": examples,
    }


def percentile(lat_ns, p):
    """(value, samples beyond it) of the p-th percentile, linearly interpolated."""
    ordered = sorted(lat_ns)
    position = (len(ordered) - 1) * p / 100.0
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    value = ordered[below] + (ordered[above] - ordered[below]) * (position - below)
    return value, len(ordered) - 1 - below


def tail(lat_ns):
    """(percentile, value, samples beyond): the highest rung with MIN_BEYOND beyond."""
    for p in TAIL_LADDER:
        value, beyond = percentile(lat_ns, p)
        if beyond >= MIN_BEYOND:
            break
    return p, value, beyond


def environment():
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def set_up(checkout, workload, reps):
    """Fresh-interpreter `import deltaho` plus the workload's warm-up, timed per rep.

    Returns the raw times and the speed probe run after each rep.
    """
    times = []
    probe = SpeedProbe(checkout, every_s=0.0)
    for _ in range(reps):
        t0 = time.perf_counter()
        code, _, _ = checkout.spawn(
            ["-c", "import deltaho"], checkout.work / "stdout", checkout.work / "stderr"
        )
        if code != 0:
            raise RuntimeError(f"`import deltaho` failed in a fresh interpreter (exit {code})")
        workload.warm_up()
        times.append(time.perf_counter() - t0)
        probe.sample()
    return times, probe


def end_to_end(phase, setup_times, setup_probe, checked, in_process):
    n = len(phase.lat_ns)
    p, tail_ns, beyond = tail(phase.lat_ns)
    if in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = phase.child_rss_kb
    raw = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / (sum(phase.lat_ns) / 1e9),
        "op_p50_ms": percentile(phase.lat_ns, 50.0)[0] / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "cpu_ms_per_op": sum(phase.cpu_ns) / n / 1e6,
    }
    slowdown = phase.probe.slowdown()
    wall_slowdown = phase.probe.wall_slowdown()
    metrics = {
        "setup_s": raw["setup_s"] / setup_probe.wall_slowdown(),
        "ops_per_s": raw["ops_per_s"] * wall_slowdown,
        "op_p50_ms": raw["op_p50_ms"] / wall_slowdown,
        "op_tail_ms": raw["op_tail_ms"] / wall_slowdown,
        "cpu_ms_per_op": raw["cpu_ms_per_op"] / slowdown,
        "ok_ratio": (n - checked["failed"]) / n,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    details = {
        "raw": raw,
        "slowdown": {"cpu": slowdown, "wall": wall_slowdown, "probes": len(phase.probe.samples_ns),
                     "setup_wall": setup_probe.wall_slowdown()},
        "op_tail": {"percentile": p, "samples": n, "beyond": beyond},
        "latency_ms": {f"p{q:g}": percentile(phase.lat_ns, q)[0] / 1e6 for q in (50, 75, 90, 95, 99, 99.9)},
        "fail_ratio": checked["failed"] / n,
        "setup_runs_s": setup_times,
        "peak_rss_of": "process" if in_process else "largest child",
    }
    return metrics, details


def per_layer(workload, phase_a, phase_b, dumps, checkout):
    """Per-layer figures of a traced run: dumps from phase_b, untraced phase_a.

    phase_a ran the first operations of phase_b, so the overhead compares
    the same inputs traced and untraced.
    """
    cli = isinstance(workload, workloads.CliLight)
    metrics = tracing.layer_metrics(dumps, len(phase_b.lat_ns))
    # each phase scaled as the end-to-end p50 is
    scale_a = phase_a.probe.wall_slowdown()
    scale_b = phase_b.probe.wall_slowdown()
    traced = phase_b.lat_ns[: len(phase_a.lat_ns)]
    metrics["trace.overhead_ms"] = (
        statistics.median(traced) / scale_b - statistics.median(phase_a.lat_ns) / scale_a
    ) / 1e6
    startup = import_ms = numpy_ratio = 0.0
    by_command = {}
    if cli:
        runs = []
        for _ in range(STARTUP_REPS):
            t0 = time.perf_counter_ns()
            checkout.spawn(["-c", "pass"], checkout.work / "stdout", checkout.work / "stderr")
            runs.append(time.perf_counter_ns() - t0)
        startup = statistics.median(runs) / 1e6
        import_ms = statistics.median(d["import_ns"] for d in dumps) / 1e6 if dumps else 0.0
        light = [d["numpy_loaded"] for d in dumps if d["command"] in workload.light]
        numpy_ratio = sum(light) / len(light) if light else 0.0
        for index, lat in zip(phase_a.inputs, phase_a.lat_ns):
            by_command.setdefault(workload.variants[index][0], []).append(lat)
    metrics["cli.python_startup_ms"] = startup
    metrics["cli.import_ms"] = import_ms
    metrics["cli.numpy_loaded_ratio"] = numpy_ratio
    for command in workloads.CliLight.commands:
        lat = by_command.get(command)
        metrics[f"cli.{command}_ms"] = statistics.median(lat) / 1e6 if lat else 0.0
    return {name: metrics[name] for name in tracing.LAYER_METRICS}


def bench(args, checkout):
    env_start = environment()
    rng = random.Random(args.seed)
    workload = workloads.WORKLOADS[args.workload](checkout, rng)
    in_process = not isinstance(workload, workloads.CliLight)

    setup_times, setup_probe = set_up(checkout, workload, SETUP_REPS)
    prepare = getattr(workload, "prepare", None)
    if prepare is not None:
        prepare()
    inputs = planned_inputs(workload, rng, args.seconds, args.ops)
    spans = None
    if args.trace:
        phase_a = measure(workload, inputs[: (len(inputs) + 1) // 2], SpeedProbe(checkout))
        recorder = tracing.Recorder()
        if in_process:
            recorder.install()
        else:
            workload.child_script = HERE / "cli_child.py"
        try:
            phase = measure(workload, inputs, SpeedProbe(checkout), recorder=recorder)
        finally:
            recorder.uninstall()
            workload.child_script = None
        checked = verify(phase)
        spans = [recorder.dump()] if in_process else workload.child_dumps
        metrics = per_layer(workload, phase_a, phase, spans, checkout)
        units_of = tracing.LAYER_METRICS
        details = {"untraced_ops": len(phase_a.lat_ns)}
    else:
        phase = measure(workload, inputs, SpeedProbe(checkout))
        checked = verify(phase)
        metrics, details = end_to_end(phase, setup_times, setup_probe, checked, in_process)
        units_of = END_TO_END
    setup_problems = getattr(workload, "setup_problems", [])
    result = {
        "correct": checked["unexpected"] == 0 and not setup_problems,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "checks": checked,
        "setup_problems": setup_problems,
        "details": details,
        "env_start": env_start,
        "env_end": environment(),
        "result": result,
    }
    return result, report, spans


def print_report(report):
    result = report["result"]
    checks = report["checks"]
    print(f"perfbench {report['workload']} seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    details = report["details"]
    if "raw" in details:
        raw = ", ".join(f"{name} {value:.6g}" for name, value in details["raw"].items())
        slow = details["slowdown"]
        print(f"  probe slowdown {slow['wall']:.3f} wall, {slow['cpu']:.3f} CPU, set-up "
              f"{slow['setup_wall']:.3f} (time metrics are divided by it); raw: {raw}")
    if "op_tail" in details:
        tail_info = details["op_tail"]
        print(f"  op_tail_ms is p{tail_info['percentile']:g} of {tail_info['samples']} samples, "
              f"{tail_info['beyond']} beyond it")
    print(f"  fail_ratio {checks['failed'] / checks['attempted']:.4f} = "
          f"{checks['failed']}/{checks['attempted']} (known defects {checks['known_defect']}, "
          f"unexpected {checks['unexpected']}); reasons {json.dumps(checks['reasons'], sort_keys=True)}")
    for example in checks["unexpected_examples"]:
        print(f"  unexpected failure: {json.dumps(example)}")
    for problem in report["setup_problems"]:
        print(f"  set-up problem: {problem}")
    print(f"  env start {json.dumps(report['env_start'], sort_keys=True)}")
    print(f"  env end   {json.dumps(report['env_end'], sort_keys=True)}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run only the first this many operations (for tests)")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "deltaho"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no package at {package}; run from the root of a deltaho checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    deltaho = importlib.import_module("deltaho")
    if Path(deltaho.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported deltaho from {deltaho.__file__}, not {package}", file=sys.stderr)
        return 2
    checkout = Checkout(root)
    checkout.work.mkdir(parents=True, exist_ok=True)
    try:
        result, report, spans = bench(args, checkout)
    finally:
        shutil.rmtree(checkout.work, ignore_errors=True)
        try:
            checkout.work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    checkout.out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (checkout.out / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        (checkout.out / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span and counter recorder for the traced run, plus the per-layer metrics.

Wrappers go on the module attributes that callers look up, so the package
source is never edited.  Three kinds:

* span: one record per call with name, start, end, parent span, self time
  (duration minus the time of everything nested in it) and error type;
* counted: microsecond-scale calls; only call count, total and self time
  are kept, summed under the enclosing span;
* tally: call count only, no timing.

The recorder keeps everything in memory; `dump` returns it as plain data
to be written out when the run ends.  This module uses the standard
library only, so the traced CLI child can load it without pulling numpy.
"""

import importlib.abc
import sys
import time
import types

_SPAN, _COUNTED, _TALLY = "span", "counted", "tally"

# (module, attribute, recorded name, kind)
MODULE_WRAPPERS = (
    ("deltaho.spectrum", "reciprocal_gamma", "specfun.reciprocal_gamma", _COUNTED),
    ("deltaho.spectrum", "log_gamma", "specfun.log_gamma", _COUNTED),
    ("deltaho.spectrum", "eigen_equation", "spectrum.eigen_equation", _COUNTED),
    ("deltaho.spectrum", "_refine_root", "spectrum.refine_root", _TALLY),
    ("deltaho.spectrum", "full_spectrum", "spectrum.full_spectrum", _SPAN),
    ("deltaho.wavefunction", "kummer_u_half", "specfun.kummer_u_half", _COUNTED),
    ("deltaho.wavefunction", "hermite", "specfun.hermite", _COUNTED),
    ("deltaho.wavefunction", "eval_even", "wavefunction.eval_even", _COUNTED),
    ("deltaho.wavefunction", "eval_odd", "wavefunction.eval_odd", _COUNTED),
    ("deltaho.wavefunction", "normalize", "wavefunction.normalize", _SPAN),
    ("deltaho.wavefunction", "sample_state", "wavefunction.sample_state", _SPAN),
    ("deltaho.oracle", "count_below", "oracle.count_below", _COUNTED),
    ("deltaho.oracle", "build_hamiltonian", "oracle.build_hamiltonian", _SPAN),
    ("deltaho.oracle", "eigen_lowest", "oracle.eigen_lowest", _SPAN),
    ("deltaho.cli", "main", "cli.main", _SPAN),
)

# layer modules the CLI reaches through its own attributes; public
# functions looked up there become spans unless already wrapped above
CLI_PROXIES = ("spectrum", "wavefunction", "oracle")

# spans whose result size is worth recording
_ITEMS = {
    "oracle.eigen_lowest": lambda result: len(result.epsilons),
}


class Recorder:
    """In-memory spans and counters, fed by the wrappers it installs."""

    def __init__(self):
        self.op = -1
        self.spans = []
        self.counts = {}
        self._frames = []  # [child_ns, span_id or None, name] per open call
        self._restore = []
        self._hook = None

    def _open_span(self):
        for frame in reversed(self._frames):
            if frame[1] is not None:
                return frame
        return None

    def span(self, name, fn):
        frames = self._frames
        measure = _ITEMS.get(name)

        def traced(*args, **kwargs):
            parent = self._open_span()
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id in start order
            frame = [0, span_id, name]
            frames.append(frame)
            error = None
            items = 0
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    items = measure(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                frames.pop()
                if frames:
                    frames[-1][0] += end - start
                self.spans[span_id] = (
                    span_id, self.op, name, start, end,
                    None if parent is None else parent[1],
                    end - start - frame[0], error, items,
                )

        traced.perfbench_wrapped = True
        return traced

    def counted(self, name, fn):
        frames = self._frames
        counts = self.counts

        def traced(*args, **kwargs):
            frame = [0, None, name]
            frames.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - start
                frames.pop()
                if frames:
                    frames[-1][0] += duration
                parent = self._open_span()
                key = (parent[2] if parent else "", name)
                entry = counts.get(key)
                if entry is None:
                    entry = counts[key] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]

        traced.perfbench_wrapped = True
        return traced

    def tally(self, name, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            parent = self._open_span()
            key = (parent[2] if parent else "", name)
            entry = counts.get(key)
            if entry is None:
                entry = counts[key] = [0, 0, 0]
            entry[0] += 1
            return fn(*args, **kwargs)

        traced.perfbench_wrapped = True
        return traced

    # --- installation ------------------------------------------------------

    def _patch_module(self, module):
        kinds = {_SPAN: self.span, _COUNTED: self.counted, _TALLY: self.tally}
        for module_name, attr, name, kind in MODULE_WRAPPERS:
            if module_name != module.__name__ or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, kinds[kind](name, original))
        if module.__name__ == "deltaho.cli":
            for attr in CLI_PROXIES:
                target = getattr(module, attr, None)
                if isinstance(target, types.ModuleType):
                    self._restore.append((module, attr, target))
                    setattr(module, attr, _LayerProxy(self, target))

    def install(self):
        """Wrap the layers now, and any layer module imported later."""
        pending = {module_name for module_name, *_ in MODULE_WRAPPERS}
        for module_name in sorted(pending):
            module = sys.modules.get(module_name)
            if module is not None:
                self._patch_module(module)
                pending.discard(module_name)
        if pending:
            self._hook = _PatchOnImport(pending, self._patch_module)
            sys.meta_path.insert(0, self._hook)

    def uninstall(self):
        if self._hook is not None:
            sys.meta_path.remove(self._hook)
            self._hook = None
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def dump(self):
        return {
            "spans": [list(s) for s in self.spans if s is not None],
            "counts": [[parent, name] + entry for (parent, name), entry in sorted(self.counts.items())],
        }


class _LayerProxy:
    """Stands in for a layer module inside the CLI; public functions become spans."""

    def __init__(self, recorder, module):
        self._recorder = recorder
        self._module = module
        self._wrapped = {}

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if (
            attr.startswith("_")
            or not isinstance(value, types.FunctionType)
            or getattr(value, "perfbench_wrapped", False)
        ):
            return value
        cached = self._wrapped.get(attr)
        if cached is None or cached[0] is not value:
            short = self._module.__name__.rpartition(".")[2]
            cached = (value, self._recorder.span(f"{short}.{attr}", value))
            self._wrapped[attr] = cached
        return cached[1]


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Applies the wrappers to a layer module as soon as it is imported."""

    def __init__(self, names, patch):
        self._names = names
        self._patch = patch

    def find_spec(self, name, path=None, target=None):
        if name not in self._names:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                spec.loader = _PatchingLoader(spec.loader, self._patch)
                return spec
        return None


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, inner, patch):
        self._inner = inner
        self._patch = patch

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module):
        self._inner.exec_module(module)
        self._patch(module)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


# --- per-layer metrics -------------------------------------------------------

# name -> unit, in report order
LAYER_METRICS = {
    "specfun.gamma.calls_per_op": "count",
    "specfun.gamma.us_per_call": "us",
    "specfun.kummer_u_half.calls_per_op": "count",
    "specfun.kummer_u_half.us_per_call": "us",
    "specfun.hermite.us_per_call": "us",
    "spectrum.full_spectrum.self_ms": "ms",
    "spectrum.roots_per_op": "count",
    "spectrum.evals_per_root": "count",
    "spectrum.us_per_root": "us",
    "spectrum.raised.OverflowError": "ratio",
    "spectrum.raised.BracketError": "ratio",
    "spectrum.raised.ConvergenceError": "ratio",
    "spectrum.raised.other": "ratio",
    "wavefunction.sample_state.self_ms": "ms",
    "wavefunction.points_per_state": "count",
    "wavefunction.normalize_attempts_per_state": "count",
    "wavefunction.us_per_point": "us",
    "oracle.eigen_lowest.self_ms": "ms",
    "oracle.count_below.calls_per_eigenvalue": "count",
    "oracle.count_below.us_per_call": "us",
    "oracle.build_hamiltonian.ms": "ms",
    "cli.python_startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.numpy_loaded_ratio": "ratio",
    "cli.main.self_ms": "ms",
    "cli.solve_ms": "ms",
    "cli.table_ms": "ms",
    "cli.units_ms": "ms",
    "cli.eq-solution_ms": "ms",
    "cli.nu-vs-g_ms": "ms",
    "cli.wavefunctions_ms": "ms",
    "trace.overhead_ms": "ms",
}

_KNOWN_ERRORS = ("OverflowError", "BracketError", "ConvergenceError")
# spans that find roots: the benchmark's and the CLI's entry points
_ROOT_SPANS = ("spectrum.full_spectrum", "spectrum.solve_even")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(dumps, n_ops):
    """Per-layer figures from one or more recorder dumps covering n_ops operations.

    Returns values for the span- and counter-derived names in LAYER_METRICS;
    the CLI start-up, per-command and overhead figures come from the caller.
    """
    spans = {}
    counts = {}
    for dump in dumps:
        for _id, _op, name, start, end, _parent, self_ns, error, items in dump["spans"]:
            agg = spans.setdefault(name, {"calls": 0, "total": 0, "self": 0, "items": 0, "errors": {}})
            agg["calls"] += 1
            agg["total"] += end - start
            agg["self"] += self_ns
            agg["items"] += items
            if error is not None:
                agg["errors"][error] = agg["errors"].get(error, 0) + 1
        for _parent, name, calls, total, self_ns in dump["counts"]:
            agg = counts.setdefault(name, [0, 0, 0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_ns

    def span(name):
        return spans.get(name, {"calls": 0, "total": 0, "self": 0, "items": 0, "errors": {}})

    def count(name):
        return counts.get(name, [0, 0, 0])

    gamma_calls = count("specfun.reciprocal_gamma")[0] + count("specfun.log_gamma")[0]
    gamma_ns = count("specfun.reciprocal_gamma")[1] + count("specfun.log_gamma")[1]
    root_gamma_calls = sum(
        calls
        for dump in dumps
        for parent, name, calls, _total, _self in dump["counts"]
        if parent in _ROOT_SPANS and name in ("specfun.reciprocal_gamma", "specfun.log_gamma")
    )
    kummer = count("specfun.kummer_u_half")
    hermite = count("specfun.hermite")
    roots = count("spectrum.refine_root")[0]
    full = span("spectrum.full_spectrum")
    root_ns = sum(span(name)["total"] for name in _ROOT_SPANS)
    sample = span("wavefunction.sample_state")
    points = count("wavefunction.eval_even")[0] + count("wavefunction.eval_odd")[0]
    lowest = span("oracle.eigen_lowest")
    below = count("oracle.count_below")
    build = span("oracle.build_hamiltonian")
    main = span("cli.main")
    other_errors = sum(n for e, n in full["errors"].items() if e not in _KNOWN_ERRORS)

    out = {
        "specfun.gamma.calls_per_op": _ratio(gamma_calls, n_ops),
        "specfun.gamma.us_per_call": _ratio(gamma_ns / 1e3, gamma_calls),
        "specfun.kummer_u_half.calls_per_op": _ratio(kummer[0], n_ops),
        "specfun.kummer_u_half.us_per_call": _ratio(kummer[1] / 1e3, kummer[0]),
        "specfun.hermite.us_per_call": _ratio(hermite[1] / 1e3, hermite[0]),
        "spectrum.full_spectrum.self_ms": _ratio(full["self"] / 1e6, full["calls"]),
        "spectrum.roots_per_op": _ratio(roots, n_ops),
        # both forms of the eigen condition make two Gamma-family calls
        "spectrum.evals_per_root": _ratio(root_gamma_calls / 2, roots),
        "spectrum.us_per_root": _ratio(root_ns / 1e3, roots),
        "spectrum.raised.other": _ratio(other_errors, full["calls"]),
        "wavefunction.sample_state.self_ms": _ratio(sample["self"] / 1e6, sample["calls"]),
        "wavefunction.points_per_state": _ratio(points, sample["calls"]),
        "wavefunction.normalize_attempts_per_state": _ratio(
            span("wavefunction.normalize")["calls"], sample["calls"]
        ),
        "wavefunction.us_per_point": _ratio(sample["total"] / 1e3, points),
        "oracle.eigen_lowest.self_ms": _ratio(lowest["self"] / 1e6, lowest["calls"]),
        "oracle.count_below.calls_per_eigenvalue": _ratio(below[0], lowest["items"]),
        "oracle.count_below.us_per_call": _ratio(below[1] / 1e3, below[0]),
        "oracle.build_hamiltonian.ms": _ratio(build["total"] / 1e6, build["calls"]),
        "cli.main.self_ms": _ratio(main["self"] / 1e6, main["calls"]),
    }
    for error in _KNOWN_ERRORS:
        out[f"spectrum.raised.{error}"] = _ratio(full["errors"].get(error, 0), full["calls"])
    return out

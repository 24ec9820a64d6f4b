"""Traced stand-in for `python -m deltaho`, used by the cli-light traced run.

    python perfbench/cli_child.py TRACE_OUT -- <deltaho arguments>

Installs the layer wrappers of tracing.py before the package is imported,
times `import deltaho.cli`, runs `cli.main` under the wrappers, and writes
the spans, the import time and whether numpy got loaded to TRACE_OUT.
The exit status is that of `cli.main`.
"""

import json
import sys
import time

import tracing


def main():
    trace_out, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: cli_child.py TRACE_OUT -- <deltaho arguments>")
    recorder = tracing.Recorder()
    recorder.install()
    start = time.perf_counter_ns()
    import deltaho.cli

    import_ns = time.perf_counter_ns() - start
    recorder.op = 0
    try:
        return deltaho.cli.main(argv)
    finally:
        dump = recorder.dump()
        dump["import_ns"] = import_ns
        dump["numpy_loaded"] = "numpy" in sys.modules
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(dump, handle)


if __name__ == "__main__":
    sys.exit(main())

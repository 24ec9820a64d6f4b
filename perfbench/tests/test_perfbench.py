"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def first_inputs(name, seed, count, tmp_path):
    checkout = run.Checkout(ROOT)
    checkout.work = tmp_path
    rng = random.Random(seed)
    workload = workloads.WORKLOADS[name](checkout, rng)
    inputs = list(itertools.islice((inp for unit in workload.inputs(rng) for inp in unit), count))
    return getattr(workload, "variants", None), inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    assert first_inputs(name, 7, 100, tmp_path) == first_inputs(name, 7, 100, tmp_path)
    assert first_inputs(name, 7, 100, tmp_path) != first_inputs(name, 8, 100, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_run_size_is_set_by_seconds_not_by_speed(name, tmp_path):
    def plan():
        checkout = run.Checkout(ROOT)
        checkout.work = tmp_path
        rng = random.Random(5)
        workload = workloads.WORKLOADS[name](checkout, rng)
        return workload, run.planned_inputs(workload, rng, 20.0)

    workload, inputs = plan()
    assert plan()[1] == inputs
    unit = len(next(workload.inputs(random.Random(0))))
    assert len(inputs) == max(1, round(20.0 / workload.unit_seconds)) * unit


def test_stratified_blocks_cover_every_stratum():
    rng = random.Random(1)
    points = workloads.stratified(rng, 16)
    assert sorted(int(p * 16) for p in points) == list(range(16))


@pytest.mark.parametrize("name", ["spectra", "eigenstates"])
def test_same_seed_same_fail_ratio_traced_or_not(name):
    ops = "120" if name == "spectra" else "41"
    plain = [result_of(bench("--workload", name, "--seed", "3", "--ops", ops)) for _ in range(2)]
    traced = result_of(bench("--workload", name, "--seed", "3", "--ops", ops, "--trace", "1"))
    counts = [(r["attempted"], r["failed"]) for r in plain + [traced]]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0][0] == int(ops)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_workload(name):
    result = result_of(bench("--workload", name, "--seed", "1", "--ops", "2"))
    assert result["attempted"] == 2
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = result_of(bench("--workload", "cli-light", "--seed", "1", "--ops", "20", "--trace", "1"))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == tracing.LAYER_METRICS
    for name in ("cli.import_ms", "cli.python_startup_ms", "cli.solve_ms", "cli.wavefunctions_ms",
                 "spectrum.roots_per_op", "wavefunction.points_per_state"):
        assert metrics[name]["value"] > 0, name


def test_refuses_to_run_without_the_package(tmp_path):
    proc = bench("--workload", "spectra", "--seed", "1", "--ops", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_recorder_self_time_excludes_nested_calls():
    recorder = tracing.Recorder()

    def leaf():
        time.sleep(0.002)

    counted_leaf = recorder.counted("leaf", leaf)

    def outer():
        time.sleep(0.002)
        counted_leaf()
        counted_leaf()

    recorder.span("outer", outer)()
    (span,) = recorder.dump()["spans"]
    _id, _op, name, start, end, parent, self_ns, error, _items = span
    assert (name, parent, error) == ("outer", None, None)
    (count,) = recorder.dump()["counts"]
    assert count[:3] == ["outer", "leaf", 2]
    assert self_ns == pytest.approx(end - start - count[3], abs=1)
    assert 0 < self_ns < end - start


def test_tail_takes_highest_rung_with_ten_beyond():
    lat = list(range(1, 201))  # 200 samples
    assert run.tail(lat) == (95.0, pytest.approx(190.05), 10)
    assert run.tail(lat[:39]) == (75.0, pytest.approx(29.5), 10)
    assert run.tail(lat[:25]) == (50.0, 13, 12)

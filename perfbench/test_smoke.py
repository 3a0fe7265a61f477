"""Smoke test of the benchmark at reduced size.

    python3 -m pytest -q perfbench

Runs every workload once untraced and once traced through the real
command line, checks that every metric of BENCHMARK.json is reported
with its unit, that a falsified reference is counted as a failure, that
the host-speed calibration rescales a timing by the units nearest to it,
and that the benchmark refuses to report without the program beside it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

SEED = 1
DETERMINISTIC_COUNTS = (
    "gauge.fix_gauge.passes",
    "flow.minimize.iters",
    "flow.line_search.energy_evals",
)


def _bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(workload, trace, *extra):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", str(trace), "--scale", "smoke", *extra)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: _result(w, 1) for w in bench.WORKLOADS}


def _units(kind):
    return {m["name"]: m["unit"] for m in bench.SPEC[kind]}


def _check_shape(result, kind):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(kind)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _result(workload, 0)
    _check_shape(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_calibration_rescales_by_the_nearest_units():
    cal = bench.Calibration(0.5)
    ref = bench.REFERENCE_UNIT_S
    # units ending at 1..60 s: four times the reference time, then a quarter of it
    cal.ends = [float(i) for i in range(1, 61)]
    cal.times = [4.0 * ref] * 30 + [0.25 * ref] * 30
    slow, fast = SimpleNamespace(seconds=1.0, end=5.5), SimpleNamespace(seconds=1.0, end=55.5)
    assert cal.rescale([slow, fast]) == [pytest.approx(0.5), pytest.approx(2.0)]
    cal.keep_up(0.0, minimum=1)
    assert len(cal.times) == 61 and cal.times[-1] > 0


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_per_layer_metrics(workload, traced):
    _check_shape(traced[workload], "per_layer")
    values = {k: m["value"] for k, m in traced[workload]["metrics"].items()}
    assert values["trace.overhead_ratio"] > 0
    busy = {mod for mod in bench.MODULES if values[f"{mod}.self_s"] > 0}
    assert busy, "tracer saw no fdvk calls"
    assert os.path.exists(os.path.join(bench.OUT, f"trace-{workload}-seed{SEED}.jsonl"))


def test_counts_repeat(traced):
    for workload in ("relax", "gauge"):
        again = _result(workload, 1)["metrics"]
        for name in DETERMINISTIC_COUNTS:
            assert again[name]["value"] == traced[workload]["metrics"][name]["value"], name


def test_every_module_is_traced(traced):
    busy = set()
    for result in traced.values():
        busy |= {mod for mod in bench.MODULES
                 if result["metrics"][f"{mod}.self_s"]["value"] > 0}
    assert busy == set(bench.MODULES)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_corrupted_reference_is_a_failure(workload):
    result = _result(workload, 0, "--corrupt-reference")
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_spec_file_is_current():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == bench.SPEC


def test_refuses_without_program():
    os.makedirs(bench.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=bench.OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _bench("--workload", "relax", "--seed", str(SEED), "--seconds", "1",
                      "--trace", "0", cwd=bare,
                      script=os.path.join(bare, "perfbench", "run.py"))
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)

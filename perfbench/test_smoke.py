"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 -m pytest -q perfbench/test_smoke.py

Runs one untraced and one traced pass of every workload's code path through
the gate, checks that the gate catches a drifted number, that the metric
names agree with BENCHMARK.json, and that the benchmark refuses to run
without the package sources.
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run

run._cap_blas_threads()
run._load_package()

from gate import Tally  # noqa: E402  (needs the package on the path)
from workloads import WORKLOADS, CliRun, Workload  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def work_dir():
    path = run.RUNS_DIR / "smoke"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_passes_gate_and_reports_every_layer(name, work_dir):
    tally, walls, cpus, values, spans = run.measure(
        Workload(name, seed=0, tiny=True), run.load_reference(), work_dir, 0.0, trace=True
    )
    assert tally.attempted >= 1 and tally.failed == 0, tally.failures
    assert len(walls) == 1 and walls[0] > 0 and cpus[0] > 0
    assert sorted(values) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(run.per_layer_unit(k) == units[k] for k in values)
    # self times of the traced pass add up to its wall time
    self_total = sum(v for k, v in values.items()
                     if k.endswith(".self_s")) + values["bench.unattributed_s"]
    assert self_total == pytest.approx(values["trace.traced_wall_s"], rel=1e-6)
    assert spans[0][0] == "bench.pass"


def test_gate_flags_drift_beyond_rtol(work_dir):
    op = CliRun("PsrSinglePhoton", 0, 0)
    exit_code, out = op.execute(work_dir)
    ref = copy.deepcopy(run.load_reference()[op.label])
    ref["sha256"]["report.json"] = "differs"  # force the numeric comparison

    tally = Tally()
    tally.check_cli(op.label, ref, exit_code, out)
    assert tally.failed == 0

    ref["summary"]["/report/nbar_total"][1] *= 1.0 + 1e-8
    tally.check_cli(op.label, ref, exit_code, out)
    assert tally.failed == 1 and tally.incorrect


def test_benchmark_file_matches_the_untraced_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s"]


def test_refuses_to_run_without_sources():
    bare = run.RUNS_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper-suite", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""

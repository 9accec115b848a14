"""The benchmark's output contract: its last stdout line is one strict-JSON result.

Anything the package prints to stdout during a run, or a metric that is not
finite, breaks the line a benchmark driver parses.  The run also applies the
workload's own checks: on ``trajectory`` every ``simulate`` run is replayed
with DOP853 (``bench/reference.py``), so a wrong RK4 step shows up here, and
on ``scan`` every verdict is checked against the certified demand interval.
A traced run (``--trace 1``) wraps the package's public functions and reports
the per-layer metrics instead, so a change to those functions shows up there.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from faultroute.cli import SCAN_GRID
from faultroute.stability import BISECT_TOL, STRICT_DRIFT

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError(f"non-finite metric {constant} in the result line")


def _run_and_check(workload: str, trace: str, declared_key: str) -> None:
    """One 1-second run at seed 1: exit 0, a strict-JSON last line, no failures, the declared metrics."""
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[declared_key]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", ["curves", "scan", "trajectory", "certify"])
def test_run_prints_a_strict_json_result(workload):
    _run_and_check(workload, "0", "end_to_end")


@pytest.mark.parametrize("workload", ["certify", "curves"])
def test_traced_run_reports_every_layer_metric(workload):
    _run_and_check(workload, "1", "per_layer")


def test_bench_restates_the_package_bracket_width(monkeypatch):
    # the certify and curves checks accept an upper up to BISECT_TOL above the
    # reference flip; a width that drifted from the package's would loosen or break them
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    assert importlib.import_module("workloads").BISECT_TOL == BISECT_TOL


def test_bench_restates_the_package_drift_margin(monkeypatch):
    # the reference re-checks witnesses below -STRICT_DRIFT; another margin would pass or fail other witnesses
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    assert importlib.import_module("reference").STRICT_DRIFT == STRICT_DRIFT


def test_bench_scans_the_cli_default_grid(monkeypatch):
    # the scan workload stands for `faultroute scan` without an eta_grid
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    assert importlib.import_module("workloads").SCAN_GRID == SCAN_GRID

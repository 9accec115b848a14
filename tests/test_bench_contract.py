"""The benchmark's output contract: its last stdout line is one strict-JSON result.

Anything the package prints to stdout during a run, or a metric that is not
finite, breaks the line a benchmark driver parses.  The run also applies the
workload's own checks: on ``trajectory`` every ``simulate`` run is replayed
with DOP853 (``bench/reference.py``), so a wrong RK4 step shows up here, and
on ``scan`` every verdict is checked against the certified demand interval.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError(f"non-finite metric {constant} in the result line")


@pytest.mark.parametrize("workload", ["curves", "scan", "trajectory"])
def test_run_prints_a_strict_json_result(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
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
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))

"""Smoke tests of the benchmark itself, at tiny input sizes.

    python -m pytest perfbench/smoke.py -q

Not collected by the repository's own test run (the file name does not
match ``test_*.py``); it takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.obs.trace import load_events, validate_events  # noqa: E402


def run_tiny(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    completed = run_tiny(workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace:
        assert result["metrics"]["layers.coverage"]["value"] >= 0.9
        events = load_events(str(ROOT / ".perfbench_out" / f"trace-{workload}-seed3.jsonl"))
        validate_events(events)
    else:
        assert all(result["metrics"][metric["name"]]["value"] > 0 for metric in expected)


def test_mismatched_fingerprint_fails_the_gate(monkeypatch, capsys):
    original = workloads.execute_request

    def tampered(request, *args, **kwargs):
        result = original(request, *args, **kwargs)
        if request.engine == "reference":
            result.stats.events["coherence.remaps"] = (
                result.stats.events.get("coherence.remaps", 0) + 1
            )
        return result

    monkeypatch.setattr(workloads, "execute_request", tampered)
    code = run.main(["--workload", "resident", "--seed", "3", "--seconds", "0.1",
                     "--tiny"])
    output = capsys.readouterr().out
    assert code == 1
    assert "FAILED" in output and "reference engine == default engine" in output
    assert json.loads(output.strip().splitlines()[-1])["correct"] is False


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_tiny("thrash", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout

"""The benchmark's own tests. From the repository root:

    python3 -m pytest perfbench/selftest.py

They check that the gate catches corrupted outputs, that workload inputs
are a pure function of the seed, that the tracer reports names it cannot
find, and that a smoke-size run of every workload passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import diffbeam.solver  # noqa: E402
import gate  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_inputs_are_a_pure_function_of_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7, tmp_path / "a" / name)
        again = workloads.generate(name, 7, tmp_path / "b" / name)
        other = workloads.generate(name, 8, tmp_path / "c" / name)
        assert workloads.input_digest(first) == workloads.input_digest(again)
        assert workloads.input_digest(first) != workloads.input_digest(other)
        assert [c.argv[0] for c in first.calls] == [c.argv[0] for c in other.calls]


def test_gate_catches_a_corrupted_filter_weight(tmp_path):
    call = workloads.generate("design", 3, tmp_path, tiny=True).calls[0]
    assert call.expect["refused_at_hz"] is None
    outcome = harness.invoke(call)
    gate.check_design(call, outcome.rc, outcome.stderr)

    path = call.out / "filter.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[3].split(",")
    cells[5] = repr(float(cells[5]) * (1.0 + 1e-6))
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(gate.GateError, match="modal residual"):
        gate.check_design(call, 0, "")


def test_gate_catches_an_unplanned_or_missing_refusal(tmp_path):
    inputs = workloads.generate("design", 3, tmp_path, tiny=True)
    refused = next(c for c in inputs.calls if c.expect["refused_at_hz"] is not None)
    outcome = harness.invoke(refused)
    gate.check_design(refused, outcome.rc, outcome.stderr)
    refused.expect["refused_at_hz"] = None
    with pytest.raises(gate.GateError, match="exit code 1"):
        gate.check_design(refused, outcome.rc, outcome.stderr)

    accepted = inputs.calls[0]
    outcome = harness.invoke(accepted)
    accepted.expect["refused_at_hz"] = 50.0
    with pytest.raises(gate.GateError, match="expected a rank-gate refusal"):
        gate.check_design(accepted, outcome.rc, outcome.stderr)


def test_gate_catches_a_byte_changed_montecarlo_csv(tmp_path):
    call = workloads.generate("montecarlo", 3, tmp_path, tiny=True).calls[0]
    checker = gate.Gate()
    checker.check(call, *_run(call))
    checker.check(call, *_run(call))

    path = call.out / "wng_stats.csv"
    data = bytearray(path.read_bytes())
    last_digit = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    with pytest.raises(gate.GateError, match="differ from the first call"):
        checker.check(call, 0, "")


def _run(call):
    outcome = harness.invoke(call)
    return outcome.rc, outcome.stderr


def test_tracer_restores_the_package_and_reports_unmapped_names(monkeypatch):
    missing = "diffbeam.solver:no_such_function"
    monkeypatch.setitem(spans.SPAN_MAP, "solver", spans.SPAN_MAP["solver"] + (missing,))
    original = diffbeam.solver.design_filter
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert diffbeam.solver.design_filter is not original
    finally:
        tracer.uninstall()
    assert diffbeam.solver.design_filter is original
    assert tracer.unmapped == [missing]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    expected = (
        {name: unit for name, unit, _ in spans.PER_LAYER}
        if trace
        else dict(harness.END_TO_END)
    )
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "design", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(
        spans.PER_LAYER
    )
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)

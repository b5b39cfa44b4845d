"""Smoke test for the benchmark: a few ops per workload, every metric
named in BENCHMARK.json emitted with its unit.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd, workload, trace, smoke=True):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "1", "--seconds", str(BENCH["run_seconds"]),
                              "--trace", str(trace)] + (["--smoke"] if smoke else [])
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert math.isfinite(metric["value"]), spec["name"]
    m = {name: v["value"] for name, v in result["metrics"].items()}
    if trace:
        # each workload stresses the layers it claims to
        assert m["trace.self_coverage"] >= 0.9
        if workload == "train-static":
            assert m["train.regen_share"] == 0.0 and m["train.adamw_step.calls"] > 0
        if workload == "train-resample":
            assert m["train.regen_share"] > 0.5
        if workload == "ship":
            assert m["numerics.backward.ms"] == 0.0 and m["train.adamw_step.calls"] == 0.0
            assert all(m[f"initfam.ns_per_entry.{w}"] > 0 for w in
                       ("normal", "orthogonal", "spectral_radius", "student_t"))
    else:
        assert m["ops_ok_frac"] == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

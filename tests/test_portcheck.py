"""Smoke test for ``scripts/portcheck.py``, the cross-kernel scaffold check."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "portcheck.py")
# kernels every x86-64 CPU can run
CONFIGS = ("Nehalem:1", "Prescott:2")


def load_portcheck():
    spec = importlib.util.spec_from_file_location("portcheck", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_portcheck_runs_two_families_under_two_kernels():
    result = subprocess.run([sys.executable, SCRIPT, "--seeds", "1", "--families", "normal,orthogonal",
                             "--presets", "tiny", "--configs", ",".join(CONFIGS)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode in (0, 1), result.stderr
    report = json.loads(result.stdout)
    names = [config.replace(":", "/") for config in CONFIGS]
    assert report["reference"] == names[0] and list(report["configs"]) == names
    assert all("error" not in outcome for outcome in report["configs"].values()), report["configs"]
    if report["configs"][names[0]]["core"] is None:
        pytest.skip("the BLAS exposes no core name, so a kernel switch cannot be confirmed")
    assert report["configs"][names[0]]["core"] == "Nehalem"
    # a stream-only family draws the same bits under any kernel
    assert set(report["differ"]) <= {"orthogonal"}
    assert result.returncode == (1 if report["differ"] else 0)


def test_compare_names_each_moved_draw_against_the_first_configuration():
    portcheck = load_portcheck()
    reference = {"hashes": {"normal": {"tiny seed 1 layer 0": "a"}, "orthogonal": {"tiny seed 1 layer 0": "b"}}}
    same = {"hashes": {"normal": {"tiny seed 1 layer 0": "a"}, "orthogonal": {"tiny seed 1 layer 0": "b"}}}
    moved = {"hashes": {"normal": {"tiny seed 1 layer 0": "a"}, "orthogonal": {"tiny seed 1 layer 0": "c"}}}
    differ = portcheck.compare(["A/1", "B/1", "C/2", "D/1"], [reference, same, moved, {"error": "boom"}])
    assert differ == {"orthogonal": {"C/2": ["tiny seed 1 layer 0"]}}


def test_portcheck_refuses_a_malformed_configuration():
    result = subprocess.run([sys.executable, SCRIPT, "--configs", "Haswell"], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 2 and "CORETYPE:THREADS" in result.stderr

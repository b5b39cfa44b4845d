"""Smoke test for ``scripts/bitcheck.py``, the parent-comparison digest."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bitcheck.py")


def bitcheck(src):
    return subprocess.run([sys.executable, SCRIPT, "--src", src], capture_output=True, text=True, timeout=300)


def test_bitcheck_prints_one_stable_digest_over_the_case_grid():
    runs = [bitcheck(os.path.join(ROOT, "src")) for _ in range(2)]
    assert all(r.returncode == 0 for r in runs), runs[0].stderr
    lines = runs[0].stdout.splitlines()
    assert re.fullmatch(r"digest [0-9a-f]{64}", lines[-1])
    cases = [line.split("  ", 1)[1] for line in lines[:-1]]
    assert len(cases) == len(set(cases)) == 133
    assert sum(c.startswith("train ") for c in cases) == 42
    train_lines = [c.rsplit(" ", 1) for c in cases if c.startswith("train ")]
    assert [part for _, part in train_lines] == ["trajectory", "shipped"] * 21
    assert [name for name, _ in train_lines[::2]] == [name for name, _ in train_lines[1::2]]
    assert sum(c.startswith("seedgate ") for c in cases) == 2
    assert [c for c in cases if c.startswith("eval ")][-1] == "eval n=2048"
    assert sum(c.startswith("family ") for c in cases) == 44
    assert sum(c.startswith("gaussian ") for c in cases) == 24
    assert sum(c.startswith("student_t ") for c in cases) == 9
    assert sum(c.startswith("orthogonal ") for c in cases) == 3
    assert runs[1].stdout == runs[0].stdout


def test_bitcheck_refuses_a_directory_without_the_package(tmp_path):
    result = bitcheck(str(tmp_path))
    assert result.returncode == 2 and "no lottalora package" in result.stderr

"""``scripts/bitcheck.py``, the parent-comparison digest, and its
committed output: ``tests/fixtures/bitcheck`` holds one file per fixture
key (numpy, BLAS, kernel and zlib versions), the lines the grid printed
there when the file was written."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bitcheck.py")
FIXTURES = os.path.join(ROOT, "tests", "fixtures", "bitcheck")
# the BLAS's own pick (None), then each kernel a fixture names; a key is
# numpy-<v>_<blas>-<v>_<core>_zlib-<v>
CORES = (None, *sorted({name.rsplit("_", 2)[1] for name in os.listdir(FIXTURES)}))


def bitcheck(src, core=None, *flags):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    args = [sys.executable, SCRIPT, *flags] + (["--src", src] if src else [])
    return subprocess.run(args, capture_output=True, text=True, timeout=300, env=env)


def test_bitcheck_prints_one_stable_digest_over_the_case_grid():
    runs = [bitcheck(os.path.join(ROOT, "src")) for _ in range(2)]
    assert all(r.returncode == 0 for r in runs), runs[0].stderr
    lines = runs[0].stdout.splitlines()
    assert re.fullmatch(r"digest [0-9a-f]{64}", lines[-1])
    cases = [line.split("  ", 1)[1] for line in lines[:-1]]
    assert len(cases) == len(set(cases)) == 149
    assert sum(c.startswith("train ") for c in cases) == 46
    train_lines = [c.rsplit(" ", 1) for c in cases if c.startswith("train ")]
    assert [part for _, part in train_lines] == ["trajectory", "shipped"] * 23
    assert [name for name, _ in train_lines[::2]] == [name for name, _ in train_lines[1::2]]
    assert cases.count("shipping grid adversarial") == 1
    assert sum(c.startswith("seedgate ") for c in cases) == 5
    assert [c for c in cases if c.startswith("eval ")][-1] == "eval n=1534"
    assert [c for c in cases if c.startswith("evaluate ")][-1] == "evaluate n=1534 view=0"
    assert sum(c.startswith("evaluate ") for c in cases) == 6
    assert sum(c.startswith("family ") for c in cases) == 44
    assert sum(c.startswith("gaussian ") for c in cases) == 24
    assert sum(c.startswith("student_t ") for c in cases) == 9
    assert sum(c.startswith("orthogonal ") for c in cases) == 3
    assert cases[-2:] == ["trained v4 fixture probe n=64", "pack built ln=1 lora_bias shipped"]
    assert runs[1].stdout == runs[0].stdout


def test_bitcheck_refuses_a_directory_without_the_package(tmp_path):
    result = bitcheck(str(tmp_path))
    assert result.returncode == 2 and "no lottalora package" in result.stderr


@pytest.mark.parametrize("core", CORES, ids=lambda core: core or "default")
def test_bitcheck_prints_the_committed_lines_of_its_fixture_key(core):
    key = bitcheck(None, core, "--key")
    assert key.returncode == 0, key.stderr
    key = key.stdout.strip()
    path = os.path.join(FIXTURES, key + ".txt")
    if not os.path.exists(path):
        pytest.skip(f"no bitcheck fixture for the key {key}")
    result = bitcheck(os.path.join(ROOT, "src"), core)
    assert result.returncode == 0, result.stderr
    with open(path, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = result.stdout.splitlines()
    assert len(got) == len(want) == 150
    moved = [line.split("  ", 1)[-1] for line, old in zip(got, want) if line != old]
    assert not moved, f"lines that moved under {key}: {moved}"

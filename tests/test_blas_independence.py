"""The stream-only init families draw the same bits under any BLAS kernel.

Two child processes hash ``draw_matrix`` for every family at every
``medium`` layer shape, seeds 1 and 2: one under the default OpenBLAS
kernel on one thread, one under ``OPENBLAS_CORETYPE=Haswell`` on two.
Each child reports the kernel its BLAS runs, so the test knows the switch
took.  ``orthogonal`` (LAPACK QR) and ``spectral_radius`` (LAPACK SVD) are
platform-bound: their scaffolds can move by an ulp with the kernel or the
thread count (ROADMAP, "v1 is not bit-exact across BLAS builds"), so they
are not compared here.  The shapes and seeds are the preset's and the
first two, not picked to pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lottalora.initfam import FAMILY_NAMES

SRC = Path(__file__).resolve().parents[1] / "src"
PLATFORM_BOUND = ("orthogonal", "spectral_radius")
STREAM_ONLY = [name for name in FAMILY_NAMES if name not in PLATFORM_BOUND]
SEEDS = (1, 2)

CHILD = """
import ctypes, hashlib, json, sys
from lottalora.initfam import InitFamily, draw_matrix
from lottalora.model import ModelConfig
from lottalora.prng import DrawKind, derive_stream

def blas_core():
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None

hashes = {}
for name in json.loads(sys.argv[1]):
    digest = hashlib.sha256()
    for seed in json.loads(sys.argv[2]):
        for i, (d_out, d_in) in enumerate(ModelConfig(preset="medium").layer_shapes()):
            stream = derive_stream(seed, i, DrawKind.BACKBONE_WEIGHT)
            digest.update(draw_matrix(stream, InitFamily(name), d_out, d_in).data.tobytes())
    hashes[name] = digest.hexdigest()
print(json.dumps({"core": blas_core(), "hashes": hashes}))
"""


def draw_in_child(threads: int, coretype: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "OMP_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    result = subprocess.run([sys.executable, "-c", CHILD, json.dumps(STREAM_ONLY), json.dumps(SEEDS)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_stream_only_families_hash_the_same_under_two_kernels_and_thread_counts():
    assert len(STREAM_ONLY) == 20 and set(PLATFORM_BOUND) <= set(FAMILY_NAMES)
    default = draw_in_child(1, None)
    if default["core"] is None:
        pytest.skip("the BLAS exposes no core name, so a kernel switch cannot be confirmed")
    haswell = draw_in_child(2, "Haswell")
    assert haswell["core"] == "Haswell"
    assert sorted(default["hashes"]) == sorted(STREAM_ONLY)
    moved = [name for name in STREAM_ONLY if default["hashes"][name] != haswell["hashes"][name]]
    assert moved == [], f"scaffolds differ between {default['core']}/1 thread and Haswell/2 threads"
